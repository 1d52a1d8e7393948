//! Idempotency tokens and the bounded dedup window that replays their
//! cached answers.
//!
//! A client that never saw its `UpdateOk` cannot know whether the write
//! landed (`docs/DURABILITY.md`, "the unknown-outcome window"). Blind
//! resubmission is unsafe because replaying a batch is not idempotent
//! (`InsertVertex` mints a fresh vertex every time it applies). The fix is
//! the classic one: the client stamps every update with a [`WriteToken`]
//! (its `client_id` plus a per-client `write_seq`), the transactor keeps a
//! bounded [`DedupWindow`] from token to the [`UpdateReport`] it answered
//! with, and a resubmitted token **replays the cached report** instead of
//! re-applying the batch. The token rides inside the logged record (see
//! [`DeltaLog::append_tokened`](crate::DeltaLog::append_tokened)), so the
//! window can be reseeded after a crash and dedup survives recovery.
//!
//! The window is bounded FIFO: once `capacity` distinct tokens are held, the
//! oldest is evicted to admit the next. A token resubmitted *after* its
//! eviction is treated as a fresh write — the bound is the price of bounded
//! memory, and `docs/DURABILITY.md` spells out how to size it.

use acq_core::{UpdateReport, WriteToken};
use std::collections::{HashMap, VecDeque};

/// Bounded FIFO map from applied [`WriteToken`]s to the report each was
/// acknowledged with. Single-owner by design: the transactor thread holds
/// it, so lookup-then-record is atomic without a lock.
#[derive(Debug, Default)]
pub struct DedupWindow {
    capacity: usize,
    /// Insertion order, oldest first — the eviction queue.
    order: VecDeque<WriteToken>,
    replies: HashMap<WriteToken, UpdateReport>,
}

impl DedupWindow {
    /// A window holding at most `capacity` tokens (`0` disables dedup).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, order: VecDeque::new(), replies: HashMap::new() }
    }

    /// The report `token` was acknowledged with, if it is still in the
    /// window.
    pub fn get(&self, token: &WriteToken) -> Option<&UpdateReport> {
        self.replies.get(token)
    }

    /// Records an acknowledged write, evicting the oldest token when the
    /// window is full. Re-recording a token already present refreshes its
    /// report without consuming a slot.
    pub fn record(&mut self, token: WriteToken, report: UpdateReport) {
        if self.capacity == 0 {
            return;
        }
        if self.replies.insert(token, report).is_some() {
            return;
        }
        self.order.push_back(token);
        while self.order.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.replies.remove(&evicted);
            }
        }
    }

    /// Tokens currently held.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the window holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_core::UpdateStrategy;

    fn report(generation: u64) -> UpdateReport {
        UpdateReport {
            generation,
            deltas_applied: 1,
            strategy: UpdateStrategy::IncrementalStableSkeleton,
            subcore_touched: 0,
            touched_fraction: 0.0,
            cache_carried: 0,
            cache_dropped: 0,
        }
    }

    #[test]
    fn replays_recorded_tokens() {
        let mut window = DedupWindow::new(4);
        let token = WriteToken::new(1, 1);
        assert!(window.get(&token).is_none());
        window.record(token, report(2));
        assert_eq!(window.get(&token).map(|r| r.generation), Some(2));
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut window = DedupWindow::new(2);
        window.record(WriteToken::new(1, 1), report(2));
        window.record(WriteToken::new(1, 2), report(3));
        window.record(WriteToken::new(1, 3), report(4));
        assert_eq!(window.len(), 2);
        assert!(window.get(&WriteToken::new(1, 1)).is_none(), "oldest is evicted");
        assert!(window.get(&WriteToken::new(1, 2)).is_some());
        assert!(window.get(&WriteToken::new(1, 3)).is_some());
    }

    #[test]
    fn re_recording_refreshes_without_consuming_a_slot() {
        let mut window = DedupWindow::new(2);
        let token = WriteToken::new(7, 1);
        window.record(token, report(2));
        window.record(token, report(9));
        window.record(WriteToken::new(7, 2), report(3));
        assert_eq!(window.len(), 2, "the refresh did not burn a slot");
        assert_eq!(window.get(&token).map(|r| r.generation), Some(9));
    }

    #[test]
    fn zero_capacity_disables_dedup() {
        let mut window = DedupWindow::new(0);
        window.record(WriteToken::new(1, 1), report(2));
        assert!(window.get(&WriteToken::new(1, 1)).is_none());
        assert!(window.is_empty());
    }

    #[test]
    fn tokens_roundtrip_through_json() {
        let token = WriteToken::new(3, 11);
        let json = serde_json::to_string(&token).unwrap();
        assert_eq!(json, r#"{"client_id":3,"write_seq":11}"#);
        let back: WriteToken = serde_json::from_str(&json).unwrap();
        assert_eq!(back, token);
    }
}
