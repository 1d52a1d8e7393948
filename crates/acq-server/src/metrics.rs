//! Lock-free server counters behind the `Metrics` frame.
//!
//! [`ServerMetrics`] is the live, atomically updated half; a `Metrics` frame
//! snapshots it into the serde-able
//! [`ServerCounters`] /
//! [`MetricsSnapshot`](acq_metrics::serving::MetricsSnapshot) wire shapes
//! defined in `acq-metrics`.

use acq_metrics::serving::ServerCounters;
use acq_sync::sync::atomic::{AtomicU64, Ordering};

/// The server's cumulative counters. All methods are callable from any
/// thread; `Relaxed` ordering is enough because the counters are only ever
/// read as a monitoring snapshot, never used for synchronisation.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections the accept loop has taken.
    pub connections_accepted: AtomicU64,
    /// Connections currently being served.
    pub connections_open: AtomicU64,
    /// Frames decoded off client sockets.
    pub frames_received: AtomicU64,
    /// Frames written to client sockets.
    pub frames_sent: AtomicU64,
    /// Queries answered with a `QueryOk`.
    pub queries_served: AtomicU64,
    /// Queries answered with an `invalid-query` error.
    pub query_errors: AtomicU64,
    /// Batches handed to `execute_batch`.
    pub batches_executed: AtomicU64,
    /// Largest batch handed to `execute_batch`.
    pub max_batch: AtomicU64,
    /// Update batches acknowledged with an `UpdateOk`.
    pub updates_applied: AtomicU64,
    /// Individual deltas inside acknowledged batches.
    pub deltas_applied: AtomicU64,
    /// Update batches answered with an error frame.
    pub update_errors: AtomicU64,
    /// Malformed frames / payloads received.
    pub protocol_errors: AtomicU64,
    /// Queries refused with `backpressure` by either admission bound.
    pub admission_rejections: AtomicU64,
    /// Connections reaped by the socket read timeout (slow-loris defense).
    pub timeouts: AtomicU64,
    /// Requests shed with `deadline-exceeded` because their budget expired
    /// while queued.
    pub deadline_shed: AtomicU64,
    /// Retried updates answered from the dedup window instead of re-applied.
    pub dedup_hits: AtomicU64,
    /// Updates accepted from connections but not yet answered by the
    /// transactor — a gauge, not exported; shutdown's graceful-drain window
    /// polls it to zero before closing sockets.
    pub pending_writes: AtomicU64,
}

impl ServerMetrics {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter.
    pub fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    /// Records a batch handed to `execute_batch`, tracking the maximum.
    pub fn record_batch(&self, len: u64) {
        Self::bump(&self.batches_executed);
        self.max_batch.fetch_max(len, Ordering::Relaxed);
    }

    /// A point-in-time copy in the wire shape.
    pub fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            update_errors: self.update_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let m = ServerMetrics::default();
        ServerMetrics::bump(&m.queries_served);
        ServerMetrics::add(&m.deltas_applied, 3);
        m.record_batch(5);
        m.record_batch(2);
        let s = m.snapshot();
        assert_eq!(s.queries_served, 1);
        assert_eq!(s.deltas_applied, 3);
        assert_eq!(s.batches_executed, 2);
        assert_eq!(s.max_batch, 5);
    }
}
