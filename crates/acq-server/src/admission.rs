//! Admission control: the per-connection query queue and the global
//! in-flight query gauge.
//!
//! Every connection worker reserves slots here before handing a batch to
//! `execute_batch`; the tail that does not fit is answered with a
//! `backpressure` error instead of queueing without bound. The reservation
//! is RAII: slots return to the gauge when the [`Reservation`] drops, **even
//! if the batch execution panics** — a leaked slot would otherwise shrink
//! the server's capacity permanently, until enough leaks pin it at zero and
//! every query is refused.
//!
//! The gauge is a single CAS loop over one counter, so it is cheap enough to
//! sit on the per-batch hot path, and its protocol is small enough to model
//! check exhaustively (see `tests/model_protocols.rs`).

use acq_core::Request;
use acq_sync::sync::atomic::{AtomicUsize, Ordering};
use acq_sync::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::time::Instant;

/// One decoded query waiting in a connection's queue: the request itself,
/// the id to echo in the answer, and the optional deadline after which the
/// work is shed with `deadline-exceeded` instead of executed.
#[derive(Debug, Clone)]
pub struct PendingQuery {
    /// The client's request id, echoed in the reply frame.
    pub request_id: u64,
    /// The decoded query.
    pub request: Request,
    /// If this instant has passed when the worker drains the queue, the
    /// query is shed instead of executed — there is no point computing an
    /// answer the client has already given up on.
    pub deadline: Option<Instant>,
}

/// Splits a drained batch into the queries still worth executing and the
/// request ids whose deadline expired while they sat in the queue. Order is
/// preserved on both sides.
pub(crate) fn split_expired(
    batch: Vec<PendingQuery>,
    now: Instant,
) -> (Vec<PendingQuery>, Vec<u64>) {
    let mut live = Vec::with_capacity(batch.len());
    let mut expired = Vec::new();
    for query in batch {
        match query.deadline {
            Some(deadline) if now >= deadline => expired.push(query.request_id),
            _ => live.push(query),
        }
    }
    (live, expired)
}

/// The decoded-but-not-yet-executed queries of one connection: its reader
/// pushes, its worker takes everything queued at once and runs it as one
/// batch.
///
/// A push does **not** hand anything to the worker. The reader calls
/// [`wake`](Self::wake) before it does anything that may block — a read
/// with no whole frame buffered, a reply on the socket — and only then does
/// the worker take what is queued: the queries of one pipelined burst, which
/// arrive together, are executed together (even when the worker was idle, or
/// not yet started, as the first of them was pushed), and a queued query
/// never waits on anything but the decoding of the frames received with it.
/// The protocol (no lost wake-up, nothing left queued at close) is
/// model-checked in `tests/model_protocols.rs`.
#[derive(Debug)]
pub struct QueryQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<PendingQuery>,
    /// Set by `wake`, consumed by the drain it allows; implies `pending` is
    /// not empty.
    announced: bool,
    closed: bool,
}

impl QueryQueue {
    /// An open, empty queue holding at most `capacity` queries.
    pub fn new(capacity: usize) -> Self {
        let state = QueueState { pending: VecDeque::new(), announced: false, closed: false };
        QueryQueue { state: Mutex::new(state), ready: Condvar::new(), capacity }
    }

    /// Poison-tolerant: every update leaves the queue valid, and the reader
    /// must still be able to close it after the worker died.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `query` for the next [`wake`](Self::wake); `false` (and the
    /// query is dropped) when the queue is full.
    pub fn push(&self, query: PendingQuery) -> bool {
        let mut state = self.lock();
        let admitted = state.pending.len() < self.capacity;
        if admitted {
            state.pending.push_back(query);
        }
        admitted
    }

    /// Hands everything queued so far to the worker, waking it.
    pub fn wake(&self) {
        let mut state = self.lock();
        if !state.pending.is_empty() && !state.announced {
            state.announced = true;
            self.ready.notify_one();
        }
    }

    /// Closes the queue: the worker drains what is still queued, then
    /// [`wait_drain`](Self::wait_drain) returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// Blocks until [`wake`](Self::wake) hands queries over, then takes
    /// everything queued in FIFO order; `None` once the queue is closed and
    /// empty.
    pub fn wait_drain(&self) -> Option<Vec<PendingQuery>> {
        let mut state = self.lock();
        while !state.announced && !state.closed {
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.announced = false;
        (!state.pending.is_empty()).then(|| state.pending.drain(..).collect())
    }
}

/// Bounded count of queries currently inside `execute_batch`, across all
/// connections.
#[derive(Debug)]
pub struct InFlightGauge {
    max: usize,
    current: AtomicUsize,
}

impl InFlightGauge {
    /// A gauge admitting at most `max` queries at once.
    pub const fn new(max: usize) -> Self {
        InFlightGauge { max, current: AtomicUsize::new(0) }
    }

    /// Reserves up to `wanted` slots, admitting as many as fit under the
    /// bound (possibly zero). The returned reservation releases its slots on
    /// drop.
    pub fn reserve(&self, wanted: usize) -> Reservation<'_> {
        loop {
            let current = self.current.load(Ordering::SeqCst);
            let admitted = wanted.min(self.max.saturating_sub(current));
            if admitted == 0 {
                return Reservation { gauge: self, admitted: 0 };
            }
            if self
                .current
                .compare_exchange(current, current + admitted, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Reservation { gauge: self, admitted };
            }
        }
    }

    /// Queries currently admitted.
    pub fn in_flight(&self) -> usize {
        self.current.load(Ordering::SeqCst)
    }

    /// The configured admission bound.
    pub fn max(&self) -> usize {
        self.max
    }
}

/// Slots held out of an [`InFlightGauge`]; returned on drop.
#[derive(Debug)]
pub struct Reservation<'a> {
    gauge: &'a InFlightGauge,
    admitted: usize,
}

impl Reservation<'_> {
    /// How many of the requested slots were admitted.
    pub fn admitted(&self) -> usize {
        self.admitted
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.admitted > 0 {
            self.gauge.current.fetch_sub(self.admitted, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pending(request_id: u64, deadline: Option<Instant>) -> PendingQuery {
        PendingQuery { request_id, request: Request::community(acq_graph::VertexId(0)), deadline }
    }

    #[test]
    fn split_expired_sheds_only_past_deadlines_preserving_order() {
        let now = Instant::now();
        let soon = now + Duration::from_secs(60);
        let batch = vec![
            pending(1, None),
            pending(2, Some(now)),
            pending(3, Some(soon)),
            pending(4, Some(now)),
        ];
        let (live, expired) = split_expired(batch, now);
        assert_eq!(live.iter().map(|q| q.request_id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(expired, vec![2, 4]);
    }

    #[test]
    fn split_expired_with_no_deadlines_is_identity() {
        let now = Instant::now();
        let (live, expired) = split_expired(vec![pending(9, None)], now);
        assert_eq!(live.len(), 1);
        assert!(expired.is_empty());
    }

    #[test]
    fn queue_is_bounded_fifo_and_drains_before_it_ends() {
        let queue = QueryQueue::new(2);
        assert!(queue.push(pending(1, None)));
        assert!(queue.push(pending(2, None)));
        assert!(!queue.push(pending(3, None)), "the third query is over the bound");
        queue.close();
        let drained = queue.wait_drain().expect("queued before the close");
        assert_eq!(drained.iter().map(|q| q.request_id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(queue.wait_drain().is_none(), "closed and empty");
    }

    #[test]
    fn admits_up_to_the_bound_and_releases_on_drop() {
        let gauge = InFlightGauge::new(4);
        let a = gauge.reserve(3);
        assert_eq!(a.admitted(), 3);
        let b = gauge.reserve(3);
        assert_eq!(b.admitted(), 1, "only one slot left under the bound");
        let c = gauge.reserve(1);
        assert_eq!(c.admitted(), 0, "gauge is full");
        assert_eq!(gauge.in_flight(), 4);
        drop(b);
        assert_eq!(gauge.in_flight(), 3);
        let d = gauge.reserve(5);
        assert_eq!(d.admitted(), 1);
        drop(a);
        drop(c);
        drop(d);
        assert_eq!(gauge.in_flight(), 0, "every admitted slot came back");
    }

    #[test]
    fn zero_slot_reservation_is_inert() {
        let gauge = InFlightGauge::new(0);
        let r = gauge.reserve(10);
        assert_eq!(r.admitted(), 0);
        drop(r);
        assert_eq!(gauge.in_flight(), 0);
    }

    #[test]
    fn slots_return_even_when_the_holder_panics() {
        let gauge = InFlightGauge::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _r = gauge.reserve(2);
            panic!("batch execution died");
        }));
        assert!(result.is_err());
        assert_eq!(gauge.in_flight(), 0, "RAII returns the slots during unwind");
    }
}
