//! Model checks for the server's write-drain, admission, write-dedup and
//! query-queue protocols (invariants (b), (c) and (e) of
//! `docs/CONCURRENCY.md`).
//!
//! The transactor is exercised through the [`ReplySink`] seam with a
//! recording mock instead of a socket writer, so the drain protocol is
//! model-checkable without any networking. Under `--cfg acq_model` every
//! bounded interleaving of submitters, the transactor thread, and shutdown
//! is explored; in normal builds the tests run once on real threads.

use acq_core::{Engine, Request};
use acq_durable::WriteToken;
use acq_graph::{unlabeled_graph, GraphDelta, VertexId};
use acq_server::frame::{Frame, FrameKind};
use acq_server::metrics::ServerMetrics;
use acq_server::{InFlightGauge, PendingQuery, QueryQueue, ReplySink, Transactor, WriteJob};
use acq_sync::model::model;
use acq_sync::sync::mpsc::channel;
use acq_sync::sync::{Arc, Mutex};
use acq_sync::thread;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A [`ReplySink`] that records the request id of every frame it is handed.
#[derive(Default)]
struct RecordingSink {
    replies: Mutex<Vec<u64>>,
}

impl ReplySink for RecordingSink {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        self.replies.lock().unwrap().push(frame.request_id);
        Ok(())
    }
}

/// A [`ReplySink`] that records whole frames, payloads included.
#[derive(Default)]
struct FrameSink {
    frames: Mutex<Vec<Frame>>,
}

impl ReplySink for FrameSink {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        self.frames.lock().unwrap().push(frame.clone());
        Ok(())
    }
}

/// Invariant (b): transactor shutdown drains every queued write exactly
/// once. Two submitters race each other and the shutdown path; whatever the
/// interleaving, every submitted request id must be answered exactly once —
/// no write dropped on the floor at shutdown, none applied or acknowledged
/// twice.
#[test]
fn shutdown_drains_every_queued_write_exactly_once() {
    model(|| {
        let graph = Arc::new(unlabeled_graph(2, &[(0, 1)]));
        let engine = Arc::new(Engine::builder(graph).threads(1).build());
        let metrics = Arc::new(ServerMetrics::default());
        let mut transactor = Transactor::spawn(engine, metrics, 0).expect("spawn transactor");
        let sink = Arc::new(RecordingSink::default());

        let submitter = {
            let tx = transactor.sender();
            let sink = Arc::clone(&sink);
            thread::spawn(move || {
                for id in [1u64, 2] {
                    let writer = Arc::clone(&sink);
                    tx.send(WriteJob {
                        deltas: Vec::new(),
                        request_id: id,
                        writer,
                        token: None,
                        deadline: None,
                    })
                    .expect("transactor alive while senders exist");
                }
            })
        };

        let tx = transactor.sender();
        let writer = Arc::clone(&sink);
        tx.send(WriteJob {
            deltas: Vec::new(),
            request_id: 0,
            writer,
            token: None,
            deadline: None,
        })
        .expect("transactor alive while senders exist");
        drop(tx);

        submitter.join().unwrap();
        transactor.shutdown();

        let mut got = sink.replies.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2], "each queued write must be answered exactly once");
    });
}

/// Write-dedup invariant: two concurrent resubmits of the same idempotency
/// token never double-apply, and both submitters receive the same
/// `UpdateOk`. The batch is an `InsertVertex` — deliberately NOT idempotent
/// (it mints a fresh vertex every time it is applied), so a double-apply
/// would be visible in the engine's generation. Whichever resubmit the
/// transactor picks up first applies; the other must replay the cached
/// report byte-for-byte.
#[test]
fn concurrent_resubmits_of_one_token_apply_once_and_answer_identically() {
    model(|| {
        let graph = Arc::new(unlabeled_graph(2, &[(0, 1)]));
        let engine = Arc::new(Engine::builder(graph).threads(1).build());
        let metrics = Arc::new(ServerMetrics::default());
        let mut transactor =
            Transactor::spawn(Arc::clone(&engine) as _, metrics, 8).expect("spawn transactor");
        let sink = Arc::new(FrameSink::default());
        let token = WriteToken::new(7, 1);
        let deltas = vec![GraphDelta::insert_vertex(None, &["chaos"])];

        let resubmit = {
            let tx = transactor.sender();
            let sink = Arc::clone(&sink);
            let deltas = deltas.clone();
            thread::spawn(move || {
                let writer = sink;
                tx.send(WriteJob {
                    deltas,
                    request_id: 1,
                    writer,
                    token: Some(token),
                    deadline: None,
                })
                .expect("transactor alive while senders exist");
            })
        };
        let tx = transactor.sender();
        let writer = Arc::clone(&sink);
        tx.send(WriteJob { deltas, request_id: 2, writer, token: Some(token), deadline: None })
            .expect("transactor alive while senders exist");
        drop(tx);
        resubmit.join().unwrap();
        transactor.shutdown();

        assert_eq!(engine.generation(), 2, "one token, one application, whatever the schedule");
        let frames = sink.frames.lock().unwrap().clone();
        assert_eq!(frames.len(), 2, "both resubmits must be answered");
        for frame in &frames {
            assert_eq!(frame.kind, FrameKind::UpdateOk, "both answers must be UpdateOk");
        }
        assert_eq!(
            frames[0].payload, frames[1].payload,
            "the replayed answer must be byte-identical to the original"
        );
    });
}

/// Invariant (c), part one: concurrent reservations never admit more than
/// the bound, and every admitted slot returns once its reservation drops.
#[test]
fn admission_never_exceeds_the_bound_and_returns_every_slot() {
    model(|| {
        let gauge = Arc::new(InFlightGauge::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gauge = Arc::clone(&gauge);
                thread::spawn(move || {
                    let r = gauge.reserve(2);
                    assert!(
                        gauge.in_flight() <= gauge.max(),
                        "admission exceeded the bound: {} > {}",
                        gauge.in_flight(),
                        gauge.max(),
                    );
                    drop(r);
                })
            })
            .collect();
        let r = gauge.reserve(1);
        assert!(gauge.in_flight() <= gauge.max());
        drop(r);
        for worker in workers {
            worker.join().unwrap();
        }
        assert_eq!(gauge.in_flight(), 0, "a reservation leaked its slots");
    });
}

/// Invariant (c), part two: the error path does not leak. A holder that
/// panics mid-batch (the worst spot — while its reservation is live) still
/// returns its slot during unwind, in every interleaving with a concurrent
/// reserver; afterwards the full capacity is available again.
#[test]
fn admission_slot_returns_even_when_the_holder_panics() {
    model(|| {
        let gauge = Arc::new(InFlightGauge::new(1));
        let holder = {
            let gauge = Arc::clone(&gauge);
            thread::spawn(move || {
                let died = catch_unwind(AssertUnwindSafe(|| {
                    let _r = gauge.reserve(1);
                    panic!("batch execution died");
                }));
                assert!(died.is_err());
            })
        };
        // Race a reservation against the panicking holder.
        let r = gauge.reserve(1);
        assert!(r.admitted() <= 1);
        drop(r);
        holder.join().unwrap();

        let r = gauge.reserve(1);
        assert_eq!(r.admitted(), 1, "the panicking holder leaked its slot");
        assert_eq!(gauge.in_flight(), 1);
    });
}

fn queued(request_id: u64) -> PendingQuery {
    PendingQuery { request_id, request: Request::community(VertexId(0)), deadline: None }
}

/// Invariant (e), part one: a push hands nothing over, so the reader's wake
/// before it blocks is the only thing that gets a burst executed — and it is
/// never lost. The reader pushes two queries, wakes, and then *blocks* until
/// both were executed (as a connection reader blocks on its socket until
/// the client, which is waiting for those answers, sends more): a schedule
/// in which the worker sleeps through the wake is a deadlock, which the
/// model reports. Only afterwards is the queue closed.
#[test]
fn a_wake_before_blocking_is_never_lost() {
    model(|| {
        let queue = Arc::new(QueryQueue::new(4));
        let (executed_tx, executed) = channel::<u64>();
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut batches = Vec::new();
                while let Some(batch) = queue.wait_drain() {
                    assert!(!batch.is_empty(), "the worker was woken for nothing");
                    for query in &batch {
                        executed_tx.send(query.request_id).expect("the reader outlives the worker");
                    }
                    batches.push(batch.len());
                }
                batches
            })
        };

        assert!(queue.push(queued(1)));
        assert!(queue.push(queued(2)));
        queue.wake();
        let answered = [executed.recv(), executed.recv()].map(|id| id.expect("worker alive"));
        assert_eq!(answered, [1, 2], "executed in request order");
        queue.close();

        let batches = worker.join().unwrap();
        assert_eq!(batches, vec![2], "queries pushed before one wake run as one batch");
    });
}

/// Invariant (e), part two: whatever is queued when the connection closes
/// is still executed, exactly once and in order — including a query pushed
/// after the last wake, and whether the worker was waiting, draining, or
/// not yet started when the close came.
#[test]
fn close_leaves_no_queued_query_unexecuted() {
    model(|| {
        let queue = Arc::new(QueryQueue::new(4));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut executed = Vec::new();
                while let Some(batch) = queue.wait_drain() {
                    executed.extend(batch.iter().map(|query| query.request_id));
                }
                executed
            })
        };

        assert!(queue.push(queued(1)));
        queue.wake();
        assert!(queue.push(queued(2)));
        queue.close();

        assert_eq!(worker.join().unwrap(), vec![1, 2]);
    });
}
