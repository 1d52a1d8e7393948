//! The serialized write path: one transactor thread owns every mutation.
//!
//! All `Update` frames — from every connection — funnel into a single
//! `mpsc` channel drained by one thread that calls [`ServingEngine::write`]
//! on whatever engine the server was bound with. This is the classic
//! transactor split: writes are serialized (so concurrent update batches can
//! never stage against the same base generation), while reads keep fanning
//! out over published generation snapshots and never block on a writer — the
//! engine's `RwLock` is held only for the pointer swap that publishes a
//! staged generation.
//!
//! The transactor answers each update on the submitting connection itself
//! (an `UpdateOk` frame carrying the serde-ed `UpdateReport`, or an error
//! frame), so connection readers stay free to keep decoding queries while a
//! write is in flight.
//!
//! There is one write path. When the engine is (or wraps) an
//! `acq_durable::DurableEngine`, that same `write` call appends the batch and
//! its idempotency token to the delta log and fsyncs **before** applying, so
//! an `UpdateOk` the client has read is guaranteed to survive a crash — and
//! the dedup window below is seeded from the tokens the log gave back at
//! recovery. The transactor itself cannot tell the difference.

use crate::frame::FrameKind;
use crate::frame::{codes, error_frame, Frame};
use crate::metrics::ServerMetrics;
use acq_core::{ServingEngine, UpdateReport, WriteError, WriteToken};
use acq_durable::DedupWindow;
use acq_graph::GraphDelta;
use acq_sync::sync::atomic::Ordering;
use acq_sync::sync::mpsc::{channel, Sender};
use acq_sync::sync::{Arc, Mutex, PoisonError};
use acq_sync::thread::JoinHandle;
use std::io;
use std::time::Instant;

/// Where the transactor sends each update's answer. The server implements
/// this on its per-connection shared writer; tests implement it on a
/// recording mock, which is what lets the drain protocol be model-checked
/// without sockets.
pub trait ReplySink: Send + Sync {
    /// Delivers one reply frame to the submitting client.
    fn send(&self, frame: &Frame) -> io::Result<()>;
}

/// One queued write: the decoded delta batch plus everything needed to
/// answer the submitting connection.
pub struct WriteJob {
    /// The decoded delta batch to apply.
    pub deltas: Vec<GraphDelta>,
    /// The client's request id, echoed in the reply frame.
    pub request_id: u64,
    /// Where the answer goes.
    pub writer: Arc<dyn ReplySink>,
    /// The client's idempotency token: a resubmitted token still in the
    /// dedup window replays the cached `UpdateOk` instead of re-applying.
    pub token: Option<WriteToken>,
    /// If this instant has passed when the transactor picks the job up, the
    /// work is shed with `deadline-exceeded` instead of applied.
    pub deadline: Option<Instant>,
}

/// Handle to the single write-applying thread.
pub struct Transactor {
    tx: Option<Sender<WriteJob>>,
    handle: Option<JoinHandle<()>>,
    last: Arc<Mutex<Option<UpdateReport>>>,
}

impl Transactor {
    /// Spawns the transactor thread writing to `engine`, owning a dedup
    /// window of at most `dedup_capacity` tokens (`0` disables dedup). The
    /// window is seeded from the engine's
    /// [`recovered_tokens`](ServingEngine::recovered_tokens), so on a durable
    /// engine a retry that straddles a crash still replays. Fails only if
    /// the OS refuses the thread.
    pub fn spawn(
        engine: Arc<dyn ServingEngine>,
        metrics: Arc<ServerMetrics>,
        dedup_capacity: usize,
    ) -> io::Result<Self> {
        let (tx, rx) = channel::<WriteJob>();
        let last = Arc::new(Mutex::new(None));
        let last_writer = Arc::clone(&last);
        let mut window = DedupWindow::new(dedup_capacity);
        for (token, report) in engine.recovered_tokens() {
            window.record(*token, report.clone());
        }
        let handle = acq_sync::thread::Builder::new().name("acq-transactor".to_string()).spawn(
            move || {
                // The loop ends when every sender is dropped (server shutdown).
                while let Ok(job) = rx.recv() {
                    let reply = answer_job(&*engine, &metrics, &mut window, &last_writer, &job);
                    // A vanished connection is not the transactor's problem.
                    let _ = job.writer.send(&reply);
                    release_pending_write(&metrics);
                }
            },
        )?;
        Ok(Self { tx: Some(tx), handle: Some(handle), last })
    }

    /// A sender connections submit [`WriteJob`]s through.
    ///
    /// # Panics
    ///
    /// Panics if called after [`shutdown`](Self::shutdown) — the server only
    /// hands senders out while it is running.
    pub fn sender(&self) -> Sender<WriteJob> {
        self.tx.as_ref().expect("transactor already shut down").clone() // lint: allow(expect: tx is Some until shutdown)
    }

    /// The most recent successfully applied update — the cell the server's
    /// `Metrics` snapshot clones its `last_update` out of.
    pub(crate) fn last_update(&self) -> Arc<Mutex<Option<UpdateReport>>> {
        Arc::clone(&self.last)
    }

    /// Drops the channel and joins the thread; pending jobs are applied
    /// first (the channel drains before `recv` errors).
    pub fn shutdown(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Builds the reply for one job: dedup replay, deadline shed, or apply.
fn answer_job(
    engine: &dyn ServingEngine,
    metrics: &ServerMetrics,
    window: &mut DedupWindow,
    last: &Mutex<Option<UpdateReport>>,
    job: &WriteJob,
) -> Frame {
    // Dedup first: a retry of an already-acknowledged write is answered from
    // the window even if its deadline has meanwhile expired — the work is
    // already done and replaying the cached report is cheaper than shedding.
    if let Some(token) = &job.token {
        if let Some(report) = window.get(token) {
            ServerMetrics::bump(&metrics.dedup_hits);
            return update_ok_frame(job.request_id, report);
        }
    }
    if job.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
        ServerMetrics::bump(&metrics.deadline_shed);
        return error_frame(
            job.request_id,
            codes::DEADLINE_EXCEEDED,
            "deadline expired before the write was applied; nothing was applied",
        );
    }
    match engine.write(job.token.as_ref(), &job.deltas) {
        Ok(report) => {
            ServerMetrics::bump(&metrics.updates_applied);
            ServerMetrics::add(&metrics.deltas_applied, report.deltas_applied as u64);
            *last.lock().unwrap_or_else(PoisonError::into_inner) = Some(report.clone());
            if let Some(token) = job.token {
                window.record(token, report.clone());
            }
            update_ok_frame(job.request_id, &report)
        }
        Err(error) => {
            ServerMetrics::bump(&metrics.update_errors);
            let code = match error {
                WriteError::Rejected(_) => codes::INVALID_UPDATE,
                WriteError::NotPersisted(_) => codes::DURABILITY,
            };
            error_frame(job.request_id, code, error.to_string())
        }
    }
}

/// Serializes a report into its `UpdateOk` frame — the same bytes whether the
/// report is fresh or replayed from the dedup window, which is what makes a
/// retried update's answer indistinguishable from the original.
fn update_ok_frame(request_id: u64, report: &UpdateReport) -> Frame {
    match serde_json::to_string(report) {
        Ok(json) => Frame::new(FrameKind::UpdateOk, request_id, json.into_bytes()),
        Err(e) => error_frame(request_id, codes::INVALID_UPDATE, e.to_string()),
    }
}

/// Saturating decrement of the pending-writes gauge. Jobs submitted through
/// the server's connection path increment it; jobs injected directly by tests
/// do not, so a plain `fetch_sub` could wrap the gauge to `u64::MAX` and
/// wedge the shutdown drain.
pub(crate) fn release_pending_write(metrics: &ServerMetrics) {
    let mut current = metrics.pending_writes.load(Ordering::Relaxed);
    while current > 0 {
        match metrics.pending_writes.compare_exchange(
            current,
            current - 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}
