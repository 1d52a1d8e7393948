//! [`DurableEngine`] — the log-then-apply decorator over any
//! [`ServingEngine`].
//!
//! Every write goes through [`ServingEngine::write`]: the batch is appended
//! to the [`DeltaLog`] and fsynced **before** the wrapped engine applies it,
//! so a batch whose report the caller has seen is guaranteed to survive a
//! crash. Reads go straight to the wrapped engine (it is lock-free for
//! readers); only writers serialize on the log.

use crate::log::{DeltaLog, RecoveredLog};
use crate::storage::{FsStorage, Storage};
use acq_core::{
    Engine, Executor, QueryError, Request, Response, ServingEngine, ShardStatus, UpdateReport,
    WriteError, WriteToken,
};
use acq_graph::{AttributedGraph, GraphDelta};
use acq_metrics::serving::DurabilityCounters;
use acq_sync::sync::{Arc, Mutex, PoisonError};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Tuning for [`DurableEngine::open`]. The wrapped engine has its own
/// builder; pass a configured one through [`DurableEngine::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Compact (snapshot + truncate the log) after this many logged records.
    /// `0` disables automatic compaction. Defaults to 64.
    pub compact_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self { compact_every: 64 }
    }
}

/// What [`DurableEngine::open`] found and did during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A verified snapshot was loaded as the base graph.
    pub snapshot_loaded: bool,
    /// A snapshot was present but corrupt and was discarded.
    pub snapshot_discarded: bool,
    /// Log records replayed into the engine.
    pub records_replayed: u64,
    /// Recovered records the engine refused to re-apply (skipped; this is
    /// only reachable when the base graph does not match the log's history).
    pub batches_skipped: u64,
    /// Trailing log bytes dropped as torn or corrupt.
    pub truncated_bytes: u64,
    /// Engine generation after replay.
    pub generation: u64,
}

struct DurableInner {
    log: DeltaLog,
    /// Set while a writer is inside the log-then-apply critical section and
    /// cleared on the way out. A panic mid-write leaves it set, and every
    /// later write is refused: the in-memory log cursor may no longer match
    /// the bytes on disk, so acknowledging against it could promise
    /// durability the disk does not have. This is the crate's own poison
    /// bit — unlike `std` mutex poisoning it survives poison-tolerant
    /// locking and is observable under the model checker.
    wedged: bool,
    compact_every: u64,
    /// Records appended (or replayed) since the last compaction.
    records_since_compaction: u64,
    /// The since-open counters; the three the log itself tracks (bytes and
    /// records appended, snapshot size) are filled in when read.
    counters: DurabilityCounters,
}

/// A crash-safe serving engine: a write-ahead [`DeltaLog`] in front of
/// whichever engine it wraps — `Durable(Engine)` and `Durable(Sharded)` are
/// the same type.
///
/// It is itself a [`ServingEngine`], so it goes wherever the wrapped engine
/// went (`Server::bind`, a test, another decorator). Nobody else may hold
/// the wrapped engine: a write that bypassed the log would fork the
/// in-memory state away from it. Reads are unaffected by the log and never
/// block on writers.
pub struct DurableEngine {
    engine: Arc<dyn ServingEngine>,
    inner: Mutex<DurableInner>,
    /// `(token, report)` of every tokened record replayed at open, in replay
    /// order. Immutable after open.
    recovered_tokens: Vec<(WriteToken, UpdateReport)>,
}

impl std::fmt::Debug for DurableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine").finish_non_exhaustive()
    }
}

impl DurableEngine {
    /// Opens the durable state under `storage`, recovering: verify the
    /// snapshot (falling back to `base_graph` if absent or corrupt), hand the
    /// recovered graph to `build` for the engine to wrap, and replay the
    /// valid log suffix into it.
    ///
    /// `build` is where the composition is chosen — e.g.
    /// `|graph| Arc::new(ShardedEngine::new(graph, 4))` for a durable sharded
    /// stack. Compaction snapshots whatever that engine's
    /// [`graph`](ServingEngine::graph) returns (the full graph, for a
    /// sharded engine its mirror), and replay routes every record through
    /// its [`write`](ServingEngine::write) like a live batch, so a log
    /// written over one composition recovers under another.
    pub fn open_with(
        storage: Box<dyn Storage>,
        base_graph: Arc<AttributedGraph>,
        options: DurableOptions,
        build: impl FnOnce(Arc<AttributedGraph>) -> Arc<dyn ServingEngine>,
    ) -> io::Result<(Self, RecoveryReport)> {
        let (log, recovered) = DeltaLog::open(storage)?;
        let RecoveredLog { snapshot, snapshot_discarded, batches, tokens, truncated_bytes, .. } =
            recovered;
        let snapshot_loaded = snapshot.is_some();
        let engine = build(snapshot.map(Arc::new).unwrap_or(base_graph));

        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut recovered_tokens = Vec::new();
        for (batch, token) in batches.iter().zip(&tokens) {
            // A batch that no longer applies (only possible when the base
            // graph diverged from the logged history) is skipped, not fatal:
            // recovery must always yield a serving engine.
            match engine.write(token.as_ref(), batch) {
                Ok(report) => {
                    replayed += 1;
                    if let Some(token) = token {
                        recovered_tokens.push((*token, report));
                    }
                }
                Err(_) => skipped += 1,
            }
        }

        let report = RecoveryReport {
            snapshot_loaded,
            snapshot_discarded,
            records_replayed: replayed,
            batches_skipped: skipped,
            truncated_bytes,
            generation: engine.generation(),
        };
        let inner = DurableInner {
            log,
            wedged: false,
            compact_every: options.compact_every,
            records_since_compaction: batches.len() as u64,
            counters: DurabilityCounters {
                records_replayed: replayed,
                recovery_truncated_bytes: truncated_bytes,
                recovery_truncations: u64::from(truncated_bytes > 0)
                    + u64::from(snapshot_discarded),
                ..DurabilityCounters::default()
            },
        };
        Ok((Self { engine, inner: Mutex::new(inner), recovered_tokens }, report))
    }

    /// [`open_with`](Self::open_with) wrapping a default
    /// [`Engine`](acq_core::Engine).
    pub fn open(
        storage: Box<dyn Storage>,
        base_graph: Arc<AttributedGraph>,
        options: DurableOptions,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::open_with(storage, base_graph, options, |graph| Arc::new(Engine::new(graph)))
    }

    /// [`open`](Self::open) over a real directory.
    pub fn open_dir(
        dir: impl AsRef<Path>,
        base_graph: Arc<AttributedGraph>,
        options: DurableOptions,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::open(Box::new(FsStorage::open(dir)?), base_graph, options)
    }

    fn write_locked(
        engine: &dyn ServingEngine,
        inner: &mut DurableInner,
        token: Option<&WriteToken>,
        deltas: &[GraphDelta],
    ) -> Result<UpdateReport, WriteError> {
        let seq = inner.log.append_tokened(token, deltas).map_err(WriteError::NotPersisted)?;
        let outcome = engine.write(token, deltas);
        if outcome.is_ok() {
            inner.records_since_compaction += 1;
            if inner.compact_every > 0 && inner.records_since_compaction >= inner.compact_every {
                Self::compact_locked(engine, inner, seq);
            }
        } else {
            // Best effort: a stranded record would be skipped on replay
            // anyway (it fails apply deterministically), so a rollback
            // failure does not change what recovery rebuilds.
            let _ = inner.log.rollback_last();
        }
        outcome
    }

    /// Forces a compaction now: snapshot the current graph and truncate the
    /// log. `Err` means the snapshot could not be installed (or the log is
    /// wedged); the log is still complete, so nothing is lost.
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.wedged {
            return Err(wedged_error());
        }
        let seq = inner.log.last_seq();
        let before = inner.counters.compaction_failures;
        Self::compact_locked(&*self.engine, &mut inner, seq);
        if inner.counters.compaction_failures > before {
            Err(io::Error::other("snapshot installation failed"))
        } else {
            Ok(())
        }
    }

    fn compact_locked(engine: &dyn ServingEngine, inner: &mut DurableInner, seq: u64) {
        let started = Instant::now();
        let graph = engine.graph();
        match inner.log.install_snapshot(&graph, seq) {
            Ok(()) => {
                inner.records_since_compaction = 0;
                inner.counters.compactions += 1;
                inner.counters.last_compaction_micros = started.elapsed().as_micros() as u64;
            }
            Err(_) => {
                // The log is still complete, so nothing is lost — the next
                // trigger retries.
                inner.counters.compaction_failures += 1;
            }
        }
    }
}

fn wedged_error() -> io::Error {
    io::Error::other(
        "delta log wedged: an earlier write panicked mid-log, so the in-memory log cursor may \
         not match the bytes on disk; refusing to acknowledge writes (reopen to recover)",
    )
}

impl Executor for DurableEngine {
    fn execute(&self, request: &Request) -> Result<Response, QueryError> {
        self.engine.execute(request)
    }

    fn execute_batch(&self, requests: &[Request]) -> Vec<Result<Response, QueryError>> {
        self.engine.execute_batch(requests)
    }
}

impl ServingEngine for DurableEngine {
    /// Logs the batch (append + fsync) with its token, then applies it to
    /// the wrapped engine. The returned report means the batch is durable:
    /// any future open of the same storage replays it, and returns its token
    /// through [`recovered_tokens`](ServingEngine::recovered_tokens).
    ///
    /// On [`WriteError::NotPersisted`] the batch is neither durable nor
    /// applied; on [`WriteError::Rejected`] the log record is rolled back. A
    /// write that panicked mid-log leaves the log **wedged**: every later
    /// write returns `NotPersisted` instead of acknowledging (see
    /// `DurableInner::wedged`). Reads and the counters keep working; a fresh
    /// open is the way back.
    fn write(
        &self,
        token: Option<&WriteToken>,
        deltas: &[GraphDelta],
    ) -> Result<UpdateReport, WriteError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.wedged {
            return Err(WriteError::NotPersisted(wedged_error()));
        }
        inner.wedged = true;
        let outcome = Self::write_locked(&*self.engine, &mut inner, token, deltas);
        // Not reached when the critical section unwinds: the flag stays set
        // and the log never acknowledges another write.
        inner.wedged = false;
        outcome
    }

    fn graph(&self) -> Arc<AttributedGraph> {
        self.engine.graph()
    }

    fn generation(&self) -> u64 {
        self.engine.generation()
    }

    fn shard_status(&self) -> Vec<ShardStatus> {
        self.engine.shard_status()
    }

    fn durability(&self) -> Option<DurabilityCounters> {
        // Tolerant read: the counters must stay observable even after a
        // writer died (that is exactly when an operator wants them).
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Some(DurabilityCounters {
            log_bytes_appended: inner.log.bytes_appended(),
            log_records_appended: inner.log.records_appended(),
            snapshot_bytes: inner.log.snapshot_bytes(),
            ..inner.counters
        })
    }

    /// Compaction-folded records are gone from the log, so their tokens age
    /// out here exactly as they would out of a live bounded window.
    fn recovered_tokens(&self) -> &[(WriteToken, UpdateReport)] {
        &self.recovered_tokens
    }
}
