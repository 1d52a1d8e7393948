//! The serving seam: [`ServingEngine`], the one object-safe trait a serving
//! front-end holds its engine through, and the two types its write method
//! speaks ([`WriteToken`], [`WriteError`]).
//!
//! The paper has one serving concept — a CL-tree index answering queries
//! and absorbing updates — and every engine in the workspace is that concept
//! behind this trait: the in-memory [`Engine`], the component-sharded
//! [`ShardedEngine`](crate::ShardedEngine), and `acq_durable::DurableEngine`,
//! a decorator that logs each batch before handing it to whichever
//! `Arc<dyn ServingEngine>` it wraps. A server therefore never asks *which*
//! engine it has: reads go through [`Executor`], writes through
//! [`ServingEngine::write`], and the optional capabilities (shards, a delta
//! log) surface as default-empty observers.

use crate::owned::Engine;
use crate::request::Executor;
use acq_graph::{AttributedGraph, GraphDelta, GraphError};
use acq_metrics::serving::{DurabilityCounters, ShardStatus, UpdateReport};
use acq_sync::sync::Arc;
use serde::{Deserialize, Serialize};
use std::io;

/// A client-supplied idempotency token: one per logical write. Retries of
/// the same logical write carry the same token; distinct writes from the
/// same client carry increasing `write_seq` values. In-memory engines ignore
/// it; a durable layer stores it inside the logged record so the
/// exactly-once guarantee survives a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WriteToken {
    /// The submitting client's stable identity.
    pub client_id: u64,
    /// The client's sequence number for this logical write.
    pub write_seq: u64,
}

impl WriteToken {
    /// A token for `client_id`'s `write_seq`-th write.
    pub fn new(client_id: u64, write_seq: u64) -> Self {
        Self { client_id, write_seq }
    }
}

/// Why [`ServingEngine::write`] did not apply a batch. Either way nothing
/// was published and nothing was acknowledged.
#[derive(Debug)]
pub enum WriteError {
    /// The engine rejected the batch (validation). On a durable engine the
    /// log record was rolled back.
    Rejected(GraphError),
    /// A durable layer could not append or sync the batch, so it was not
    /// applied either.
    NotPersisted(io::Error),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Rejected(e) => write!(f, "{e}"),
            WriteError::NotPersisted(e) => write!(f, "batch not persisted: {e}"),
        }
    }
}

impl std::error::Error for WriteError {}

/// The engine surface a serving front-end needs. Implementations compose:
/// a decorator holds an `Arc<dyn ServingEngine>` and is one itself.
pub trait ServingEngine: Executor {
    /// Applies a delta batch and publishes the updated generation(s). An
    /// `Ok` report means the batch is applied — and, under a durable layer,
    /// persisted first.
    fn write(
        &self,
        token: Option<&WriteToken>,
        deltas: &[GraphDelta],
    ) -> Result<UpdateReport, WriteError>;

    /// A snapshot of the currently published full graph (what a durable
    /// layer's compaction serialises).
    fn graph(&self) -> Arc<AttributedGraph>;

    /// The currently published (logical) generation number.
    fn generation(&self) -> u64;

    /// Per-shard status, in shard order; empty for unsharded engines.
    fn shard_status(&self) -> Vec<ShardStatus> {
        Vec::new()
    }

    /// Delta-log and compaction counters; `None` without a durable layer.
    fn durability(&self) -> Option<DurabilityCounters> {
        None
    }

    /// The `(token, report)` of every tokened write a durable layer replayed
    /// when it opened, in replay order — what a transactor seeds its dedup
    /// window from. Empty without a durable layer.
    fn recovered_tokens(&self) -> &[(WriteToken, UpdateReport)] {
        &[]
    }
}

impl ServingEngine for Engine {
    fn write(
        &self,
        _token: Option<&WriteToken>,
        deltas: &[GraphDelta],
    ) -> Result<UpdateReport, WriteError> {
        self.apply_updates(deltas).map_err(WriteError::Rejected)
    }

    fn graph(&self) -> Arc<AttributedGraph> {
        Engine::graph(self)
    }

    fn generation(&self) -> u64 {
        Engine::generation(self)
    }
}
