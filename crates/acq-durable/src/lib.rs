//! Crash-safe durability for the attributed-community-search engine.
//!
//! The serving stack (PR 6) kept everything in memory: a restart lost the
//! graph, the CL-tree and every acknowledged update. This crate adds the
//! classic log-then-apply transactor recipe:
//!
//! * [`DeltaLog`] — an append-only file of length-prefixed, CRC-32-guarded
//!   [`GraphDelta`](acq_graph::GraphDelta) batch records, fsynced before the
//!   caller is acknowledged. [`DeltaLog::open`] recovers by replaying the
//!   longest valid record prefix and truncating trailing garbage — it never
//!   panics on stored bytes.
//! * **Snapshot compaction** — every `compact_every` records the full graph
//!   is serialized and atomically swapped in (write-temp + rename), bounding
//!   replay cost by deltas-since-snapshot.
//! * [`DurableEngine`] — a decorator over any
//!   [`ServingEngine`](acq_core::ServingEngine) (an `Engine`, a
//!   `ShardedEngine`) that is itself one: its
//!   [`write`](acq_core::ServingEngine::write) is durable before applied,
//!   reads hit the wrapped engine's lock-free generation machinery unchanged.
//! * [`WriteToken`] / [`DedupWindow`] — client-supplied idempotency tokens
//!   and the bounded token→report window the serving transactor uses to
//!   replay a retried update's cached `UpdateOk` instead of re-applying it.
//!   Tokens ride inside logged records, so the window is reseeded from
//!   [`recovered_tokens`](acq_core::ServingEngine::recovered_tokens) after a
//!   crash.
//! * [`FaultyStorage`] — a scripted-fault [`Storage`] (torn writes, short
//!   reads, flipped bits, I/O errors) that the recovery proptests in
//!   `tests/durability_recovery.rs` drive to earn the claims above.
//!
//! See `docs/DURABILITY.md` for the record format (with a hex-annotated
//! example), the fsync/ack ordering guarantee and the recovery semantics
//! table.
//!
//! ```
//! use acq_core::ServingEngine;
//! use acq_durable::{DurableEngine, DurableOptions, MemStorage};
//! use acq_graph::{paper_figure3_graph, GraphDelta, VertexId};
//! use std::sync::Arc;
//!
//! let disk = MemStorage::new();
//! let base = Arc::new(paper_figure3_graph());
//!
//! // First life: open, write, "crash" (drop).
//! let (engine, _) =
//!     DurableEngine::open(Box::new(disk.clone()), Arc::clone(&base), DurableOptions::default())
//!         .unwrap();
//! engine.write(None, &[GraphDelta::insert_edge(VertexId(7), VertexId(5))]).unwrap();
//! drop(engine);
//!
//! // Second life: the acknowledged edge is still there.
//! let (engine, report) =
//!     DurableEngine::open(Box::new(disk), base, DurableOptions::default()).unwrap();
//! assert_eq!(report.records_replayed, 1);
//! assert!(engine.graph().has_edge(VertexId(7), VertexId(5)));
//! ```

#![deny(missing_docs)]

mod crc;
mod dedup;
mod engine;
mod fault;
mod log;
mod storage;

pub use acq_core::WriteToken;
pub use crc::crc32;
pub use dedup::DedupWindow;
pub use engine::{DurableEngine, DurableOptions, RecoveryReport};
pub use fault::{FaultyStorage, ReadFault};
pub use log::{
    encode_record, encode_record_tokened, DeltaLog, RecoveredLog, LOG_FILE, LOG_MAGIC,
    RECORD_HEADER_LEN, SNAPSHOT_FILE, SNAPSHOT_MAGIC,
};
pub use storage::{FsStorage, MemStorage, Storage};
