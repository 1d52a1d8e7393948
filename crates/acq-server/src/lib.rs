//! Serving front-end for attributed community search.
//!
//! This crate puts any [`ServingEngine`](acq_core::ServingEngine) — an
//! [`Engine`](acq_core::Engine), a `ShardedEngine`, a `DurableEngine` around
//! either — behind a length-prefixed framed TCP protocol (specified
//! byte-for-byte in `docs/PROTOCOL.md`; operational guidance in
//! `docs/OPERATIONS.md`):
//!
//! * [`Server`] — thread-per-core accept loop; per-connection reader/worker
//!   pairs batch incoming queries into single
//!   [`execute_batch`](acq_core::Executor::execute_batch) calls against the
//!   current generation snapshot.
//! * The **transactor** — every `Update` frame, from every connection,
//!   funnels through one serialized thread that owns
//!   [`ServingEngine::write`](acq_core::ServingEngine::write); reads never
//!   block on writers. Bind the server with an
//!   [`acq_durable::DurableEngine`] around the engine and that same call
//!   fsyncs every acknowledged update to the delta log first (see
//!   `docs/DURABILITY.md`).
//! * [`Client`] — a minimal blocking client speaking the same frames.
//! * The `Metrics` frame — exports the server's counters together with the
//!   engine's generation and last [`UpdateReport`](acq_core::UpdateReport)
//!   as a
//!   [`MetricsSnapshot`](acq_metrics::serving::MetricsSnapshot), which also
//!   renders as a plain-text `acq_* value` dump.
//!
//! ```no_run
//! use acq_core::{Engine, Request};
//! use acq_graph::VertexId;
//! use acq_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(Arc::new(acq_graph::paper_figure3_graph())));
//! let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client.query(&Request::community(VertexId(0)).k(2)).unwrap();
//! println!("{} communities", response.result.communities.len());
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod frame;
pub mod metrics;
pub mod server;
pub mod transactor;

pub use admission::{InFlightGauge, PendingQuery, QueryQueue, Reservation};
pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{Client, ClientConfig, ClientError, ClientStats, RetryPolicy};
pub use frame::{
    codes, encode, encode_into, read_frame, Frame, FrameError, FrameKind, QueryEnvelope,
    UpdateEnvelope, WireError, DEFAULT_MAX_FRAME_LEN, ENVELOPE_LEN, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use transactor::{ReplySink, Transactor, WriteJob};
