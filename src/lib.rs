//! # attributed-community-search
//!
//! A from-scratch Rust reproduction of **“Effective Community Search for Large
//! Attributed Graphs”** (Fang, Cheng, Luo, Hu — PVLDB 9(12), 2016): the
//! attributed community query (ACQ), the CL-tree index, the paper's query
//! algorithms, its baselines and its full experimental evaluation.
//!
//! This crate is a thin façade: it re-exports the workspace crates under one
//! namespace so that applications can depend on a single package.
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`graph`] | attributed graph store, keyword interning, subsets, I/O |
//! | [`kcore`] | core decomposition, k-ĉore extraction, core maintenance |
//! | [`unionfind`] | union-find and the Anchored Union-Find |
//! | [`fpm`] | Apriori and FP-Growth frequent-itemset mining |
//! | [`cltree`] | the CL-tree index (basic/advanced construction, maintenance) |
//! | [`acq`] | the ACQ problem, the `basic-g`/`basic-w`/`Inc-S`/`Inc-T`/`Dec` algorithms, variants, and the unified [`Request`](acq::Request)/[`Executor`](acq::Executor) surface served by the owning [`Engine`](acq::Engine) and the [`ShardedEngine`](acq::ShardedEngine), both behind the [`ServingEngine`](acq::ServingEngine) seam |
//! | [`baselines`] | Global, Local, CODICIL-style detection, star-pattern GPM |
//! | [`metrics`] | CMF, CPJ, MF and structural cohesion measures; metrics wire shapes |
//! | [`server`] | framed TCP serving front-end: [`Server`](server::Server), transactor write path, [`Client`](server::Client) (see `docs/PROTOCOL.md`) |
//! | [`durable`] | crash-safe delta log, snapshot compaction, and [`DurableEngine`](durable::DurableEngine), the log-then-apply decorator over any `ServingEngine` (see `docs/DURABILITY.md`) |
//! | [`datagen`] | synthetic dataset profiles, generator, workloads, case study |
//!
//! ## Quick start
//!
//! Every query kind goes through one door: build a [`Request`](prelude::Request),
//! hand it to an [`Executor`](prelude::Executor), read the
//! [`Response`](prelude::Response).
//!
//! ```
//! use attributed_community_search::prelude::*;
//! use std::sync::Arc;
//!
//! // The running example of the paper (Figure 3).
//! let graph = Arc::new(paper_figure3_graph());
//! let engine = Engine::new(Arc::clone(&graph));
//! let q = graph.vertex_by_label("A").unwrap();
//!
//! // "Find the community of A in which everyone has degree >= 2 and shares
//! //  as many of A's keywords as possible."
//! let response = engine.execute(&Request::community(q).k(2)).unwrap();
//! let ac = &response.communities()[0];
//! assert_eq!(ac.member_names(&graph), vec!["A", "C", "D"]);
//! assert_eq!(ac.label_terms(&graph), vec!["x", "y"]);
//!
//! // The two problem variants are the same request with one more knob.
//! let x = graph.dictionary().get("x").unwrap();
//! let sw = engine.execute(&Request::community(q).k(2).exact_keywords([x])).unwrap();
//! assert_eq!(sw.meta.algorithm, "SW");
//! let swt = engine.execute(&Request::community(q).k(2).keywords([x]).threshold(0.5)).unwrap();
//! assert_eq!(swt.meta.algorithm, "SWT");
//! ```
//!
//! For many queries against one graph, hand the whole slice to
//! [`Executor::execute_batch`](prelude::Executor::execute_batch) — the
//! engine shares the index and its core decomposition across a worker pool (see `ARCHITECTURE.md` for where this layer sits):
//!
//! ```
//! use attributed_community_search::prelude::*;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(paper_figure3_graph());
//! let engine = Engine::builder(Arc::clone(&graph)).threads(2).build();
//! let requests: Vec<Request> = graph
//!     .vertices()
//!     .map(|v| Request::community(v).k(2))
//!     .collect();
//! let responses = engine.execute_batch(&requests); // answers arrive in input order
//! assert_eq!(responses.len(), requests.len());
//! assert!(responses.iter().all(|r| r.is_ok()));
//! ```

#![deny(missing_docs)]

pub use acq_baselines as baselines;
pub use acq_cltree as cltree;
pub use acq_core as acq;
pub use acq_datagen as datagen;
pub use acq_durable as durable;
pub use acq_fpm as fpm;
pub use acq_graph as graph;
pub use acq_kcore as kcore;
pub use acq_metrics as metrics;
pub use acq_server as server;
pub use acq_unionfind as unionfind;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use acq_cltree::{build_advanced, build_basic, ClTree};
    pub use acq_core::{
        AcqAlgorithm, AcqQuery, AcqResult, AttributedCommunity, Engine, EngineBuilder,
        ExecutionMeta, Executor, QueryError, QuerySpec, Request, Response, ServingEngine,
        ShardedEngine, UpdateReport, UpdateStrategy, Variant1Query, Variant2Query,
    };
    pub use acq_durable::{DurableEngine, DurableOptions, RecoveryReport};
    pub use acq_graph::{
        paper_figure3_graph, AppliedDelta, AttributedGraph, GraphBuilder, GraphDelta, KeywordId,
        KeywordSet, VertexId, VertexSubset,
    };
    pub use acq_kcore::CoreDecomposition;
    pub use acq_metrics::serving::MetricsSnapshot;
    pub use acq_server::{Client, Server, ServerConfig, ServerHandle};
}
