//! Shared execution machinery under every [`Executor`](crate::Executor): the
//! ordered worker pool.
//!
//! The paper's evaluation (and any production deployment) runs *thousands* of
//! queries against one graph + CL-tree index. The index **is** the shared,
//! precomputed structure — core-locating and keyword-checking are its two
//! primitives and every query calls them directly — so the only machinery an
//! [`Engine`](crate::Engine) adds on top is fanning a batch out over a worker
//! pool ([`pool::map_ordered`]), with results returned **in input order**
//! regardless of scheduling.
//!
//! Threading is invisible to results: a pooled engine returns byte-identical
//! [`AcqResult`](crate::AcqResult)s to the sequential free functions
//! (`tests/property_equivalence.rs` proves it for every algorithm and thread
//! count).

pub mod pool;
