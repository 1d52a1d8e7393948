//! Shared execution machinery under every [`Executor`](crate::Executor): the
//! bounded index cache and the ordered worker pool.
//!
//! The paper's evaluation (and any production deployment) runs *thousands* of
//! queries against one graph + CL-tree index. [`Engine`](crate::Engine)
//! factors the shared work out of the per-query path with the two pieces
//! that live here:
//!
//! * pure index lookups — core extraction and candidate-subtree
//!   (keyword-checking) results — are memoised in a bounded LRU
//!   [`IndexCache`] keyed by `(node, k, keyword-set)`, one per published
//!   generation;
//! * a batch fans out over a worker pool ([`pool::map_ordered`]), with
//!   results returned **in input order** regardless of scheduling.
//!
//! Caching and threading are invisible to results: a cached, pooled engine
//! returns byte-identical [`AcqResult`](crate::AcqResult)s to a sequential
//! cache-less one (`tests/property_equivalence.rs` proves it for every
//! algorithm, thread count and a cache small enough to keep evicting).

mod cache;
mod lru;
pub mod pool;

pub use cache::{CacheKey, CacheKind, CacheStats, IndexCache};
pub use lru::LruCache;

/// Default LRU bound for the per-generation index cache (entries, not bytes;
/// each entry is one `Arc`'d vertex list or pool).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;
