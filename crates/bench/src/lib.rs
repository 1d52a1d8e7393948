//! # acq-bench
//!
//! Shared fixtures for the Criterion micro-benchmarks. The benchmarks live in
//! `benches/` and cover the four axes the paper's efficiency section measures:
//! index construction (Figure 13), the query algorithms (Figure 14/15),
//! the community-search baselines (Figure 14(a–d)/16) and the ACQ variants
//! (Figure 17), plus the substrates (core decomposition, union-find,
//! FP-growth) that everything is built on.
//!
//! The fixtures are intentionally small (a few thousand vertices) so that a
//! full `cargo bench` run finishes in minutes; the experiment binary
//! (`acq-experiments`) is the place for paper-scale sweeps.

#![deny(missing_docs)]

use acq_cltree::{build_advanced, ClTree};
use acq_core::Engine;
use acq_datagen::{generate, select_query_vertices, DatasetProfile};
use acq_graph::{AttributedGraph, VertexId};
use std::sync::Arc;

/// A ready-to-query benchmark fixture: graph, index and a query workload.
/// Graph and index are `Arc`-shared so the benchmarks can hand them to any
/// [`Executor`](acq_core::Executor) without copying.
pub struct BenchFixture {
    /// Profile name.
    pub name: String,
    /// The generated graph.
    pub graph: Arc<AttributedGraph>,
    /// The CL-tree (advanced build, inverted lists).
    pub index: Arc<ClTree>,
    /// Query vertices with core number ≥ 6.
    pub queries: Vec<VertexId>,
}

impl BenchFixture {
    /// An owning [`Engine`] over this fixture's shared graph and index, with
    /// `threads` batch workers (0 = one per core).
    pub fn engine(&self, threads: usize) -> Engine {
        Engine::builder(Arc::clone(&self.graph))
            .index(Arc::clone(&self.index))
            .threads(threads)
            .build()
    }
}

/// Builds a fixture from a dataset profile scaled by `scale`, with `queries`
/// query vertices of core number at least `min_core`.
pub fn fixture(
    profile: &DatasetProfile,
    scale: f64,
    queries: usize,
    min_core: u32,
) -> BenchFixture {
    let graph = generate(&profile.scaled(scale));
    let index = build_advanced(&graph, true);
    let selected = select_query_vertices(&graph, index.decomposition(), queries, min_core, 99);
    BenchFixture {
        name: profile.name.clone(),
        graph: Arc::new(graph),
        index: Arc::new(index),
        queries: selected,
    }
}

/// The default benchmark fixture: the DBLP-like profile at a small scale.
pub fn default_fixture() -> BenchFixture {
    fixture(&acq_datagen::dblp(), 0.4, 20, 6)
}

/// A denser fixture (Tencent-like) for the structure-heavy benchmarks.
pub fn dense_fixture() -> BenchFixture {
    fixture(&acq_datagen::tencent(), 0.25, 20, 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_queries_and_valid_indexes() {
        let f = fixture(&acq_datagen::tiny(), 1.0, 5, 3);
        assert!(!f.queries.is_empty());
        assert!(f.index.validate(&f.graph).is_ok());
        for &q in &f.queries {
            assert!(f.index.core_number(q) >= 3);
        }
    }
}
