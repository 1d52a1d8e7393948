//! # acq-core
//!
//! The attributed community query (ACQ) of *Effective Community Search for
//! Large Attributed Graphs* (Fang et al., PVLDB 2016): problem definition,
//! the five query algorithms of the paper (`basic-g`, `basic-w`, `Inc-S`,
//! `Inc-T`, `Dec`), the two problem variants of Appendix G, and one unified
//! query surface — build a [`Request`], hand it to any [`Executor`]
//! (the owning [`Engine`] or the [`ShardedEngine`]), read the [`Response`].
//!
//! Given a graph `G`, a query vertex `q`, a degree bound `k` and a keyword set
//! `S ⊆ W(q)`, an **attributed community** is a connected subgraph containing
//! `q`, with minimum internal degree ≥ `k`, maximising the number of keywords
//! of `S` shared by *all* members (the AC-label).
//!
//! ```
//! use acq_graph::paper_figure3_graph;
//! use acq_core::{AcqAlgorithm, Engine, Executor, Request};
//! use std::sync::Arc;
//!
//! let graph = Arc::new(paper_figure3_graph());
//! let engine = Engine::new(Arc::clone(&graph));
//! let q = graph.vertex_by_label("A").unwrap();
//!
//! // Default algorithm (Dec) with the default keyword set S = W(q).
//! let ac = engine.execute(&Request::community(q).k(2)).unwrap();
//! assert_eq!(ac.communities()[0].label_terms(&graph), vec!["x", "y"]);
//!
//! // Any of the paper's algorithms returns the same communities.
//! let same = engine
//!     .execute(&Request::community(q).k(2).algorithm(AcqAlgorithm::IncT))
//!     .unwrap();
//! assert_eq!(same.canonical(), ac.canonical());
//! ```

#![deny(missing_docs)]

pub mod algorithms;
pub mod common;
mod engine;
pub mod exec;
mod owned;
mod query;
mod request;
mod serving;
pub mod shard;
pub mod variants;

pub use acq_metrics::serving::{ShardStatus, UpdateReport, UpdateStrategy};
pub use algorithms::basic::{basic_g, basic_w};
pub use algorithms::dec::{dec, dec_with_miner};
pub use algorithms::incremental::{inc_s, inc_t};
pub use engine::AcqAlgorithm;
pub use owned::{Engine, EngineBuilder};
pub use query::{AcqQuery, AcqResult, AttributedCommunity, QueryError, QueryStats};
pub use request::{ExecutionMeta, Executor, QuerySpec, Request, Response};
pub use serving::{ServingEngine, WriteError, WriteToken};
pub use shard::{ShardedEngine, ShardedEngineBuilder};
pub use variants::{
    basic_g_v1, basic_g_v2, basic_w_v1, basic_w_v2, sw, swt, Variant1Query, Variant2Query,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use acq_cltree::build_advanced;
    use acq_graph::{GraphBuilder, VertexId};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Random attributed graphs with a small keyword universe so that keyword
    /// sharing actually happens.
    fn arb_graph() -> impl Strategy<Value = acq_graph::AttributedGraph> {
        (4usize..22).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..90);
            let keywords = proptest::collection::vec(proptest::collection::vec(0u32..5, 0..4), n);
            (edges, keywords).prop_map(|(edges, kws)| {
                let mut b = GraphBuilder::new();
                for kw in &kws {
                    let terms: Vec<String> = kw.iter().map(|k| format!("kw{k}")).collect();
                    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
                    b.add_unlabeled_vertex(&refs);
                }
                for &(u, v) in &edges {
                    if u != v {
                        b.add_edge(VertexId(u), VertexId(v)).unwrap();
                    }
                }
                b.build()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// All five algorithms (plus the two `*` ablations) return exactly the
        /// same set of communities for the same query.
        #[test]
        fn all_algorithms_agree(g in arb_graph(), q_raw in 0u32..22, k in 1usize..4) {
            let q = VertexId(q_raw % g.num_vertices() as u32);
            let engine = Engine::new(Arc::new(g));
            let request = Request::community(q).k(k);
            let reference = engine
                .execute(&request.clone().algorithm(AcqAlgorithm::BasicG))
                .unwrap()
                .canonical();
            for algorithm in AcqAlgorithm::ALL {
                let response = engine.execute(&request.clone().algorithm(algorithm)).unwrap();
                prop_assert_eq!(response.canonical(), reference.clone(), "{}", algorithm.name());
            }
        }

        /// Every returned community satisfies the three properties of
        /// Problem 1: connectivity, minimum degree, and the AC-label really is
        /// shared by every member and drawn from S ∩ W(q).
        #[test]
        fn results_satisfy_problem_definition(g in arb_graph(), q_raw in 0u32..22, k in 1usize..4) {
            let q = VertexId(q_raw % g.num_vertices() as u32);
            let engine = Engine::new(Arc::new(g.clone()));
            let query = AcqQuery::new(q, k);
            let result = engine.execute(&Request::community(q).k(k)).unwrap().result;
            let s = query.effective_keywords(&g);
            for community in &result.communities {
                // Contains q.
                prop_assert!(community.vertices.contains(&q));
                // Connected with min degree >= k (label-empty fallback is the
                // k-ĉore, which satisfies the same structural constraints).
                let subset = acq_graph::VertexSubset::from_iter(
                    g.num_vertices(),
                    community.vertices.iter().copied(),
                );
                prop_assert!(subset.is_connected(&g));
                for &v in &community.vertices {
                    prop_assert!(subset.degree_within(&g, v) >= k,
                        "vertex {:?} has degree {} < {}", v, subset.degree_within(&g, v), k);
                }
                // AC-label ⊆ S and shared by all members.
                for &kw in &community.label {
                    prop_assert!(s.contains(&kw));
                    for &v in &community.vertices {
                        prop_assert!(g.keyword_set(v).contains(kw));
                    }
                }
                prop_assert_eq!(community.label.len(), result.label_size);
            }
        }

        /// Maximality of the AC-label: no single keyword of S can be added to
        /// the winning label and still admit a valid community. (Checked by
        /// brute force against basic-w over the label ∪ {extra}.)
        #[test]
        fn label_is_maximal(g in arb_graph(), q_raw in 0u32..22, k in 1usize..3) {
            let q = VertexId(q_raw % g.num_vertices() as u32);
            let engine = Engine::new(Arc::new(g.clone()));
            let query = AcqQuery::new(q, k);
            let result = engine.execute(&Request::community(q).k(k)).unwrap().result;
            if result.is_empty() {
                return Ok(());
            }
            let s = query.effective_keywords(&g);
            let best = result.label_size;
            // Try every keyword set of size best+1 drawn from S that extends a
            // returned label: none may admit a community.
            for community in &result.communities {
                for &extra in &s {
                    if community.label.contains(&extra) {
                        continue;
                    }
                    let mut bigger = community.label.clone();
                    bigger.push(extra);
                    bigger.sort_unstable();
                    let probe = Request::community(q)
                        .k(k)
                        .keywords(bigger.iter().copied())
                        .algorithm(AcqAlgorithm::BasicW);
                    let probe_result = engine.execute(&probe).unwrap().result;
                    prop_assert!(
                        probe_result.label_size <= best,
                        "label {:?} of size {} beats reported maximum {}",
                        bigger, probe_result.label_size, best
                    );
                }
            }
        }

        /// Variant agreement: the three Variant 1 algorithms agree, as do the
        /// three Variant 2 algorithms.
        #[test]
        fn variant_algorithms_agree(g in arb_graph(), q_raw in 0u32..22, k in 1usize..4, theta in 0.0f64..1.0) {
            let q = VertexId(q_raw % g.num_vertices() as u32);
            let index = build_advanced(&g, true);
            let keywords: Vec<_> = g.keyword_set(q).iter().take(2).collect();
            let v1 = Variant1Query { vertex: q, k, keywords: keywords.clone() };
            let a = basic_g_v1(&g, &v1).canonical();
            prop_assert_eq!(basic_w_v1(&g, &v1).canonical(), a.clone());
            prop_assert_eq!(sw(&g, &index, &v1).canonical(), a);
            let v2 = Variant2Query { vertex: q, k, keywords, theta };
            let b = basic_g_v2(&g, &v2).canonical();
            prop_assert_eq!(basic_w_v2(&g, &v2).canonical(), b.clone());
            prop_assert_eq!(swt(&g, &index, &v2).canonical(), b);
        }
    }
}
