//! # acq-graph
//!
//! Attributed-graph substrate for the reproduction of *Effective Community
//! Search for Large Attributed Graphs* (Fang et al., PVLDB 2016).
//!
//! An attributed graph is an undirected graph in which every vertex carries a
//! set of keywords `W(v)`. This crate provides:
//!
//! * [`AttributedGraph`] — an immutable CSR graph with interned keywords;
//! * [`GraphBuilder`] — incremental construction;
//! * [`VertexSubset`] — membership bitsets with induced-subgraph operations
//!   (in-subset degrees, connected components), the workhorse of the ACQ
//!   query algorithms;
//! * [`KeywordDictionary`] / [`KeywordSet`] — keyword interning and sorted-set
//!   operations (containment, intersection, Jaccard);
//! * dataset I/O ([`io`]) and summary statistics ([`statistics`]).
//!
//! ```
//! use acq_graph::{paper_figure3_graph, VertexSubset};
//!
//! let g = paper_figure3_graph();
//! let a = g.vertex_by_label("A").unwrap();
//! assert_eq!(g.degree(a), 4);
//! let comp = VertexSubset::full(g.num_vertices()).component_of(&g, a).unwrap();
//! assert_eq!(comp.len(), 7);
//! ```

#![deny(missing_docs)]

pub mod arena;
pub mod components;
pub mod delta;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod keywords;
pub mod partition;
pub mod simd;
pub mod statistics;
pub mod subgraph;

pub use delta::{AppliedDelta, GraphDelta};
pub use error::GraphError;
pub use graph::{
    graph_from_edges, paper_figure3_graph, sorted_ids, unlabeled_graph, AttributedGraph,
    GraphBuilder,
};
pub use ids::{KeywordId, VertexId};
pub use keywords::{KeywordDictionary, KeywordSet};
pub use partition::GraphPartition;
pub use statistics::GraphStatistics;
pub use subgraph::{SetBits, VertexSubset};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random simple graph as (n, edge list) with n in 1..=40.
    fn arb_graph() -> impl Strategy<Value = AttributedGraph> {
        (1usize..40).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..120);
            let keywords = proptest::collection::vec(proptest::collection::vec(0u32..8, 0..6), n);
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

    /// Strategy: a graph plus an arbitrary subset of its vertices.
    fn arb_graph_and_subset() -> impl Strategy<Value = (AttributedGraph, VertexSubset)> {
        arb_graph().prop_flat_map(|g| {
            let n = g.num_vertices();
            let verts = proptest::collection::vec(0..n as u32, 0..(2 * n + 1));
            verts.prop_map(move |ids| {
                let s = VertexSubset::from_iter(n, ids.into_iter().map(VertexId));
                (g.clone(), s)
            })
        })
    }

    /// Strategy: a boundary universe size plus two subsets. The range 62..131
    /// straddles the one-, two- and three-word universes, so the kernels see
    /// full words, partial last words and the exact 64/128 boundaries.
    fn arb_boundary_subsets() -> impl Strategy<Value = (usize, VertexSubset, VertexSubset)> {
        (62usize..131).prop_flat_map(|n| {
            let a = proptest::collection::vec(0..n as u32, 0..n);
            let b = proptest::collection::vec(0..n as u32, 0..n);
            (a, b).prop_map(move |(a, b)| {
                (
                    n,
                    VertexSubset::from_iter(n, a.into_iter().map(VertexId)),
                    VertexSubset::from_iter(n, b.into_iter().map(VertexId)),
                )
            })
        })
    }

    /// Reference set algebra over `BTreeSet`, the scalar semantics the
    /// word-parallel kernels must reproduce bit-for-bit.
    fn as_set(s: &VertexSubset) -> std::collections::BTreeSet<VertexId> {
        s.iter().collect()
    }

    proptest! {
        #[test]
        fn adjacency_is_symmetric(g in arb_graph()) {
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    prop_assert!(g.has_edge(u, v));
                    prop_assert!(g.neighbors(u).contains(&v));
                }
            }
        }

        #[test]
        fn handshake_lemma_holds(g in arb_graph()) {
            let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.num_edges());
        }

        #[test]
        fn adjacency_lists_are_sorted_and_deduped(g in arb_graph()) {
            for v in g.vertices() {
                let ns = g.neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(!ns.contains(&v), "no self loops");
            }
        }

        #[test]
        fn components_partition_vertices(g in arb_graph()) {
            let comps = components::connected_components(&g);
            let total: usize = comps.iter().map(VertexSubset::len).sum();
            prop_assert_eq!(total, g.num_vertices());
            // Each vertex appears in exactly one component.
            let mut seen = vec![false; g.num_vertices()];
            for c in &comps {
                for v in c.iter() {
                    prop_assert!(!seen[v.index()]);
                    seen[v.index()] = true;
                }
            }
        }

        #[test]
        fn jaccard_is_symmetric_and_bounded(g in arb_graph()) {
            let vs: Vec<VertexId> = g.vertices().collect();
            for &u in vs.iter().take(8) {
                for &v in vs.iter().take(8) {
                    let a = g.keyword_set(u).jaccard(g.keyword_set(v));
                    let b = g.keyword_set(v).jaccard(g.keyword_set(u));
                    prop_assert!((a - b).abs() < 1e-12);
                    prop_assert!((0.0..=1.0).contains(&a));
                }
            }
        }

        #[test]
        fn degree_within_word_kernel_matches_scalar(gs in arb_graph_and_subset()) {
            let (g, s) = gs;
            for v in g.vertices() {
                prop_assert_eq!(
                    s.degree_within(&g, v),
                    s.iter().filter(|&u| g.has_edge(u, v)).count(),
                    "degree_within of {:?}", v
                );
            }
            // The all-empty and all-full subsets are degenerate fixed points.
            let empty = VertexSubset::empty(g.num_vertices());
            let full = VertexSubset::full(g.num_vertices());
            for v in g.vertices() {
                prop_assert_eq!(empty.degree_within(&g, v), 0);
                prop_assert_eq!(full.degree_within(&g, v), g.degree(v));
            }
        }

        #[test]
        fn set_algebra_matches_btreeset_reference(bounds in arb_boundary_subsets()) {
            let (n, a, b) = bounds;
            let (sa, sb) = (as_set(&a), as_set(&b));
            prop_assert_eq!(as_set(&a.intersect(&b)), sa.intersection(&sb).copied().collect());
            prop_assert_eq!(as_set(&a.union(&b)), sa.union(&sb).copied().collect());
            prop_assert_eq!(as_set(&a.difference(&b)), sa.difference(&sb).copied().collect());
            prop_assert_eq!(a.intersect(&b).len(), sa.intersection(&sb).count(), "popcount len");
            prop_assert_eq!(a.union(&b).num_vertices(), n, "true universe size");
            // In-place variants agree with the allocating ones.
            let mut c = a.clone();
            c.intersect_in_place(&b);
            prop_assert_eq!(&c, &a.intersect(&b));
            c = a.clone();
            c.union_in_place(&b);
            prop_assert_eq!(&c, &a.union(&b));
            c = a.clone();
            c.difference_in_place(&b);
            prop_assert_eq!(&c, &a.difference(&b));
            // Boundary identities with the all-empty / all-full subsets.
            let (empty, full) = (VertexSubset::empty(n), VertexSubset::full(n));
            prop_assert_eq!(a.intersect(&full), a.clone());
            prop_assert_eq!(a.union(&empty), a.clone());
            prop_assert_eq!(a.difference(&full), empty.clone());
            prop_assert_eq!(full.difference(&a).len(), n - a.len());
        }

        #[test]
        fn word_equality_matches_sorted_member_equality(bounds in arb_boundary_subsets()) {
            let (_, a, b) = bounds;
            prop_assert_eq!(a == b, a.sorted_members() == b.sorted_members());
            prop_assert_eq!(&a, &a.clone());
        }

        #[test]
        fn members_are_sorted_and_consistent_with_iteration(gs in arb_graph_and_subset()) {
            let (_, s) = gs;
            let members = s.members().to_vec();
            prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending, deduplicated");
            prop_assert_eq!(members.len(), s.len(), "cached popcount agrees");
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), members);
            prop_assert_eq!(s.first(), s.members().first().copied());
        }

        #[test]
        fn component_of_word_bfs_matches_scalar_bfs(gs in arb_graph_and_subset()) {
            let (g, s) = gs;
            for start in s.iter() {
                // Scalar reference BFS with per-element bit tests.
                let mut seen = vec![false; g.num_vertices()];
                let mut queue = std::collections::VecDeque::new();
                seen[start.index()] = true;
                queue.push_back(start);
                let mut reached = vec![start];
                while let Some(v) = queue.pop_front() {
                    for &u in g.neighbors(v) {
                        if s.contains(u) && !seen[u.index()] {
                            seen[u.index()] = true;
                            reached.push(u);
                            queue.push_back(u);
                        }
                    }
                }
                reached.sort_unstable();
                let comp = s.component_of(&g, start).expect("start is a member");
                prop_assert_eq!(comp.sorted_members(), reached);
            }
            prop_assert!(s.component_of(&g, VertexId::from_index(g.num_vertices() - 1))
                .is_none() || s.contains(VertexId::from_index(g.num_vertices() - 1)));
        }

        #[test]
        fn components_partition_and_match_component_of(gs in arb_graph_and_subset()) {
            let (g, s) = gs;
            let comps = s.components(&g);
            let total: usize = comps.iter().map(VertexSubset::len).sum();
            prop_assert_eq!(total, s.len(), "components partition the subset");
            for c in &comps {
                for v in c.iter() {
                    prop_assert!(s.contains(v));
                    prop_assert_eq!(s.component_of(&g, v).expect("member"), c.clone());
                }
            }
        }

        /// The incremental delta path must be indistinguishable from building
        /// the post-delta graph from scratch: CSR rows, keyword sets and
        /// labels all agree.
        #[test]
        fn apply_deltas_matches_from_scratch_build(
            graph_and_raw in arb_graph().prop_flat_map(|g| {
                let n = g.num_vertices();
                let deltas = proptest::collection::vec(
                    (0u32..5, 0..(n as u32 + 8), 0..(n as u32 + 8), 0u32..6), 0..24);
                (proptest::strategy::Just(g), deltas)
            })
        ) {
            let (g, raw) = graph_and_raw;
            // Decode the raw tuples into deltas valid for the evolving size.
            let mut n = g.num_vertices();
            let mut deltas = Vec::new();
            for (kind, a, b, kw) in raw {
                let (a, b) = ((a as usize % n) as u32, (b as usize % n) as u32);
                let term = format!("kw{kw}");
                match kind {
                    0 if a != b => deltas.push(GraphDelta::insert_edge(VertexId(a), VertexId(b))),
                    1 if a != b => deltas.push(GraphDelta::remove_edge(VertexId(a), VertexId(b))),
                    2 => deltas.push(GraphDelta::AddKeyword { vertex: VertexId(a), term }),
                    3 => deltas.push(GraphDelta::RemoveKeyword { vertex: VertexId(a), term }),
                    4 => {
                        deltas.push(GraphDelta::InsertVertex {
                            label: None,
                            keywords: vec![term],
                        });
                        n += 1;
                    }
                    _ => {}
                }
            }
            let incremental = g.apply_deltas(&deltas).expect("decoded deltas are valid");

            // Reference: replay the deltas on a naive model, then rebuild.
            let mut edges: std::collections::BTreeSet<(VertexId, VertexId)> = g
                .vertices()
                .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v.min(u), v.max(u))))
                .collect();
            let mut b = GraphBuilder::new();
            let mut keyword_terms: Vec<Vec<String>> = g
                .vertices()
                .map(|v| g.keyword_terms(v).iter().map(|s| (*s).to_owned()).collect())
                .collect();
            for delta in &deltas {
                match delta {
                    GraphDelta::InsertEdge { u, v } => {
                        edges.insert((*u.min(v), *u.max(v)));
                    }
                    GraphDelta::RemoveEdge { u, v } => {
                        edges.remove(&(*u.min(v), *u.max(v)));
                    }
                    GraphDelta::AddKeyword { vertex, term } => {
                        if !keyword_terms[vertex.index()].contains(term) {
                            keyword_terms[vertex.index()].push(term.clone());
                        }
                    }
                    GraphDelta::RemoveKeyword { vertex, term } => {
                        keyword_terms[vertex.index()].retain(|t| t != term);
                    }
                    GraphDelta::InsertVertex { keywords, .. } => {
                        keyword_terms.push(keywords.clone());
                    }
                }
            }
            for terms in &keyword_terms {
                let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
                b.add_unlabeled_vertex(&refs);
            }
            for &(u, v) in &edges {
                b.add_edge(u, v).unwrap();
            }
            let reference = b.build();

            prop_assert_eq!(incremental.num_vertices(), reference.num_vertices());
            prop_assert_eq!(incremental.num_edges(), reference.num_edges());
            for v in reference.vertices() {
                prop_assert_eq!(incremental.neighbors(v), reference.neighbors(v),
                    "CSR row of {:?}", v);
                // Keyword *terms* agree (ids may be interned in another order).
                let mut got: Vec<&str> = incremental.keyword_terms(v);
                let mut want: Vec<&str> = reference.keyword_terms(v);
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "keywords of {:?}", v);
            }
        }

        #[test]
        fn text_roundtrip_preserves_edges(g in arb_graph()) {
            let mut eb = Vec::new();
            let mut kb = Vec::new();
            io::write_text(&g, &mut eb, &mut kb).unwrap();
            let g2 = io::read_text(eb.as_slice(), kb.as_slice()).unwrap();
            prop_assert_eq!(g2.num_edges(), g.num_edges());
        }
    }
}
