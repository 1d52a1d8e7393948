//! # acq-cltree
//!
//! The **CL-tree** (Core Label tree) index of *Effective Community Search for
//! Large Attributed Graphs* (Fang et al., PVLDB 2016), Section 5.
//!
//! The k-ĉores of a graph are nested, so they form a tree. After compression
//! each graph vertex is stored in exactly one tree node (the one matching its
//! core number), and each node carries an inverted list from keywords to the
//! vertices owning them. The index gives the ACQ query algorithms two fast
//! primitives: *core-locating* (find the k-ĉore containing a query vertex by
//! walking the tree) and *keyword-checking* (find the vertices of a ĉore that
//! contain a keyword set by intersecting inverted lists).
//!
//! Two construction algorithms are provided, mirroring the paper:
//! [`build_basic`] (top-down, `O(m·kmax)`) and [`build_advanced`] (bottom-up
//! with an Anchored Union-Find, `O(m·α(n))`). Both produce the same canonical
//! tree; the experiment for the paper's Figure 13 compares their running
//! times. Incremental maintenance under keyword and edge updates lives in
//! [`maintenance`].
//!
//! ```
//! use acq_graph::paper_figure3_graph;
//! use acq_cltree::build_advanced;
//!
//! let g = paper_figure3_graph();
//! let index = build_advanced(&g, true);
//! let a = g.vertex_by_label("A").unwrap();
//! // The 2-ĉore containing A is {A, B, C, D, E}.
//! let core = index.kcore_containing(a, 2, g.num_vertices()).unwrap();
//! assert_eq!(core.len(), 5);
//! ```

#![deny(missing_docs)]

mod build_advanced;
mod build_basic;
pub mod maintenance;
mod node;
mod tree;

pub use build_advanced::{build_advanced, build_advanced_with_decomposition};
pub use build_basic::{build_basic, build_basic_with_decomposition};
pub use maintenance::MaintenanceReport;
pub use node::{ClTreeNode, NodeId};
pub use tree::{ClTree, SubtreeVertices};

#[cfg(test)]
mod proptests {
    use super::*;
    use acq_graph::{GraphBuilder, VertexId};
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = acq_graph::AttributedGraph> {
        (1usize..28).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..100);
            let keywords = proptest::collection::vec(proptest::collection::vec(0u32..6, 0..5), n);
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
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn both_builders_produce_identical_valid_trees(g in arb_graph()) {
            let basic = build_basic(&g, true);
            let advanced = build_advanced(&g, true);
            prop_assert!(basic.validate(&g).is_ok(), "{:?}", basic.validate(&g));
            prop_assert!(advanced.validate(&g).is_ok(), "{:?}", advanced.validate(&g));
            prop_assert_eq!(basic.canonical_form(), advanced.canonical_form());
        }

        #[test]
        fn locate_core_equals_peeling_based_kcore(g in arb_graph()) {
            let index = build_advanced(&g, true);
            let decomp = index.decomposition().clone();
            for v in g.vertices().take(6) {
                for k in 1..=decomp.core_number(v) {
                    let via_index = index
                        .kcore_containing(v, k, g.num_vertices())
                        .expect("k <= core(v)");
                    let via_bfs = acq_kcore::connected_kcore_containing(&g, &decomp, v, k)
                        .expect("k <= core(v)");
                    prop_assert_eq!(via_index.sorted_members(), via_bfs.sorted_members());
                }
            }
        }

        #[test]
        fn keyword_checking_equals_direct_scan(g in arb_graph()) {
            let index = build_advanced(&g, true);
            let dict = g.dictionary();
            let keywords: Vec<_> = dict.iter().map(|(id, _)| id).take(3).collect();
            if keywords.is_empty() {
                return Ok(());
            }
            let root = index.root();
            let mut via_lists = index.vertices_with_keywords_under(root, &keywords);
            via_lists.sort_unstable();
            let mut via_scan = index.vertices_with_keywords_under_scan(&g, root, &keywords);
            via_scan.sort_unstable();
            prop_assert_eq!(via_lists, via_scan);
        }

        #[test]
        fn edge_removal_maintenance_equals_rebuild(g in arb_graph()) {
            let mut index = build_advanced(&g, true);
            if let Some(u) = g.vertices().find(|&v| g.degree(v) > 0) {
                let v = g.neighbors(u)[0];
                let g2 = g.with_edge_removed(u, v).unwrap();
                let mut report = MaintenanceReport::default();
                maintenance::step_edge_removal(&mut index, &g2, u, v, &mut report);
                if report.skeleton_changed {
                    maintenance::rebuild_skeleton(&mut index, &g2);
                }
                prop_assert!(index.validate(&g2).is_ok(), "{:?}", index.validate(&g2));
                let rebuilt = build_advanced(&g2, true);
                prop_assert_eq!(index.canonical_form(), rebuilt.canonical_form());
            }
        }

        #[test]
        fn keyword_maintenance_keeps_index_consistent(g in arb_graph(), pick in 0usize..64) {
            let mut index = build_advanced(&g, true);
            let v = acq_graph::VertexId::from_index(pick % g.num_vertices());
            // Insert a brand-new keyword, then remove an existing one.
            let g2 = g.with_keyword_added(v, "zz-added").unwrap();
            let added = g2.dictionary().get("zz-added").unwrap();
            maintenance::apply_keyword_insertion(&mut index, v, added);
            prop_assert!(index.validate(&g2).is_ok(), "{:?}", index.validate(&g2));
            let existing = g2.keyword_set(v).iter().next();
            if let Some(existing) = existing {
                let term = g2.dictionary().term(existing).unwrap().to_owned();
                let g3 = g2.with_keyword_removed(v, &term).unwrap();
                maintenance::apply_keyword_removal(&mut index, v, existing);
                prop_assert!(index.validate(&g3).is_ok(), "{:?}", index.validate(&g3));
            }
        }

        #[test]
        fn edge_insertion_maintenance_equals_rebuild(g in arb_graph()) {
            let index = build_advanced(&g, true);
            let n = g.num_vertices();
            'outer: for a in 0..n {
                for b in (a + 1)..n {
                    let (u, v) = (VertexId::from_index(a), VertexId::from_index(b));
                    if !g.has_edge(u, v) {
                        let g2 = g.with_edge_inserted(u, v).unwrap();
                        let (maintained, _) =
                            maintenance::apply_edge_insertion_with_report(&index, &g2, u, v);
                        prop_assert!(maintained.validate(&g2).is_ok(), "{:?}", maintained.validate(&g2));
                        let rebuilt = build_advanced(&g2, true);
                        prop_assert_eq!(maintained.canonical_form(), rebuilt.canonical_form());
                        break 'outer;
                    }
                }
            }
        }

        /// The property the batch plan of `Engine::apply_updates` rests on: any
        /// run of per-edge steps followed by **one** skeleton rebuild (none if
        /// no step asked for it) equals a from-scratch build of the final graph.
        #[test]
        fn edge_toggles_with_one_rebuild_equal_build_advanced(
            g in arb_graph(),
            toggles in proptest::collection::vec((0u32..28, 0u32..28), 1..24),
        ) {
            let n = g.num_vertices() as u32;
            let mut graph = g.clone();
            let mut index = build_advanced(&g, true);
            let mut report = MaintenanceReport::default();
            for (a, b) in toggles {
                let (u, v) = (VertexId(a % n), VertexId(b % n));
                if u == v {
                    continue;
                }
                if graph.has_edge(u, v) {
                    graph = graph.with_edge_removed(u, v).unwrap();
                    maintenance::step_edge_removal(&mut index, &graph, u, v, &mut report);
                } else {
                    graph = graph.with_edge_inserted(u, v).unwrap();
                    maintenance::step_edge_insertion(&mut index, &graph, u, v, &mut report);
                }
            }
            if report.skeleton_changed {
                maintenance::rebuild_skeleton(&mut index, &graph);
            }
            prop_assert!(index.validate(&graph).is_ok(), "{:?}", index.validate(&graph));
            let rebuilt = build_advanced(&graph, true);
            prop_assert_eq!(index.canonical_form(), rebuilt.canonical_form());
            prop_assert_eq!(
                index.decomposition().core_numbers(),
                rebuilt.decomposition().core_numbers()
            );
        }
    }
}
