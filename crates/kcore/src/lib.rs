//! # acq-kcore
//!
//! k-core machinery for the ACQ reproduction (Fang et al., PVLDB 2016).
//!
//! Structure cohesiveness in the paper is minimum-degree based: an attributed
//! community must be a connected subgraph in which every vertex has degree at
//! least `k`. The building blocks live here:
//!
//! * [`CoreDecomposition`] — the `O(m)` bin-sort core decomposition of
//!   Batagelj & Zaversnik, giving every vertex its core number;
//! * [`extract`] — obtaining k-cores, the k-ĉore (connected k-core component)
//!   containing a query vertex, and the *peeling* primitive that reduces an
//!   arbitrary vertex subset to its maximal sub-subgraph of minimum degree
//!   `k` (the step "find `Gk[S']` from `G[S']`" used by every query
//!   algorithm);
//! * [`maintenance`] — incremental core-number maintenance under single edge
//!   insertions and removals (the technique of Li et al. referenced by the
//!   paper's index-maintenance discussion).

#![deny(missing_docs)]

pub mod decompose;
pub mod extract;
pub mod maintenance;

pub use decompose::CoreDecomposition;
pub use extract::{
    connected_kcore_containing, kcore_subset, may_contain_kcore, peel_to_kcore,
    peel_to_kcore_containing,
};
pub use maintenance::MaintenanceOutcome;

#[cfg(test)]
mod proptests {
    use super::*;
    use acq_graph::{AttributedGraph, GraphBuilder, VertexId, VertexSubset};
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = AttributedGraph> {
        (2usize..32).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..128).prop_map(move |edges| {
                let mut b = GraphBuilder::new();
                for _ in 0..n {
                    b.add_unlabeled_vertex(&[]);
                }
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(VertexId(u), VertexId(v)).unwrap();
                    }
                }
                b.build()
            })
        })
    }

    /// Brute-force core number: repeatedly peel vertices of degree < k for
    /// every k until the vertex disappears.
    fn naive_core_numbers(g: &AttributedGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut core = vec![0u32; n];
        let max_possible = n as u32;
        for k in 1..=max_possible {
            // Compute the k-core by iterative peeling of the full graph.
            let mut alive = vec![true; n];
            loop {
                let mut removed_any = false;
                for v in 0..n {
                    if alive[v] {
                        let deg = g
                            .neighbors(VertexId::from_index(v))
                            .iter()
                            .filter(|u| alive[u.index()])
                            .count();
                        if (deg as u32) < k {
                            alive[v] = false;
                            removed_any = true;
                        }
                    }
                }
                if !removed_any {
                    break;
                }
            }
            let mut any_alive = false;
            for v in 0..n {
                if alive[v] {
                    core[v] = k;
                    any_alive = true;
                }
            }
            if !any_alive {
                break;
            }
        }
        core
    }

    /// The scalar reference for [`peel_to_kcore`]: a vertex-at-a-time
    /// worklist with per-edge degree decrements and per-element bit tests (the
    /// pre-bitset code path).
    fn peel_to_kcore_scalar(g: &AttributedGraph, subset: &VertexSubset, k: usize) -> VertexSubset {
        let n = g.num_vertices();
        let mut degree = vec![0usize; n];
        for v in subset.iter() {
            degree[v.index()] = subset.degree_within(g, v);
        }
        let mut removed = vec![false; n];
        let mut queue: std::collections::VecDeque<VertexId> =
            subset.iter().filter(|&v| degree[v.index()] < k).collect();
        for v in &queue {
            removed[v.index()] = true;
        }
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if subset.contains(u) && !removed[u.index()] {
                    degree[u.index()] -= 1;
                    if degree[u.index()] < k {
                        removed[u.index()] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
        VertexSubset::from_iter(n, subset.iter().filter(|v| !removed[v.index()]))
    }

    /// Strategy: a graph plus an arbitrary subset of its vertices, for the
    /// scalar-vs-word peeling equivalence property.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn decomposition_matches_naive_peeling(g in arb_graph()) {
            let decomp = CoreDecomposition::compute(&g);
            let naive = naive_core_numbers(&g);
            for v in g.vertices() {
                prop_assert_eq!(decomp.core_number(v), naive[v.index()],
                    "core number of {:?}", v);
            }
        }

        #[test]
        fn kcore_subset_has_min_degree_k(g in arb_graph()) {
            let decomp = CoreDecomposition::compute(&g);
            for k in 0..=decomp.kmax() {
                let sub = kcore_subset(&g, &decomp, k);
                for v in sub.iter() {
                    prop_assert!(sub.degree_within(&g, v) >= k as usize);
                }
            }
        }

        #[test]
        fn kcores_are_nested(g in arb_graph()) {
            let decomp = CoreDecomposition::compute(&g);
            for k in 1..=decomp.kmax() {
                let lower = kcore_subset(&g, &decomp, k - 1);
                let upper = kcore_subset(&g, &decomp, k);
                for v in upper.iter() {
                    prop_assert!(lower.contains(v), "H_{} ⊆ H_{}", k, k - 1);
                }
            }
        }

        #[test]
        fn peeling_yields_maximal_min_degree_subgraph(g in arb_graph(), k in 1usize..5) {
            let full = VertexSubset::full(g.num_vertices());
            let peeled = peel_to_kcore(&g, &full, k);
            // Every surviving vertex meets the degree constraint.
            for v in peeled.iter() {
                prop_assert!(peeled.degree_within(&g, v) >= k);
            }
            // Maximality: the peeled set equals the k-core from the decomposition.
            let decomp = CoreDecomposition::compute(&g);
            let expected = kcore_subset(&g, &decomp, k as u32);
            prop_assert_eq!(peeled.sorted_members(), expected.sorted_members());
        }

        #[test]
        fn word_peel_matches_scalar_peel_on_arbitrary_subsets(gsk in
            (arb_graph_and_subset(), 0usize..6)) {
            let ((g, s), k) = gsk;
            let word = peel_to_kcore(&g, &s, k);
            let scalar = peel_to_kcore_scalar(&g, &s, k);
            prop_assert_eq!(word.sorted_members(), scalar.sorted_members(),
                "peel(k={}) over {} members", k, s.len());
            // The all-empty and all-full subsets are the boundary cases.
            let empty = VertexSubset::empty(g.num_vertices());
            prop_assert!(peel_to_kcore(&g, &empty, k).is_empty());
            let full = VertexSubset::full(g.num_vertices());
            prop_assert_eq!(
                peel_to_kcore(&g, &full, k).sorted_members(),
                peel_to_kcore_scalar(&g, &full, k).sorted_members()
            );
        }

        #[test]
        fn connected_kcore_matches_core_filtered_component(g in arb_graph()) {
            let decomp = CoreDecomposition::compute(&g);
            for k in 0..=decomp.kmax() {
                for q in g.vertices() {
                    // Scalar reference: queue BFS gated on core numbers (the
                    // pre-bitset implementation of connected_kcore_containing).
                    let expected = if decomp.core_number(q) < k {
                        None
                    } else {
                        let mut seen = vec![false; g.num_vertices()];
                        let mut queue = std::collections::VecDeque::new();
                        seen[q.index()] = true;
                        queue.push_back(q);
                        let mut comp = vec![q];
                        while let Some(v) = queue.pop_front() {
                            for &u in g.neighbors(v) {
                                if decomp.core_number(u) >= k && !seen[u.index()] {
                                    seen[u.index()] = true;
                                    comp.push(u);
                                    queue.push_back(u);
                                }
                            }
                        }
                        comp.sort_unstable();
                        Some(comp)
                    };
                    let got = connected_kcore_containing(&g, &decomp, q, k)
                        .map(|c| c.sorted_members());
                    prop_assert_eq!(got, expected, "q={:?}, k={}", q, k);
                }
            }
        }

        #[test]
        fn edge_insertion_maintenance_matches_recomputation(g in arb_graph()) {
            let decomp = CoreDecomposition::compute(&g);
            // Try to insert a missing edge between the first pair found.
            let n = g.num_vertices();
            'outer: for a in 0..n {
                for b in (a + 1)..n {
                    let (u, v) = (VertexId::from_index(a), VertexId::from_index(b));
                    if !g.has_edge(u, v) {
                        let g2 = g.with_edge_inserted(u, v).unwrap();
                        let mut maintained = decomp.clone();
                        maintenance::apply_edge_insertion(&g2, &mut maintained, u, v);
                        let fresh = CoreDecomposition::compute(&g2);
                        for w in g2.vertices() {
                            prop_assert_eq!(maintained.core_number(w), fresh.core_number(w),
                                "after inserting ({:?},{:?}), core of {:?}", u, v, w);
                        }
                        break 'outer;
                    }
                }
            }
        }

        #[test]
        fn edge_removal_maintenance_matches_recomputation(g in arb_graph()) {
            let decomp = CoreDecomposition::compute(&g);
            // Remove the first existing edge, if any.
            if let Some(u) = g.vertices().find(|&v| g.degree(v) > 0) {
                let v = g.neighbors(u)[0];
                let g2 = g.with_edge_removed(u, v).unwrap();
                let mut maintained = decomp.clone();
                maintenance::apply_edge_removal(&g2, &mut maintained, u, v);
                let fresh = CoreDecomposition::compute(&g2);
                for w in g2.vertices() {
                    prop_assert_eq!(maintained.core_number(w), fresh.core_number(w),
                        "after removing ({:?},{:?}), core of {:?}", u, v, w);
                }
            }
        }
    }
}
