//! The CL-tree based incremental algorithms `Inc-S` (Algorithm 2) and `Inc-T`
//! (Algorithm 3).
//!
//! Both verify candidate keyword sets from size 1 upwards, like the basic
//! algorithms, but exploit the index so that each verification searches only a
//! shrinking portion of the graph:
//!
//! * `Inc-S` (space-efficient) remembers, for every qualified keyword set, the
//!   **core number** of its community (Definition 4). By Lemma 2 the community
//!   of a union `S1 ∪ S2` can only live inside the ĉore with core number
//!   `max(core(Gk[S1]), core(Gk[S2]))`, so later verifications start from a
//!   deeper (smaller) CL-tree subtree.
//! * `Inc-T` (time-efficient) remembers the **community itself**. By Lemma 4
//!   `Gk[S1 ∪ S2] ⊆ Gk[S1] ∩ Gk[S2]`, so later verifications do not need any
//!   keyword filtering at all — at the price of keeping the subgraphs in
//!   memory.

use crate::algorithms::basic::assemble;
use crate::common::{generate_candidates, keyword_pool, verify_candidate, KeywordSetVec};
use crate::query::{AcqQuery, AcqResult, QueryStats};
use acq_cltree::ClTree;
use acq_graph::{AttributedGraph, VertexSubset};

/// `Inc-S` — incremental, space-efficient. Set `use_inverted_lists` to `false`
/// for the paper's `Inc-S*` ablation (keyword filtering by scanning the
/// subtree instead of intersecting inverted lists).
pub fn inc_s(
    graph: &AttributedGraph,
    index: &ClTree,
    query: &AcqQuery,
    use_inverted_lists: bool,
) -> AcqResult {
    let mut stats = QueryStats::default();
    let q = query.vertex;
    let k = query.k as u32;
    let s = query.effective_keywords(graph);

    if index.core_number(q) < k {
        return AcqResult::empty(stats);
    }

    // Candidate keyword sets paired with the core number of the ĉore in which
    // their community must be searched (initially k).
    let mut psi: Vec<(KeywordSetVec, u32)> = s.iter().map(|&kw| (vec![kw], k)).collect();
    let mut last_level: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
    // Core numbers of the communities of the latest qualified sets.
    let mut qualified_cores: Vec<(KeywordSetVec, u32)>;

    while !psi.is_empty() {
        let mut phi: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
        let mut phi_cores: Vec<(KeywordSetVec, u32)> = Vec::new();
        for (candidate, core_bound) in &psi {
            let node = index.locate_core(q, *core_bound).expect("core bound never exceeds core(q)");
            let pool = keyword_pool(graph, index, node, candidate, use_inverted_lists);
            if let Some(community) = verify_candidate(graph, q, query.k, &pool, &mut stats) {
                stats.qualified_sets += 1;
                let community_core = index
                    .decomposition()
                    .subgraph_core_number(community.iter())
                    .expect("non-empty community");
                phi_cores.push((candidate.clone(), community_core));
                phi.push((candidate.clone(), community));
            }
        }
        if phi.is_empty() {
            break;
        }
        let qualified_sets: Vec<KeywordSetVec> = phi.iter().map(|(s, _)| s.clone()).collect();
        last_level = phi;
        qualified_cores = phi_cores;
        // Candidate generation + Lemma 2 core bounds for the next level.
        psi = generate_candidates(&qualified_sets)
            .into_iter()
            .map(|candidate| {
                let bound = qualified_cores
                    .iter()
                    .filter(|(subset, _)| is_subset(subset, &candidate))
                    .map(|&(_, c)| c)
                    .max()
                    .unwrap_or(k);
                (candidate, bound.max(k))
            })
            .collect();
    }

    let fallback = if last_level.is_empty() {
        index.kcore_containing(q, k, graph.num_vertices())
    } else {
        None
    };
    assemble(graph, last_level, fallback, stats)
}

/// `Inc-T` — incremental, time-efficient. Set `use_inverted_lists` to `false`
/// for the paper's `Inc-T*` ablation.
pub fn inc_t(
    graph: &AttributedGraph,
    index: &ClTree,
    query: &AcqQuery,
    use_inverted_lists: bool,
) -> AcqResult {
    let mut stats = QueryStats::default();
    let q = query.vertex;
    let k = query.k as u32;
    let s = query.effective_keywords(graph);

    if index.core_number(q) < k {
        return AcqResult::empty(stats);
    }
    let root_k = index.locate_core(q, k).expect("core(q) >= k");

    // Level 1: each single keyword is verified inside the k-ĉore, using the
    // inverted lists (or a scan for the * variant).
    let mut last_level: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
    let mut current: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
    for &kw in &s {
        let candidate = vec![kw];
        let pool = keyword_pool(graph, index, root_k, &candidate, use_inverted_lists);
        if let Some(community) = verify_candidate(graph, q, query.k, &pool, &mut stats) {
            stats.qualified_sets += 1;
            current.push((candidate, community));
        }
    }

    while !current.is_empty() {
        let qualified_sets: Vec<KeywordSetVec> = current.iter().map(|(s, _)| s.clone()).collect();
        let candidates = generate_candidates(&qualified_sets);
        last_level = current;
        if candidates.is_empty() {
            break;
        }
        let mut next: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
        for candidate in candidates {
            // Lemma 4: the community of the union lives in the intersection of
            // the communities of its qualified subsets — and every vertex
            // there already contains all keywords of the candidate, so no
            // keyword filtering is needed.
            let mut pool: Option<VertexSubset> = None;
            for (subset, community) in &last_level {
                if is_subset(subset, &candidate) {
                    match &mut pool {
                        None => pool = Some(community.clone()),
                        Some(p) => p.intersect_in_place(community),
                    }
                }
            }
            let Some(pool) = pool else { continue };
            if let Some(community) = verify_candidate(graph, q, query.k, &pool, &mut stats) {
                stats.qualified_sets += 1;
                next.push((candidate, community));
            }
        }
        current = next;
    }

    let fallback = if last_level.is_empty() {
        Some(index.subtree_vertex_subset(root_k, graph.num_vertices()))
    } else {
        None
    };
    assemble(graph, last_level, fallback, stats)
}

/// Whether `small ⊆ large`, both sorted ascending.
fn is_subset(small: &[acq_graph::KeywordId], large: &[acq_graph::KeywordId]) -> bool {
    let mut it = large.iter();
    'outer: for want in small {
        for have in it.by_ref() {
            match have.cmp(want) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::basic::{basic_g, basic_w};
    use acq_cltree::build_advanced;
    use acq_graph::paper_figure3_graph;

    #[test]
    fn example4_inc_s_qualified_sets_and_cores() {
        // Example 4: q=A, k=1, S={w,x,y}: level 1 finds {x} (core 3) and {y}
        // (core 1); only {x,y} is generated for level 2 and verified under the
        // node with core number 3.
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let query = AcqQuery::with_keyword_terms(&g, a, 1, &["w", "x", "y"]);
        let result = inc_s(&g, &index, &query, true);
        assert_eq!(result.label_size, 2);
        assert_eq!(result.communities.len(), 1);
        assert_eq!(result.communities[0].label_terms(&g), vec!["x", "y"]);
        assert_eq!(result.communities[0].member_names(&g), vec!["A", "C", "D"]);
        // w never qualifies, x and y do, then {x,y}: 3 + 1 verifications... the
        // exact count is 3 candidates at level 1 plus 1 at level 2.
        assert_eq!(result.stats.candidates_verified, 4);
        assert_eq!(result.stats.qualified_sets, 3);
    }

    #[test]
    fn example5_inc_t_level1_subgraphs() {
        // Example 5: G1[{x}] = {A,B,C,D} and G1[{y}] = {A,C,D,E,F,G}; the
        // level-2 pool for {x,y} is their intersection {A,C,D}.
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let query = AcqQuery::with_keyword_terms(&g, a, 1, &["w", "x", "y"]);
        let result = inc_t(&g, &index, &query, true);
        assert_eq!(result.label_size, 2);
        assert_eq!(result.communities[0].member_names(&g), vec!["A", "C", "D"]);
    }

    #[test]
    fn incremental_algorithms_agree_with_baselines() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        for label in ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"] {
            let v = g.vertex_by_label(label).unwrap();
            for k in 1..=3usize {
                let query = AcqQuery::new(v, k);
                let expected = basic_g(&g, &query).canonical();
                assert_eq!(basic_w(&g, &query).canonical(), expected, "basic-w q={label} k={k}");
                assert_eq!(
                    inc_s(&g, &index, &query, true).canonical(),
                    expected,
                    "inc-s q={label} k={k}"
                );
                assert_eq!(
                    inc_t(&g, &index, &query, true).canonical(),
                    expected,
                    "inc-t q={label} k={k}"
                );
                assert_eq!(
                    inc_s(&g, &index, &query, false).canonical(),
                    expected,
                    "inc-s* q={label} k={k}"
                );
                assert_eq!(
                    inc_t(&g, &index, &query, false).canonical(),
                    expected,
                    "inc-t* q={label} k={k}"
                );
            }
        }
    }

    #[test]
    fn k_above_core_number_yields_empty() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let query = AcqQuery::new(a, 4);
        assert!(inc_s(&g, &index, &query, true).is_empty());
        assert!(inc_t(&g, &index, &query, true).is_empty());
    }

    #[test]
    fn inc_s_verifies_under_deeper_core_after_level_one() {
        // With q=A, k=1: {x} has community core 3, so the level-2 candidate
        // {x,y} is verified in the 3-ĉore subtree (4 vertices) rather than the
        // whole 1-ĉore (7 vertices). We can't observe the subtree directly,
        // but pruning must not change the answer, which example4 asserts; here
        // we check the Lemma-2 bound computation is at least k.
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let query = AcqQuery::with_keyword_terms(&g, a, 1, &["x", "y"]);
        let result = inc_s(&g, &index, &query, true);
        assert_eq!(result.label_size, 2);
    }

    #[test]
    fn subset_helper() {
        use acq_graph::KeywordId as K;
        assert!(is_subset(&[K(1), K(3)], &[K(1), K(2), K(3)]));
        assert!(is_subset(&[], &[K(1)]));
        assert!(!is_subset(&[K(4)], &[K(1), K(2), K(3)]));
    }
}
