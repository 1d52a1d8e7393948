//! The decremental algorithm `Dec` (Algorithm 4) — the paper's fastest query
//! algorithm.
//!
//! `Dec` differs from the incremental algorithms in both phases:
//!
//! 1. **Candidate generation**: every vertex of `Gk[S']` has at least `k`
//!    neighbours inside the community, so in particular `q` has at least `k`
//!    neighbours containing `S'`. All candidates can therefore be produced up
//!    front by mining the keyword sets of `q`'s neighbours (restricted to `S`)
//!    with a frequent-pattern algorithm at minimum support `k` (FP-Growth).
//! 2. **Verification order**: candidates are verified from the *largest* size
//!    downwards, inside the set `R̂` of vertices of the k-ĉore that share at
//!    least `l` keywords with `q`; the first size with a qualifying set wins.

use crate::algorithms::basic::assemble;
use crate::common::{verify_candidate, KeywordPools, KeywordSetVec};
use crate::query::{AcqQuery, AcqResult, QueryStats};
use acq_cltree::ClTree;
use acq_fpm::{mine_frequent_itemsets, MiningAlgorithm, Transaction};
use acq_graph::{AttributedGraph, KeywordId, VertexId, VertexSubset};

/// `Dec` with FP-Growth candidate generation (the paper's default).
pub fn dec(graph: &AttributedGraph, index: &ClTree, query: &AcqQuery) -> AcqResult {
    dec_with_miner(graph, index, query, MiningAlgorithm::FpGrowth)
}

/// `Dec` with a caller-selected frequent-pattern miner (FP-Growth or Apriori).
pub fn dec_with_miner(
    graph: &AttributedGraph,
    index: &ClTree,
    query: &AcqQuery,
    miner: MiningAlgorithm,
) -> AcqResult {
    let mut stats = QueryStats::default();
    let q = query.vertex;
    let k = query.k;
    let s = query.effective_keywords(graph);

    if index.core_number(q) < k as u32 {
        return AcqResult::empty(stats);
    }
    let root_k = index.locate_core(q, k as u32).expect("core(q) >= k");

    // ---- Candidate generation from q's neighbourhood (line 2). ----
    let candidates_by_size = neighbourhood_candidates(graph, q, k, &s, miner);

    // ---- R_i: vertices of the k-ĉore sharing exactly i keywords of S with q
    //      (lines 3-4). The same merge walk that counts the shares builds the
    //      per-keyword vertex pools candidate verification later intersects
    //      word-parallel, so the pools come at the cost of a few bit inserts
    //      on top of the share pass the pre-bitset code already ran. The
    //      k-ĉore streams off the tree straight into the share list. ----
    let n = graph.num_vertices();
    let (single_pools, share_count) =
        KeywordPools::build_with_shares(graph, index.subtree_vertex_iter(root_k), &s);

    // The plain k-ĉore: every subtree vertex has a share entry.
    let fallback = || Some(VertexSubset::from_iter(n, share_count.iter().map(|&(v, _)| v)));

    let h = candidates_by_size.len();
    if h == 0 {
        // Fewer than k neighbours share any keyword of S with q: no AC-label
        // is possible and the answer degenerates to the plain k-ĉore.
        return assemble(graph, Vec::new(), fallback(), stats);
    }

    // ---- Decremental verification (lines 5-15). ----
    let mut level = h;
    let mut last_level: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
    while level >= 1 {
        // R̂: subtree vertices sharing >= `level` keywords of S with q, as a
        // bitset so every candidate pool restricts to it with one word-wise AND.
        let r_hat = VertexSubset::from_iter(
            n,
            share_count.iter().filter(|&&(_, c)| c >= level).map(|&(v, _)| v),
        );
        let mut found: Vec<(KeywordSetVec, VertexSubset)> = Vec::new();
        for candidate in &candidates_by_size[level - 1] {
            let mut pool = single_pools.candidate_pool(candidate);
            pool.intersect_in_place(&r_hat);
            if let Some(community) = verify_candidate(graph, q, k, &pool, &mut stats) {
                stats.qualified_sets += 1;
                found.push((candidate.clone(), community));
            }
        }
        if !found.is_empty() {
            last_level = found;
            break;
        }
        level -= 1;
    }

    let fallback = if last_level.is_empty() { fallback() } else { None };
    assemble(graph, last_level, fallback, stats)
}

/// Mines the candidate keyword sets from `q`'s neighbourhood: each neighbour
/// contributes the transaction `W(neighbour) ∩ S`, and an itemset is a
/// candidate if at least `k` neighbours contain it. Returns the candidates
/// grouped by size (`result[i]` holds the size-`i+1` candidates).
fn neighbourhood_candidates(
    graph: &AttributedGraph,
    q: VertexId,
    k: usize,
    s: &[KeywordId],
    miner: MiningAlgorithm,
) -> Vec<Vec<KeywordSetVec>> {
    let s_sorted: Vec<KeywordId> = {
        let mut v = s.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let transactions: Vec<Transaction> = graph
        .neighbors(q)
        .iter()
        .map(|&n| {
            graph
                .keyword_set(n)
                .iter()
                .filter(|kw| s_sorted.binary_search(kw).is_ok())
                .map(|kw| kw.0)
                .collect()
        })
        .collect();
    let frequent = mine_frequent_itemsets(&transactions, k, miner);

    let mut by_size: Vec<Vec<KeywordSetVec>> = Vec::new();
    for itemset in frequent {
        let size = itemset.items.len();
        if size == 0 {
            continue;
        }
        if by_size.len() < size {
            by_size.resize(size, Vec::new());
        }
        let keywords: KeywordSetVec = itemset.items.iter().map(|&i| KeywordId(i)).collect();
        by_size[size - 1].push(keywords);
    }
    for level in &mut by_size {
        level.sort();
        level.dedup();
    }
    by_size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::basic::basic_g;
    use crate::algorithms::incremental::{inc_s, inc_t};
    use acq_cltree::build_advanced;
    use acq_graph::{paper_figure3_graph, GraphBuilder};

    #[test]
    fn dec_reproduces_section3_example() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let query = AcqQuery::with_keyword_terms(&g, a, 2, &["w", "x", "y"]);
        let result = dec(&g, &index, &query);
        assert_eq!(result.label_size, 2);
        assert_eq!(result.communities[0].member_names(&g), vec!["A", "C", "D"]);
        assert_eq!(result.communities[0].label_terms(&g), vec!["x", "y"]);
    }

    #[test]
    fn dec_agrees_with_all_other_algorithms_on_figure3() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        for label in ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"] {
            let v = g.vertex_by_label(label).unwrap();
            for k in 1..=3usize {
                let query = AcqQuery::new(v, k);
                let expected = basic_g(&g, &query).canonical();
                assert_eq!(dec(&g, &index, &query).canonical(), expected, "dec q={label} k={k}");
                assert_eq!(
                    dec_with_miner(&g, &index, &query, MiningAlgorithm::Apriori).canonical(),
                    expected,
                    "dec/apriori q={label} k={k}"
                );
                assert_eq!(inc_s(&g, &index, &query, true).canonical(), expected);
                assert_eq!(inc_t(&g, &index, &query, true).canonical(), expected);
            }
        }
    }

    #[test]
    fn example6_candidate_generation() {
        // Figure 6: query vertex Q with 6 neighbours, k=3, S={v,x,y,z}.
        // The frequent (support >= 3) combinations are exactly
        // Ψ1={v},{x},{y},{z}; Ψ2={x,y},{x,z},{y,z}; Ψ3={x,y,z}.
        let mut b = GraphBuilder::new();
        let q = b.add_vertex("Q", &["v", "x", "y", "z"]);
        let a = b.add_vertex("A", &["v", "x", "y", "z"]);
        let bb = b.add_vertex("B", &["v", "x"]);
        let c = b.add_vertex("C", &["v", "y"]);
        let d = b.add_vertex("D", &["x", "y", "z"]);
        let e = b.add_vertex("E", &["w", "x", "y", "z"]);
        let f = b.add_vertex("F", &["v", "w"]);
        for n in [a, bb, c, d, e, f] {
            b.add_edge(q, n).unwrap();
        }
        let g = b.build();
        let s: Vec<KeywordId> =
            ["v", "x", "y", "z"].iter().map(|t| g.dictionary().get(t).unwrap()).collect();
        let by_size = neighbourhood_candidates(&g, q, 3, &s, MiningAlgorithm::FpGrowth);
        assert_eq!(by_size.len(), 3);
        assert_eq!(by_size[0].len(), 4, "four frequent single keywords");
        assert_eq!(by_size[1].len(), 3, "{{x,y}}, {{x,z}}, {{y,z}}");
        assert_eq!(by_size[2].len(), 1, "{{x,y,z}}");
        let xyz: KeywordSetVec = {
            let mut v: Vec<KeywordId> =
                ["x", "y", "z"].iter().map(|t| g.dictionary().get(t).unwrap()).collect();
            v.sort_unstable();
            v
        };
        assert!(by_size[2].contains(&xyz));
    }

    #[test]
    fn dec_falls_back_to_kcore_when_no_candidate_exists() {
        // H's only keywords are {y, z}; with S={z} and k=1 the single
        // neighbour I carries {x} only, so mining yields no candidate at all.
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let h = g.vertex_by_label("H").unwrap();
        let query = AcqQuery::with_keyword_terms(&g, h, 1, &["z"]);
        let result = dec(&g, &index, &query);
        assert_eq!(result.label_size, 0);
        assert_eq!(result.communities.len(), 1);
        assert_eq!(result.communities[0].member_names(&g), vec!["H", "I"]);
    }

    #[test]
    fn dec_with_k_above_core_is_empty() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        assert!(dec(&g, &index, &AcqQuery::new(a, 4)).is_empty());
    }
}
