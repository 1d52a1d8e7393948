//! Shared building blocks of the query algorithms: candidate keyword-set
//! generation (the paper's `GENECAND`, Algorithm 7) and community
//! verification (finding `G[S']` and `Gk[S']` with the Lemma 3 prune).

use crate::query::QueryStats;
use acq_cltree::{ClTree, NodeId};
use acq_graph::{AttributedGraph, KeywordId, VertexId, VertexSubset};
use acq_kcore::{may_contain_kcore, peel_to_kcore_containing};
use std::collections::HashSet;

/// A candidate or qualified keyword set, always kept sorted and deduplicated.
pub type KeywordSetVec = Vec<KeywordId>;

/// The paper's `GENECAND` (Algorithm 7): joins every pair of size-`c`
/// qualified keyword sets that differ only in their last keyword into a
/// size-`c+1` candidate, and keeps the candidate only if **all** of its
/// size-`c` subsets are qualified (Lemma 1, anti-monotonicity).
pub fn generate_candidates(qualified: &[KeywordSetVec]) -> Vec<KeywordSetVec> {
    let qualified_lookup: HashSet<&[KeywordId]> = qualified.iter().map(Vec::as_slice).collect();
    let mut out: Vec<KeywordSetVec> = Vec::new();
    for (i, a) in qualified.iter().enumerate() {
        for b in &qualified[i + 1..] {
            debug_assert_eq!(a.len(), b.len());
            let c = a.len();
            if c == 0 || a[..c - 1] != b[..c - 1] {
                continue;
            }
            let mut joined = a.clone();
            joined.push(b[c - 1]);
            joined.sort_unstable();
            joined.dedup();
            if joined.len() != c + 1 {
                continue;
            }
            let all_subsets_qualified = (0..joined.len()).all(|drop| {
                let mut subset = joined.clone();
                subset.remove(drop);
                qualified_lookup.contains(subset.as_slice())
            });
            if all_subsets_qualified {
                out.push(joined);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Given the pool of vertices already known to contain the candidate keyword
/// set `S'`, computes the attributed community `Gk[S']`:
///
/// 1. `G[S']` — the connected component of the pool that contains `q`;
/// 2. the Lemma 3 prune (`m - n < k(k-1)/2 - 1` ⇒ no k-ĉore can exist);
/// 3. `Gk[S']` — the maximal connected subgraph of `G[S']` containing `q`
///    with minimum degree ≥ `k` (iterative peeling).
///
/// Returns `None` when no such community exists. `stats` is updated with the
/// verification / pruning counters.
pub fn verify_candidate(
    graph: &AttributedGraph,
    q: VertexId,
    k: usize,
    pool: &VertexSubset,
    stats: &mut QueryStats,
) -> Option<VertexSubset> {
    stats.candidates_verified += 1;
    let g_s = pool.component_of(graph, q)?;
    let edges = g_s.induced_edge_count(graph);
    if !may_contain_kcore(g_s.len(), edges, k) {
        stats.pruned_by_lemma3 += 1;
        return None;
    }
    peel_to_kcore_containing(graph, &g_s, q, k)
}

/// Builds the vertex pool for a candidate keyword set by scanning an explicit
/// list of vertices against the graph's keyword sets (used by the index-free
/// algorithms and by the `*` no-inverted-list variants).
pub fn filter_by_keywords(
    graph: &AttributedGraph,
    vertices: impl IntoIterator<Item = VertexId>,
    keywords: &[KeywordId],
) -> VertexSubset {
    let mut sorted = keywords.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    VertexSubset::from_iter(
        graph.num_vertices(),
        vertices.into_iter().filter(|&v| graph.keyword_set(v).contains_all(&sorted)),
    )
}

/// The paper's **keyword-checking** (§4): the pool of vertices in the subtree
/// rooted at `node` that carry every keyword of `keywords`, gathered by
/// intersecting the per-node inverted lists — or, for the `*` ablations
/// (`use_inverted_lists == false`, or an index built without lists), by
/// streaming the subtree against the graph's keyword sets.
pub(crate) fn keyword_pool(
    graph: &AttributedGraph,
    index: &ClTree,
    node: NodeId,
    keywords: &[KeywordId],
    use_inverted_lists: bool,
) -> VertexSubset {
    if use_inverted_lists && index.has_inverted_lists() {
        let vertices = index.vertices_with_keywords_under(node, keywords);
        VertexSubset::from_iter(graph.num_vertices(), vertices)
    } else {
        filter_by_keywords(graph, index.subtree_vertex_iter(node), keywords)
    }
}

/// Per-keyword vertex pools over a search space: `pool` `i` holds the
/// vertices of the space carrying query keyword `i`. Built in one scan, the
/// pools turn every candidate-pool computation — at any candidate size — into
/// word-parallel bitset intersection ([`candidate_pool`](Self::candidate_pool))
/// instead of a keyword-set scan per vertex per candidate.
#[derive(Debug, Clone)]
pub struct KeywordPools {
    /// Universe size (vertex count of the parent graph).
    n: usize,
    /// The query keywords, sorted and deduplicated.
    keywords: Vec<KeywordId>,
    /// `pools[i]` = vertices of the space carrying `keywords[i]`.
    pools: Vec<VertexSubset>,
}

impl KeywordPools {
    /// Builds the pools with one scan of `space`; see
    /// [`build_with_shares`](Self::build_with_shares).
    pub fn build(
        graph: &AttributedGraph,
        space: impl IntoIterator<Item = VertexId>,
        keywords: &[KeywordId],
    ) -> Self {
        Self::build_with_shares(graph, space, keywords).0
    }

    /// Builds the pools and, from the same two-pointer merge walk, the number
    /// of query keywords each space vertex shares (the paper's `R̂` share
    /// counts used by `Dec`). The walk is exactly the
    /// `KeywordSet::intersection_size` merge the pre-bitset code already ran
    /// per vertex, so pool construction adds only the per-hit bit inserts.
    pub fn build_with_shares(
        graph: &AttributedGraph,
        space: impl IntoIterator<Item = VertexId>,
        keywords: &[KeywordId],
    ) -> (Self, Vec<(VertexId, usize)>) {
        let mut sorted = keywords.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = graph.num_vertices();
        let mut pools = vec![VertexSubset::empty(n); sorted.len()];
        // Walk the space into the output first, then merge over that one
        // contiguous array: a CL-tree subtree streams out of many scattered
        // node blocks, and interleaving those (cold) reads with the keyword
        // loads below cost ~100 µs per query at 100 k vertices.
        let mut shares: Vec<(VertexId, usize)> = space.into_iter().map(|v| (v, 0)).collect();
        for (v, share) in &mut shares {
            let wv = graph.keyword_set(*v).as_slice();
            let (mut i, mut j) = (0usize, 0usize);
            while i < wv.len() && j < sorted.len() {
                match wv[i].cmp(&sorted[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        *share += 1;
                        pools[j].insert(*v);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        (Self { n, keywords: sorted, pools }, shares)
    }

    /// Word-parallel pool assembly: the vertices carrying *every* keyword of
    /// `candidate` are exactly the intersection of the per-keyword pools, so a
    /// size-`c` candidate costs `c - 1` word-wise `AND`s. A keyword without a
    /// pool means no space vertex carries it — the empty subset.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` is empty (candidates are never empty).
    pub fn candidate_pool(&self, candidate: &[KeywordId]) -> VertexSubset {
        let (first, rest) =
            candidate.split_first().expect("candidate keyword sets are never empty");
        let Some(mut pool) = self.pool_of(*first).cloned() else {
            return VertexSubset::empty(self.n);
        };
        for &kw in rest {
            match self.pool_of(kw) {
                Some(p) => pool.intersect_in_place(p),
                None => return VertexSubset::empty(self.n),
            }
        }
        pool
    }

    /// The pool of a single keyword, if it is one of the query keywords.
    pub fn pool_of(&self, kw: KeywordId) -> Option<&VertexSubset> {
        self.keywords.binary_search(&kw).ok().map(|i| &self.pools[i])
    }
}

/// The minimum core number of a community — the paper's subgraph core number
/// (Definition 4), used by `Inc-S` to shrink later verification ranges.
pub fn subgraph_core_number(
    decomposition: &acq_kcore::CoreDecomposition,
    community: &VertexSubset,
) -> u32 {
    decomposition.subgraph_core_number(community.iter()).expect("communities are never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_graph::paper_figure3_graph;

    fn kws(ids: &[u32]) -> KeywordSetVec {
        ids.iter().map(|&i| KeywordId(i)).collect()
    }

    #[test]
    fn genecand_joins_and_prunes() {
        // {1,2}, {1,3}, {2,3} -> {1,2,3}; all subsets qualified.
        let cands = generate_candidates(&[kws(&[1, 2]), kws(&[1, 3]), kws(&[2, 3])]);
        assert_eq!(cands, vec![kws(&[1, 2, 3])]);
        // Without {2,3} the candidate is pruned by anti-monotonicity.
        assert!(generate_candidates(&[kws(&[1, 2]), kws(&[1, 3])]).is_empty());
        // Size-1 sets join freely.
        let cands = generate_candidates(&[kws(&[1]), kws(&[2]), kws(&[5])]);
        assert_eq!(cands, vec![kws(&[1, 2]), kws(&[1, 5]), kws(&[2, 5])]);
        // Sets differing before the last keyword do not join.
        assert!(generate_candidates(&[kws(&[1, 2]), kws(&[3, 4])]).is_empty());
        assert!(generate_candidates(&[]).is_empty());
    }

    #[test]
    fn verify_candidate_reproduces_section3_example() {
        // q = A, k = 2, S' = {x, y}: pool = vertices containing both x and y.
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let dict = g.dictionary();
        let pool =
            filter_by_keywords(&g, g.vertices(), &[dict.get("x").unwrap(), dict.get("y").unwrap()]);
        let mut stats = QueryStats::default();
        let community = verify_candidate(&g, a, 2, &pool, &mut stats).unwrap();
        let mut names: Vec<&str> = community.iter().map(|v| g.label(v).unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["A", "C", "D"]);
        assert_eq!(stats.candidates_verified, 1);
    }

    #[test]
    fn verify_candidate_fails_when_query_not_in_pool() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let dict = g.dictionary();
        // Keyword z is not carried by A.
        let pool = filter_by_keywords(&g, g.vertices(), &[dict.get("z").unwrap()]);
        let mut stats = QueryStats::default();
        assert!(verify_candidate(&g, a, 1, &pool, &mut stats).is_none());
    }

    #[test]
    fn verify_candidate_prunes_with_lemma3() {
        // q = A, k = 3, S' = {y}: pool = {A, C, D, E, F, G, H}; the component
        // containing A has 6 vertices and 7 edges, so m - n = 1 < 3·2/2 - 1 = 2
        // and Lemma 3 prunes it before any peeling.
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let pool = filter_by_keywords(&g, g.vertices(), &[g.dictionary().get("y").unwrap()]);
        let mut stats = QueryStats::default();
        assert!(verify_candidate(&g, a, 3, &pool, &mut stats).is_none());
        assert_eq!(stats.pruned_by_lemma3, 1);
    }

    #[test]
    fn filter_by_keywords_dedups_and_sorts_query() {
        let g = paper_figure3_graph();
        let x = g.dictionary().get("x").unwrap();
        let pool = filter_by_keywords(&g, g.vertices(), &[x, x]);
        assert_eq!(pool.len(), 7, "A, B, C, D, G, I, J carry x");
    }

    #[test]
    fn subgraph_core_number_is_minimum_core() {
        let g = paper_figure3_graph();
        let decomp = acq_kcore::CoreDecomposition::compute(&g);
        let subset = VertexSubset::from_iter(
            g.num_vertices(),
            ["A", "E"].iter().map(|l| g.vertex_by_label(l).unwrap()),
        );
        assert_eq!(subgraph_core_number(&decomp, &subset), 2);
    }
}
