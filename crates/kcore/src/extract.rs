//! Extracting k-cores, k-ĉores and minimum-degree subgraphs.
//!
//! The paper distinguishes the *k-core* `H_k` (possibly disconnected) from its
//! connected components, the *k-ĉores*, which are what community-search
//! algorithms actually return. The third primitive here, [`peel_to_kcore`],
//! reduces an arbitrary vertex subset to its maximal subgraph of minimum
//! degree ≥ k — the "find `Gk[S']` from `G[S']`" step that every ACQ query
//! algorithm performs after keyword filtering.

use crate::decompose::CoreDecomposition;
use acq_graph::{arena, simd, AttributedGraph, VertexId, VertexSubset};

/// The k-core `H_k` of the whole graph as a vertex subset: exactly the
/// vertices whose core number is at least `k`.
pub fn kcore_subset(
    graph: &AttributedGraph,
    decomposition: &CoreDecomposition,
    k: u32,
) -> VertexSubset {
    VertexSubset::from_iter(graph.num_vertices(), decomposition.vertices_with_core_at_least(k))
}

/// The k-ĉore containing `q`: the connected component of `H_k` that holds the
/// query vertex, or `None` if `q`'s core number is below `k`.
///
/// Materialises the eligible set (core number ≥ `k`) as a bitset — `O(n)`
/// words of work, the same order as reading the decomposition — and then runs
/// the frontier-bitset BFS of [`VertexSubset::component_of`].
pub fn connected_kcore_containing(
    graph: &AttributedGraph,
    decomposition: &CoreDecomposition,
    q: VertexId,
    k: u32,
) -> Option<VertexSubset> {
    if decomposition.core_number(q) < k {
        return None;
    }
    kcore_subset(graph, decomposition, k).component_of(graph, q)
}

/// Reduces `subset` to its maximal sub-subgraph in which every vertex has
/// degree ≥ `k` *within the result* — i.e. the k-core of the induced subgraph
/// `G[subset]`.
///
/// Worklist peel over word bitsets: every round removes the entire frontier
/// of under-degree vertices from the alive set with one word-wise
/// `difference`, gathers the affected survivors (alive neighbours of removed
/// vertices, by CSR scan), and batch-recomputes their in-subset degrees.
/// Degrees of vertices that lost no neighbour are never touched again.
///
/// All round state lives in three word buffers (`alive`, `frontier`,
/// `affected`) checked out of the per-thread [`acq_graph::arena`] and reused
/// across rounds; after the first query on a worker thread the whole peel is
/// allocation-free except for the returned subset. The word loops run through
/// the kernels of [`acq_graph::simd`].
pub fn peel_to_kcore(graph: &AttributedGraph, subset: &VertexSubset, k: usize) -> VertexSubset {
    let n = graph.num_vertices();
    if k == 0 || subset.is_empty() {
        return subset.clone();
    }
    let words = n.div_ceil(64);
    let mut alive = arena::take_words_copy(subset.words());
    let mut frontier = arena::take_words(words);
    let mut affected = arena::take_words(words);
    let mut frontier_empty = true;
    for v in subset.iter() {
        if degree_in_words(graph, &alive, v) < k {
            set_bit(&mut frontier, v.index());
            frontier_empty = false;
        }
    }
    while !frontier_empty {
        simd::and_not_in_place(&mut alive, &frontier);
        if !simd::any(&alive) {
            break;
        }
        // Alive vertices adjacent to at least one vertex removed this round,
        // accumulated in raw words so the popcount is paid once per round.
        affected.fill(0);
        let affected_words: &mut [u64] = &mut affected;
        simd::for_each_set_bit(&frontier, |i| {
            for &u in graph.neighbors(VertexId::from_index(i)) {
                if get_bit(&alive, u.index()) {
                    set_bit(affected_words, u.index());
                }
            }
        });
        // Batched degree recomputation over the affected set only; the next
        // frontier reuses the (cleared) frontier buffer.
        frontier.fill(0);
        frontier_empty = true;
        let (frontier_ref, frontier_empty_ref) = (&mut frontier, &mut frontier_empty);
        simd::for_each_set_bit(&affected, |i| {
            let u = VertexId::from_index(i);
            if degree_in_words(graph, &alive, u) < k {
                set_bit(frontier_ref, u.index());
                *frontier_empty_ref = false;
            }
        });
    }
    VertexSubset::from_words(n, alive.to_vec())
}

/// In-subset degree of `v` against a raw word bitset — the same CSR scan as
/// [`VertexSubset::degree_within`], usable on the reusable scratch buffers of
/// [`peel_to_kcore`].
#[inline]
fn degree_in_words(graph: &AttributedGraph, words: &[u64], v: VertexId) -> usize {
    graph.neighbors(v).iter().filter(|&&u| get_bit(words, u.index())).count()
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Like [`peel_to_kcore`] but additionally restricts the result to the
/// connected component containing `q`. Returns `None` if `q` itself is peeled
/// away (or was not a member of `subset`).
///
/// This is exactly the subgraph `Gk[S']` of the paper when `subset` is the set
/// of vertices containing keyword set `S'` reachable from `q`.
pub fn peel_to_kcore_containing(
    graph: &AttributedGraph,
    subset: &VertexSubset,
    q: VertexId,
    k: usize,
) -> Option<VertexSubset> {
    let peeled = peel_to_kcore(graph, subset, k);
    if !peeled.contains(q) {
        return None;
    }
    let comp = peeled.component_of(graph, q)?;
    // The component of a min-degree-k subgraph still has min degree k, because
    // all neighbours of a component member inside `peeled` are in the same
    // component.
    Some(comp)
}

/// Lemma 3 of the paper: a connected graph with `n` vertices and `m` edges
/// cannot contain a k-ĉore when `m - n < k(k-1)/2 - 1`. Returns `true` when
/// the subgraph **may** contain a k-ĉore (i.e. it is *not* pruned).
pub fn may_contain_kcore(num_vertices: usize, num_edges: usize, k: usize) -> bool {
    if k <= 1 {
        return num_vertices > 0;
    }
    let threshold = (k * (k - 1)) as i64 / 2 - 1;
    num_edges as i64 - num_vertices as i64 >= threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_graph::{paper_figure3_graph, unlabeled_graph};

    fn labels(graph: &AttributedGraph, s: &VertexSubset) -> Vec<String> {
        let mut v: Vec<String> =
            s.iter().map(|v| graph.label(v).unwrap_or("?").to_owned()).collect();
        v.sort();
        v
    }

    #[test]
    fn kcore_subset_matches_example1() {
        let g = paper_figure3_graph();
        let d = CoreDecomposition::compute(&g);
        let h3 = kcore_subset(&g, &d, 3);
        assert_eq!(labels(&g, &h3), vec!["A", "B", "C", "D"]);
        let h1 = kcore_subset(&g, &d, 1);
        assert_eq!(h1.len(), 9, "everything except the isolated J");
        let h0 = kcore_subset(&g, &d, 0);
        assert_eq!(h0.len(), 10);
    }

    #[test]
    fn connected_kcore_splits_components() {
        let g = paper_figure3_graph();
        let d = CoreDecomposition::compute(&g);
        let a = g.vertex_by_label("A").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let j = g.vertex_by_label("J").unwrap();
        // Example 1: the 1-core has two 1-ĉores, {A..G} and {H, I}.
        let c1 = connected_kcore_containing(&g, &d, a, 1).unwrap();
        assert_eq!(c1.len(), 7);
        let c2 = connected_kcore_containing(&g, &d, h, 1).unwrap();
        assert_eq!(labels(&g, &c2), vec!["H", "I"]);
        // J has core number 0, so there is no 1-ĉore containing it.
        assert!(connected_kcore_containing(&g, &d, j, 1).is_none());
        assert!(connected_kcore_containing(&g, &d, j, 0).is_some());
        // The 3-ĉore containing A is the clique.
        let c3 = connected_kcore_containing(&g, &d, a, 3).unwrap();
        assert_eq!(labels(&g, &c3), vec!["A", "B", "C", "D"]);
        // Asking for k above A's core number yields nothing.
        assert!(connected_kcore_containing(&g, &d, a, 4).is_none());
    }

    #[test]
    fn peel_reduces_subset_to_min_degree_k() {
        let g = paper_figure3_graph();
        // Vertices containing keyword y reachable from A: {A, C, D, E, F, G}.
        let sub = VertexSubset::from_iter(
            g.num_vertices(),
            ["A", "C", "D", "E", "F", "G"].iter().map(|l| g.vertex_by_label(l).unwrap()),
        );
        let peeled = peel_to_kcore(&g, &sub, 2);
        assert_eq!(labels(&g, &peeled), vec!["A", "C", "D", "E"], "Section 3 example: G2[{{y}}]");
        // Without B the remaining vertices cannot sustain minimum degree 3.
        assert!(peel_to_kcore(&g, &sub, 3).is_empty());
    }

    #[test]
    fn peel_containing_returns_component_of_query() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        // Two disjoint pieces that both survive 1-core peeling.
        let sub = VertexSubset::from_iter(
            g.num_vertices(),
            ["A", "B", "C", "D", "H", "I"].iter().map(|l| g.vertex_by_label(l).unwrap()),
        );
        let from_a = peel_to_kcore_containing(&g, &sub, a, 1).unwrap();
        assert_eq!(labels(&g, &from_a), vec!["A", "B", "C", "D"]);
        let from_h = peel_to_kcore_containing(&g, &sub, h, 1).unwrap();
        assert_eq!(labels(&g, &from_h), vec!["H", "I"]);
        // q peeled away -> None.
        assert!(peel_to_kcore_containing(&g, &sub, h, 2).is_none());
    }

    #[test]
    fn lemma3_pruning_bound() {
        // A triangle (n=3, m=3): m - n = 0 >= 3*2/2 - 1 = 2? No -> pruned for k=3.
        assert!(!may_contain_kcore(3, 3, 3));
        // K4 (n=4, m=6): m - n = 2 >= 2 -> may contain a 3-core (and does).
        assert!(may_contain_kcore(4, 6, 3));
        // k <= 1 is never pruned for non-empty graphs.
        assert!(may_contain_kcore(1, 0, 1));
        assert!(may_contain_kcore(5, 4, 0));
        assert!(!may_contain_kcore(0, 0, 1));
        // Lemma 3 is a necessary condition only: it may admit graphs with no
        // k-core, but must never reject one that has it. K5 for k=4:
        assert!(may_contain_kcore(5, 10, 4));
    }

    #[test]
    fn peel_of_disconnected_subset_keeps_all_qualifying_components() {
        // Two disjoint triangles.
        let g = unlabeled_graph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let full = VertexSubset::full(6);
        let peeled = peel_to_kcore(&g, &full, 2);
        assert_eq!(peeled.len(), 6, "both triangles are 2-cores");
        let comp = peel_to_kcore_containing(&g, &full, VertexId(0), 2).unwrap();
        assert_eq!(comp.len(), 3, "but the ĉore containing v0 is one triangle");
    }
}
