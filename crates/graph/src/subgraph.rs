//! Vertex subsets and induced-subgraph operations.
//!
//! The ACQ algorithms never materialise induced subgraphs; instead they work
//! on a [`VertexSubset`] (a membership bitset over the parent graph) and count
//! degrees *within* the subset. This keeps `G[S']` and `Gk[S']` computations
//! allocation-light, which matters because the incremental algorithms verify
//! many candidate keyword sets per query.
//!
//! # Words-first layout
//!
//! The subset is stored **words-first**: the source of truth is a dense bitset
//! of `⌈n/64⌉` 64-bit words (bit `i mod 64` of word `i / 64` is vertex `i`),
//! plus the universe size `n` and a cached popcount. Set algebra
//! ([`intersect`](VertexSubset::intersect), [`union`](VertexSubset::union),
//! [`difference`](VertexSubset::difference), equality) runs word-parallel —
//! 64 vertices per instruction plus hardware popcount. Adjacency has one
//! representation, the graph's CSR rows, so
//! [`degree_within`](VertexSubset::degree_within) and the BFS of
//! [`component_of`](VertexSubset::component_of) scan a vertex's neighbour
//! list and test each neighbour's bit. The member *list* is only materialised
//! lazily (ascending vertex order) when a caller asks for
//! [`members`](VertexSubset::members).
//!
//! All word loops run through the word kernels of [`crate::simd`], and the
//! BFS scratch bitsets come from the per-thread [`crate::arena`], so repeated
//! component queries are allocation-free in the steady state.
//!
//! Invariant relied on by every word-wise kernel: bits at positions `>= n`
//! (the tail of the last word) are always zero.

use crate::arena;
use crate::graph::AttributedGraph;
use crate::ids::VertexId;
use crate::simd;
use std::sync::OnceLock;

/// A subset of the vertices of a fixed [`AttributedGraph`], stored as a dense
/// word bitset with a lazily materialised member list.
#[derive(Debug, Clone)]
pub struct VertexSubset {
    /// Number of vertices of the parent graph (the universe size).
    n: usize,
    /// Cached popcount of `bits` — [`len`](Self::len) is `O(1)`.
    len: usize,
    /// The membership bitset; bits at positions `>= n` are always zero.
    bits: Vec<u64>,
    /// Lazily materialised member list (ascending); reset on every mutation.
    members: OnceLock<Vec<VertexId>>,
}

impl VertexSubset {
    /// Creates an empty subset for a graph with `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self { n, len: 0, bits: vec![0u64; n.div_ceil(64)], members: OnceLock::new() }
    }

    /// Creates a subset containing all `n` vertices of the graph.
    pub fn full(n: usize) -> Self {
        let mut bits = vec![!0u64; n.div_ceil(64)];
        Self::mask_tail(n, &mut bits);
        Self { n, len: n, bits, members: OnceLock::new() }
    }

    /// Builds a subset from an iterator of vertices (duplicates are fine).
    pub fn from_iter(n: usize, vertices: impl IntoIterator<Item = VertexId>) -> Self {
        let mut s = Self::empty(n);
        for v in vertices {
            s.insert(v);
        }
        s
    }

    /// Builds a subset directly from its word representation. `bits` must hold
    /// exactly `⌈n/64⌉` words; tail bits beyond `n` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != ⌈n/64⌉`.
    pub fn from_words(n: usize, mut bits: Vec<u64>) -> Self {
        assert_eq!(bits.len(), n.div_ceil(64), "word count must match the universe size");
        Self::mask_tail(n, &mut bits);
        let len = simd::popcount(&bits);
        Self { n, len, bits, members: OnceLock::new() }
    }

    /// Clears the bits at positions `>= n` in the last word.
    fn mask_tail(n: usize, bits: &mut [u64]) {
        if !n.is_multiple_of(64) {
            if let Some(last) = bits.last_mut() {
                *last &= (1u64 << (n % 64)) - 1;
            }
        }
    }

    /// The number of vertices of the parent graph (not the subset size).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The raw word representation (read-only), for word-parallel kernels.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of vertices in the subset (`O(1)`; the popcount is cached).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the subset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let i = v.index();
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Inserts a vertex; returns `true` if it was newly inserted.
    pub fn insert(&mut self, v: VertexId) -> bool {
        let i = v.index();
        debug_assert!(i < self.n, "vertex {v:?} outside universe of size {}", self.n);
        let mask = 1u64 << (i % 64);
        if self.bits[i / 64] & mask != 0 {
            return false;
        }
        self.bits[i / 64] |= mask;
        self.len += 1;
        self.members.take();
        true
    }

    /// Removes a vertex; returns `true` if it was a member.
    pub fn remove(&mut self, v: VertexId) -> bool {
        let i = v.index();
        let mask = 1u64 << (i % 64);
        if self.bits[i / 64] & mask == 0 {
            return false;
        }
        self.bits[i / 64] &= !mask;
        self.len -= 1;
        self.members.take();
        true
    }

    /// The member vertices in ascending order, materialised lazily on first
    /// access and cached until the subset is next mutated.
    pub fn members(&self) -> &[VertexId] {
        self.members.get_or_init(|| self.iter().collect())
    }

    /// Iterates over the member vertices in ascending order, straight off the
    /// words (no allocation): each word is consumed by clearing its lowest set
    /// bit (`w &= w - 1`) after a `trailing_zeros`.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits { words: &self.bits, word_idx: 0, current: self.bits.first().copied().unwrap_or(0) }
    }

    /// A sorted copy of the member vertices (for deterministic output).
    pub fn sorted_members(&self) -> Vec<VertexId> {
        self.members().to_vec()
    }

    /// The smallest member, or `None` for the empty subset.
    pub fn first(&self) -> Option<VertexId> {
        self.bits
            .iter()
            .position(|&w| w != 0)
            .map(|i| VertexId::from_index(i * 64 + self.bits[i].trailing_zeros() as usize))
    }

    /// Intersection with another subset over the same graph (word-parallel).
    pub fn intersect(&self, other: &VertexSubset) -> VertexSubset {
        debug_assert_eq!(self.n, other.n, "subsets of different graphs");
        VertexSubset::from_words(self.n, simd::and(&self.bits, &other.bits))
    }

    /// Union with another subset over the same graph (word-parallel).
    pub fn union(&self, other: &VertexSubset) -> VertexSubset {
        debug_assert_eq!(self.n, other.n, "subsets of different graphs");
        VertexSubset::from_words(self.n, simd::or(&self.bits, &other.bits))
    }

    /// Set difference `self \ other` over the same graph (word-parallel).
    pub fn difference(&self, other: &VertexSubset) -> VertexSubset {
        debug_assert_eq!(self.n, other.n, "subsets of different graphs");
        VertexSubset::from_words(self.n, simd::and_not(&self.bits, &other.bits))
    }

    /// In-place `self &= other`.
    pub fn intersect_in_place(&mut self, other: &VertexSubset) {
        self.check_same_universe(other);
        simd::and_in_place(&mut self.bits, &other.bits);
        self.recount();
    }

    /// In-place `self |= other`.
    pub fn union_in_place(&mut self, other: &VertexSubset) {
        self.check_same_universe(other);
        simd::or_in_place(&mut self.bits, &other.bits);
        self.recount();
    }

    /// In-place `self \= other`.
    pub fn difference_in_place(&mut self, other: &VertexSubset) {
        self.check_same_universe(other);
        simd::and_not_in_place(&mut self.bits, &other.bits);
        self.recount();
    }

    /// Hard assert: a silent zip over mismatched universes would leave the
    /// tail words unmodified and corrupt the result in release builds.
    fn check_same_universe(&self, other: &VertexSubset) {
        assert_eq!(self.bits.len(), other.bits.len(), "subsets of different graphs");
    }

    /// Recomputes the cached popcount and drops the member-list cache.
    fn recount(&mut self) {
        self.len = simd::popcount(&self.bits);
        self.members.take();
    }

    /// Degree of `v` counted inside the subset (neighbours that are members):
    /// a scan of `v`'s CSR row with one bit test per neighbour.
    pub fn degree_within(&self, graph: &AttributedGraph, v: VertexId) -> usize {
        graph.neighbors(v).iter().filter(|&&u| self.contains(u)).count()
    }

    /// Number of edges of the induced subgraph `G[subset]`.
    pub fn induced_edge_count(&self, graph: &AttributedGraph) -> usize {
        self.iter().map(|v| self.degree_within(graph, v)).sum::<usize>() / 2
    }

    /// The connected component of the induced subgraph that contains `start`,
    /// or `None` if `start` is not a member.
    ///
    /// Runs a frontier-bitset BFS: each round expands the whole frontier at
    /// once — a CSR scan per frontier vertex into `next`, then one word-wise
    /// `next &= !comp` for the round. The three round bitsets (`comp`,
    /// `frontier`, `next`) are checked out of the per-thread
    /// [`crate::arena`], so steady-state calls allocate only the returned
    /// subset.
    pub fn component_of(&self, graph: &AttributedGraph, start: VertexId) -> Option<VertexSubset> {
        if !self.contains(start) {
            return None;
        }
        let n = graph.num_vertices();
        let words = n.div_ceil(64);
        let mut comp = arena::take_words(words);
        let mut frontier = arena::take_words(words);
        let mut next = arena::take_words(words);
        let s = start.index();
        comp[s / 64] |= 1u64 << (s % 64);
        frontier[s / 64] |= 1u64 << (s % 64);
        loop {
            next.fill(0);
            let next_words: &mut [u64] = &mut next;
            simd::for_each_set_bit(&frontier, |i| {
                for &u in graph.neighbors(VertexId::from_index(i)) {
                    if self.contains(u) {
                        let i = u.index();
                        next_words[i / 64] |= 1u64 << (i % 64);
                    }
                }
            });
            simd::and_not_in_place(&mut next, &comp);
            if !simd::any(&next) {
                break;
            }
            simd::or_in_place(&mut comp, &next);
            std::mem::swap(&mut frontier, &mut next);
        }
        Some(VertexSubset::from_words(n, comp.to_vec()))
    }

    /// All connected components of the induced subgraph, each as a subset,
    /// ordered by their smallest member.
    pub fn components(&self, graph: &AttributedGraph) -> Vec<VertexSubset> {
        let mut remaining = self.clone();
        let mut out = Vec::new();
        while let Some(v) = remaining.first() {
            let comp = remaining.component_of(graph, v).expect("first() returns a member");
            remaining.difference_in_place(&comp);
            out.push(comp);
        }
        out
    }

    /// Whether the induced subgraph is connected (the empty subset counts as
    /// connected).
    pub fn is_connected(&self, graph: &AttributedGraph) -> bool {
        match self.first() {
            None => true,
            Some(v) => self.component_of(graph, v).expect("member").len() == self.len(),
        }
    }
}

/// Word-wise equality: two subsets are equal iff their bitsets agree. Subsets
/// over different universe sizes compare equal when they hold the same members
/// (all excess words zero), preserving the semantics of the old
/// sorted-member-list comparison at a fraction of the cost.
impl PartialEq for VertexSubset {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let common = self.bits.len().min(other.bits.len());
        self.bits[..common] == other.bits[..common]
            && self.bits[common..].iter().all(|&w| w == 0)
            && other.bits[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for VertexSubset {}

/// Ascending iterator over the members of a [`VertexSubset`], yielding set
/// bits via `trailing_zeros` without materialising a member list. Created by
/// [`VertexSubset::iter`].
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(VertexId::from_index(self.word_idx * 64 + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_figure3_graph;

    fn subset_of(graph: &AttributedGraph, labels: &[&str]) -> VertexSubset {
        VertexSubset::from_iter(
            graph.num_vertices(),
            labels.iter().map(|l| graph.vertex_by_label(l).unwrap()),
        )
    }

    #[test]
    fn insert_and_contains() {
        let mut s = VertexSubset::empty(100);
        assert!(s.insert(VertexId(3)));
        assert!(!s.insert(VertexId(3)));
        assert!(s.contains(VertexId(3)));
        assert!(!s.contains(VertexId(4)));
        assert_eq!(s.len(), 1);
        assert!(VertexSubset::empty(10).is_empty());
        assert_eq!(VertexSubset::full(10).len(), 10);
    }

    #[test]
    fn remove_clears_membership() {
        let mut s = VertexSubset::from_iter(70, [VertexId(3), VertexId(65)]);
        assert!(s.remove(VertexId(65)));
        assert!(!s.remove(VertexId(65)));
        assert!(!s.contains(VertexId(65)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.members(), &[VertexId(3)]);
    }

    #[test]
    fn members_are_ascending_and_lazily_cached() {
        let s = VertexSubset::from_iter(130, [VertexId(129), VertexId(0), VertexId(64)]);
        assert_eq!(s.members(), &[VertexId(0), VertexId(64), VertexId(129)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), s.members());
        assert_eq!(s.first(), Some(VertexId(0)));
        assert_eq!(VertexSubset::empty(10).first(), None);
    }

    #[test]
    fn full_masks_the_tail_word_at_boundaries() {
        for n in [1usize, 63, 64, 65, 127, 128, 129] {
            let f = VertexSubset::full(n);
            assert_eq!(f.len(), n, "full({n})");
            assert_eq!(f.iter().count(), n, "iter over full({n})");
            assert_eq!(f.words().len(), n.div_ceil(64));
            // The complement of full within its own universe is empty.
            assert!(f.difference(&f).is_empty());
            assert_eq!(f.intersect(&f), f);
        }
    }

    #[test]
    fn from_words_roundtrips_and_masks() {
        let s = VertexSubset::from_iter(65, [VertexId(0), VertexId(64)]);
        let rebuilt = VertexSubset::from_words(65, s.words().to_vec());
        assert_eq!(rebuilt, s);
        // Stray tail bits are cleared.
        let noisy = VertexSubset::from_words(1, vec![!0u64]);
        assert_eq!(noisy.len(), 1);
        assert!(noisy.contains(VertexId(0)));
    }

    #[test]
    fn degree_within_counts_only_members() {
        let g = paper_figure3_graph();
        let s = subset_of(&g, &["A", "B", "C"]);
        let a = g.vertex_by_label("A").unwrap();
        // A's neighbours are B, C, D, E; only B and C are members.
        assert_eq!(s.degree_within(&g, a), 2);
        assert_eq!(s.induced_edge_count(&g), 3, "triangle A-B-C");
    }

    #[test]
    fn component_of_respects_membership() {
        let g = paper_figure3_graph();
        // Omit E, which is the only path from {A..D} to {F, G}.
        let s = subset_of(&g, &["A", "B", "C", "D", "F", "G"]);
        let a = g.vertex_by_label("A").unwrap();
        let comp = s.component_of(&g, a).unwrap();
        assert_eq!(comp.len(), 4);
        assert!(!comp.contains(g.vertex_by_label("F").unwrap()));
        assert!(s.component_of(&g, g.vertex_by_label("E").unwrap()).is_none());
    }

    #[test]
    fn components_partition_the_subset() {
        let g = paper_figure3_graph();
        let s = subset_of(&g, &["A", "B", "H", "I", "J"]);
        let comps = s.components(&g);
        let mut sizes: Vec<usize> = comps.iter().map(VertexSubset::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2], "{{A,B}}, {{H,I}}, {{J}}");
        assert!(!s.is_connected(&g));
        assert!(subset_of(&g, &["A", "B"]).is_connected(&g));
        assert!(VertexSubset::empty(g.num_vertices()).is_connected(&g));
    }

    #[test]
    fn intersection_and_union() {
        let g = paper_figure3_graph();
        let s1 = subset_of(&g, &["A", "B", "C"]);
        let s2 = subset_of(&g, &["B", "C", "D"]);
        assert_eq!(s1.intersect(&s2), subset_of(&g, &["B", "C"]));
        assert_eq!(s1.union(&s2), subset_of(&g, &["A", "B", "C", "D"]));
        assert_eq!(s1.difference(&s2), subset_of(&g, &["A"]));
        let mut s3 = s1.clone();
        s3.intersect_in_place(&s2);
        assert_eq!(s3, subset_of(&g, &["B", "C"]));
        s3.union_in_place(&s1);
        assert_eq!(s3, s1.union(&s2).difference(&subset_of(&g, &["D"])));
        s3.difference_in_place(&s1);
        assert!(s3.is_empty());
    }

    #[test]
    fn intersect_result_has_the_true_universe_size() {
        // Regression for the old `empty(bits.len() * 64)` capacity hack: the
        // result of set algebra must report the parent graph's vertex count,
        // not a multiple of 64.
        let a = VertexSubset::from_iter(70, [VertexId(1), VertexId(69)]);
        let b = VertexSubset::full(70);
        for result in [a.intersect(&b), a.union(&b), a.difference(&b)] {
            assert_eq!(result.num_vertices(), 70);
            assert_eq!(result.words().len(), 2);
        }
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let g = paper_figure3_graph();
        let s1 = subset_of(&g, &["A", "B"]);
        let s2 = subset_of(&g, &["B", "A"]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn equality_across_universe_sizes_compares_members() {
        // Old sorted-member-list semantics: a subset padded with extra zero
        // words equals one over a smaller universe with the same members.
        let small = VertexSubset::from_iter(10, [VertexId(3)]);
        let large = VertexSubset::from_iter(200, [VertexId(3)]);
        assert_eq!(small, large);
        assert_eq!(VertexSubset::empty(10), VertexSubset::empty(1000));
        let mut different = large.clone();
        different.insert(VertexId(150));
        assert_ne!(small, different);
    }
}
