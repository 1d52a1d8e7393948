//! The immutable attributed graph and its builder.

use crate::delta::{AppliedDelta, GraphDelta};
use crate::error::GraphError;
use crate::ids::{KeywordId, VertexId};
use crate::keywords::{KeywordDictionary, KeywordSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An undirected attributed graph `G(V, E)` in compressed sparse row form.
///
/// * Vertices are identified by dense [`VertexId`]s `0..n`.
/// * Each vertex carries a [`KeywordSet`] `W(v)` and an optional display label
///   (e.g. an author name in the DBLP-style datasets).
/// * Edges are stored twice (once per endpoint) in a CSR layout: `offsets` has
///   `n + 1` entries and `neighbors[offsets[v]..offsets[v+1]]` are the sorted
///   neighbours of `v`.
///
/// The structure is immutable after construction; the update methods
/// ([`with_edge_inserted`](Self::with_edge_inserted) and friends) return a new
/// graph, which is what the CL-tree maintenance experiments operate on.
#[derive(Debug, Clone, Serialize)]
pub struct AttributedGraph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    keywords: Vec<KeywordSet>,
    labels: Vec<Option<String>>,
    dictionary: KeywordDictionary,
}

impl Deserialize for AttributedGraph {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &serde::Value, name: &str) -> Result<T, serde::Error> {
            match value.get_field(name) {
                Some(v) => T::from_value(v),
                None => {
                    Err(serde::Error::custom(format!("missing field `{name}` in AttributedGraph")))
                }
            }
        }
        let offsets: Vec<usize> = field(value, "offsets")?;
        let neighbors: Vec<VertexId> = field(value, "neighbors")?;
        let keywords: Vec<KeywordSet> = field(value, "keywords")?;
        let labels: Vec<Option<String>> = field(value, "labels")?;
        let mut dictionary: KeywordDictionary = field(value, "dictionary")?;
        // The term → id lookup is `#[serde(skip)]`; without this rebuild a
        // deserialized graph would treat every keyword delta as an unknown
        // term (a silent no-op on replay).
        dictionary.rebuild_lookup();
        // Validate everything the accessors and the delta path rely on, so a
        // malformed payload is an error here instead of a panic (or a silent
        // wrong answer) later.
        let n = keywords.len();
        if offsets.len() != n + 1
            || offsets.first() != Some(&0)
            || offsets.last() != Some(&neighbors.len())
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(serde::Error::custom("inconsistent CSR offsets in AttributedGraph"));
        }
        if labels.len() != n {
            return Err(serde::Error::custom("label count mismatch in AttributedGraph"));
        }
        if neighbors.iter().any(|u| u.index() >= n) {
            return Err(serde::Error::custom("neighbor vertex out of range in AttributedGraph"));
        }
        // Each CSR row must be sorted and duplicate-free: `has_edge` and the
        // symmetry check below binary-search rows.
        let row = |v: usize| &neighbors[offsets[v]..offsets[v + 1]];
        if (0..n).any(|v| row(v).windows(2).any(|w| w[0] >= w[1])) {
            return Err(serde::Error::custom(
                "unsorted or duplicated CSR neighbor row in AttributedGraph",
            ));
        }
        // Every edge must be stored at both endpoints: `has_edge` searches
        // from the lower-degree one, so a one-sided edge would reach
        // `remove_edge_in_place` and fail its "edge present" lookup on the
        // other row.
        for v in 0..n {
            let id = VertexId::from_index(v);
            for &u in row(v) {
                if u == id {
                    return Err(serde::Error::custom("self-loop in AttributedGraph"));
                }
                if row(u.index()).binary_search(&id).is_err() {
                    return Err(serde::Error::custom(
                        "asymmetric CSR neighbor rows in AttributedGraph",
                    ));
                }
            }
        }
        // `KeywordSet::contains` binary-searches, and ids index the dictionary.
        for set in &keywords {
            if set.as_slice().windows(2).any(|w| w[0] >= w[1]) {
                return Err(serde::Error::custom(
                    "unsorted or duplicated keyword set in AttributedGraph",
                ));
            }
            if set.iter().any(|id| id.index() >= dictionary.len()) {
                return Err(serde::Error::custom("keyword id out of range in AttributedGraph"));
            }
        }
        Ok(Self { offsets, neighbors, keywords, labels, dictionary })
    }
}

impl AttributedGraph {
    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.keywords.len()
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether `v` is a valid vertex of this graph.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.num_vertices()
    }

    /// Iterates over all vertex identifiers.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId::from_index)
    }

    /// The sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of `v` in the full graph, `deg_G(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if !self.contains_vertex(u) || !self.contains_vertex(v) {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The keyword set `W(v)` of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[inline]
    pub fn keyword_set(&self, v: VertexId) -> &KeywordSet {
        &self.keywords[v.index()]
    }

    /// The optional display label of a vertex.
    pub fn label(&self, v: VertexId) -> Option<&str> {
        self.labels[v.index()].as_deref()
    }

    /// Finds the first vertex whose label equals `label`.
    pub fn vertex_by_label(&self, label: &str) -> Option<VertexId> {
        self.labels.iter().position(|l| l.as_deref() == Some(label)).map(VertexId::from_index)
    }

    /// The shared keyword dictionary.
    pub fn dictionary(&self) -> &KeywordDictionary {
        &self.dictionary
    }

    /// Average vertex degree `d̂ = 2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            (2 * self.num_edges()) as f64 / self.num_vertices() as f64
        }
    }

    /// Average keyword-set size `l̂` (0 for the empty graph).
    pub fn average_keywords(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.keywords.iter().map(KeywordSet::len).sum::<usize>() as f64
                / self.num_vertices() as f64
        }
    }

    /// Resolves keyword strings of a vertex through the dictionary.
    pub fn keyword_terms(&self, v: VertexId) -> Vec<&str> {
        self.dictionary.terms_of(self.keyword_set(v)).collect()
    }

    /// Interns `term` into the graph's keyword dictionary without attaching
    /// it to any vertex, returning its id (existing terms keep theirs).
    ///
    /// This is the dictionary-alignment hook for sharded execution: every
    /// shard graph must intern the keyword terms of a delta batch in the
    /// same order — whether or not the deltas carrying them were routed to
    /// that shard — so a `KeywordId` means the same term on every shard as
    /// on the full graph.
    pub fn intern_keyword(&mut self, term: &str) -> KeywordId {
        self.dictionary.intern(term)
    }

    /// Applies a batch of [`GraphDelta`]s, returning the updated graph.
    ///
    /// One structure clone, then per-delta incremental edits — sorted splices
    /// into the CSR rows — instead of the historical
    /// rebuild-the-whole-graph-per-update path. Deltas apply in order; a
    /// [`GraphDelta::InsertVertex`] makes its new id visible to later deltas
    /// of the same batch. Deltas that are already true of the graph are
    /// no-ops. The whole batch is validated before anything is mutated, so an
    /// error leaves `self` untouched and no partially-applied graph escapes.
    pub fn apply_deltas(&self, deltas: &[GraphDelta]) -> Result<Self, GraphError> {
        let mut next = self.clone();
        next.apply_deltas_in_place(deltas)?;
        Ok(next)
    }

    /// Applies a batch of [`GraphDelta`]s in place, returning the log of
    /// deltas that actually changed the graph (no-ops are skipped), with
    /// keyword terms resolved to interned ids and new vertices to their
    /// assigned ids — the contract index-maintenance drivers consume.
    ///
    /// Validation runs over the whole batch first (tracking the vertex count
    /// as `InsertVertex` deltas grow it), so on `Err` the graph is unchanged.
    pub fn apply_deltas_in_place(
        &mut self,
        deltas: &[GraphDelta],
    ) -> Result<Vec<AppliedDelta>, GraphError> {
        self.validate_deltas(deltas)?;
        let mut applied = Vec::with_capacity(deltas.len());
        for delta in deltas {
            match delta {
                GraphDelta::InsertEdge { u, v } => {
                    if !self.has_edge(*u, *v) {
                        self.insert_edge_in_place(*u, *v);
                        applied.push(AppliedDelta::EdgeInserted(*u, *v));
                    }
                }
                GraphDelta::RemoveEdge { u, v } => {
                    if self.has_edge(*u, *v) {
                        self.remove_edge_in_place(*u, *v);
                        applied.push(AppliedDelta::EdgeRemoved(*u, *v));
                    }
                }
                GraphDelta::AddKeyword { vertex, term } => {
                    let id = self.dictionary.intern(term);
                    if !self.keywords[vertex.index()].contains(id) {
                        self.keywords[vertex.index()] =
                            self.keywords[vertex.index()].with_inserted(id);
                        applied.push(AppliedDelta::KeywordAdded(*vertex, id));
                    }
                }
                GraphDelta::RemoveKeyword { vertex, term } => {
                    if let Some(id) = self.dictionary.get(term) {
                        if self.keywords[vertex.index()].contains(id) {
                            self.keywords[vertex.index()] =
                                self.keywords[vertex.index()].with_removed(id);
                            applied.push(AppliedDelta::KeywordRemoved(*vertex, id));
                        }
                    }
                }
                GraphDelta::InsertVertex { label, keywords } => {
                    let v = self.insert_vertex_in_place(label.clone(), keywords);
                    applied.push(AppliedDelta::VertexInserted(v));
                }
            }
        }
        Ok(applied)
    }

    /// Checks every delta of a batch against the (simulated) vertex count
    /// without mutating anything.
    fn validate_deltas(&self, deltas: &[GraphDelta]) -> Result<(), GraphError> {
        let mut n = self.num_vertices();
        for delta in deltas {
            match delta {
                GraphDelta::InsertEdge { u, v } | GraphDelta::RemoveEdge { u, v } => {
                    if u.index() >= n || v.index() >= n {
                        return Err(GraphError::UnknownVertex(if u.index() < n { *v } else { *u }));
                    }
                    // A self-loop can never be *inserted*; removing one is a
                    // no-op (the edge cannot exist), matching the historical
                    // with_edge_removed behaviour.
                    if u == v && matches!(delta, GraphDelta::InsertEdge { .. }) {
                        return Err(GraphError::SelfLoop(*u));
                    }
                }
                GraphDelta::AddKeyword { vertex, .. }
                | GraphDelta::RemoveKeyword { vertex, .. } => {
                    if vertex.index() >= n {
                        return Err(GraphError::UnknownVertex(*vertex));
                    }
                }
                GraphDelta::InsertVertex { .. } => n += 1,
            }
        }
        Ok(())
    }

    /// Splices the (validated, absent) edge `{u, v}` into both CSR rows.
    fn insert_edge_in_place(&mut self, u: VertexId, v: VertexId) {
        for (a, b) in [(u, v), (v, u)] {
            let i = a.index();
            let row = &self.neighbors[self.offsets[i]..self.offsets[i + 1]];
            let pos = self.offsets[i] + row.binary_search(&b).unwrap_err();
            self.neighbors.insert(pos, b);
            for off in &mut self.offsets[i + 1..] {
                *off += 1;
            }
        }
    }

    /// Removes the (validated, present) edge `{u, v}` from both CSR rows.
    fn remove_edge_in_place(&mut self, u: VertexId, v: VertexId) {
        for (a, b) in [(u, v), (v, u)] {
            let i = a.index();
            let row = &self.neighbors[self.offsets[i]..self.offsets[i + 1]];
            let pos = self.offsets[i] + row.binary_search(&b).expect("edge present");
            self.neighbors.remove(pos);
            for off in &mut self.offsets[i + 1..] {
                *off -= 1;
            }
        }
    }

    /// Appends a new isolated vertex (`O(1)`: an empty CSR row at the end).
    fn insert_vertex_in_place(&mut self, label: Option<String>, keywords: &[String]) -> VertexId {
        let v = VertexId::from_index(self.num_vertices());
        let ids: Vec<KeywordId> = keywords.iter().map(|t| self.dictionary.intern(t)).collect();
        self.keywords.push(KeywordSet::from_ids(ids));
        self.labels.push(label);
        self.offsets.push(*self.offsets.last().expect("offsets never empty"));
        v
    }

    /// Returns a new graph with the undirected edge `{u, v}` inserted — a
    /// thin shim over [`apply_deltas`](Self::apply_deltas) with a single
    /// [`GraphDelta::InsertEdge`]. Inserting an existing edge is a no-op.
    pub fn with_edge_inserted(&self, u: VertexId, v: VertexId) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::InsertEdge { u, v }])
    }

    /// Returns a new graph with the undirected edge `{u, v}` removed — a thin
    /// shim over [`apply_deltas`](Self::apply_deltas). Removing a
    /// non-existent edge is a no-op.
    pub fn with_edge_removed(&self, u: VertexId, v: VertexId) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::RemoveEdge { u, v }])
    }

    /// Returns a new graph where keyword `term` was added to vertex `v` — a
    /// thin shim over [`apply_deltas`](Self::apply_deltas).
    pub fn with_keyword_added(&self, v: VertexId, term: &str) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::AddKeyword { vertex: v, term: term.to_owned() }])
    }

    /// Returns a new graph where keyword `term` was removed from vertex `v`
    /// (no-op if the vertex did not carry the keyword) — a thin shim over
    /// [`apply_deltas`](Self::apply_deltas).
    pub fn with_keyword_removed(&self, v: VertexId, term: &str) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::RemoveKeyword { vertex: v, term: term.to_owned() }])
    }

    /// Returns a new graph with an appended (isolated) vertex — a thin shim
    /// over [`apply_deltas`](Self::apply_deltas) with a single
    /// [`GraphDelta::InsertVertex`].
    pub fn with_vertex_inserted(
        &self,
        label: Option<&str>,
        keywords: &[&str],
    ) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::insert_vertex(label, keywords)])
    }
}

/// Incrementally assembles an [`AttributedGraph`].
///
/// ```
/// use acq_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let alice = b.add_vertex("Alice", &["art", "cook", "yoga"]);
/// let bob = b.add_vertex("Bob", &["research", "sports", "yoga"]);
/// b.add_edge(alice, bob).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 2);
/// assert_eq!(g.num_edges(), 1);
/// assert!(g.has_edge(alice, bob));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    pub(crate) dictionary: KeywordDictionary,
    pub(crate) keywords: Vec<KeywordSet>,
    pub(crate) labels: Vec<Option<String>>,
    pub(crate) edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.keywords.len()
    }

    /// Adds a labelled vertex with the given keyword strings and returns its id.
    pub fn add_vertex(&mut self, label: &str, keywords: &[&str]) -> VertexId {
        let ids: Vec<KeywordId> = keywords.iter().map(|t| self.dictionary.intern(t)).collect();
        self.push_vertex(Some(label.to_owned()), KeywordSet::from_ids(ids))
    }

    /// Adds an unlabelled vertex with the given keyword strings.
    pub fn add_unlabeled_vertex(&mut self, keywords: &[&str]) -> VertexId {
        let ids: Vec<KeywordId> = keywords.iter().map(|t| self.dictionary.intern(t)).collect();
        self.push_vertex(None, KeywordSet::from_ids(ids))
    }

    /// Adds a vertex whose keywords are already interned identifiers.
    pub fn add_vertex_with_ids(&mut self, label: Option<String>, keywords: KeywordSet) -> VertexId {
        self.push_vertex(label, keywords)
    }

    /// Interns a keyword string through the builder's dictionary.
    pub fn intern_keyword(&mut self, term: &str) -> KeywordId {
        self.dictionary.intern(term)
    }

    fn push_vertex(&mut self, label: Option<String>, keywords: KeywordSet) -> VertexId {
        let id = VertexId::from_index(self.keywords.len());
        self.keywords.push(keywords);
        self.labels.push(label);
        id
    }

    /// Adds an undirected edge. Self-loops are rejected; duplicate edges are
    /// tolerated (deduplicated at [`build`](Self::build) time).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let n = self.keywords.len();
        if u.index() >= n {
            return Err(GraphError::UnknownVertex(u));
        }
        if v.index() >= n {
            return Err(GraphError::UnknownVertex(v));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        Ok(())
    }

    pub(crate) fn dedup_edges(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Finalises the builder into an immutable CSR graph.
    pub fn build(mut self) -> AttributedGraph {
        self.dedup_edges();
        let n = self.keywords.len();
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![VertexId(0); acc];
        for &(u, v) in &self.edges {
            neighbors[cursor[u.index()]] = v;
            cursor[u.index()] += 1;
            neighbors[cursor[v.index()]] = u;
            cursor[v.index()] += 1;
        }
        // Sort each adjacency list so has_edge can binary-search and iteration
        // order is deterministic.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        AttributedGraph {
            offsets,
            neighbors,
            keywords: self.keywords,
            labels: self.labels,
            dictionary: self.dictionary,
        }
    }
}

/// Convenience constructor used throughout the test-suites: builds a graph from
/// an edge list and per-vertex keyword strings.
///
/// `keywords[i]` are the keyword strings of vertex `i`; vertices are created
/// for `0..keywords.len()`.
pub fn graph_from_edges(keywords: &[&[&str]], edges: &[(u32, u32)]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for kws in keywords {
        b.add_unlabeled_vertex(kws);
    }
    for &(u, v) in edges {
        b.add_edge(VertexId(u), VertexId(v)).expect("edge endpoints must exist");
    }
    b.build()
}

/// Builds a keyword-less graph with `n` vertices from an edge list; handy for
/// tests and benchmarks of the purely structural algorithms (k-core, CL-tree
/// skeleton, baselines on non-attributed graphs).
pub fn unlabeled_graph(n: usize, edges: &[(u32, u32)]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_unlabeled_vertex(&[]);
    }
    for &(u, v) in edges {
        b.add_edge(VertexId(u), VertexId(v)).expect("edge endpoints must exist");
    }
    b.build()
}

/// Builds the running-example graph of the paper's Figure 3(a)/4: ten vertices
/// `A..J` with keywords `w, x, y, z` and the depicted edges. Used by unit
/// tests, the quickstart example and documentation.
pub fn paper_figure3_graph() -> AttributedGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_vertex("A", &["w", "x", "y"]);
    let bb = b.add_vertex("B", &["x"]);
    let c = b.add_vertex("C", &["x", "y"]);
    let d = b.add_vertex("D", &["x", "y", "z"]);
    let e = b.add_vertex("E", &["y", "z"]);
    let f = b.add_vertex("F", &["y"]);
    let g = b.add_vertex("G", &["x", "y"]);
    let h = b.add_vertex("H", &["y", "z"]);
    let i = b.add_vertex("I", &["x"]);
    let j = b.add_vertex("J", &["x"]);
    // The 3-ĉore {A, B, C, D} is a clique.
    for &(u, v) in &[(a, bb), (a, c), (a, d), (bb, c), (bb, d), (c, d)] {
        b.add_edge(u, v).unwrap();
    }
    // E attaches to the 3-ĉore with two edges (core number 2).
    b.add_edge(e, a).unwrap();
    b.add_edge(e, d).unwrap();
    // F and G hang off E with one edge each (core number 1).
    b.add_edge(f, e).unwrap();
    b.add_edge(g, e).unwrap();
    // H–I form a separate 1-ĉore component; J is isolated (core number 0).
    b.add_edge(h, i).unwrap();
    let _ = j;
    b.build()
}

/// The ordered set of vertex ids, useful for assertions in tests.
pub fn sorted_ids(ids: impl IntoIterator<Item = VertexId>) -> Vec<VertexId> {
    let set: BTreeSet<VertexId> = ids.into_iter().collect();
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_csr_graph() {
        let g = graph_from_edges(
            &[&["a"], &["a", "b"], &["b"], &["c"]],
            &[(0, 1), (1, 2), (2, 0), (2, 3)],
        );
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.neighbors(VertexId(2)), &[VertexId(0), VertexId(1), VertexId(3)]);
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = graph_from_edges(&[&[], &[]], &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut b = GraphBuilder::new();
        let v = b.add_unlabeled_vertex(&[]);
        assert!(matches!(b.add_edge(v, v), Err(GraphError::SelfLoop(_))));
    }

    #[test]
    fn unknown_vertices_are_rejected() {
        let mut b = GraphBuilder::new();
        let v = b.add_unlabeled_vertex(&[]);
        assert!(matches!(b.add_edge(v, VertexId(5)), Err(GraphError::UnknownVertex(_))));
    }

    #[test]
    fn labels_resolve_both_ways() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        assert_eq!(g.label(a), Some("A"));
        assert_eq!(g.vertex_by_label("Z"), None);
    }

    #[test]
    fn keyword_terms_resolve_through_dictionary() {
        let g = paper_figure3_graph();
        let d = g.vertex_by_label("D").unwrap();
        let mut terms = g.keyword_terms(d);
        terms.sort_unstable();
        assert_eq!(terms, vec!["x", "y", "z"]);
        assert!((g.average_keywords() - 1.8).abs() < 1e-9, "18 keywords over 10 vertices");
    }

    #[test]
    fn figure3_graph_matches_paper_shape() {
        let g = paper_figure3_graph();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 11);
        let a = g.vertex_by_label("A").unwrap();
        assert_eq!(g.degree(a), 4);
        let j = g.vertex_by_label("J").unwrap();
        assert_eq!(g.degree(j), 0, "J is isolated and has core number 0");
    }

    #[test]
    fn edge_insertion_returns_new_graph() {
        let g = paper_figure3_graph();
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        assert!(!g.has_edge(h, f));
        let g2 = g.with_edge_inserted(h, f).unwrap();
        assert!(g2.has_edge(h, f));
        assert!(!g.has_edge(h, f), "original untouched");
        assert_eq!(g2.num_edges(), g.num_edges() + 1);
        // Inserting an existing edge is a no-op.
        let g3 = g2.with_edge_inserted(h, i).unwrap();
        assert_eq!(g3.num_edges(), g2.num_edges());
    }

    #[test]
    fn edge_removal_returns_new_graph() {
        let g = paper_figure3_graph();
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let g2 = g.with_edge_removed(h, i).unwrap();
        assert!(!g2.has_edge(h, i));
        assert_eq!(g2.num_edges(), g.num_edges() - 1);
    }

    #[test]
    fn keyword_updates_return_new_graph() {
        let g = paper_figure3_graph();
        let b = g.vertex_by_label("B").unwrap();
        let g2 = g.with_keyword_added(b, "music").unwrap();
        assert!(g2.keyword_terms(b).contains(&"music"));
        assert!(!g.keyword_terms(b).contains(&"music"));
        let g3 = g2.with_keyword_removed(b, "music").unwrap();
        assert!(!g3.keyword_terms(b).contains(&"music"));
        // Removing an unknown keyword is a no-op.
        let g4 = g3.with_keyword_removed(b, "nonexistent").unwrap();
        assert_eq!(g4.keyword_set(b), g3.keyword_set(b));
    }

    #[test]
    fn update_methods_validate_vertices() {
        let g = paper_figure3_graph();
        let bad = VertexId(999);
        assert!(g.with_edge_inserted(bad, VertexId(0)).is_err());
        assert!(g.with_keyword_added(bad, "x").is_err());
    }

    /// Asserts that the incrementally maintained CSR rows of `got` are
    /// identical to a from-scratch rebuild of the same vertex/edge/keyword
    /// content.
    fn assert_matches_rebuild(got: &AttributedGraph) {
        let mut b = GraphBuilder::new();
        b.dictionary = got.dictionary.clone();
        b.keywords = got.keywords.clone();
        b.labels = got.labels.clone();
        for v in got.vertices() {
            for &u in got.neighbors(v) {
                if v < u {
                    b.edges.push((v, u));
                }
            }
        }
        let rebuilt = b.build();
        assert_eq!(got.offsets, rebuilt.offsets, "CSR offsets diverged from rebuild");
        assert_eq!(got.neighbors, rebuilt.neighbors, "CSR rows diverged from rebuild");
    }

    #[test]
    fn apply_deltas_batches_mixed_updates() {
        let g = paper_figure3_graph();
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let deltas = vec![
            GraphDelta::insert_edge(h, f),
            GraphDelta::remove_edge(a, b),
            GraphDelta::add_keyword(b, "music"),
            GraphDelta::insert_vertex(Some("K"), &["w", "music"]),
            GraphDelta::insert_edge(VertexId(10), a), // references the new vertex
        ];
        let g2 = g.apply_deltas(&deltas).unwrap();
        assert!(g2.has_edge(h, f));
        assert!(!g2.has_edge(a, b));
        assert!(g2.keyword_terms(b).contains(&"music"));
        assert_eq!(g2.num_vertices(), 11);
        assert_eq!(g2.label(VertexId(10)), Some("K"));
        assert!(g2.has_edge(VertexId(10), a));
        assert_eq!(g2.num_edges(), g.num_edges() + 1); // +2 inserts, -1 removal
        assert_matches_rebuild(&g2);
        // The original graph is untouched.
        assert!(!g.has_edge(h, f));
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn apply_deltas_in_place_logs_only_effective_deltas() {
        let mut g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        let applied = g
            .apply_deltas_in_place(&[
                GraphDelta::insert_edge(a, b), // already present -> no-op
                GraphDelta::insert_edge(h, f),
                GraphDelta::remove_edge(h, f),
                GraphDelta::remove_keyword(a, "nonexistent"), // unknown term -> no-op
                GraphDelta::add_keyword(a, "w"),              // already carried -> no-op
                GraphDelta::add_keyword(a, "fresh"),
            ])
            .unwrap();
        let fresh = g.dictionary().get("fresh").unwrap();
        assert_eq!(
            applied,
            vec![
                AppliedDelta::EdgeInserted(h, f),
                AppliedDelta::EdgeRemoved(h, f),
                AppliedDelta::KeywordAdded(a, fresh),
            ]
        );
        assert_matches_rebuild(&g);
    }

    #[test]
    fn apply_deltas_validates_before_mutating() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        // The bad delta sits *after* a good one; nothing may apply.
        let bad = vec![GraphDelta::insert_edge(h, f), GraphDelta::insert_edge(a, VertexId(99))];
        assert_eq!(g.apply_deltas(&bad).err(), Some(GraphError::UnknownVertex(VertexId(99))));
        assert!(matches!(
            g.apply_deltas(&[GraphDelta::insert_edge(a, a)]),
            Err(GraphError::SelfLoop(_))
        ));
        // Removing a self-loop is a no-op (the edge cannot exist), not an
        // error — matching the historical with_edge_removed behaviour.
        let noop = g.apply_deltas(&[GraphDelta::remove_edge(a, a)]).unwrap();
        assert_eq!(noop.num_edges(), g.num_edges());
        // A vertex insert makes later ids valid within the same batch…
        assert!(g
            .apply_deltas(&[
                GraphDelta::insert_vertex(None, &[]),
                GraphDelta::insert_edge(VertexId(10), a),
            ])
            .is_ok());
        // …but not earlier ones.
        assert_eq!(
            g.apply_deltas(&[
                GraphDelta::insert_edge(VertexId(10), a),
                GraphDelta::insert_vertex(None, &[]),
            ])
            .err(),
            Some(GraphError::UnknownVertex(VertexId(10)))
        );
    }

    #[test]
    fn vertex_insertion_grows_the_universe_across_word_boundaries() {
        // Grow a graph from 62 to 66 vertices one insert at a time; at n=65
        // the subset word count ⌈n/64⌉ moves from 1 to 2.
        let star: Vec<(u32, u32)> = (1..62).map(|i| (0, i)).collect();
        let mut g = unlabeled_graph(62, &star);
        for step in 0..4 {
            g = g.with_vertex_inserted(None, &[]).unwrap();
            assert_eq!(g.num_vertices(), 63 + step);
            assert_matches_rebuild(&g);
        }
        // The new vertices can gain edges like any other.
        let v = VertexId(65);
        g = g
            .apply_deltas(&[
                GraphDelta::insert_edge(v, VertexId(0)),
                GraphDelta::insert_edge(v, VertexId(1)),
            ])
            .unwrap();
        assert_matches_rebuild(&g);
        assert_eq!(g.neighbors(v), &[VertexId(0), VertexId(1)]);
    }

    #[test]
    fn graph_serde_roundtrip() {
        let g = paper_figure3_graph();
        let json = serde_json::to_string(&g).unwrap();
        let g2: AttributedGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        let a = VertexId(0);
        assert_eq!(g2.neighbors(a), g.neighbors(a));
        assert_eq!(g2.keyword_set(a), g.keyword_set(a));
        assert!(!json.contains("adjacency"), "only the five CSR fields are on the wire");

        // The term → id lookup must be rebuilt on deserialization: keyword
        // deltas replayed against a loaded snapshot resolve terms through
        // `dictionary().get`, and a no-op lookup would silently drop them.
        for (id, term) in g.dictionary().iter() {
            assert_eq!(g2.dictionary().get(term), Some(id), "lookup lost for `{term}`");
        }
        let v = VertexId(4);
        let term = g.dictionary().terms_of(g.keyword_set(v)).next().unwrap().to_string();
        let g3 = g2
            .apply_deltas(&[GraphDelta::RemoveKeyword { vertex: v, term: term.clone() }])
            .unwrap();
        assert!(
            g3.keyword_set(v).len() < g2.keyword_set(v).len(),
            "RemoveKeyword(`{term}`) was a no-op on the deserialized graph"
        );
    }

    #[test]
    fn deserialization_rejects_malformed_csr() {
        // The path 0 - 1 - 2 with keywords {a, b}, {b}, {}.
        let g = graph_from_edges(&[&["a", "b"], &["b"], &[]], &[(0, 1), (1, 2)]);
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(
            json,
            r#"{"offsets":[0,1,3,4],"neighbors":[1,0,2,1],"keywords":[{"ids":[0,1]},{"ids":[1]},{"ids":[]}],"labels":[null,null,null],"dictionary":{"terms":["a","b"]}}"#
        );
        assert!(serde_json::from_str::<AttributedGraph>(&json).is_ok());
        // One malformed payload per check of the deserializer: each must
        // surface as that check's error, never as a panic or an `Ok` graph
        // whose accessors lie.
        let table = [
            (r#""offsets":[0,"#, r#""offsets":["#, "inconsistent CSR offsets"),
            (r#""labels":[null,"#, r#""labels":["#, "label count mismatch"),
            ("[1,0,2,1]", "[1,0,9,1]", "neighbor vertex out of range"),
            ("[1,0,2,1]", "[1,2,0,1]", "unsorted or duplicated CSR neighbor row"),
            ("[1,0,2,1]", "[1,0,0,1]", "unsorted or duplicated CSR neighbor row"),
            ("[1,0,2,1]", "[0,0,2,1]", "self-loop"),
            ("[1,0,2,1]", "[1,0,2,0]", "asymmetric CSR neighbor rows"),
            (r#"{"ids":[1]}"#, r#"{"ids":[2]}"#, "keyword id out of range"),
            (r#"{"ids":[0,1]}"#, r#"{"ids":[1,0]}"#, "unsorted or duplicated keyword set"),
            (r#"{"ids":[0,1]}"#, r#"{"ids":[1,1]}"#, "unsorted or duplicated keyword set"),
        ];
        for (from, to, want) in table {
            let broken = json.replacen(from, to, 1);
            assert_ne!(broken, json, "`{from}` not found in the payload");
            let err = serde_json::from_str::<AttributedGraph>(&broken)
                .expect_err(&format!("`{from}` -> `{to}` must be rejected"));
            assert!(err.to_string().contains(want), "`{from}` -> `{to}`: got `{err}`");
        }
    }
}
