//! The CL-tree index structure and its two query-time primitives,
//! *core-locating* and *keyword-checking*.

use crate::node::{ClTreeNode, NodeId};
use acq_graph::{AttributedGraph, KeywordId, VertexId, VertexSubset};
use acq_kcore::CoreDecomposition;
use serde::{Deserialize, Serialize};

/// The CL-tree (Core Label tree) of Section 5 of the paper.
///
/// The nested k-ĉores of the graph are arranged as a tree; after compression
/// every graph vertex is owned by exactly one node (the node whose core number
/// equals the vertex's core number), and every node carries an inverted
/// keyword list over its owned vertices. The tree supports the two operations
/// the query algorithms need:
///
/// * **core-locating** ([`locate_core`](Self::locate_core)) — given a vertex
///   `q` and a core number `c ≤ core(q)`, find the node whose subtree is the
///   c-ĉore containing `q`;
/// * **keyword-checking** ([`vertices_with_keywords_under`](Self::vertices_with_keywords_under))
///   — given a subtree and a keyword set, find the vertices in the subtree
///   whose keyword sets contain all the keywords, by intersecting inverted
///   lists node by node.
///
/// Construction is in [`build_basic`](crate::build_basic) /
/// [`build_advanced`](crate::build_advanced); both produce the same canonical
/// compressed tree (levels whose ĉore equals the ĉore one level deeper are
/// skipped, so no node is empty except possibly the root).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClTree {
    pub(crate) nodes: Vec<ClTreeNode>,
    pub(crate) root: NodeId,
    /// vertex → owning node (the paper's vertex-node map).
    pub(crate) vertex_node: Vec<NodeId>,
    pub(crate) decomposition: CoreDecomposition,
    /// Whether inverted lists were materialised (`false` for the `Basic-` /
    /// `Advanced-` and `Inc-S*` / `Inc-T*` ablation variants).
    pub(crate) with_inverted_lists: bool,
}

impl ClTree {
    /// The root node (core number 0, representing the whole graph).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &ClTreeNode {
        &self.nodes[id]
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree (number of nodes on the longest root-to-leaf path).
    pub fn height(&self) -> usize {
        fn depth(tree: &ClTree, node: NodeId) -> usize {
            1 + tree.nodes[node].children.iter().map(|&c| depth(tree, c)).max().unwrap_or(0)
        }
        depth(self, self.root)
    }

    /// The underlying core decomposition.
    pub fn decomposition(&self) -> &CoreDecomposition {
        &self.decomposition
    }

    /// Maximum core number of the indexed graph.
    pub fn kmax(&self) -> u32 {
        self.decomposition.kmax()
    }

    /// Core number of a vertex (convenience passthrough).
    pub fn core_number(&self, v: VertexId) -> u32 {
        self.decomposition.core_number(v)
    }

    /// Whether the index carries inverted keyword lists.
    pub fn has_inverted_lists(&self) -> bool {
        self.with_inverted_lists
    }

    /// The node owning vertex `v` (its core number equals `core(v)`).
    pub fn node_of(&self, v: VertexId) -> NodeId {
        self.vertex_node[v.index()]
    }

    /// The children of a node (empty for leaves).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id].children
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id].parent
    }

    /// All node ids in parent-before-child (pre-)order.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.nodes[n].children.iter().copied());
        }
        out
    }

    /// The path of nodes from `v`'s owning node up to the root.
    pub fn path_to_root(&self, v: VertexId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = Some(self.node_of(v));
        while let Some(n) = cur {
            path.push(n);
            cur = self.nodes[n].parent;
        }
        path
    }

    /// **Core-locating**: the node whose subtree is the c-ĉore containing `q`,
    /// or `None` if `core(q) < c`.
    ///
    /// Because compressed levels are skipped, this is the highest ancestor of
    /// `q`'s node whose core number is still ≥ `c`.
    pub fn locate_core(&self, q: VertexId, c: u32) -> Option<NodeId> {
        if self.core_number(q) < c {
            return None;
        }
        let mut best = self.node_of(q);
        let mut cur = self.nodes[best].parent;
        while let Some(p) = cur {
            if self.nodes[p].core_num >= c {
                best = p;
                cur = self.nodes[p].parent;
            } else {
                break;
            }
        }
        Some(best)
    }

    /// The nodes `r_k, r_{k+1}, …, r_{core(q)}` used by `Inc-S` (Algorithm 2,
    /// line 2): for every core number `c` in `k ..= core(q)`, the node whose
    /// subtree is the c-ĉore containing `q`. Because of compression several
    /// values of `c` may map to the same node; the returned vector is indexed
    /// by `c - k`.
    pub fn locate_core_range(&self, q: VertexId, k: u32) -> Vec<NodeId> {
        let cq = self.core_number(q);
        if cq < k {
            return Vec::new();
        }
        (k..=cq).map(|c| self.locate_core(q, c).expect("c <= core(q)")).collect()
    }

    /// All vertices owned by the subtree rooted at `node` — i.e. the vertex
    /// set of the ĉore that `node` represents.
    pub fn subtree_vertices(&self, node: NodeId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.subtree_vertices_into(node, &mut out);
        out
    }

    /// Lazily iterates over the vertices of the subtree rooted at `node`, in
    /// the same order [`subtree_vertices`](Self::subtree_vertices) produces.
    ///
    /// The iterator only borrows the tree, so any number of reader threads can
    /// walk (different or identical) subtrees concurrently without allocating
    /// intermediate vertex vectors — the navigation primitive the query
    /// algorithms in `acq-core` stream from.
    pub fn subtree_vertex_iter(&self, node: NodeId) -> SubtreeVertices<'_> {
        SubtreeVertices { tree: self, stack: vec![node], current: [].iter() }
    }

    /// Appends the subtree's vertices to `out` (same order as
    /// [`subtree_vertices`](Self::subtree_vertices)), letting hot loops reuse
    /// one allocation across many navigation calls.
    pub fn subtree_vertices_into(&self, node: NodeId, out: &mut Vec<VertexId>) {
        out.extend(self.subtree_vertex_iter(node));
    }

    /// The subtree vertex set as a [`VertexSubset`] over a graph with
    /// `num_vertices` vertices.
    pub fn subtree_vertex_subset(&self, node: NodeId, num_vertices: usize) -> VertexSubset {
        VertexSubset::from_iter(num_vertices, self.subtree_vertex_iter(node))
    }

    /// The k-ĉore containing `q` as a vertex subset, resolved entirely through
    /// the index (no peeling). `None` if `core(q) < k`.
    pub fn kcore_containing(
        &self,
        q: VertexId,
        k: u32,
        num_vertices: usize,
    ) -> Option<VertexSubset> {
        let node = self.locate_core(q, k)?;
        Some(self.subtree_vertex_subset(node, num_vertices))
    }

    /// **Keyword-checking**: the vertices in the subtree rooted at `node`
    /// whose keyword sets contain *all* of `keywords`, gathered by
    /// intersecting the per-node inverted lists.
    ///
    /// # Panics
    ///
    /// Panics if the index was built without inverted lists; callers that
    /// support the `*`-ablation variants should check
    /// [`has_inverted_lists`](Self::has_inverted_lists) and fall back to
    /// [`vertices_with_keywords_under_scan`](Self::vertices_with_keywords_under_scan).
    pub fn vertices_with_keywords_under(
        &self,
        node: NodeId,
        keywords: &[KeywordId],
    ) -> Vec<VertexId> {
        assert!(
            self.with_inverted_lists,
            "index was built without inverted lists; use vertices_with_keywords_under_scan"
        );
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.extend(self.nodes[n].vertices_with_all_keywords(keywords));
            stack.extend(self.nodes[n].children.iter().copied());
        }
        out
    }

    /// Keyword filtering over a subtree by scanning the graph's keyword sets
    /// directly — what `Inc-S*` / `Inc-T*` (no inverted lists) have to do.
    pub fn vertices_with_keywords_under_scan(
        &self,
        graph: &AttributedGraph,
        node: NodeId,
        keywords: &[KeywordId],
    ) -> Vec<VertexId> {
        let mut sorted = keywords.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.subtree_vertex_iter(node)
            .filter(|&v| graph.keyword_set(v).contains_all(&sorted))
            .collect()
    }

    /// A canonical, order-independent description of the tree used to compare
    /// the `basic` and `advanced` construction algorithms: for every node, the
    /// pair `(core number, sorted vertex set of its subtree)`, sorted.
    pub fn canonical_form(&self) -> Vec<(u32, Vec<VertexId>)> {
        let mut out: Vec<(u32, Vec<VertexId>)> = self
            .preorder()
            .into_iter()
            .map(|n| {
                let mut vs = self.subtree_vertices(n);
                vs.sort_unstable();
                (self.nodes[n].core_num, vs)
            })
            .collect();
        out.sort();
        out
    }

    /// Checks the structural invariants of the index against its graph;
    /// returns a human-readable violation description if one is found.
    /// Used heavily by the test-suites.
    pub fn validate(&self, graph: &AttributedGraph) -> Result<(), String> {
        if graph.num_vertices() == 0 {
            return Ok(());
        }
        // 1. Every vertex is owned by exactly one node, with matching core number.
        let mut owned_count = vec![0usize; graph.num_vertices()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &v in &node.vertices {
                owned_count[v.index()] += 1;
                if self.vertex_node[v.index()] != id {
                    return Err(format!("vertex {v} owned by node {id} but mapped elsewhere"));
                }
                if self.decomposition.core_number(v) != node.core_num {
                    return Err(format!(
                        "vertex {v} (core {}) owned by node with core {}",
                        self.decomposition.core_number(v),
                        node.core_num
                    ));
                }
            }
        }
        if let Some(v) = owned_count.iter().position(|&c| c != 1) {
            return Err(format!("vertex {v} owned by {} nodes", owned_count[v]));
        }
        // 2. Parent core numbers are strictly smaller than child core numbers,
        //    and the root has core number 0.
        if self.nodes[self.root].core_num != 0 {
            return Err("root core number must be 0".into());
        }
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if self.nodes[c].parent != Some(id) {
                    return Err(format!("child {c} of {id} has wrong parent pointer"));
                }
                if self.nodes[c].core_num <= node.core_num {
                    return Err(format!(
                        "child core {} not greater than parent core {}",
                        self.nodes[c].core_num, node.core_num
                    ));
                }
            }
        }
        // 3. Every non-root node's subtree is exactly the (core_num)-ĉore of
        //    its highest-core... more precisely: the subtree vertex set equals
        //    the connected component, within vertices of core ≥ core_num, of
        //    any of its vertices.
        for id in self.preorder() {
            if id == self.root {
                continue;
            }
            let node = &self.nodes[id];
            let subtree = self.subtree_vertex_subset(id, graph.num_vertices());
            let seed = match subtree.members().first() {
                Some(&v) => v,
                None => return Err(format!("node {id} has an empty subtree")),
            };
            let expected = acq_kcore::connected_kcore_containing(
                graph,
                &self.decomposition,
                seed,
                node.core_num,
            )
            .ok_or_else(|| format!("node {id}: seed below its own core number"))?;
            if expected.sorted_members() != subtree.sorted_members() {
                return Err(format!(
                    "node {id} (core {}) subtree does not equal its {}-ĉore",
                    node.core_num, node.core_num
                ));
            }
        }
        // 4. Inverted lists are consistent with the graph's keyword sets.
        if self.with_inverted_lists {
            for (id, node) in self.nodes.iter().enumerate() {
                for (&kw, vs) in &node.inverted {
                    for &v in vs {
                        if !graph.keyword_set(v).contains(kw) {
                            return Err(format!(
                                "node {id}: vertex {v} listed under keyword it lacks"
                            ));
                        }
                    }
                }
                for &v in &node.vertices {
                    for kw in graph.keyword_set(v).iter() {
                        if !node.vertices_with_keyword(kw).contains(&v) {
                            return Err(format!(
                                "node {id}: vertex {v} missing from list of {kw:?}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Rough memory footprint in bytes (vertex entries + inverted-list entries
    /// + node overhead); used by the index-size experiment.
    pub fn memory_estimate_bytes(&self) -> usize {
        let vertex_entries: usize = self.nodes.iter().map(|n| n.vertices.len()).sum();
        let inverted_entries: usize =
            self.nodes.iter().map(|n| n.inverted.values().map(Vec::len).sum::<usize>()).sum();
        vertex_entries * std::mem::size_of::<VertexId>()
            + inverted_entries * std::mem::size_of::<VertexId>()
            + self.nodes.len() * std::mem::size_of::<ClTreeNode>()
            + self.vertex_node.len() * std::mem::size_of::<NodeId>()
    }

    /// Internal constructor shared by the two build algorithms.
    pub(crate) fn from_parts(
        nodes: Vec<ClTreeNode>,
        root: NodeId,
        vertex_node: Vec<NodeId>,
        decomposition: CoreDecomposition,
    ) -> Self {
        Self { nodes, root, vertex_node, decomposition, with_inverted_lists: false }
    }

    /// Fills every node's inverted list from the graph's keyword sets.
    pub(crate) fn attach_inverted_lists(&mut self, graph: &AttributedGraph) {
        for v in graph.vertices() {
            let node = self.vertex_node[v.index()];
            for kw in graph.keyword_set(v).iter() {
                self.nodes[node].add_keyword_entry(kw, v);
            }
        }
        self.with_inverted_lists = true;
    }

    /// Mutable node access for the maintenance module.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut ClTreeNode {
        &mut self.nodes[id]
    }

    /// Registers a freshly appended **isolated** vertex (the graph must
    /// already contain it, with no edges): it joins the root node (core
    /// number 0), its keywords join the root's inverted list, and the
    /// decomposition grows by one. Every existing node id stays valid.
    pub(crate) fn insert_isolated_vertex(&mut self, graph: &AttributedGraph, v: VertexId) {
        debug_assert_eq!(v.index(), self.vertex_node.len(), "vertex ids are dense and appended");
        debug_assert_eq!(graph.degree(v), 0, "only isolated vertices join the root directly");
        self.decomposition.push_isolated();
        self.vertex_node.push(self.root);
        let root = self.root;
        if let Err(pos) = self.nodes[root].vertices.binary_search(&v) {
            self.nodes[root].vertices.insert(pos, v);
        }
        if self.with_inverted_lists {
            for kw in graph.keyword_set(v).iter() {
                self.nodes[root].add_keyword_entry(kw, v);
            }
        }
    }
}

/// Lazy depth-first iterator over the vertices of a CL-tree subtree, created
/// by [`ClTree::subtree_vertex_iter`]. Borrows the tree immutably, so it is
/// safe to run many of these concurrently from reader threads.
#[derive(Debug, Clone)]
pub struct SubtreeVertices<'a> {
    tree: &'a ClTree,
    stack: Vec<NodeId>,
    current: std::slice::Iter<'a, VertexId>,
}

impl Iterator for SubtreeVertices<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        loop {
            if let Some(&v) = self.current.next() {
                return Some(v);
            }
            let n = self.stack.pop()?;
            self.stack.extend(self.tree.nodes[n].children.iter().copied());
            self.current = self.tree.nodes[n].vertices.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_advanced;
    use acq_graph::paper_figure3_graph;

    fn label_set(graph: &AttributedGraph, vs: &[VertexId]) -> Vec<String> {
        let mut out: Vec<String> =
            vs.iter().map(|&v| graph.label(v).unwrap_or("?").to_owned()).collect();
        out.sort();
        out
    }

    #[test]
    fn figure4_tree_shape() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        t.validate(&g).unwrap();
        // Canonical compressed tree: root {J} (0), two children with core 1
        // ({F,G} chain and {H,I}), then {E} (2), then {A,B,C,D} (3).
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.height(), 4, "matches the paper's height kmax + 1");
        let root = t.node(t.root());
        assert_eq!(root.core_num, 0);
        assert_eq!(label_set(&g, &root.vertices), vec!["J"]);
        assert_eq!(root.children.len(), 2);
        // The subtree of A's node is the 3-ĉore {A,B,C,D}.
        let a = g.vertex_by_label("A").unwrap();
        let node_a = t.node_of(a);
        assert_eq!(t.node(node_a).core_num, 3);
        assert_eq!(label_set(&g, &t.subtree_vertices(node_a)), vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn core_locating_matches_paper_example4() {
        // Example 4: q=A, k=1 -> the nodes for core numbers 1, 2, 3 on A's path.
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let range = t.locate_core_range(a, 1);
        assert_eq!(range.len(), 3);
        let cores: Vec<u32> = range.iter().map(|&n| t.node(n).core_num).collect();
        assert_eq!(cores, vec![1, 2, 3]);
        // The 1-ĉore containing A has 7 vertices.
        assert_eq!(t.subtree_vertices(range[0]).len(), 7);
        // locate_core beyond core(q) returns None.
        assert!(t.locate_core(a, 4).is_none());
        // J (core 0) is only reachable at c=0, where the subtree is everything.
        let j = g.vertex_by_label("J").unwrap();
        assert!(t.locate_core(j, 1).is_none());
        let all = t.locate_core(j, 0).unwrap();
        assert_eq!(all, t.root());
        assert_eq!(t.subtree_vertices(all).len(), 10);
    }

    #[test]
    fn keyword_checking_intersects_inverted_lists() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let dict = g.dictionary();
        let x = dict.get("x").unwrap();
        let y = dict.get("y").unwrap();
        let node1 = t.locate_core(a, 1).unwrap();
        let mut with_xy = t.vertices_with_keywords_under(node1, &[x, y]);
        with_xy.sort_unstable();
        assert_eq!(label_set(&g, &with_xy), vec!["A", "C", "D", "G"]);
        // Scanning fallback agrees.
        let mut scanned = t.vertices_with_keywords_under_scan(&g, node1, &[x, y]);
        scanned.sort_unstable();
        assert_eq!(scanned, with_xy);
        // Root subtree + keyword x finds J and I too.
        let with_x = t.vertices_with_keywords_under(t.root(), &[x]);
        assert_eq!(label_set(&g, &with_x), vec!["A", "B", "C", "D", "G", "I", "J"]);
    }

    #[test]
    fn kcore_containing_through_index() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let c2 = t.kcore_containing(a, 2, g.num_vertices()).unwrap();
        assert_eq!(label_set(&g, &c2.sorted_members()), vec!["A", "B", "C", "D", "E"]);
        assert!(t.kcore_containing(a, 4, g.num_vertices()).is_none());
    }

    #[test]
    fn index_without_inverted_lists_panics_on_keyword_checking() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, false);
        assert!(!t.has_inverted_lists());
        let x = g.dictionary().get("x").unwrap();
        let result = std::panic::catch_unwind(|| t.vertices_with_keywords_under(t.root(), &[x]));
        assert!(result.is_err());
        // The scan fallback still works.
        let found = t.vertices_with_keywords_under_scan(&g, t.root(), &[x]);
        assert_eq!(found.len(), 7);
    }

    #[test]
    fn memory_estimate_grows_with_inverted_lists() {
        let g = paper_figure3_graph();
        let with = build_advanced(&g, true);
        let without = build_advanced(&g, false);
        assert!(with.memory_estimate_bytes() > without.memory_estimate_bytes());
    }

    #[test]
    fn serde_roundtrip_preserves_structure() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let json = serde_json::to_string(&t).unwrap();
        let t2: ClTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t2.canonical_form(), t.canonical_form());
        t2.validate(&g).unwrap();
    }

    #[test]
    fn subtree_iterator_matches_materialised_list() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        for node in t.preorder() {
            let eager = t.subtree_vertices(node);
            let lazy: Vec<VertexId> = t.subtree_vertex_iter(node).collect();
            assert_eq!(lazy, eager, "node {node}");
            let mut reused = vec![VertexId(99)];
            t.subtree_vertices_into(node, &mut reused);
            assert_eq!(&reused[1..], eager.as_slice(), "into-variant appends");
        }
    }

    #[test]
    fn parent_child_accessors_are_consistent() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        assert_eq!(t.parent(t.root()), None);
        for node in t.preorder() {
            for &child in t.children(node) {
                assert_eq!(t.parent(child), Some(node));
            }
        }
    }

    #[test]
    fn tree_is_send_and_sync_for_concurrent_readers() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClTree>();

        // Concurrent navigation from scoped reader threads.
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let expected = t.subtree_vertices(t.root());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let walked: Vec<VertexId> = t.subtree_vertex_iter(t.root()).collect();
                    assert_eq!(walked, expected);
                });
            }
        });
    }
}
