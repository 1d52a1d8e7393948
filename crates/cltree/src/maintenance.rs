//! Incremental CL-tree maintenance (Section 5.2.2 "Index maintenance" and
//! Appendix F of the paper; `ARCHITECTURE.md`, "Update pipeline").
//!
//! * **Keyword updates** are fully local: only the inverted list of the single
//!   CL-tree node owning the vertex changes.
//! * **Vertex insertions** (isolated vertices appended by a graph delta) are
//!   fully local too: the vertex joins the root node, node ids untouched.
//! * **Edge updates** come in two halves, so that a batch of them pays for
//!   the skeleton at most once:
//!
//!   1. the **per-edge step** ([`step_edge_insertion`] /
//!      [`step_edge_removal`]) updates the core decomposition in place with
//!      the subcore algorithm of `acq-kcore` (only vertices at the affected
//!      core level are touched, as in Li et al.) and records in a
//!      [`MaintenanceReport`] whether the skeleton still describes the graph
//!      — it does when no core number moved *and* the edge provably merged or
//!      split no k-ĉore. It never touches a node;
//!   2. [`rebuild_skeleton`] — run once, after the last step, if any of them
//!      reported a change — rebuilds the skeleton from the maintained core
//!      numbers with the `advanced` builder, `O(m·α(n))`, still skipping the
//!      `O(m)` from-scratch decomposition. The paper sketches a more local
//!      subtree splice; that would be a change to this one function.

use crate::build_advanced::build_advanced_with_decomposition;
use crate::tree::ClTree;
use acq_graph::{AttributedGraph, KeywordId, VertexId};
use acq_kcore::MaintenanceOutcome;

/// What a run of per-edge steps — one edge or a whole batch — did to the
/// index. Steps accumulate into it, and consult it: once the skeleton is
/// known to be out of date, later steps run only the core-number kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Vertices the core-maintenance cascades examined (summed subcores).
    pub subcore_size: usize,
    /// How many core-number changes (each by exactly one) the steps made.
    pub cores_changed: usize,
    /// `true` if the tree skeleton no longer describes the graph and
    /// [`rebuild_skeleton`] must run (node ids of the rebuilt tree are
    /// **not** comparable to the old ones); `false` if the skeleton is still
    /// exact and every node id stays valid.
    pub skeleton_changed: bool,
}

impl MaintenanceReport {
    fn record(&mut self, outcome: MaintenanceOutcome, skeleton_kept: impl FnOnce() -> bool) {
        self.subcore_size += outcome.subcore_size;
        self.cores_changed += outcome.changed;
        self.skeleton_changed = self.skeleton_changed || outcome.changed > 0 || !skeleton_kept();
    }
}

/// Registers a newly added keyword of `vertex` in the index. The caller must
/// have already added the keyword to the graph (e.g. via
/// [`AttributedGraph::with_keyword_added`]); this touches exactly one node.
pub fn apply_keyword_insertion(tree: &mut ClTree, vertex: VertexId, keyword: KeywordId) {
    let node = tree.node_of(vertex);
    if tree.has_inverted_lists() {
        tree.node_mut(node).add_keyword_entry(keyword, vertex);
    }
}

/// Removes a keyword of `vertex` from the index (no-op if it was not listed).
pub fn apply_keyword_removal(tree: &mut ClTree, vertex: VertexId, keyword: KeywordId) {
    let node = tree.node_of(vertex);
    if tree.has_inverted_lists() {
        tree.node_mut(node).remove_keyword_entry(keyword, vertex);
    }
}

/// Registers a freshly appended **isolated** vertex of `graph` in the index:
/// it is owned by the root node (core number 0) and its keywords join the
/// root's inverted list. Node ids are untouched. The caller wires any edges
/// of the new vertex through [`step_edge_insertion`] afterwards.
pub fn apply_vertex_insertion(tree: &mut ClTree, graph: &AttributedGraph, vertex: VertexId) {
    tree.insert_isolated_vertex(graph, vertex);
}

/// The per-edge step after the edge `{u, v}` has been inserted into the graph
/// (`graph` must already contain the edge): maintains the tree's core
/// decomposition, at `O(touched subcore)` cost, and never touches a node.
///
/// The skeleton is kept when **no core number moved** and the two endpoints
/// already sat in the same `c`-ĉore node at `c = min(core(u), core(v))`: the
/// edge is then internal to an existing subtree, so no ĉore at any level can
/// have merged (levels ≤ c share the node by nestedness; levels > c contain
/// at most one endpoint). Otherwise `report.skeleton_changed` is set.
pub fn step_edge_insertion(
    tree: &mut ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
    report: &mut MaintenanceReport,
) {
    let c = tree.core_number(u).min(tree.core_number(v));
    let outcome =
        acq_kcore::maintenance::apply_edge_insertion(graph, &mut tree.decomposition, u, v);
    // Core numbers survived, so `tree`'s levels still describe the graph; the
    // only possible structural change is a merge of two ĉores at the edge's
    // level, ruled out when the endpoints share that node already.
    report.record(outcome, || tree.locate_core(u, c) == tree.locate_core(v, c));
}

/// The per-edge step after the edge `{u, v}` has been removed from the graph
/// (`graph` must no longer contain the edge); the counterpart of
/// [`step_edge_insertion`].
///
/// The skeleton is kept when **no core number moved** and the two endpoints
/// are still connected within the vertices of core number
/// `≥ c = min(core(u), core(v))` (checked with a BFS bounded by that ĉore):
/// then no ĉore split at level `c` — and by nestedness none below it, while
/// levels above `c` never contained the edge.
pub fn step_edge_removal(
    tree: &mut ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
    report: &mut MaintenanceReport,
) {
    let c = tree.core_number(u).min(tree.core_number(v));
    let outcome = acq_kcore::maintenance::apply_edge_removal(graph, &mut tree.decomposition, u, v);
    report.record(outcome, || {
        c == 0
            || acq_kcore::connected_kcore_containing(graph, tree.decomposition(), u, c)
                .is_some_and(|component| component.contains(v))
    });
}

/// Rebuilds the skeleton (and inverted lists) of `tree` for `graph` from the
/// tree's maintained core decomposition — what a run of steps that reported
/// `skeleton_changed` owes the index, once.
pub fn rebuild_skeleton(tree: &mut ClTree, graph: &AttributedGraph) {
    *tree = build_advanced_with_decomposition(
        graph,
        tree.decomposition.clone(),
        tree.has_inverted_lists(),
    );
}

/// One edge insertion on a copy of `tree`: clone, [`step_edge_insertion`],
/// and [`rebuild_skeleton`] if the step asks for it.
pub fn apply_edge_insertion_with_report(
    tree: &ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> (ClTree, MaintenanceReport) {
    let mut next = tree.clone();
    let mut report = MaintenanceReport::default();
    step_edge_insertion(&mut next, graph, u, v, &mut report);
    if report.skeleton_changed {
        rebuild_skeleton(&mut next, graph);
    }
    (next, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_advanced::build_advanced;
    use acq_graph::paper_figure3_graph;

    /// One edge removal on a copy of `tree`, the removal twin of
    /// [`apply_edge_insertion_with_report`].
    fn remove_edge(
        tree: &ClTree,
        graph: &AttributedGraph,
        u: VertexId,
        v: VertexId,
    ) -> (ClTree, MaintenanceReport) {
        let mut next = tree.clone();
        let mut report = MaintenanceReport::default();
        step_edge_removal(&mut next, graph, u, v, &mut report);
        if report.skeleton_changed {
            rebuild_skeleton(&mut next, graph);
        }
        (next, report)
    }

    #[test]
    fn keyword_insertion_updates_single_inverted_list() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let b = g.vertex_by_label("B").unwrap();
        let g2 = g.with_keyword_added(b, "music").unwrap();
        let music = g2.dictionary().get("music").unwrap();
        apply_keyword_insertion(&mut t, b, music);
        t.validate(&g2).unwrap();
        let node = t.node_of(b);
        assert!(t.node(node).vertices_with_keyword(music).contains(&b));
    }

    #[test]
    fn keyword_removal_updates_single_inverted_list() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let d = g.vertex_by_label("D").unwrap();
        let z = g.dictionary().get("z").unwrap();
        let g2 = g.with_keyword_removed(d, "z").unwrap();
        apply_keyword_removal(&mut t, d, z);
        t.validate(&g2).unwrap();
        assert!(!t.node(t.node_of(d)).vertices_with_keyword(z).contains(&d));
    }

    #[test]
    fn keyword_updates_are_noops_without_inverted_lists() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, false);
        let b = g.vertex_by_label("B").unwrap();
        apply_keyword_insertion(&mut t, b, KeywordId(0));
        apply_keyword_removal(&mut t, b, KeywordId(0));
        t.validate(&g).unwrap();
    }

    #[test]
    fn edge_insertion_refreshes_index() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let f = g.vertex_by_label("F").unwrap();
        let g_vertex = g.vertex_by_label("G").unwrap();
        // Adding F–G turns {E,F,G} into a triangle, promoting F and G to core 2.
        let g2 = g.with_edge_inserted(f, g_vertex).unwrap();
        let (t2, _) = apply_edge_insertion_with_report(&t, &g2, f, g_vertex);
        t2.validate(&g2).unwrap();
        assert_eq!(t2.core_number(f), 2);
        let from_scratch = build_advanced(&g2, true);
        assert_eq!(t2.canonical_form(), from_scratch.canonical_form());
    }

    #[test]
    fn edge_removal_refreshes_index() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let g2 = g.with_edge_removed(a, b).unwrap();
        let (t2, _) = remove_edge(&t, &g2, a, b);
        t2.validate(&g2).unwrap();
        assert_eq!(t2.core_number(a), 2, "clique minus an edge drops to core 2");
        let from_scratch = build_advanced(&g2, true);
        assert_eq!(t2.canonical_form(), from_scratch.canonical_form());
    }

    #[test]
    fn internal_edge_insertion_short_circuits_without_rebuild() {
        // A 4-cycle is a single 2-ĉore; adding the chord (0, 2) changes no
        // core number (vertices 1 and 3 keep degree 2) and both endpoints
        // already share the 2-ĉore node — the skeleton must be kept.
        let g = acq_graph::unlabeled_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let t = build_advanced(&g, true);
        let (u, v) = (acq_graph::VertexId(0), acq_graph::VertexId(2));
        let g2 = g.with_edge_inserted(u, v).unwrap();
        let (t2, report) = apply_edge_insertion_with_report(&t, &g2, u, v);
        assert!(!report.skeleton_changed, "internal edge keeps the skeleton");
        assert_eq!(report.cores_changed, 0);
        t2.validate(&g2).unwrap();
        // Node ids are stable: every vertex maps to the same node id.
        for w in g.vertices() {
            assert_eq!(t2.node_of(w), t.node_of(w), "node id of {w:?} must be stable");
        }
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn bridge_edge_insertion_merging_cores_rebuilds() {
        // F (core 1, left 1-ĉore) to H (core 1, the separate {H, I} 1-ĉore):
        // no core number changes, but the two 1-ĉores merge — the step must
        // say so without touching a node, and one rebuild must repair it.
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let f = g.vertex_by_label("F").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let g2 = g.with_edge_inserted(f, h).unwrap();

        let mut stepped = t.clone();
        let mut report = MaintenanceReport::default();
        step_edge_insertion(&mut stepped, &g2, f, h, &mut report);
        assert!(report.skeleton_changed, "merging two 1-ĉores changes the skeleton");
        assert_eq!(report.cores_changed, 0, "yet no core number moved");
        // The step never rebuilds: the (now stale) skeleton is untouched.
        assert_eq!(stepped.num_nodes(), t.num_nodes());
        for w in g.vertices() {
            assert_eq!(stepped.node_of(w), t.node_of(w), "node of {w:?} must not move");
        }
        assert_ne!(stepped.canonical_form(), build_advanced(&g2, true).canonical_form());

        rebuild_skeleton(&mut stepped, &g2);
        stepped.validate(&g2).unwrap();
        assert_eq!(stepped.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn steps_after_a_skeleton_change_run_only_the_kernel() {
        // After F–H made the skeleton stale, the internal edge F–G (which
        // promotes F and G to core 2) must still maintain the core numbers, and
        // one rebuild at the end must equal a from-scratch build.
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let vertex = |label: &str| g.vertex_by_label(label).unwrap();
        let (f, h, g_vertex) = (vertex("F"), vertex("H"), vertex("G"));
        let mut report = MaintenanceReport::default();
        let g2 = g.with_edge_inserted(f, h).unwrap();
        step_edge_insertion(&mut t, &g2, f, h, &mut report);
        let g3 = g2.with_edge_inserted(f, g_vertex).unwrap();
        step_edge_insertion(&mut t, &g3, f, g_vertex, &mut report);
        let g4 = g3.with_edge_removed(f, h).unwrap();
        step_edge_removal(&mut t, &g4, f, h, &mut report);
        assert!(report.skeleton_changed);
        assert_eq!(report.cores_changed, 2, "F and G moved to core 2");
        assert_eq!(t.core_number(f), 2);
        rebuild_skeleton(&mut t, &g4);
        t.validate(&g4).unwrap();
        assert_eq!(t.canonical_form(), build_advanced(&g4, true).canonical_form());
    }

    #[test]
    fn redundant_edge_removal_short_circuits_without_rebuild() {
        // A 4-cycle plus the chord (0, 2): removing the chord changes no core
        // number (the cycle keeps everyone at core 2) and the 2-ĉore stays
        // connected — the skeleton must be kept.
        let g = acq_graph::unlabeled_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let t = build_advanced(&g, true);
        let (u, v) = (acq_graph::VertexId(0), acq_graph::VertexId(2));
        let g2 = g.with_edge_removed(u, v).unwrap();
        let (t2, report) = remove_edge(&t, &g2, u, v);
        assert!(!report.skeleton_changed, "redundant edge removal keeps the skeleton");
        assert_eq!(report.cores_changed, 0);
        t2.validate(&g2).unwrap();
        for w in g2.vertices() {
            assert_eq!(t2.node_of(w), t.node_of(w), "node id of {w:?} must be stable");
        }
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn splitting_edge_removal_rebuilds() {
        // Removing H–I disconnects the {H, I} 1-ĉore into two core-0
        // vertices; cores change, so the rebuild path runs.
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let g2 = g.with_edge_removed(h, i).unwrap();
        let (t2, report) = remove_edge(&t, &g2, h, i);
        assert!(report.skeleton_changed);
        assert_eq!(report.cores_changed, 2, "H and I both drop to core 0");
        t2.validate(&g2).unwrap();
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn vertex_insertion_joins_root_in_place() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let root = t.root();
        let g2 = g.with_vertex_inserted(Some("K"), &["x", "brand-new"]).unwrap();
        let k = g2.vertex_by_label("K").unwrap();
        apply_vertex_insertion(&mut t, &g2, k);
        t.validate(&g2).unwrap();
        assert_eq!(t.node_of(k), root, "isolated vertices are owned by the root");
        assert_eq!(t.core_number(k), 0);
        let brand_new = g2.dictionary().get("brand-new").unwrap();
        assert!(t.node(root).vertices_with_keyword(brand_new).contains(&k));
        assert_eq!(t.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn sequence_of_mixed_updates_stays_valid() {
        let mut g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let pairs = [("H", "F"), ("J", "A"), ("I", "G")];
        for (x, y) in pairs {
            let u = g.vertex_by_label(x).unwrap();
            let v = g.vertex_by_label(y).unwrap();
            g = g.with_edge_inserted(u, v).unwrap();
            t = apply_edge_insertion_with_report(&t, &g, u, v).0;
            t.validate(&g).unwrap();
        }
        // Now remove one of them again.
        let u = g.vertex_by_label("J").unwrap();
        let v = g.vertex_by_label("A").unwrap();
        g = g.with_edge_removed(u, v).unwrap();
        t = remove_edge(&t, &g, u, v).0;
        t.validate(&g).unwrap();
    }
}
