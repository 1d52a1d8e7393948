//! Equivalence tests for the live-update pipeline: for arbitrary delta
//! sequences — edge inserts/removals, keyword adds/removes, vertex inserts —
//! `Engine::apply_updates` must produce **byte-identical** query results to a
//! from-scratch engine built on the updated graph, whichever plan (stable
//! skeleton, one skeleton rebuild, one full build) the batch ends in.
//! Universe sizes straddle the 64-bit word boundary so vertex inserts grow
//! the subset bitsets by a word mid-sequence.

use attributed_community_search::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Decodes raw proptest tuples into a valid delta sequence for a graph that
/// starts with `n` vertices (vertex inserts grow the id space as they go).
fn decode_deltas(n0: usize, raw: &[(u32, u32, u32, u32)]) -> Vec<GraphDelta> {
    let mut n = n0;
    let mut deltas = Vec::new();
    for &(kind, a, b, kw) in raw {
        let (a, b) = ((a as usize % n) as u32, (b as usize % n) as u32);
        let term = format!("kw{kw}");
        match kind {
            0 if a != b => deltas.push(GraphDelta::insert_edge(VertexId(a), VertexId(b))),
            1 if a != b => deltas.push(GraphDelta::remove_edge(VertexId(a), VertexId(b))),
            2 => deltas.push(GraphDelta::AddKeyword { vertex: VertexId(a), term }),
            3 => deltas.push(GraphDelta::RemoveKeyword { vertex: VertexId(a), term }),
            4 => {
                deltas.push(GraphDelta::InsertVertex { label: None, keywords: vec![term] });
                n += 1;
            }
            _ => {}
        }
    }
    deltas
}

/// Builds a random attributed graph with `n` vertices from raw edge pairs and
/// keyword picks.
fn build_graph(n: usize, edges: &[(u32, u32)], keywords: &[Vec<u32>]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for kws in keywords.iter().take(n) {
        let terms: Vec<String> = kws.iter().map(|k| format!("kw{k}")).collect();
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        b.add_unlabeled_vertex(&refs);
    }
    for _ in keywords.len()..n {
        b.add_unlabeled_vertex(&[]);
    }
    for &(u, v) in edges {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
    }
    b.build()
}

/// Asserts that `live` (the engine that consumed deltas) answers exactly like
/// a from-scratch engine over its published graph, for a spread of query
/// vertices, degree bounds and spec kinds.
fn assert_equivalent_to_fresh(live: &Engine) {
    let graph = live.graph();
    let fresh = Engine::builder(Arc::clone(&graph)).threads(1).build();
    let keyword = graph.dictionary().iter().next().map(|(id, _)| id);
    for v in graph.vertices().step_by(1 + graph.num_vertices() / 12) {
        for k in [1usize, 2, 3] {
            let requests = {
                let mut rs = vec![Request::community(v).k(k)];
                if let Some(kw) = keyword {
                    rs.push(Request::community(v).k(k).exact_keywords([kw]));
                    rs.push(Request::community(v).k(k).keywords([kw]).threshold(0.5));
                }
                rs
            };
            for request in requests {
                let a = live.execute(&request).expect("valid request");
                let b = fresh.execute(&request).expect("valid request");
                assert_eq!(
                    a.result, b.result,
                    "maintained engine diverged from rebuild at v={v:?} k={k}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property of the update pipeline: arbitrary delta
    /// batches through `apply_updates` ≡ rebuild-from-scratch, on
    /// word-boundary universes n = 63..65.
    #[test]
    fn apply_updates_equals_rebuild_on_boundary_universes(
        raw in (
            62usize..66,
            proptest::collection::vec((0u32..64, 0u32..64), 40..160),
            proptest::collection::vec(proptest::collection::vec(0u32..6, 0..4), 66),
            proptest::collection::vec((0u32..5, 0u32..80, 0u32..80, 0u32..6), 1..20),
        )
    ) {
        let (n, edges, keywords, raw_deltas) = raw;
        let graph = Arc::new(build_graph(n, &edges, &keywords));
        let deltas = decode_deltas(n, &raw_deltas);

        let engine = Engine::new(Arc::clone(&graph));
        let report = engine.apply_updates(&deltas).expect("decoded deltas are valid");
        prop_assert_eq!(report.generation, 2);
        prop_assert_eq!(engine.generation(), 2);
        // A from-scratch build is only ever chosen because the kernels had
        // already examined a whole graph's worth of vertices.
        prop_assert!(
            report.strategy != UpdateStrategy::FullRebuild || report.subcore_touched >= n,
            "FullRebuild after only {} of {n} vertices", report.subcore_touched
        );
        assert_equivalent_to_fresh(&engine);

        prop_assert_eq!(
            engine.apply_updates(&[]).expect("empty batch").strategy,
            UpdateStrategy::IncrementalStableSkeleton,
            "an empty batch touches nothing"
        );
    }

    /// Splitting one delta batch into many smaller `apply_updates` calls must
    /// not change any answer (each call re-stages from the published
    /// generation), and the final graphs agree edge-for-edge.
    #[test]
    fn batched_and_single_delta_application_agree(
        raw in (
            8usize..24,
            proptest::collection::vec((0u32..32, 0u32..32), 10..60),
            proptest::collection::vec(proptest::collection::vec(0u32..5, 0..4), 24),
            proptest::collection::vec((0u32..5, 0u32..40, 0u32..40, 0u32..5), 1..16),
        )
    ) {
        let (n, edges, keywords, raw_deltas) = raw;
        let graph = Arc::new(build_graph(n, &edges, &keywords));
        let deltas = decode_deltas(n, &raw_deltas);

        let one_batch = Engine::new(Arc::clone(&graph));
        one_batch.apply_updates(&deltas).expect("valid");
        let one_at_a_time = Engine::new(Arc::clone(&graph));
        for delta in &deltas {
            one_at_a_time.apply_updates(std::slice::from_ref(delta)).expect("valid");
        }

        let (ga, gb) = (one_batch.graph(), one_at_a_time.graph());
        prop_assert_eq!(ga.num_vertices(), gb.num_vertices());
        prop_assert_eq!(ga.num_edges(), gb.num_edges());
        for v in ga.vertices() {
            prop_assert_eq!(ga.neighbors(v), gb.neighbors(v));
        }
        assert_equivalent_to_fresh(&one_batch);
        assert_equivalent_to_fresh(&one_at_a_time);
    }
}
