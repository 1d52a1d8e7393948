//! Model check for the engine's generation-swap protocol (invariant (a) of
//! `docs/CONCURRENCY.md`).
//!
//! Under `--cfg acq_model` these explore every bounded interleaving of a
//! writer applying deltas against a reader executing queries; in normal
//! builds they run once on real threads as smoke tests. All synchronisation
//! the engine does goes through `acq-sync`, so the scheduler sees every
//! lock acquisition and publish as a yield point.

use acq_core::{Engine, Executor, Request};
use acq_graph::{AttributedGraph, GraphBuilder, GraphDelta, KeywordId, VertexId};
use acq_sync::model::model;
use acq_sync::sync::Arc;
use acq_sync::thread;

/// A path `0 — 1 — 2` where every vertex carries the keyword `x`.
fn x_path() -> (Arc<AttributedGraph>, KeywordId) {
    let mut b = GraphBuilder::new();
    let v0 = b.add_unlabeled_vertex(&["x"]);
    let v1 = b.add_unlabeled_vertex(&["x"]);
    let v2 = b.add_unlabeled_vertex(&["x"]);
    b.add_edge(v0, v1).unwrap();
    b.add_edge(v1, v2).unwrap();
    let g = b.build();
    let x = g.dictionary().get("x").unwrap();
    (Arc::new(g), x)
}

/// The query and delta the test revolves around: ask for the exact-keyword
/// community of vertex 0, while a writer strips `x` from vertex 2 — which
/// shrinks the answer from `{0, 1, 2}` to `{0, 1}`.
fn query_and_delta(x: KeywordId) -> (Request, Vec<GraphDelta>) {
    let request = Request::community(VertexId(0)).k(1).exact_keywords([x]);
    let deltas = vec![GraphDelta::remove_keyword(VertexId(2), "x")];
    (request, deltas)
}

/// The canonical answer a single-generation engine gives, optionally after
/// applying `deltas` first. Runs single-threaded, so it adds scheduler
/// steps but no branching inside a model run.
fn reference_answer(
    graph: &Arc<AttributedGraph>,
    request: &Request,
    deltas: &[GraphDelta],
) -> Vec<(Vec<KeywordId>, Vec<VertexId>)> {
    let engine = Engine::builder(Arc::clone(graph)).threads(1).build();
    if !deltas.is_empty() {
        engine.apply_updates(deltas).unwrap();
    }
    engine.execute(request).unwrap().canonical()
}

/// Invariant (a): a query never observes a half-published generation. Every
/// response must be *exactly* the old generation's answer or *exactly* the
/// new one's — generation number and community must agree. If `publish`
/// were split into two observable steps (or the reader's snapshot were not
/// atomic), some interleaving would pair the new generation number with the
/// old answer and this test would fail with a replayable seed.
#[test]
fn reader_never_observes_a_half_published_generation() {
    model(|| {
        let (graph, x) = x_path();
        let (request, deltas) = query_and_delta(x);
        let before = reference_answer(&graph, &request, &[]);
        let after = reference_answer(&graph, &request, &deltas);
        assert_ne!(before, after, "the delta must change the answer for the test to bite");

        let engine = Arc::new(Engine::builder(graph).threads(1).build());
        let base_generation = engine.execute(&request).unwrap().meta.generation;

        let writer = {
            let engine = Arc::clone(&engine);
            let deltas = deltas.clone();
            thread::spawn(move || {
                engine.apply_updates(&deltas).unwrap();
            })
        };

        let response = engine.execute(&request).unwrap();
        let got = response.canonical();
        let generation = response.meta.generation;
        assert!(
            (generation == base_generation && got == before)
                || (generation == base_generation + 1 && got == after),
            "torn generation observed: generation {generation} answered {got:?}",
        );

        writer.join().unwrap();

        let settled = engine.execute(&request).unwrap();
        assert_eq!(settled.meta.generation, base_generation + 1);
        assert_eq!(settled.canonical(), after);
    });
}
