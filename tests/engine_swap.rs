//! Concurrency tests for the generation handle: publishing a new generation
//! through [`Engine::apply_updates`] must not disturb concurrent `execute`
//! calls — queries keep succeeding throughout, answers never change while
//! the published graph does not, and each thread observes generations in
//! publication order.

use attributed_community_search::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A batch that runs the insertion and the removal kernel on one absent edge
/// and so publishes a new generation of the **same** graph.
fn edge_toggle(graph: &AttributedGraph) -> [GraphDelta; 2] {
    let mut vertices = graph.vertices();
    let u = vertices.next().expect("non-empty graph");
    let v = vertices.find(|&v| !graph.has_edge(u, v)).expect("the graph is not a star on u");
    [GraphDelta::insert_edge(u, v), GraphDelta::remove_edge(u, v)]
}

#[test]
fn swap_under_load_never_disturbs_concurrent_queries() {
    let graph = Arc::new(attributed_community_search::datagen::generate(
        &attributed_community_search::datagen::tiny(),
    ));
    let engine = Engine::new(Arc::clone(&graph));
    let queries: Vec<Request> = graph
        .vertices()
        .filter(|&v| CoreDecomposition::compute(&graph).core_number(v) >= 3)
        .take(6)
        .map(|v| Request::community(v).k(3))
        .collect();
    assert!(!queries.is_empty(), "the tiny profile has a 3-core");

    // Reference answers before any swap.
    let reference: Vec<AcqResult> = queries
        .iter()
        .map(|request| engine.execute(request).expect("valid request").result)
        .collect();

    const SWAPS: u64 = 25;
    let toggle = edge_toggle(&graph);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: keeps publishing maintained generations while readers query.
        let writer = scope.spawn(|| {
            for _ in 0..SWAPS {
                engine.apply_updates(&toggle).expect("valid deltas");
            }
            stop.store(true, Ordering::Release);
        });

        // Readers: hammer the engine across the swaps.
        let mut readers = Vec::new();
        for _ in 0..4 {
            readers.push(scope.spawn(|| {
                let mut last_generation = 0u64;
                let mut rounds = 0usize;
                while !stop.load(Ordering::Acquire) || rounds < 3 {
                    for (request, expected) in queries.iter().zip(&reference) {
                        let response =
                            engine.execute(request).expect("swap must not break queries");
                        assert_eq!(
                            &response.result, expected,
                            "same graph must yield the same answer across generations"
                        );
                        // Generations are observed in publication order.
                        assert!(
                            response.meta.generation >= last_generation,
                            "generation went backwards: {} after {}",
                            response.meta.generation,
                            last_generation
                        );
                        last_generation = response.meta.generation;
                    }
                    rounds += 1;
                }
                last_generation
            }));
        }

        writer.join().expect("writer thread");
        let max_seen = readers.into_iter().map(|r| r.join().expect("reader thread")).max().unwrap();
        assert!(max_seen > 1, "readers must have observed at least one published swap");
    });

    assert_eq!(engine.generation(), 1 + SWAPS, "every swap bumped the generation");
    // After the dust settles, the engine still answers from the last index.
    let final_response = engine.execute(&queries[0]).unwrap();
    assert_eq!(final_response.meta.generation, 1 + SWAPS);
    assert_eq!(final_response.result, reference[0]);
}

#[test]
fn a_batch_runs_entirely_on_one_generation() {
    let graph = Arc::new(paper_figure3_graph());
    let engine = Engine::builder(Arc::clone(&graph)).threads(4).build();
    let requests: Vec<Request> = graph.vertices().map(|v| Request::community(v).k(2)).collect();

    let toggle = edge_toggle(&graph);
    std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            for _ in 0..10 {
                engine.apply_updates(&toggle).expect("valid deltas");
            }
        });
        for _ in 0..10 {
            let responses = engine.execute_batch(&requests);
            let generations: Vec<u64> =
                responses.iter().map(|r| r.as_ref().unwrap().meta.generation).collect();
            assert!(
                generations.windows(2).all(|w| w[0] == w[1]),
                "a batch must never straddle an index swap: {generations:?}"
            );
        }
        swapper.join().expect("swapper thread");
    });
}

#[test]
fn apply_updates_under_load_keeps_queries_consistent() {
    // The live-update shape: a writer feeds delta batches through
    // `Engine::apply_updates` while readers hammer queries. Every query must
    // succeed on *some* coherent generation (graph+index+cache snapshot),
    // generations must be observed in publication order, and when the dust
    // settles the engine answers exactly like a from-scratch engine over the
    // final graph.
    let graph = Arc::new(attributed_community_search::datagen::generate(
        &attributed_community_search::datagen::tiny(),
    ));
    let engine = Engine::new(Arc::clone(&graph));
    let queries: Vec<Request> = graph
        .vertices()
        .filter(|&v| CoreDecomposition::compute(&graph).core_number(v) >= 3)
        .take(6)
        .map(|v| Request::community(v).k(3))
        .collect();
    assert!(!queries.is_empty());

    // A toggle schedule: each batch flips a few edges (insert if absent,
    // remove if present is expressed as two one-delta batches around it) and
    // churns a keyword.
    let pairs: Vec<(VertexId, VertexId)> = {
        let vs: Vec<VertexId> = graph.vertices().collect();
        (0..10)
            .map(|i| (vs[i % vs.len()], vs[(i * 7 + 3) % vs.len()]))
            .filter(|(a, b)| a != b)
            .collect()
    };
    const ROUNDS: usize = 8;

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut batches = 0u64;
            for round in 0..ROUNDS {
                let current = engine.graph();
                let deltas: Vec<GraphDelta> = pairs
                    .iter()
                    .map(|&(u, v)| {
                        if current.has_edge(u, v) {
                            GraphDelta::remove_edge(u, v)
                        } else {
                            GraphDelta::insert_edge(u, v)
                        }
                    })
                    .chain(std::iter::once(GraphDelta::add_keyword(
                        pairs[round % pairs.len()].0,
                        "churn",
                    )))
                    .collect();
                engine.apply_updates(&deltas).expect("valid deltas");
                batches += 1;
            }
            stop.store(true, Ordering::Release);
            batches
        });

        let mut readers = Vec::new();
        for _ in 0..4 {
            readers.push(scope.spawn(|| {
                let mut last_generation = 0u64;
                let mut rounds = 0usize;
                while !stop.load(Ordering::Acquire) || rounds < 3 {
                    for request in &queries {
                        let response =
                            engine.execute(request).expect("updates must not break queries");
                        assert!(
                            response.meta.generation >= last_generation,
                            "generation went backwards: {} after {}",
                            response.meta.generation,
                            last_generation
                        );
                        last_generation = response.meta.generation;
                    }
                    rounds += 1;
                }
            }));
        }

        let batches = writer.join().expect("writer thread");
        for reader in readers {
            reader.join().expect("reader thread");
        }
        assert_eq!(engine.generation(), 1 + batches, "every update batch published once");
    });

    // Post-conditions: the published graph reflects the final toggle state,
    // and the maintained engine agrees with a from-scratch rebuild on it.
    let final_graph = engine.graph();
    let fresh = Engine::new(Arc::clone(&final_graph));
    for request in &queries {
        let live = engine.execute(request).unwrap();
        let rebuilt = fresh.execute(request).unwrap();
        assert_eq!(live.result, rebuilt.result, "maintained state must equal a rebuild");
    }
}
