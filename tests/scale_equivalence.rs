//! Equivalence at a scale the proptests never reach. Every proptest universe
//! in the workspace stops at n ≤ 66; these run the same three equivalences on
//! the DBLP-like profile at scale 0.4 (n = 1 600, 25 subset words, growing to
//! 26 under vertex inserts) and on its 4-copy replication (n = 6 400).

use attributed_community_search::datagen::{dblp, generate, select_query_vertices};
use attributed_community_search::kcore::{kcore_subset, peel_to_kcore};
use attributed_community_search::prelude::*;
use std::sync::Arc;

/// The graph plus `queries` query vertices of core number ≥ 6.
fn fixture(queries: usize) -> (Arc<AttributedGraph>, Vec<VertexId>) {
    let graph = generate(&dblp().scaled(0.4));
    let decomposition = CoreDecomposition::compute(&graph);
    let selected = select_query_vertices(&graph, &decomposition, queries, 6, 99);
    assert_eq!(selected.len(), queries, "the fixture has enough core-6 vertices");
    (Arc::new(graph), selected)
}

/// A deterministic batch of `size` deltas from a splitmix-style stream: edge
/// toggles, keyword churn on every 4th delta, a vertex insert on every 16th.
fn delta_batch(graph: &AttributedGraph, size: usize) -> Vec<GraphDelta> {
    let n = graph.num_vertices() as u64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ size as u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut deltas = Vec::with_capacity(size);
    while deltas.len() < size {
        let u = VertexId((next() % n) as u32);
        let v = VertexId((next() % n) as u32);
        if u == v {
            continue;
        }
        deltas.push(match deltas.len() % 16 {
            15 => GraphDelta::insert_vertex(None, &["scale-churn"]),
            3 | 7 | 11 => GraphDelta::add_keyword(u, "scale-churn"),
            _ if graph.has_edge(u, v) => GraphDelta::remove_edge(u, v),
            _ => GraphDelta::insert_edge(u, v),
        });
    }
    deltas
}

/// `Engine::apply_updates` ≡ a fresh engine on `graph.apply_deltas(..)`, at
/// every batch size the maintenance plan distinguishes.
#[test]
fn apply_updates_equals_from_scratch_at_scale() {
    let (graph, queries) = fixture(10);
    for size in [1usize, 4, 16, 64] {
        let deltas = delta_batch(&graph, size);
        let live = Engine::builder(Arc::clone(&graph)).threads(1).build();
        live.apply_updates(&deltas).expect("valid deltas");
        let updated = graph.apply_deltas(&deltas).expect("valid deltas");
        let fresh = Engine::builder(Arc::new(updated)).threads(1).build();
        for &q in &queries {
            for request in [Request::community(q).k(4), Request::community(q).k(6)] {
                assert_eq!(
                    live.execute(&request).expect("valid").result,
                    fresh.execute(&request).expect("valid").result,
                    "apply_updates and a from-scratch build diverged on {q:?} at batch {size}"
                );
            }
        }
    }
}

/// Replicates `base` into `copies` vertex-offset disjoint components — the
/// shape sharding targets: communities never span components.
fn replicate(base: &AttributedGraph, copies: usize) -> AttributedGraph {
    let n = base.num_vertices();
    let mut b = GraphBuilder::new();
    for _ in 0..copies {
        for v in base.vertices() {
            b.add_unlabeled_vertex(&base.keyword_terms(v));
        }
    }
    for copy in 0..copies {
        let offset = (copy * n) as u32;
        for v in base.vertices() {
            for &u in base.neighbors(v) {
                if v < u {
                    b.add_edge(VertexId(v.0 + offset), VertexId(u.0 + offset)).unwrap();
                }
            }
        }
    }
    b.build()
}

/// `ShardedEngine` at 1 / 2 / 4 shards ≡ one `Engine`, on the universe-bound
/// algorithm (`basic-g`) and the index-anchored one (`Dec`), with consecutive
/// requests landing on different copies.
#[test]
fn sharded_engine_equals_single_engine_at_scale() {
    const COPIES: u32 = 4;
    let (base, queries) = fixture(4);
    let n = base.num_vertices() as u32;
    let graph = Arc::new(replicate(&base, COPIES as usize));
    let requests: Vec<Request> = [AcqAlgorithm::BasicG, AcqAlgorithm::Dec]
        .into_iter()
        .flat_map(|algorithm| {
            queries.iter().flat_map(move |&q| {
                (0..COPIES).map(move |copy| {
                    Request::community(VertexId(q.0 + copy * n)).k(6).algorithm(algorithm)
                })
            })
        })
        .collect();
    let results = |engine: &dyn Executor| -> Vec<_> {
        engine
            .execute_batch(&requests)
            .into_iter()
            .map(|r| r.expect("workload queries are valid").result)
            .collect()
    };
    let want = results(&Engine::builder(Arc::clone(&graph)).threads(1).build());
    for shards in [1usize, 2, 4] {
        let sharded =
            ShardedEngine::builder(Arc::clone(&graph)).num_shards(shards).threads(1).build();
        assert_eq!(results(&sharded), want, "{shards}-shard answers diverged");
    }
}

/// Peeling the whole graph to its k-core ≡ reading the k-core off the core
/// decomposition, and every survivor really has `k` neighbours inside.
#[test]
fn peel_equals_decomposition_at_scale() {
    let graph = generate(&dblp().scaled(0.4));
    let decomposition = CoreDecomposition::compute(&graph);
    let full = VertexSubset::full(graph.num_vertices());
    assert!(decomposition.kmax() >= 6);
    for k in 1..=decomposition.kmax() {
        let peeled = peel_to_kcore(&graph, &full, k as usize);
        assert_eq!(peeled, kcore_subset(&graph, &decomposition, k), "k = {k}");
        for v in peeled.iter() {
            assert!(peeled.degree_within(&graph, v) >= k as usize, "{v:?} at k = {k}");
        }
    }
}
