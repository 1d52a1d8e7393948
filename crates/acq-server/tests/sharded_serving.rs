//! End-to-end: a server fronting a [`ShardedEngine`] answers the framed
//! protocol byte-identical to one fronting a single [`Engine`], and
//! additionally reports per-shard metrics.

use acq_core::{Engine, Request, ShardedEngine};
use acq_graph::{paper_figure3_graph, GraphDelta};
use acq_server::{Client, Server, ServerConfig};
use std::sync::Arc;

fn config() -> ServerConfig {
    ServerConfig { accept_threads: 1, ..Default::default() }
}

#[test]
fn sharded_server_is_wire_identical_to_single_engine_server() {
    let graph = Arc::new(paper_figure3_graph());
    let single = Server::bind("127.0.0.1:0", Arc::new(Engine::new(Arc::clone(&graph))), config())
        .expect("bind single");
    let sharded =
        Server::bind("127.0.0.1:0", Arc::new(ShardedEngine::new(Arc::clone(&graph), 2)), config())
            .expect("bind sharded");

    let mut single_client = Client::connect(single.local_addr()).expect("connect single");
    let mut sharded_client = Client::connect(sharded.local_addr()).expect("connect sharded");

    // Queries across both components, batched, in one interleaved order.
    let requests: Vec<Request> = ["H", "A", "J", "C", "I", "F"]
        .iter()
        .map(|label| Request::community(graph.vertex_by_label(label).unwrap()).k(2))
        .collect();
    let want = single_client.query_batch(&requests).expect("single batch");
    let got = sharded_client.query_batch(&requests).expect("sharded batch");
    assert_eq!(want.len(), got.len());
    for ((w, g), request) in want.iter().zip(&got).zip(&requests) {
        match (w, g) {
            (Ok(w), Ok(g)) => assert_eq!(w.result, g.result, "vertex {}", request.vertex),
            (w, g) => panic!("answer kinds diverged: {w:?} vs {g:?}"),
        }
    }

    // An update through the sharded server routes to the owning shard and
    // matches the single-engine report where the shapes are comparable.
    let h = graph.vertex_by_label("H").unwrap();
    let deltas = vec![GraphDelta::add_keyword(h, "fresh")];
    let want = single_client.update(&deltas).expect("single update");
    let got = sharded_client.update(&deltas).expect("sharded update");
    assert_eq!(got.generation, want.generation);
    assert_eq!(got.deltas_applied, want.deltas_applied);

    let request = Request::community(h).k(2);
    assert_eq!(
        sharded_client.query(&request).expect("post-update query").result,
        single_client.query(&request).expect("post-update query").result,
    );

    single.shutdown();
    sharded.shutdown();
}

#[test]
fn sharded_server_reports_per_shard_metrics() {
    let graph = Arc::new(paper_figure3_graph());
    let handle =
        Server::bind("127.0.0.1:0", Arc::new(ShardedEngine::new(Arc::clone(&graph), 2)), config())
            .expect("bind sharded");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let a = graph.vertex_by_label("A").unwrap();
    client.query(&Request::community(a).k(2)).expect("query");

    let snapshot = client.metrics().expect("metrics frame");
    assert_eq!(snapshot.shards.len(), 2, "one entry per shard");
    assert_eq!(snapshot.shards.iter().map(|s| s.vertices).sum::<usize>(), 10);
    assert!(snapshot.shards.iter().all(|s| s.generation == 1), "no shard has been written to");
    let text = snapshot.render_text();
    assert!(text.contains("acq_shards 2\n"), "missing shard count line:\n{text}");
    assert!(text.contains("acq_shard_0_vertices"), "missing per-shard lines:\n{text}");

    // A single-engine server emits no shard lines at all.
    let unsharded =
        Server::bind("127.0.0.1:0", Arc::new(Engine::new(Arc::clone(&graph))), config())
            .expect("bind single");
    let snapshot = unsharded.metrics_snapshot();
    assert!(snapshot.shards.is_empty());
    assert!(!snapshot.render_text().contains("acq_shard"));

    handle.shutdown();
    unsharded.shutdown();
}
