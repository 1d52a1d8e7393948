//! End-to-end resilience under network chaos.
//!
//! A retrying client drives a durable server through a [`ChaosProxy`] that
//! tears connections mid-frame, swallows traffic one-way, and injects
//! latency on a fixed seeded schedule. The acceptance property: despite the
//! chaos, the run is indistinguishable from a perfect network —
//!
//! * every update is applied **exactly once** (generations advance by
//!   exactly one per logical write, even when an `UpdateOk` was lost after
//!   the server applied the batch and the client had to retry);
//! * every `UpdateOk` the client observes is byte-identical to the one a
//!   fault-free run produces;
//! * the final graph is byte-identical to a reference engine that applied
//!   each batch once;
//! * and the dedup window demonstrably did the saving (`acq_dedup_hits > 0`
//!   — the CI chaos-smoke job greps for it).
//!
//! The durable server wraps either inner engine — a single `Engine` or a
//! 3-shard `ShardedEngine` — and the property holds for both, down to the
//! same final graph bytes.

use attributed_community_search::durable::FsStorage;
use attributed_community_search::prelude::*;
use attributed_community_search::server::{
    ChaosConfig, ChaosProxy, ClientConfig, RetryPolicy, WireError,
};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic batch stream: every even batch mints a vertex, every odd
/// batch wires the fresh vertex into the graph. `InsertVertex` is NOT
/// idempotent (it mints a new id each time it applies), so any double-apply
/// anywhere in the run shows up in the final graph bytes.
fn chaos_batches(base_vertices: u32, count: usize) -> Vec<Vec<GraphDelta>> {
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                let term = format!("chaos{i}");
                vec![GraphDelta::InsertVertex { label: None, keywords: vec![term] }]
            } else {
                let minted = base_vertices + (i as u32) / 2;
                vec![GraphDelta::insert_edge(VertexId(minted), VertexId((i as u32) % 3))]
            }
        })
        .collect()
}

/// Builds the engine a durable layer wraps, over the graph it recovered.
type BuildInner = fn(Arc<AttributedGraph>) -> Arc<dyn ServingEngine>;

fn single_engine(graph: Arc<AttributedGraph>) -> Arc<dyn ServingEngine> {
    Arc::new(Engine::new(graph))
}

fn three_shards(graph: Arc<AttributedGraph>) -> Arc<dyn ServingEngine> {
    Arc::new(ShardedEngine::new(graph, 3))
}

/// A fresh durable server over its own temp dir, wrapping whatever `inner`
/// builds; returns the handle and the engine clone the assertions read the
/// final graph through.
fn durable_server(
    tag: &str,
    inner: BuildInner,
) -> (ServerHandle, Arc<DurableEngine>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("acq-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = FsStorage::open(&dir).expect("create temp dir");
    let base = Arc::new(paper_figure3_graph());
    let (durable, _) =
        DurableEngine::open_with(Box::new(storage), base, DurableOptions::default(), inner)
            .expect("open durable dir");
    let durable = Arc::new(durable);
    let config = ServerConfig { read_timeout_ms: 5_000, ..Default::default() };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&durable) as _, config)
        .expect("bind durable server");
    (server, durable, dir)
}

/// The retrying client configuration the chaos run uses: short read timeout
/// (so one-way partitions resolve quickly), a generous retry budget, and a
/// pinned jitter seed for reproducible backoff.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(1)),
        read_timeout: Some(Duration::from_millis(200)),
        write_timeout: Some(Duration::from_secs(1)),
        retry: RetryPolicy {
            max_retries: 50,
            base_backoff_ms: 5,
            max_backoff_ms: 50,
            jitter_seed: 7,
        },
        ..Default::default()
    }
}

#[test]
fn retried_writes_through_chaos_are_exactly_once_and_byte_identical() {
    let mut final_graphs = Vec::new();
    for (tag, inner, shards) in
        [("engine", single_engine as BuildInner, 0), ("sharded", three_shards as BuildInner, 3)]
    {
        final_graphs.push(exactly_once_through_chaos(tag, inner, shards));
    }
    assert_eq!(
        final_graphs[1], final_graphs[0],
        "durable x sharded must leave the same graph bytes as durable x single"
    );
}

/// One chaos run against a durable server over `inner`, compared with a
/// fault-free run of the same stack; returns the final graph's bytes.
fn exactly_once_through_chaos(tag: &str, inner: BuildInner, shards: usize) -> String {
    let batch_count = 20;

    // Reference run: the same batch stream over a perfect network.
    let (clean_server, clean_durable, clean_dir) = durable_server(&format!("clean-{tag}"), inner);
    let base_vertices = clean_durable.graph().vertices().count() as u32;
    let batches = chaos_batches(base_vertices, batch_count);
    let clean_reports: Vec<String> = {
        let mut client =
            Client::connect_with_config(clean_server.local_addr(), chaos_client_config())
                .expect("connect clean");
        batches
            .iter()
            .map(|batch| {
                let report = client.update(batch).expect("clean update");
                serde_json::to_string(&report).expect("report serialises")
            })
            .collect()
    };

    // Chaos run: same stream, but every frame crosses the proxy.
    let (chaos_server, chaos_durable, chaos_dir) = durable_server(&format!("faulty-{tag}"), inner);
    let proxy = ChaosProxy::start(chaos_server.local_addr(), ChaosConfig { seed: 7, delay_ms: 5 })
        .expect("start chaos proxy");
    let mut client = Client::connect_with_config(proxy.local_addr(), chaos_client_config())
        .expect("connect through proxy");

    for (i, batch) in batches.iter().enumerate() {
        let report = client.update(batch).expect("update must survive the chaos");
        // Exactly-once: the empty-dir server starts at generation 1, so the
        // i-th acknowledged batch lands generation 2 + i — a lost-ack retry
        // that re-applied would skip a generation here.
        assert_eq!(
            report.generation,
            2 + i as u64,
            "{tag} batch {i}: a retry must never double-apply"
        );
        assert_eq!(
            serde_json::to_string(&report).expect("report serialises"),
            clean_reports[i],
            "{tag} batch {i}: the chaos-run UpdateOk must be byte-identical to the clean run's"
        );
    }

    // The final graph is byte-identical to the fault-free run's.
    let final_graph = serde_json::to_string(&*chaos_durable.graph()).expect("graph serialises");
    assert_eq!(
        final_graph,
        serde_json::to_string(&*clean_durable.graph()).expect("graph serialises"),
        "{tag}: chaos must not leave a different graph behind"
    );

    // The chaos was real and the dedup window did the saving. Metrics are
    // read over a direct connection — the proxy stays out of the verdict.
    let stats = client.stats();
    assert!(stats.retries > 0, "{tag}: the proxy must have forced at least one retry");
    let mut direct =
        Client::connect(chaos_server.local_addr()).expect("connect directly for metrics");
    let snapshot = direct.metrics().expect("metrics");
    assert!(
        snapshot.server.dedup_hits > 0,
        "{tag}: at least one lost-ack retry must have been answered from the dedup window"
    );
    // One stack, both capabilities: the Metrics frame of a durable server
    // carries the log counters whatever it wraps, plus one entry per shard.
    let durability = snapshot.durability.expect("a durable server reports its log counters");
    assert_eq!(durability.log_records_appended, batch_count as u64);
    assert_eq!(snapshot.shards.len(), shards, "{tag}: shard entries in the Metrics frame");
    // The CI chaos-smoke job greps this exact line out of the test output.
    println!("acq_dedup_hits {}", snapshot.server.dedup_hits);
    println!(
        "{tag}: client retries {} reconnects {} timeouts {}",
        stats.retries, stats.reconnects, stats.timeouts
    );

    drop(proxy);
    chaos_server.shutdown();
    clean_server.shutdown();
    let _ = std::fs::remove_dir_all(chaos_dir);
    let _ = std::fs::remove_dir_all(clean_dir);
    final_graph
}

/// Queries keep working through the same chaos, and a query answered
/// through the proxy matches one answered directly.
#[test]
fn queries_through_chaos_match_direct_answers() {
    let (server, durable, dir) = durable_server("query", single_engine);
    let proxy = ChaosProxy::start(server.local_addr(), ChaosConfig { seed: 11, delay_ms: 2 })
        .expect("start chaos proxy");
    let request = Request::community(VertexId(0)).k(2);

    let mut direct = Client::connect(server.local_addr()).expect("connect direct");
    let expected = serde_json::to_string(&direct.query(&request).expect("direct query").result)
        .expect("result serialises");

    let mut chaotic = Client::connect_with_config(proxy.local_addr(), chaos_client_config())
        .expect("connect through proxy");
    for round in 0..8 {
        let response = chaotic.query(&request).expect("query must survive the chaos");
        assert_eq!(
            serde_json::to_string(&response.result).expect("result serialises"),
            expected,
            "round {round}: chaos must not change a query's answer"
        );
    }

    drop(proxy);
    drop(durable);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A pipelined burst crosses the proxy as fast as it crosses a wire. The
/// relay forwards frame by frame, so without `TCP_NODELAY` on both of its
/// legs every burst would wait out a 40 ms delayed ACK inside the harness
/// and hide whatever the server does with it.
#[test]
fn a_pipelined_batch_through_a_clean_proxy_matches_direct_answers() {
    let (server, durable, dir) = durable_server("burst", single_engine);
    // Plan 4 of the cycle only delays, and here by nothing: a clean relay.
    let proxy = ChaosProxy::start(server.local_addr(), ChaosConfig { seed: 3, delay_ms: 0 })
        .expect("start chaos proxy");
    for _ in 0..4 {
        drop(TcpStream::connect(proxy.local_addr()).expect("burn a faulty-plan connection"));
    }
    let requests: Vec<Request> =
        (0..16u32).map(|i| Request::community(VertexId(i % 10)).k(1 + (i % 3) as usize)).collect();
    let answers = |responses: Vec<Result<Response, _>>| -> Vec<String> {
        responses
            .into_iter()
            .map(|r: Result<Response, WireError>| {
                serde_json::to_string(&r.expect("query answered").result).expect("serialises")
            })
            .collect()
    };

    let mut direct = Client::connect(server.local_addr()).expect("connect direct");
    let expected = answers(direct.query_batch(&requests).expect("direct batch"));

    let mut relayed = Client::connect_with_config(proxy.local_addr(), chaos_client_config())
        .expect("connect through proxy");
    let mut latencies = Vec::new();
    for round in 0..20 {
        let sent = Instant::now();
        let responses = relayed.query_batch(&requests).expect("relayed batch");
        latencies.push(sent.elapsed());
        assert_eq!(answers(responses), expected, "round {round}: the relay changed an answer");
    }
    assert_eq!(relayed.stats().retries, 0, "the clean plan must not have forced a retry");
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "a relayed burst took {median:?} in the median: a socket without TCP_NODELAY?"
    );

    drop(proxy);
    drop(durable);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
