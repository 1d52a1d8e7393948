//! A remote client session against a running `serve` example.
//!
//! Connects to `127.0.0.1:7878` (override with `ACQ_SERVE_ADDR`), retrying
//! for a few seconds so it can be launched back-to-back with the server.
//! Then it exercises every frame kind — ping, a single query, a batch of
//! queries, an update through the transactor, and a metrics scrape — and
//! **exits non-zero** if any step fails, if the pipelined batch takes 20 ms
//! or more in the median (a socket without `TCP_NODELAY` stalls each one for
//! 40 ms), or if the scraped `queries_served`, `updates_applied`,
//! `batches_executed`, `max_batch` and `generation` do not account for the
//! session, which is what the CI `server-smoke` job asserts.
//!
//! ```text
//! cargo run --example serve &
//! cargo run --example remote_query
//! ```

use attributed_community_search::prelude::*;
use attributed_community_search::server::Client;

fn connect_with_retry(addr: &str) -> Client {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(client) => return client,
            Err(e) => {
                if std::time::Instant::now() > deadline {
                    eprintln!("could not connect to {addr}: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        }
    }
}

fn main() {
    let addr = std::env::var("ACQ_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let mut client = connect_with_retry(&addr);

    // 1. Liveness.
    client.ping().expect("ping answered");
    println!("ping: ok");

    // 2. One query: the paper's Section 3 example (q = A = vertex 0, k = 2).
    let response = client.query(&Request::community(VertexId(0)).k(2)).expect("query answered");
    let ac = &response.result.communities[0];
    println!(
        "community of vertex 0 (k=2): {} members, label size {}, algorithm {}, generation {}",
        ac.vertices.len(),
        response.result.label_size,
        response.meta.algorithm,
        response.meta.generation
    );
    assert!(!ac.vertices.is_empty(), "the paper's example community is non-empty");

    // 3. A pipelined batch — written at once before any response is read,
    //    so the server runs it as one execute_batch and answers with one
    //    write. Timed over a few rounds: the median must stay under half
    //    the 40 ms a delayed ACK would add to every one of them.
    let batch: Vec<Request> = (0..8u32).map(|v| Request::community(VertexId(v)).k(1)).collect();
    let mut latencies = Vec::new();
    for _ in 0..5 {
        let sent = std::time::Instant::now();
        let answers = client.query_batch(&batch).expect("batch answered");
        latencies.push(sent.elapsed());
        let ok = answers.iter().filter(|a| a.is_ok()).count();
        assert_eq!(ok, batch.len(), "every batched query succeeds on the toy graph");
    }
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    println!("batch of {}: all ok, median of {} rounds {median:?}", batch.len(), latencies.len());
    assert!(median.as_millis() < 20, "a pipelined batch took {median:?}: missing TCP_NODELAY?");

    // 4. A write through the transactor: a new edge E–B (not in the paper
    //    graph), then remove it again so repeated runs stay idempotent.
    let report = client
        .update(&[GraphDelta::InsertEdge { u: VertexId(4), v: VertexId(1) }])
        .expect("update applied");
    println!(
        "update: generation {}, {} deltas, strategy {:?}",
        report.generation, report.deltas_applied, report.strategy
    );
    let report = client
        .update(&[GraphDelta::RemoveEdge { u: VertexId(4), v: VertexId(1) }])
        .expect("revert applied");
    println!("revert: generation {}", report.generation);

    // 5. A query after the writes is served from the generation the revert
    //    published.
    let after = client.query(&Request::community(VertexId(0)).k(2)).expect("post-update query");
    println!("post-update query: generation {}", after.meta.generation);
    assert_eq!(after.meta.generation, report.generation, "reads see the last published write");

    // 6. Scrape the counters and hold the smoke-test line: everything this
    //    session did must be visible in the metrics frame.
    let snapshot = client.metrics().expect("metrics answered");
    print!("{}", snapshot.render_text());
    let s = &snapshot.server;
    assert!(s.queries_served >= 10, "queries_served={}", s.queries_served);
    assert!(s.updates_applied >= 2, "updates_applied={}", s.updates_applied);
    assert!(s.batches_executed >= 1, "batches_executed={}", s.batches_executed);
    assert!(
        s.max_batch >= batch.len() as u64,
        "the batch ran in pieces: max_batch={}",
        s.max_batch
    );
    assert!(snapshot.generation >= 3, "generation={}", snapshot.generation);
    println!("remote_query: all assertions passed");
}
