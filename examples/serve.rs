//! Serve the paper's Figure 3 graph over the framed TCP protocol.
//!
//! Binds an `acq-server` on `127.0.0.1:7878` (override with `ACQ_SERVE_ADDR`)
//! and keeps serving until killed. Setting `ACQ_SERVE_SECONDS=<n>` makes the
//! process shut the server down cleanly after `n` seconds — that is how the
//! CI smoke job bounds the run. Pair it with the `remote_query` example:
//!
//! ```text
//! cargo run --example serve &
//! cargo run --example remote_query
//! ```
//!
//! **Durable mode**: set `ACQ_SERVE_DIR=<path>` to wrap the engine in a
//! `DurableEngine` with its delta log under that directory — the server is
//! bound the same way either way. Every acknowledged update is fsynced
//! before it is applied, and a restart pointing at the same directory
//! replays the log (snapshot + valid record suffix) before serving — this is
//! what the CI `recovery-smoke` job `kill -9`s and restarts.
//! `ACQ_SERVE_COMPACT_EVERY` overrides the compaction cadence (records
//! between snapshots; 0 disables).
//!
//! The wire format is specified in `docs/PROTOCOL.md`; tuning knobs and the
//! metrics dump are covered in `docs/OPERATIONS.md`; the log format and
//! recovery semantics in `docs/DURABILITY.md`.

use attributed_community_search::durable::FsStorage;
use attributed_community_search::prelude::*;
use std::sync::Arc;

fn main() {
    let addr = std::env::var("ACQ_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let graph = Arc::new(paper_figure3_graph());
    println!(
        "serving the Figure 3 graph: {} vertices, {} edges, {} keywords",
        graph.num_vertices(),
        graph.num_edges(),
        graph.dictionary().len()
    );

    // The inner engine, built over whichever graph it is handed: the base
    // graph, or what a durable layer recovered from its directory. Swap in
    // `ShardedEngine::new(graph, n)` here for a sharded (or durable sharded)
    // server — nothing below changes.
    let inner = |graph| Arc::new(Engine::new(graph)) as Arc<dyn ServingEngine>;
    let engine = match std::env::var("ACQ_SERVE_DIR") {
        Ok(dir) => {
            let mut options = DurableOptions::default();
            if let Some(every) =
                std::env::var("ACQ_SERVE_COMPACT_EVERY").ok().and_then(|s| s.parse::<u64>().ok())
            {
                options.compact_every = every;
            }
            let storage = FsStorage::open(&dir).expect("open the durable directory");
            let (durable, recovery) =
                DurableEngine::open_with(Box::new(storage), graph, options, inner)
                    .expect("open the durable state");
            println!(
                "durable mode: dir={dir} snapshot_loaded={} records_replayed={} \
                 truncated_bytes={} generation={}",
                recovery.snapshot_loaded,
                recovery.records_replayed,
                recovery.truncated_bytes,
                recovery.generation
            );
            Arc::new(durable)
        }
        Err(_) => inner(graph),
    };
    let server =
        Server::bind(&addr, engine, ServerConfig::default()).expect("bind the serve address");
    println!("listening on {} (protocol v1, see docs/PROTOCOL.md)", server.local_addr());

    match std::env::var("ACQ_SERVE_SECONDS").ok().and_then(|s| s.parse::<u64>().ok()) {
        Some(seconds) => {
            println!("auto-shutdown in {seconds}s (ACQ_SERVE_SECONDS)");
            std::thread::sleep(std::time::Duration::from_secs(seconds));
            let snapshot = server.metrics_snapshot();
            server.shutdown();
            println!("--- final metrics dump ---");
            print!("{}", snapshot.render_text());
        }
        None => {
            // Serve forever; the accept threads own the process.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
                let s = server.metrics_snapshot().server;
                println!(
                    "[minute] connections={} queries={} updates={} errors={}",
                    s.connections_accepted,
                    s.queries_served,
                    s.updates_applied,
                    s.query_errors + s.update_errors + s.protocol_errors
                );
            }
        }
    }
}
