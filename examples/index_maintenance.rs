//! The live-update pipeline (Section 5.2.2 / Appendix F): graph deltas flow
//! into a **serving** engine through [`Engine::apply_updates`], which stages
//! the updated graph with incremental CSR edits, runs every edge delta
//! through the subcore kernels, rebuilds the CL-tree skeleton at most once
//! per batch, and publishes graph and index atomically — queries in flight
//! finish on their snapshot, queries after the swap see the new graph.
//!
//! ```text
//! cargo run --example index_maintenance
//! ```

use attributed_community_search::datagen;
use attributed_community_search::prelude::*;
use std::sync::Arc;

fn main() {
    // A small DBLP-like graph served by a live engine.
    let profile = datagen::dblp().scaled(0.15);
    let graph = Arc::new(datagen::generate(&profile));
    let engine = Engine::new(Arc::clone(&graph));
    println!(
        "serving generation {}: {} vertices, {} edges, {} CL-tree nodes (kmax {})",
        engine.generation(),
        graph.num_vertices(),
        graph.num_edges(),
        engine.index().num_nodes(),
        engine.index().kmax()
    );

    // The query workload the maintained engine is checked against below.
    let queries = datagen::select_query_vertices(&graph, engine.index().decomposition(), 10, 4, 3);
    let requests: Vec<Request> = queries.iter().map(|&q| Request::community(q).k(4)).collect();
    for request in &requests {
        let response = engine.execute(request).expect("valid request");
        assert_eq!(response.meta.generation, 1, "served from the initial generation");
    }

    // --- 1. One mixed delta batch: keyword + edges + a brand-new vertex. ----
    let member = VertexId(0);
    let deltas = vec![
        GraphDelta::add_keyword(member, "community-search"),
        GraphDelta::insert_edge(VertexId(1), VertexId(50)),
        GraphDelta::insert_edge(VertexId(2), VertexId(51)),
        GraphDelta::insert_vertex(Some("newcomer"), &["community-search", "graphs"]),
    ];
    let report = engine.apply_updates(&deltas).expect("valid deltas");
    println!(
        "\napplied {} deltas -> generation {} via {:?}",
        report.deltas_applied, report.generation, report.strategy
    );
    println!(
        "  subcore touched: {} vertices ({:.1}% of the graph)",
        report.subcore_touched,
        100.0 * report.touched_fraction
    );
    assert_eq!((report.generation, engine.generation()), (2, 2), "one batch, one publish");

    // The published graph contains everything, atomically.
    let live = engine.graph();
    let newcomer = live.vertex_by_label("newcomer").expect("vertex was inserted");
    println!(
        "  published graph: {} vertices, newcomer {} carries {:?}",
        live.num_vertices(),
        newcomer,
        live.keyword_terms(newcomer)
    );

    // --- 2. A stream of single-edge updates (the serving steady state). ----
    let mut stable = 0usize;
    let mut rebuilt = 0usize;
    for i in 0..8u32 {
        let (u, v) = (VertexId(3 + i), VertexId(60 + i));
        let current = engine.graph();
        if !current.contains_vertex(u) || !current.contains_vertex(v) {
            continue;
        }
        let delta = if current.has_edge(u, v) {
            GraphDelta::remove_edge(u, v)
        } else {
            GraphDelta::insert_edge(u, v)
        };
        let report = engine.apply_updates(&[delta]).expect("valid delta");
        match report.strategy {
            UpdateStrategy::IncrementalStableSkeleton => stable += 1,
            _ => rebuilt += 1,
        }
    }
    println!(
        "\nstreamed 8 single-edge updates: {stable} kept the skeleton, {rebuilt} rebuilt it; \
         now at generation {}",
        engine.generation()
    );
    assert_eq!(engine.generation(), 2 + (stable + rebuilt) as u64, "one publish per update");

    // --- 3. Maintained state == from-scratch rebuild, query for query. -----
    let final_graph = engine.graph();
    let fresh = Engine::new(Arc::clone(&final_graph));
    let agreements = requests
        .iter()
        .filter(|request| {
            engine.execute(request).expect("valid").result
                == fresh.execute(request).expect("valid").result
        })
        .count();
    println!(
        "\nmaintained engine vs from-scratch engine on the final graph: {agreements}/{} \
         queries byte-identical",
        requests.len()
    );
}
