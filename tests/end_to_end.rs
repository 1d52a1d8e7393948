//! End-to-end integration tests spanning all workspace crates: dataset
//! generation → index construction → queries → metrics, checked against the
//! problem definition and against independent implementations.

use attributed_community_search::baselines::{global_community, local_community};
use attributed_community_search::cltree::{build_advanced, build_basic};
use attributed_community_search::datagen;
use attributed_community_search::kcore::CoreDecomposition;
use attributed_community_search::metrics;
use attributed_community_search::prelude::*;
use std::sync::Arc;

fn generated_graph() -> AttributedGraph {
    datagen::generate(&datagen::tiny())
}

/// The façade's quick-start path, as shown in the crate-level doctest: build
/// the paper's Figure 3 graph through the prelude alone and run the default
/// request. Pins the `prelude` re-exports (graph, engine, request, index
/// types) as a plain integration test so an accidental re-export removal
/// fails even when doctests are skipped.
#[test]
fn prelude_quick_start_smoke_test() {
    let graph = Arc::new(paper_figure3_graph());
    let engine = Engine::new(Arc::clone(&graph));
    let q = graph.vertex_by_label("A").expect("Figure 3 has a vertex A");

    let response = engine.execute(&Request::community(q).k(2)).expect("valid request");
    let ac = &response.communities()[0];
    assert_eq!(ac.member_names(&graph), vec!["A", "C", "D"]);
    assert_eq!(ac.label_terms(&graph), vec!["x", "y"]);

    // Index types from the prelude: both builders produce the same CL-tree.
    let basic: ClTree = build_basic(&graph, true);
    let advanced: ClTree = build_advanced(&graph, true);
    assert_eq!(basic.canonical_form(), advanced.canonical_form());

    // Core decomposition and subsets from the prelude.
    let decomposition = CoreDecomposition::compute(&graph);
    assert!(decomposition.core_number(q) >= 2);
    let full = VertexSubset::full(graph.num_vertices());
    assert!(full.contains(q));
}

#[test]
fn full_pipeline_on_generated_dataset() {
    let graph = Arc::new(generated_graph());
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 20, 4, 1);
    assert!(!queries.is_empty(), "the tiny profile must support k=4 queries");

    for &q in &queries {
        let response = engine.execute(&Request::community(q).k(4)).expect("valid request");
        for community in response.communities() {
            // Problem 1: connectivity, membership of q, minimum degree, shared label.
            let subset =
                VertexSubset::from_iter(graph.num_vertices(), community.vertices.iter().copied());
            assert!(subset.contains(q));
            assert!(subset.is_connected(&graph));
            for &v in &community.vertices {
                assert!(subset.degree_within(&graph, v) >= 4);
                for &kw in &community.label {
                    assert!(graph.keyword_set(v).contains(kw));
                }
            }
        }
    }
}

#[test]
fn all_algorithms_agree_on_generated_dataset() {
    let graph = Arc::new(generated_graph());
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 10, 4, 2);
    for &q in &queries {
        let reference = engine
            .execute(&Request::community(q).k(4).algorithm(AcqAlgorithm::BasicG))
            .unwrap()
            .canonical();
        for algorithm in AcqAlgorithm::ALL {
            let response =
                engine.execute(&Request::community(q).k(4).algorithm(algorithm)).unwrap();
            assert_eq!(response.canonical(), reference, "algorithm {}", algorithm.name());
        }
    }
}

#[test]
fn both_index_builders_agree_on_generated_dataset() {
    let graph = generated_graph();
    let basic = build_basic(&graph, true);
    let advanced = build_advanced(&graph, true);
    basic.validate(&graph).unwrap();
    advanced.validate(&graph).unwrap();
    assert_eq!(basic.canonical_form(), advanced.canonical_form());
}

#[test]
fn acq_is_contained_in_the_kcore_and_more_cohesive() {
    let graph = Arc::new(generated_graph());
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 15, 4, 3);
    let mut acq_cmf = Vec::new();
    let mut global_cmf = Vec::new();
    for &q in &queries {
        let result = engine.execute(&Request::community(q).k(4)).unwrap().result;
        let Some(kcore) = global_community(&graph, q, 4) else { continue };
        let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
        for community in &result.communities {
            // The AC is a subgraph of the k-ĉore containing q.
            for &v in &community.vertices {
                assert!(kcore.contains(v), "AC member outside the k-ĉore");
            }
        }
        if result.label_size > 0 {
            let acq_communities: Vec<Vec<VertexId>> =
                result.communities.iter().map(|c| c.vertices.clone()).collect();
            acq_cmf.push(metrics::cmf(&graph, &acq_communities, &wq));
            global_cmf.push(metrics::cmf(&graph, &[kcore.sorted_members()], &wq));
        }
    }
    assert!(!acq_cmf.is_empty(), "at least some queries must produce labelled ACs");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&acq_cmf) >= mean(&global_cmf),
        "ACQ keyword cohesion {:.3} should not be below the plain k-core's {:.3}",
        mean(&acq_cmf),
        mean(&global_cmf)
    );
}

#[test]
fn local_and_global_baselines_agree_on_existence() {
    let graph = generated_graph();
    let decomposition = CoreDecomposition::compute(&graph);
    let queries = datagen::select_query_vertices(&graph, &decomposition, 20, 1, 4);
    for &q in &queries {
        for k in 2..=5usize {
            let g = global_community(&graph, q, k);
            let l = local_community(&graph, q, k);
            assert_eq!(g.is_some(), l.is_some(), "q={q:?} k={k}");
            if let (Some(g), Some(l)) = (g, l) {
                for v in l.iter() {
                    assert!(g.contains(v), "Local must be contained in Global");
                }
            }
        }
    }
}

#[test]
fn index_survives_serialisation_and_maintenance_roundtrip() {
    let graph = generated_graph();
    let index = build_advanced(&graph, true);
    // Serialise and restore.
    let json = serde_json::to_string(&index).expect("serialisable");
    let restored: ClTree = serde_json::from_str(&json).expect("deserialisable");
    restored.validate(&graph).unwrap();

    // Apply an edge update to the restored index and compare with a rebuild.
    let u = VertexId(0);
    let v = graph
        .vertices()
        .find(|&v| v != u && !graph.has_edge(u, v))
        .expect("some non-adjacent pair exists");
    let updated_graph = graph.with_edge_inserted(u, v).unwrap();
    let (maintained, _) =
        attributed_community_search::cltree::maintenance::apply_edge_insertion_with_report(
            &restored,
            &updated_graph,
            u,
            v,
        );
    maintained.validate(&updated_graph).unwrap();
    assert_eq!(maintained.canonical_form(), build_advanced(&updated_graph, true).canonical_form());
}

#[test]
fn graph_io_roundtrip_preserves_query_results() {
    let graph = generated_graph();
    let mut edges = Vec::new();
    let mut keywords = Vec::new();
    attributed_community_search::graph::io::write_text(&graph, &mut edges, &mut keywords).unwrap();
    let reloaded =
        attributed_community_search::graph::io::read_text(edges.as_slice(), keywords.as_slice())
            .unwrap();
    assert_eq!(reloaded.num_vertices(), graph.num_vertices());
    assert_eq!(reloaded.num_edges(), graph.num_edges());

    // Query the same (relabelled) vertex in both graphs and compare answers by
    // member label.
    let graph = Arc::new(graph);
    let reloaded = Arc::new(reloaded);
    let engine_a = Engine::new(Arc::clone(&graph));
    let engine_b = Engine::new(Arc::clone(&reloaded));
    let decomposition = engine_a.index().decomposition().clone();
    let q_a = datagen::select_query_vertices(&graph, &decomposition, 1, 4, 5)
        .into_iter()
        .next()
        .expect("workload non-empty");
    let label = graph.label(q_a).unwrap();
    let q_b = reloaded.vertex_by_label(label).unwrap();
    let result_a = engine_a.execute(&Request::community(q_a).k(4)).unwrap().result;
    let result_b = engine_b.execute(&Request::community(q_b).k(4)).unwrap().result;
    assert_eq!(result_a.label_size, result_b.label_size);
    let names = |graph: &AttributedGraph, r: &AcqResult| -> Vec<Vec<String>> {
        let mut all: Vec<Vec<String>> =
            r.communities.iter().map(|c| c.member_names(graph)).collect();
        for names in &mut all {
            names.sort();
        }
        all.sort();
        all
    };
    assert_eq!(names(&graph, &result_a), names(&reloaded, &result_b));
}

/// The batch path end to end: a generated dataset is queried once through a
/// sequential `Engine` and once as a batch through a 4-worker `Engine`
/// sharing its index, and the results must be identical (including the work
/// counters), in input order. Also pins the prelude re-exports of `Engine`
/// and `Executor`.
#[test]
fn both_executors_agree_end_to_end() {
    let graph = Arc::new(generated_graph());
    let batch_engine = Engine::builder(Arc::clone(&graph)).threads(4).build();
    let sequential =
        Engine::builder(Arc::clone(&graph)).index(batch_engine.index()).threads(1).build();

    let index = batch_engine.index();
    let requests: Vec<Request> = graph
        .vertices()
        .filter(|&v| index.core_number(v) >= 3)
        .take(12)
        .map(|v| Request::community(v).k(3))
        .collect();
    assert!(!requests.is_empty(), "generated graph has a 3-core");

    let batched = batch_engine.execute_batch(&requests);
    for (request, response) in requests.iter().zip(&batched) {
        let expected = sequential.execute(request).map(|r| r.result);
        assert_eq!(
            response.as_ref().map(|r| r.result.clone()).map_err(Clone::clone),
            expected,
            "batch must equal sequential"
        );
    }

    // Running the same batch again returns identical communities.
    let again = batch_engine.execute_batch(&requests);
    for (first, second) in batched.iter().zip(&again) {
        assert_eq!(
            first.as_ref().map(|r| r.result.clone()),
            second.as_ref().map(|r| r.result.clone())
        );
    }
}
