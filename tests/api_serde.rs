//! Wire-format tests for the unified query API: a [`Request`] and a
//! [`Response`] must survive a JSON round trip unchanged, so a future async
//! front-end can encode queries over the wire and replay recorded responses.

use attributed_community_search::prelude::*;
use std::sync::Arc;

fn figure3() -> (Arc<AttributedGraph>, Engine) {
    let graph = Arc::new(paper_figure3_graph());
    let engine = Engine::new(Arc::clone(&graph));
    (graph, engine)
}

#[test]
fn request_round_trips_through_json_for_every_spec_kind() {
    let (graph, _) = figure3();
    let a = graph.vertex_by_label("A").unwrap();
    let x = graph.dictionary().get("x").unwrap();
    let y = graph.dictionary().get("y").unwrap();

    let requests = vec![
        Request::community(a).k(2),
        Request::community(a).k(3).keywords([x, y]).algorithm(AcqAlgorithm::IncT),
        Request::community(a).k(2).exact_keywords([x]),
        Request::community(a).k(2).keywords([x, y]).threshold(0.5),
    ];
    for request in requests {
        let json = serde_json::to_string(&request).expect("serialisable");
        let restored: Request = serde_json::from_str(&json).expect("deserialisable");
        assert_eq!(restored, request, "round trip must be lossless: {json}");
    }
}

#[test]
fn response_round_trips_through_json() {
    let (graph, engine) = figure3();
    let a = graph.vertex_by_label("A").unwrap();
    let response = engine.execute(&Request::community(a).k(2)).unwrap();

    let json = serde_json::to_string(&response).expect("serialisable");
    let restored: Response = serde_json::from_str(&json).expect("deserialisable");
    assert_eq!(restored, response);
    assert_eq!(restored.communities()[0].member_names(&graph), vec!["A", "C", "D"]);
    assert_eq!(restored.meta.algorithm, "Dec");
}

#[test]
fn acq_result_round_trips_through_json() {
    let (graph, engine) = figure3();
    let a = graph.vertex_by_label("A").unwrap();
    let result = engine.execute(&Request::community(a).k(2)).unwrap().result;

    let json = serde_json::to_string(&result).expect("serialisable");
    let restored: AcqResult = serde_json::from_str(&json).expect("deserialisable");
    assert_eq!(restored, result, "communities, label size and stats survive");
}

#[test]
fn a_request_decoded_from_a_wire_string_is_executable() {
    // The shape a serving front-end would receive — written by hand, not by
    // our serializer, to pin the external format.
    let (graph, engine) = figure3();
    let a = graph.vertex_by_label("A").unwrap();
    let json = format!(
        "{{\"vertex\": {}, \"k\": 2, \"spec\": {{\"Community\": {{\"keywords\": null}}}}, \
         \"algorithm\": \"Dec\"}}",
        a.0
    );
    let request: Request = serde_json::from_str(&json).expect("wire shape is stable");
    let response = engine.execute(&request).unwrap();
    assert_eq!(response.communities()[0].member_names(&graph), vec!["A", "C", "D"]);
}

#[test]
fn query_ok_and_update_ok_payloads_match_protocol_md() {
    // The two v1 payload examples of docs/PROTOCOL.md, byte for byte: same
    // keys, same order, and the five reserved fields present and 0.
    let (_, engine) = figure3();
    let mut response = engine.execute(&Request::community(VertexId(0)).k(2)).unwrap();
    response.meta.wall_time_us = 169;
    assert_eq!(
        serde_json::to_string(&response).unwrap(),
        "{\"result\":{\"communities\":[{\"label\":[1,2],\"vertices\":[0,2,3]}],\
         \"label_size\":2,\
         \"stats\":{\"candidates_verified\":1,\"pruned_by_lemma3\":0,\"qualified_sets\":1}},\
         \"meta\":{\"algorithm\":\"Dec\",\"generation\":1,\"cache_hits\":0,\"cache_misses\":0,\
         \"cache_carried\":0,\"wall_time_us\":169}}"
    );
    let report = engine.apply_updates(&[GraphDelta::insert_edge(VertexId(4), VertexId(1))]);
    assert_eq!(
        serde_json::to_string(&report.unwrap()).unwrap(),
        "{\"generation\":2,\"deltas_applied\":1,\"strategy\":\"IncrementalRebuiltSkeleton\",\
         \"subcore_touched\":1,\"touched_fraction\":0.1,\"cache_carried\":0,\"cache_dropped\":0}"
    );
}
