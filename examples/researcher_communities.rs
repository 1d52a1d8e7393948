//! The DBLP case study of the paper (Figures 2, 10 and 18): personalised
//! research communities around two prolific authors.
//!
//! The example runs on the hand-crafted co-authorship graph of
//! `acq_datagen::case_study` (a stand-in for DBLP) and shows
//! how different query keyword sets `S` pull out different communities for
//! the same author, how the AC compares with the structure-only k-core, and
//! how the Variant 1 / Variant 2 queries behave.
//!
//! ```text
//! cargo run --example researcher_communities
//! ```

use attributed_community_search::baselines::global_community;
use attributed_community_search::datagen::case_study::{self, themes};
use attributed_community_search::metrics;
use attributed_community_search::prelude::*;
use std::sync::Arc;

fn print_result(graph: &AttributedGraph, heading: &str, result: &AcqResult) {
    println!("\n{heading}");
    if result.communities.is_empty() {
        println!("  (no community satisfies the constraints)");
        return;
    }
    for community in &result.communities {
        println!("  {} members, AC-label {:?}", community.len(), community.label_terms(graph));
        println!("    {}", community.member_names(graph).join(", "));
    }
}

fn main() {
    let graph = Arc::new(case_study::case_study_graph());
    let engine = Engine::new(Arc::clone(&graph));
    let k = 4;

    // ------------------------------------------------------------------ Jim
    let jim = case_study::author_vertex(&graph, case_study::CaseStudyAuthor::JimGray);
    println!("== Jim Gray (k = {k}) ==");
    println!("keywords of the query vertex: {:?}", graph.keyword_terms(jim));

    // Figure 2(a): the database-systems side of Jim's collaborations.
    let db_query = Request::community(jim).k(k).keyword_terms(&graph, themes::DATABASE);
    print_result(
        &graph,
        "S = {transaction, data, management, system, research}:",
        &engine.execute(&db_query).unwrap().result,
    );

    // Figure 2(b): the Sloan Digital Sky Survey side.
    let sdss_query = Request::community(jim).k(k).keyword_terms(&graph, themes::SDSS);
    print_result(
        &graph,
        "S = {sloan, digital, sky, survey, sdss}:",
        &engine.execute(&sdss_query).unwrap().result,
    );

    // What a keyword-oblivious method returns instead: one big k-core.
    let kcore = global_community(&graph, jim, k).expect("Jim sits in a 4-core");
    let distinct = metrics::distinct_keywords(&graph, &[kcore.sorted_members()]);
    println!(
        "\nGlobal (structure only): {} members, {} distinct keywords — hard to interpret",
        kcore.len(),
        distinct
    );

    // --------------------------------------------------------------- Jiawei
    let han = case_study::author_vertex(&graph, case_study::CaseStudyAuthor::JiaweiHan);
    println!("\n== Jiawei Han (k = {k}) ==");

    // Figure 10(a): graph-analysis collaborators.
    let analysis = Request::community(han).k(k).keyword_terms(&graph, themes::GRAPH_ANALYSIS);
    print_result(
        &graph,
        "S = {analysis, mine, data, information, network}:",
        &engine.execute(&analysis).unwrap().result,
    );

    // Figure 10(b): pattern-mining collaborators.
    let pattern = Request::community(han).k(k).keyword_terms(&graph, themes::PATTERN_MINING);
    print_result(
        &graph,
        "S = {mine, data, pattern, database}:",
        &engine.execute(&pattern).unwrap().result,
    );

    // ------------------------------------------------ Variants (Figure 18)
    println!("\n== Variants (Jiawei Han) ==");
    let stream_kw: Vec<KeywordId> =
        themes::STREAM.iter().filter_map(|t| graph.dictionary().get(t)).collect();
    let v1 = engine
        .execute(&Request::community(han).k(k).exact_keywords(stream_kw.iter().copied()))
        .unwrap();
    print_result(
        &graph,
        "Variant 1 — every member must contain {stream, classification, data, mine}:",
        &v1.result,
    );

    let v2 =
        engine.execute(&Request::community(han).k(k).keywords(stream_kw).threshold(0.6)).unwrap();
    print_result(
        &graph,
        "Variant 2 — every member must contain >= 60% of those keywords:",
        &v2.result,
    );
}
