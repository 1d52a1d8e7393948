//! Integration tests that pin down the paper's *qualitative* claims on the
//! synthetic datasets — the properties the experiments of `crates/experiments`
//! rely on. These are coarser than unit tests: each one runs a small workload and
//! checks a direction ("ACQ is more keyword-cohesive than Global", "Advanced
//! builds faster than Basic", "Dec never returns a worse label than Inc-S").

use attributed_community_search::baselines::{global_community, Codicil, CodicilConfig};
use attributed_community_search::cltree::{build_advanced, build_basic};
use attributed_community_search::datagen;
use attributed_community_search::metrics;
use attributed_community_search::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn dataset() -> Arc<AttributedGraph> {
    Arc::new(datagen::generate(&datagen::dblp().scaled(0.25)))
}

#[test]
fn claim_acs_share_keywords_and_get_more_cohesive_with_longer_labels() {
    // Figure 7's direction: a longer AC-label implies higher CPJ.
    let graph = dataset();
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 40, 4, 9);
    let mut by_label_len: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for &q in &queries {
        let result = engine.execute(&Request::community(q).k(4)).unwrap().result;
        if result.label_size == 0 || result.label_size > 5 {
            continue;
        }
        let communities: Vec<Vec<VertexId>> =
            result.communities.iter().map(|c| c.vertices.clone()).collect();
        by_label_len[result.label_size].push(metrics::cpj(&graph, &communities));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    // Compare the shortest and longest populated buckets.
    let populated: Vec<usize> = (1..=5).filter(|&l| !by_label_len[l].is_empty()).collect();
    if populated.len() >= 2 {
        let first = *populated.first().unwrap();
        let last = *populated.last().unwrap();
        assert!(
            mean(&by_label_len[last]) >= mean(&by_label_len[first]) * 0.9,
            "CPJ should not degrade as the AC-label grows: len {first} -> {:.3}, len {last} -> {:.3}",
            mean(&by_label_len[first]),
            mean(&by_label_len[last])
        );
    }
}

#[test]
fn claim_acq_is_more_keyword_cohesive_than_structure_only_and_detection_baselines() {
    // Figures 8 and 9: CMF(ACQ) beats CMF(Global) and CMF(CODICIL).
    let graph = dataset();
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 30, 4, 7);
    let codicil = Codicil::detect(
        &graph,
        &CodicilConfig { num_clusters: graph.num_vertices() / 40, ..Default::default() },
    );
    let (mut acq, mut global, mut detection) = (Vec::new(), Vec::new(), Vec::new());
    for &q in &queries {
        let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
        let result = engine.execute(&Request::community(q).k(4)).unwrap().result;
        if result.label_size == 0 {
            continue;
        }
        let communities: Vec<Vec<VertexId>> =
            result.communities.iter().map(|c| c.vertices.clone()).collect();
        acq.push(metrics::cmf(&graph, &communities, &wq));
        if let Some(core) = global_community(&graph, q, 4) {
            global.push(metrics::cmf(&graph, &[core.sorted_members()], &wq));
        }
        detection.push(metrics::cmf(
            &graph,
            &[codicil.community_of(&graph, q).sorted_members()],
            &wq,
        ));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    assert!(!acq.is_empty());
    assert!(
        mean(&acq) > mean(&global),
        "CMF: ACQ {:.3} must beat Global {:.3}",
        mean(&acq),
        mean(&global)
    );
    assert!(
        mean(&acq) > mean(&detection),
        "CMF: ACQ {:.3} must beat the detection baseline {:.3}",
        mean(&acq),
        mean(&detection)
    );
}

#[test]
fn claim_acq_communities_are_much_smaller_than_global_kcores() {
    // Figure 12 / Table 4 direction: the AC is a focused subset of the k-core.
    let graph = dataset();
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 25, 4, 11);
    let mut acq_sizes = Vec::new();
    let mut global_sizes = Vec::new();
    for &q in &queries {
        let result = engine.execute(&Request::community(q).k(4)).unwrap().result;
        if result.label_size == 0 {
            continue;
        }
        for c in &result.communities {
            acq_sizes.push(c.len() as f64);
        }
        if let Some(core) = global_community(&graph, q, 4) {
            global_sizes.push(core.len() as f64);
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    assert!(!acq_sizes.is_empty());
    assert!(
        mean(&acq_sizes) < mean(&global_sizes),
        "average AC size {:.1} should be below the average k-ĉore size {:.1}",
        mean(&acq_sizes),
        mean(&global_sizes)
    );
}

#[test]
fn claim_advanced_construction_is_not_slower_than_basic() {
    // Figure 13's direction, measured crudely (wall clock over a few runs).
    let graph = datagen::generate(&datagen::tencent().scaled(0.3));
    let runs = 3;
    let time = |f: &dyn Fn() -> usize| {
        let start = Instant::now();
        let mut sink = 0;
        for _ in 0..runs {
            sink += f();
        }
        (start.elapsed().as_secs_f64(), sink)
    };
    let (basic_time, a) = time(&|| build_basic(&graph, true).num_nodes());
    let (advanced_time, b) = time(&|| build_advanced(&graph, true).num_nodes());
    assert_eq!(a, b, "both builders agree on the node count");
    // Generous slack: the claim is only that advanced is not substantially
    // slower; on deep-core graphs it is typically much faster.
    assert!(
        advanced_time <= basic_time * 1.5,
        "advanced {advanced_time:.3}s should not be slower than basic {basic_time:.3}s by >50%"
    );
}

#[test]
fn claim_dec_and_incremental_algorithms_return_maximal_labels() {
    // Section 6's guarantee: Dec (top-down) and Inc-S/Inc-T (bottom-up) agree
    // on the maximal label size for every query.
    let graph = dataset();
    let engine = Engine::new(Arc::clone(&graph));
    let decomposition = engine.index().decomposition().clone();
    let queries = datagen::select_query_vertices(&graph, &decomposition, 20, 4, 13);
    for &q in &queries {
        let request = Request::community(q).k(4);
        let dec = engine.execute(&request.clone().algorithm(AcqAlgorithm::Dec)).unwrap().result;
        let inc_s = engine.execute(&request.clone().algorithm(AcqAlgorithm::IncS)).unwrap().result;
        let inc_t = engine.execute(&request.algorithm(AcqAlgorithm::IncT)).unwrap().result;
        assert_eq!(dec.label_size, inc_s.label_size);
        assert_eq!(dec.label_size, inc_t.label_size);
    }
}

#[test]
fn claim_gpm_star_queries_collapse_as_keyword_sets_grow() {
    // Table 7's direction: the match rate is non-increasing in |S|.
    use attributed_community_search::baselines::{star_pattern_has_match, StarPatternQuery};
    let graph = dataset();
    let decomposition = CoreDecomposition::compute(&graph);
    let queries =
        datagen::select_query_vertices_with_keywords(&graph, &decomposition, 30, 4, 5, 17);
    let rate = |s_size: usize| -> f64 {
        let mut hits = 0usize;
        let mut total = 0usize;
        for &q in &queries {
            let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
            if wq.len() < s_size {
                continue;
            }
            let query = StarPatternQuery { vertex: q, leaves: 6, keywords: wq[..s_size].to_vec() };
            if star_pattern_has_match(&graph, &query) {
                hits += 1;
            }
            total += 1;
        }
        hits as f64 / total.max(1) as f64
    };
    assert!(rate(1) >= rate(3));
    assert!(rate(3) >= rate(5));
}
