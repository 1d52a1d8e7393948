//! Figure 17 — the two ACQ problem variants of Appendix G.

use crate::{time_ms, ExperimentContext, ExperimentReport};
use acq_core::variants::{
    basic_g_v1, basic_g_v2, basic_w_v1, basic_w_v2, Variant1Query, Variant2Query,
};
use acq_core::{Executor, Request};
use acq_graph::KeywordId;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Figure 17(a–d) — Variant 1 (required keyword set) query time as |S| grows:
/// the index-based `SW` against the two index-free baselines.
pub fn fig17_variant1(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig17-v1",
        "Variant 1 average query time (ms) vs |S|",
        &["dataset", "algorithm", "|S|=1", "|S|=3", "|S|=5", "|S|=7", "|S|=9"],
    );
    let k = ctx.config.default_k;
    for dataset in &ctx.datasets {
        let queries = acq_datagen::select_query_vertices_with_keywords(
            &dataset.graph,
            dataset.decomposition(),
            ctx.config.queries,
            k as u32,
            9,
            ctx.config.seed,
        );
        if queries.is_empty() {
            continue;
        }
        let engine = dataset.engine(1);
        for algorithm in ["basic-g-v1", "basic-w-v1", "SW"] {
            let mut row = vec![dataset.name.clone(), algorithm.to_string()];
            for s_size in [1usize, 3, 5, 7, 9] {
                let mut total = 0.0;
                for &q in &queries {
                    let mut rng = ChaCha8Rng::seed_from_u64(
                        ctx.config.seed ^ (s_size as u64) ^ u64::from(q.0),
                    );
                    let wq: Vec<KeywordId> = dataset.graph.keyword_set(q).iter().collect();
                    let keywords: Vec<KeywordId> =
                        wq.choose_multiple(&mut rng, s_size).copied().collect();
                    let query = Variant1Query { vertex: q, k, keywords: keywords.clone() };
                    // The index-free baselines stay direct algorithm calls;
                    // the index-based `SW` goes through the unified door.
                    let request = Request::community(q).k(k).exact_keywords(keywords);
                    let (_, ms) = time_ms(|| match algorithm {
                        "basic-g-v1" => basic_g_v1(&dataset.graph, &query),
                        "basic-w-v1" => basic_w_v1(&dataset.graph, &query),
                        _ => engine.execute(&request).expect("valid request").result,
                    });
                    total += ms;
                }
                row.push(format!("{:.3}", total / queries.len() as f64));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 17(e–h) — Variant 2 (threshold θ) query time as θ grows from 0.2 to
/// 1.0, with |S| = 10 keywords drawn from W(q).
pub fn fig17_variant2(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig17-v2",
        "Variant 2 average query time (ms) vs θ (|S| = 10)",
        &["dataset", "algorithm", "θ=0.2", "θ=0.4", "θ=0.6", "θ=0.8", "θ=1.0"],
    );
    let k = ctx.config.default_k;
    for dataset in &ctx.datasets {
        let queries = acq_datagen::select_query_vertices_with_keywords(
            &dataset.graph,
            dataset.decomposition(),
            ctx.config.queries,
            k as u32,
            5,
            ctx.config.seed,
        );
        if queries.is_empty() {
            continue;
        }
        let engine = dataset.engine(1);
        for algorithm in ["basic-g-v2", "basic-w-v2", "SWT"] {
            let mut row = vec![dataset.name.clone(), algorithm.to_string()];
            for theta in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
                let mut total = 0.0;
                for &q in &queries {
                    let mut rng = ChaCha8Rng::seed_from_u64(ctx.config.seed ^ u64::from(q.0));
                    let wq: Vec<KeywordId> = dataset.graph.keyword_set(q).iter().collect();
                    let keywords: Vec<KeywordId> =
                        wq.choose_multiple(&mut rng, 10.min(wq.len())).copied().collect();
                    let query = Variant2Query { vertex: q, k, keywords: keywords.clone(), theta };
                    let request = Request::community(q).k(k).keywords(keywords).threshold(theta);
                    let (_, ms) = time_ms(|| match algorithm {
                        "basic-g-v2" => basic_g_v2(&dataset.graph, &query),
                        "basic-w-v2" => basic_w_v2(&dataset.graph, &query),
                        _ => engine.execute(&request).expect("valid request").result,
                    });
                    total += ms;
                }
                row.push(format!("{:.3}", total / queries.len() as f64));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentConfig, ExperimentContext};

    fn quick_ctx() -> ExperimentContext {
        let mut config = ExperimentConfig::smoke_test();
        config.queries = 3;
        ExperimentContext::dblp_only(config)
    }

    #[test]
    fn variant1_reports_three_algorithms() {
        let ctx = quick_ctx();
        let reports = fig17_variant1(&ctx);
        if !reports[0].rows.is_empty() {
            assert_eq!(reports[0].rows.len() % 3, 0);
            assert!(reports[0].rows.iter().any(|r| r[1] == "SW"));
        }
    }

    #[test]
    fn variant2_sweeps_theta() {
        let ctx = quick_ctx();
        let reports = fig17_variant2(&ctx);
        assert_eq!(reports[0].headers.len(), 7);
    }
}
