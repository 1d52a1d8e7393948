//! Query-efficiency experiments (Section 7.3): Figures 14, 15 and 16.

use crate::{
    strip_keywords, time_ms, Dataset, ExperimentConfig, ExperimentContext, ExperimentReport,
};
use acq_baselines::{global_community, local_community};
use acq_cltree::build_advanced;
use acq_core::{AcqAlgorithm, Executor, Request};
use acq_datagen::{sample_keywords, sample_vertices};
use acq_graph::{KeywordId, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Average query time (ms) of one ACQ algorithm over a workload, measured
/// through the batch execution path: the whole workload is submitted as one
/// [`Request`] slice to [`Executor::execute_batch`] (sharing the index and
/// its decomposition across the configured worker pool) and the batch
/// wall-clock is divided by the workload size.
fn average_query_ms(
    dataset: &Dataset,
    config: &ExperimentConfig,
    queries: &[VertexId],
    k: usize,
    algorithm: AcqAlgorithm,
    keywords: Option<&dyn Fn(VertexId) -> Vec<KeywordId>>,
) -> f64 {
    if queries.is_empty() {
        return f64::NAN;
    }
    let engine = dataset.engine(config.threads);
    let requests: Vec<Request> = queries
        .iter()
        .map(|&q| {
            let request = Request::community(q).k(k).algorithm(algorithm);
            match keywords {
                Some(f) => request.keywords(f(q)),
                None => request,
            }
        })
        .collect();
    let (results, ms) = time_ms(|| engine.execute_batch(&requests));
    for result in results {
        result.expect("valid request");
    }
    ms / queries.len() as f64
}

fn fmt(ms: f64) -> String {
    if ms.is_nan() {
        "-".into()
    } else {
        format!("{ms:.3}")
    }
}

/// Figure 14(a–d) — the best ACQ algorithm (`Dec`) against the
/// community-search baselines Global and Local, as `k` goes from 4 to 8.
///
/// The baselines are timed as a sequential per-query loop, so the `Dec` arm
/// runs its batch on **one** worker to keep
/// the per-query latency comparison machine-independent and fair.
pub fn fig14_vs_community_search(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let sequential = ExperimentConfig { threads: 1, ..ctx.config.clone() };
    let mut report = ExperimentReport::new(
        "fig14-cs",
        "Average query time (ms): Dec vs Global vs Local, varying k",
        &["dataset", "method", "k=4", "k=5", "k=6", "k=7", "k=8"],
    );
    for dataset in &ctx.datasets {
        let queries = dataset.workload(&ctx.config, 8);
        if queries.is_empty() {
            continue;
        }
        for method in ["Global", "Local", "Dec"] {
            let mut row = vec![dataset.name.clone(), method.to_string()];
            for k in 4..=8usize {
                let ms = match method {
                    "Global" => {
                        let (_, t) = time_ms(|| {
                            for &q in &queries {
                                let _ = global_community(&dataset.graph, q, k);
                            }
                        });
                        t / queries.len() as f64
                    }
                    "Local" => {
                        let (_, t) = time_ms(|| {
                            for &q in &queries {
                                let _ = local_community(&dataset.graph, q, k);
                            }
                        });
                        t / queries.len() as f64
                    }
                    _ => {
                        average_query_ms(dataset, &sequential, &queries, k, AcqAlgorithm::Dec, None)
                    }
                };
                row.push(fmt(ms));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 14(e–h) — all five ACQ algorithms as `k` goes from 4 to 8.
pub fn fig14_effect_of_k(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig14-k",
        "Average query time (ms) of the ACQ algorithms, varying k",
        &["dataset", "algorithm", "k=4", "k=5", "k=6", "k=7", "k=8"],
    );
    let algorithms = [
        AcqAlgorithm::BasicG,
        AcqAlgorithm::BasicW,
        AcqAlgorithm::IncS,
        AcqAlgorithm::IncT,
        AcqAlgorithm::Dec,
    ];
    for dataset in &ctx.datasets {
        let queries = dataset.workload(&ctx.config, 8);
        if queries.is_empty() {
            continue;
        }
        for algorithm in algorithms {
            let mut row = vec![dataset.name.clone(), algorithm.name().to_string()];
            for k in 4..=8usize {
                row.push(fmt(average_query_ms(dataset, &ctx.config, &queries, k, algorithm, None)));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 14(i–l) — keyword scalability: query time as each vertex keeps
/// 20 %–100 % of its keywords.
pub fn fig14_keyword_scalability(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig14-kw",
        "Average query time (ms) vs fraction of keywords kept per vertex",
        &["dataset", "algorithm", "20%", "40%", "60%", "80%", "100%"],
    );
    let algorithms = [AcqAlgorithm::IncS, AcqAlgorithm::IncT, AcqAlgorithm::Dec];
    let k = ctx.config.default_k;
    for dataset in &ctx.datasets {
        let mut per_algorithm: Vec<Vec<String>> =
            algorithms.iter().map(|a| vec![dataset.name.clone(), a.name().to_string()]).collect();
        for percent in [20usize, 40, 60, 80, 100] {
            let graph = if percent == 100 {
                Arc::clone(&dataset.graph)
            } else {
                Arc::new(sample_keywords(&dataset.graph, percent as f64 / 100.0, ctx.config.seed))
            };
            let index = Arc::new(build_advanced(&graph, true));
            let sampled = Dataset { name: dataset.name.clone(), index, graph };
            let queries = sampled.workload(&ctx.config, k as u32);
            for (i, &algorithm) in algorithms.iter().enumerate() {
                per_algorithm[i].push(fmt(average_query_ms(
                    &sampled,
                    &ctx.config,
                    &queries,
                    k,
                    algorithm,
                    None,
                )));
            }
        }
        for row in per_algorithm {
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 14(m–p) — vertex scalability: query time on induced subgraphs with
/// 20 %–100 % of the vertices.
pub fn fig14_vertex_scalability(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig14-vx",
        "Average query time (ms) vs fraction of vertices",
        &["dataset", "algorithm", "20%", "40%", "60%", "80%", "100%"],
    );
    let algorithms = [AcqAlgorithm::IncS, AcqAlgorithm::IncT, AcqAlgorithm::Dec];
    let k = ctx.config.default_k;
    for dataset in &ctx.datasets {
        let mut per_algorithm: Vec<Vec<String>> =
            algorithms.iter().map(|a| vec![dataset.name.clone(), a.name().to_string()]).collect();
        for percent in [20usize, 40, 60, 80, 100] {
            let graph = if percent == 100 {
                Arc::clone(&dataset.graph)
            } else {
                Arc::new(sample_vertices(&dataset.graph, percent as f64 / 100.0, ctx.config.seed))
            };
            let index = Arc::new(build_advanced(&graph, true));
            let sampled = Dataset { name: dataset.name.clone(), index, graph };
            let queries = sampled.workload(&ctx.config, k as u32);
            for (i, &algorithm) in algorithms.iter().enumerate() {
                per_algorithm[i].push(fmt(average_query_ms(
                    &sampled,
                    &ctx.config,
                    &queries,
                    k,
                    algorithm,
                    None,
                )));
            }
        }
        for row in per_algorithm {
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 14(q–t) — effect of the query keyword set size |S| (1, 3, 5, 7, 9):
/// `Dec` against the two index-free baselines.
pub fn fig14_effect_of_s(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig14-s",
        "Average query time (ms) vs |S| (keywords drawn from W(q))",
        &["dataset", "algorithm", "|S|=1", "|S|=3", "|S|=5", "|S|=7", "|S|=9"],
    );
    let algorithms = [AcqAlgorithm::BasicG, AcqAlgorithm::BasicW, AcqAlgorithm::Dec];
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
        for algorithm in algorithms {
            let mut row = vec![dataset.name.clone(), algorithm.name().to_string()];
            for s_size in [1usize, 3, 5, 7, 9] {
                let seed = ctx.config.seed ^ (s_size as u64);
                let graph = &dataset.graph;
                let pick = move |q: VertexId| -> Vec<KeywordId> {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ u64::from(q.0));
                    let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
                    wq.choose_multiple(&mut rng, s_size).copied().collect()
                };
                row.push(fmt(average_query_ms(
                    dataset,
                    &ctx.config,
                    &queries,
                    k,
                    algorithm,
                    Some(&pick),
                )));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 15 — the effect of the inverted lists: `Inc-S` / `Inc-T` against
/// their `*` variants that scan subtrees instead of intersecting lists.
pub fn fig15_inverted_lists(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig15",
        "Average query time (ms): Inc-S / Inc-T with and without inverted lists",
        &["dataset", "algorithm", "k=4", "k=5", "k=6", "k=7", "k=8"],
    );
    let algorithms =
        [AcqAlgorithm::IncS, AcqAlgorithm::IncT, AcqAlgorithm::IncSStar, AcqAlgorithm::IncTStar];
    for dataset in &ctx.datasets {
        let queries = dataset.workload(&ctx.config, 8);
        if queries.is_empty() {
            continue;
        }
        for algorithm in algorithms {
            let mut row = vec![dataset.name.clone(), algorithm.name().to_string()];
            for k in 4..=8usize {
                row.push(fmt(average_query_ms(dataset, &ctx.config, &queries, k, algorithm, None)));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

/// Figure 16 — non-attributed graphs: keywords are stripped, and `Dec`
/// (which degenerates to a CL-tree core lookup) is compared against `Local`.
///
/// Like Figure 14(a–d), the `Dec` arm runs its batch on one worker so the
/// comparison against the sequential `Local` loop stays fair.
pub fn fig16_non_attributed(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let sequential = ExperimentConfig { threads: 1, ..ctx.config.clone() };
    let mut report = ExperimentReport::new(
        "fig16",
        "Average query time (ms) on non-attributed graphs: Dec vs Local, varying k",
        &["dataset", "method", "k=4", "k=5", "k=6", "k=7", "k=8"],
    );
    for dataset in &ctx.datasets {
        let bare_graph = Arc::new(strip_keywords(&dataset.graph));
        let bare = Dataset {
            name: dataset.name.clone(),
            index: Arc::new(build_advanced(&bare_graph, true)),
            graph: bare_graph,
        };
        let queries = bare.workload_ignore_keywords(&ctx.config, 8);
        if queries.is_empty() {
            continue;
        }
        for method in ["Local", "Dec"] {
            let mut row = vec![dataset.name.clone(), method.to_string()];
            for k in 4..=8usize {
                let ms = match method {
                    "Local" => {
                        let (_, t) = time_ms(|| {
                            for &q in &queries {
                                let _ = local_community(&bare.graph, q, k);
                            }
                        });
                        t / queries.len() as f64
                    }
                    _ => average_query_ms(&bare, &sequential, &queries, k, AcqAlgorithm::Dec, None),
                };
                row.push(fmt(ms));
            }
            report.push_row(row);
        }
    }
    vec![report]
}

impl Dataset {
    /// Workload selection for keyword-less graphs (Figure 16): the standard
    /// selector requires a non-empty keyword set, which would reject every
    /// vertex here.
    pub fn workload_ignore_keywords(
        &self,
        config: &crate::ExperimentConfig,
        min_core: u32,
    ) -> Vec<VertexId> {
        let mut eligible: Vec<VertexId> = self
            .graph
            .vertices()
            .filter(|&v| self.decomposition().core_number(v) >= min_core)
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        eligible.shuffle(&mut rng);
        eligible.truncate(config.queries);
        eligible
    }
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
    fn fig14_effect_of_k_lists_five_algorithms() {
        let ctx = quick_ctx();
        let reports = fig14_effect_of_k(&ctx);
        if !reports[0].rows.is_empty() {
            assert_eq!(reports[0].rows.len() % 5, 0);
        }
    }

    #[test]
    fn fig15_lists_star_variants() {
        let ctx = quick_ctx();
        let reports = fig15_inverted_lists(&ctx);
        let names: Vec<&str> = reports[0].rows.iter().map(|r| r[1].as_str()).collect();
        if !names.is_empty() {
            assert!(names.contains(&"Inc-S*"));
            assert!(names.contains(&"Inc-T*"));
        }
    }

    #[test]
    fn fig16_runs_on_stripped_graphs() {
        let ctx = quick_ctx();
        let reports = fig16_non_attributed(&ctx);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn fig14_keyword_scalability_has_five_columns_of_data() {
        let ctx = quick_ctx();
        let reports = fig14_keyword_scalability(&ctx);
        for row in &reports[0].rows {
            assert_eq!(row.len(), 7);
        }
    }
}
