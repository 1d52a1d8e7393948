//! Effectiveness experiments (Section 7.2.1): Figures 7, 8 and 9.

use crate::{ExperimentContext, ExperimentReport};
use acq_baselines::{global_community, local_community, Codicil, CodicilConfig};
use acq_core::{dec, AcqQuery};
use acq_graph::{KeywordId, VertexId};
use acq_metrics as metrics;

/// Runs the default ACQ workload on one dataset and returns, per query, the
/// reference keyword set `W(q)` and the returned communities.
fn acq_results(
    dataset: &crate::Dataset,
    queries: &[VertexId],
    k: usize,
) -> Vec<(Vec<KeywordId>, Vec<Vec<VertexId>>, usize)> {
    queries
        .iter()
        .map(|&q| {
            let query = AcqQuery::new(q, k);
            let result = dec(&dataset.graph, &dataset.index, &query);
            let wq: Vec<KeywordId> = dataset.graph.keyword_set(q).iter().collect();
            let communities: Vec<Vec<VertexId>> =
                result.communities.iter().map(|c| c.vertices.clone()).collect();
            (wq, communities, result.label_size)
        })
        .collect()
}

/// Figure 7 — CMF and CPJ as a function of the AC-label length (1–5 shared
/// keywords). The paper's observation: both metrics rise with the number of
/// shared keywords, which justifies maximising the label size.
pub fn fig7_label_length(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut cmf_report = ExperimentReport::new(
        "fig7a",
        "CMF vs. number of shared keywords (AC-label length)",
        &["dataset", "1", "2", "3", "4", "5"],
    );
    let mut cpj_report = ExperimentReport::new(
        "fig7b",
        "CPJ vs. number of shared keywords (AC-label length)",
        &["dataset", "1", "2", "3", "4", "5"],
    );
    let k = ctx.config.default_k.min(4);
    for dataset in &ctx.datasets {
        let queries = dataset.workload(&ctx.config, k as u32);
        let results = acq_results(dataset, &queries, k);
        let mut cmf_row = vec![dataset.name.clone()];
        let mut cpj_row = vec![dataset.name.clone()];
        for label_len in 1..=5usize {
            // Group the ACs whose label has exactly `label_len` keywords.
            let mut cmf_acc = Vec::new();
            let mut cpj_acc = Vec::new();
            for (wq, communities, label_size) in &results {
                if *label_size == label_len && !communities.is_empty() {
                    cmf_acc.push(metrics::cmf(&dataset.graph, communities, wq));
                    cpj_acc.push(metrics::cpj(&dataset.graph, communities));
                }
            }
            let mean = |xs: &[f64]| {
                if xs.is_empty() {
                    f64::NAN
                } else {
                    xs.iter().sum::<f64>() / xs.len() as f64
                }
            };
            cmf_row.push(format_opt(mean(&cmf_acc)));
            cpj_row.push(format_opt(mean(&cpj_acc)));
        }
        cmf_report.push_row(cmf_row);
        cpj_report.push_row(cpj_row);
    }
    vec![cmf_report, cpj_report]
}

fn format_opt(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else {
        format!("{x:.3}")
    }
}

/// Figure 8 — ACQ vs. the CODICIL-style community-detection baseline at
/// several cluster counts: keyword cohesion (CMF, CPJ) and structure
/// cohesion (average member degree, fraction of members with degree ≥ k).
pub fn fig8_vs_community_detection(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig8",
        "ACQ vs CODICIL-style detection (per dataset and cluster count)",
        &["dataset", "method", "CMF", "CPJ", "avg degree", "% degree >= k"],
    );
    let k = ctx.config.default_k;
    for dataset in &ctx.datasets {
        let queries = dataset.workload(&ctx.config, k as u32);
        if queries.is_empty() {
            continue;
        }
        // ACQ row.
        let results = acq_results(dataset, &queries, k);
        push_quality_row(&mut report, dataset, "ACQ", &queries, |i, _q| results[i].1.clone(), k);

        // CODICIL rows: cluster counts spanning "too few" to "too many",
        // mirroring Cod1K … Cod100K relative to the dataset size.
        let n = dataset.graph.num_vertices();
        for (label, clusters) in [
            ("Cod-few", (n / 200).max(2)),
            ("Cod-mid", (n / 40).max(4)),
            ("Cod-many", (n / 8).max(8)),
        ] {
            let codicil = Codicil::detect(
                &dataset.graph,
                &CodicilConfig { num_clusters: clusters, ..Default::default() },
            );
            push_quality_row(
                &mut report,
                dataset,
                label,
                &queries,
                |_i, q| vec![codicil.community_of(&dataset.graph, q).sorted_members()],
                k,
            );
        }
    }
    vec![report]
}

/// Figure 9 — ACQ vs the community-search baselines Global and Local:
/// keyword cohesion only (they share the same structural guarantee).
pub fn fig9_vs_community_search(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig9",
        "ACQ vs community-search baselines (keyword cohesiveness)",
        &["dataset", "method", "CMF", "CPJ"],
    );
    let k = ctx.config.default_k;
    for dataset in &ctx.datasets {
        let queries = dataset.workload(&ctx.config, k as u32);
        if queries.is_empty() {
            continue;
        }
        let results = acq_results(dataset, &queries, k);
        let acq_communities =
            |i: usize, _q: VertexId| -> Vec<Vec<VertexId>> { results[i].1.clone() };
        let global = |_i: usize, q: VertexId| -> Vec<Vec<VertexId>> {
            global_community(&dataset.graph, q, k)
                .map(|c| vec![c.sorted_members()])
                .unwrap_or_default()
        };
        let local = |_i: usize, q: VertexId| -> Vec<Vec<VertexId>> {
            local_community(&dataset.graph, q, k)
                .map(|c| vec![c.sorted_members()])
                .unwrap_or_default()
        };
        for (name, f) in [
            ("ACQ", &acq_communities as &dyn Fn(usize, VertexId) -> Vec<Vec<VertexId>>),
            ("Global", &global),
            ("Local", &local),
        ] {
            let (cmf, cpj) = average_quality(dataset, &queries, f);
            report.push_row(vec![
                dataset.name.clone(),
                name.into(),
                format!("{cmf:.3}"),
                format!("{cpj:.3}"),
            ]);
        }
    }
    vec![report]
}

/// Averages CMF / CPJ over a query workload for an arbitrary
/// "communities of query i" function.
fn average_quality(
    dataset: &crate::Dataset,
    queries: &[VertexId],
    communities_of: &dyn Fn(usize, VertexId) -> Vec<Vec<VertexId>>,
) -> (f64, f64) {
    let mut cmf_acc = 0.0;
    let mut cpj_acc = 0.0;
    let mut counted = 0usize;
    for (i, &q) in queries.iter().enumerate() {
        let communities = communities_of(i, q);
        if communities.is_empty() {
            continue;
        }
        let wq: Vec<KeywordId> = dataset.graph.keyword_set(q).iter().collect();
        cmf_acc += metrics::cmf(&dataset.graph, &communities, &wq);
        cpj_acc += metrics::cpj(&dataset.graph, &communities);
        counted += 1;
    }
    if counted == 0 {
        (0.0, 0.0)
    } else {
        (cmf_acc / counted as f64, cpj_acc / counted as f64)
    }
}

/// Adds one row with keyword *and* structural quality for a method.
fn push_quality_row(
    report: &mut ExperimentReport,
    dataset: &crate::Dataset,
    method: &str,
    queries: &[VertexId],
    communities_of: impl Fn(usize, VertexId) -> Vec<Vec<VertexId>>,
    k: usize,
) {
    let f = |i: usize, q: VertexId| communities_of(i, q);
    let (cmf, cpj) = average_quality(dataset, queries, &f);
    // Structure: pool all communities of all queries.
    let mut all: Vec<Vec<VertexId>> = Vec::new();
    for (i, &q) in queries.iter().enumerate() {
        all.extend(communities_of(i, q));
    }
    let structure = metrics::structural_cohesion(&dataset.graph, &all, k);
    report.push_row(vec![
        dataset.name.clone(),
        method.into(),
        format!("{cmf:.3}"),
        format!("{cpj:.3}"),
        format!("{:.2}", structure.average_degree),
        format!("{:.1}%", structure.fraction_with_min_degree * 100.0),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentConfig, ExperimentContext};

    fn quick_ctx() -> ExperimentContext {
        ExperimentContext::dblp_only(ExperimentConfig::smoke_test())
    }

    #[test]
    fn fig7_produces_two_tables_with_one_row_per_dataset() {
        let ctx = quick_ctx();
        let reports = fig7_label_length(&ctx);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].rows.len(), ctx.datasets.len());
        assert_eq!(reports[0].headers.len(), 6);
    }

    #[test]
    fn fig8_reports_acq_and_codicil_rows() {
        let ctx = quick_ctx();
        let reports = fig8_vs_community_detection(&ctx);
        let methods: Vec<&str> = reports[0].rows.iter().map(|r| r[1].as_str()).collect();
        assert!(methods.contains(&"ACQ"));
        assert!(methods.iter().filter(|m| m.starts_with("Cod")).count() >= 3);
    }

    #[test]
    fn fig9_acq_keyword_cohesion_beats_structure_only_baselines() {
        let ctx = quick_ctx();
        let reports = fig9_vs_community_search(&ctx);
        let rows = &reports[0].rows;
        let value = |method: &str, col: usize| -> f64 {
            rows.iter().find(|r| r[1] == method).unwrap()[col].parse().unwrap()
        };
        // The paper's qualitative claim: ACQ's CMF and CPJ exceed Global's
        // (and Local's at full scale), because ACQ actually uses the keywords.
        // The smoke-test graph is tiny, so only the Global comparison is
        // statistically stable enough to assert here; a full-scale run covers
        // Local as well.
        assert!(value("ACQ", 2) >= value("Global", 2));
        assert!(value("ACQ", 3) >= value("Global", 3));
        assert!(value("ACQ", 2) + 0.15 >= value("Local", 2));
    }
}
