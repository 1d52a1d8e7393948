//! # acq-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 7 and Appendix G) on the synthetic dataset
//! profiles of `acq-datagen`.
//!
//! Each experiment is identified by the paper artefact it reproduces
//! (`fig7`, `fig13`, `table4`, …); [`run_experiment`] dispatches on that id
//! and returns one or more [`ExperimentReport`]s, which the `acq-experiments`
//! binary prints. The absolute numbers differ from the paper (different
//! hardware, synthetic data, Rust instead of Java); the *shapes* — which
//! method wins, how curves move with `k`, `|S|`, graph size — are the
//! reproduction target. `acq-experiments --help` lists every experiment id;
//! `PAPER.md` ("Paper → code map") says where each reproduced concept lives.

#![deny(missing_docs)]

pub mod case_study;
pub mod effectiveness;
pub mod index_construction;
pub mod maintenance;
pub mod query_efficiency;
pub mod table3;
pub mod variants;

use acq_cltree::{build_advanced, ClTree};
use acq_core::Engine;
use acq_datagen::DatasetProfile;
use acq_graph::{AttributedGraph, GraphBuilder, VertexId};
use acq_kcore::CoreDecomposition;
use std::sync::Arc;
use std::time::Instant;

/// Configuration shared by every experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Multiplier applied to every dataset profile's vertex count (1.0 = the
    /// laptop-scale defaults documented in `acq-datagen::profiles`).
    pub scale: f64,
    /// Number of query vertices per data point (the paper uses 300).
    pub queries: usize,
    /// The default minimum degree `k` (the paper uses 6).
    pub default_k: usize,
    /// Seed for query selection and keyword sampling.
    pub seed: u64,
    /// Worker threads for the batch query path (0 = one per available core).
    /// The query-efficiency figures report batch wall-clock divided by the
    /// workload size, so per-query numbers stay comparable across settings.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { scale: 1.0, queries: 50, default_k: 6, seed: 2016, threads: 0 }
    }
}

impl ExperimentConfig {
    /// A deliberately tiny configuration used by the crate's own tests.
    pub fn smoke_test() -> Self {
        Self { scale: 0.08, queries: 6, default_k: 4, seed: 7, threads: 2 }
    }
}

/// One generated dataset plus its index, ready for querying. Graph and index
/// are `Arc`-shared so that batch engines (and their worker threads) can use
/// them without copying.
pub struct Dataset {
    /// Profile name ("Flickr", "DBLP", …).
    pub name: String,
    /// The generated attributed graph.
    pub graph: Arc<AttributedGraph>,
    /// The CL-tree index (advanced build, inverted lists on).
    pub index: Arc<ClTree>,
}

impl Dataset {
    /// Generates a dataset from a profile (scaled by the config).
    pub fn generate(profile: &DatasetProfile, config: &ExperimentConfig) -> Self {
        let scaled = profile.scaled(config.scale);
        let graph = acq_datagen::generate(&scaled);
        let index = build_advanced(&graph, true);
        Dataset { name: profile.name.clone(), graph: Arc::new(graph), index: Arc::new(index) }
    }

    /// An owning [`Engine`] sharing this dataset's graph and index, with
    /// `threads` batch workers (0 = one per core).
    pub fn engine(&self, threads: usize) -> Engine {
        Engine::builder(Arc::clone(&self.graph))
            .index(Arc::clone(&self.index))
            .threads(threads)
            .build()
    }

    /// The core decomposition (owned by the index).
    pub fn decomposition(&self) -> &CoreDecomposition {
        self.index.decomposition()
    }

    /// The standard query workload: `config.queries` vertices of core number
    /// at least `min_core`.
    pub fn workload(&self, config: &ExperimentConfig, min_core: u32) -> Vec<VertexId> {
        acq_datagen::select_query_vertices(
            &self.graph,
            self.decomposition(),
            config.queries,
            min_core,
            config.seed,
        )
    }
}

/// The evaluation context: every dataset profile of the paper, generated and
/// indexed once and shared by all experiments.
pub struct ExperimentContext {
    /// The run configuration.
    pub config: ExperimentConfig,
    /// The four paper datasets (Flickr, DBLP, Tencent, DBpedia).
    pub datasets: Vec<Dataset>,
}

impl ExperimentContext {
    /// Generates all four paper profiles.
    pub fn new(config: ExperimentConfig) -> Self {
        let datasets =
            acq_datagen::all_profiles().iter().map(|p| Dataset::generate(p, &config)).collect();
        Self { config, datasets }
    }

    /// A context holding only the (small) DBLP-like dataset — used by the
    /// case-study experiments and by tests.
    pub fn dblp_only(config: ExperimentConfig) -> Self {
        let datasets = vec![Dataset::generate(&acq_datagen::dblp(), &config)];
        Self { config, datasets }
    }
}

/// A printable experiment result: one table with named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentReport {
    /// The experiment id (`fig7`, `table4`, …).
    pub id: String,
    /// Human-readable description of what the table shows.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentReport {
    /// Creates an empty report with the given identity and columns.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Renders the report as an aligned plain-text table (also valid Markdown).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.title));
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&separator));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Runs a closure and returns its result together with the elapsed wall-clock
/// time in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Returns a copy of `graph` with every keyword removed — the "non-attributed
/// graphs" setting of the paper's Figure 16.
pub fn strip_keywords(graph: &AttributedGraph) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for v in graph.vertices() {
        let label = graph.label(v).map(str::to_owned).unwrap_or_else(|| v.to_string());
        b.add_vertex(&label, &[]);
    }
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            if u > v {
                b.add_edge(v, u).expect("same vertex set");
            }
        }
    }
    b.build()
}

/// All experiment identifiers, in the order the paper presents them.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table3",
        "fig7",
        "fig8",
        "fig9",
        "fig11",
        "table4",
        "table56",
        "fig12",
        "table7",
        "fig13",
        "fig14-cs",
        "fig14-k",
        "fig14-kw",
        "fig14-vx",
        "fig14-s",
        "fig15",
        "fig16",
        "fig17-v1",
        "fig17-v2",
        "appF-maint",
    ]
}

/// Runs one experiment by id. Returns `None` for an unknown id.
pub fn run_experiment(id: &str, ctx: &ExperimentContext) -> Option<Vec<ExperimentReport>> {
    let reports = match id {
        "table3" => table3::run(ctx),
        "fig7" => effectiveness::fig7_label_length(ctx),
        "fig8" => effectiveness::fig8_vs_community_detection(ctx),
        "fig9" => effectiveness::fig9_vs_community_search(ctx),
        "fig11" => case_study::fig11_member_frequency(ctx),
        "table4" => case_study::table4_distinct_keywords(ctx),
        "table56" => case_study::table56_top_keywords(ctx),
        "fig12" => case_study::fig12_community_size(ctx),
        "table7" => case_study::table7_gpm(ctx),
        "fig13" => index_construction::fig13_index_construction(ctx),
        "fig14-cs" => query_efficiency::fig14_vs_community_search(ctx),
        "fig14-k" => query_efficiency::fig14_effect_of_k(ctx),
        "fig14-kw" => query_efficiency::fig14_keyword_scalability(ctx),
        "fig14-vx" => query_efficiency::fig14_vertex_scalability(ctx),
        "fig14-s" => query_efficiency::fig14_effect_of_s(ctx),
        "fig15" => query_efficiency::fig15_inverted_lists(ctx),
        "fig16" => query_efficiency::fig16_non_attributed(ctx),
        "fig17-v1" => variants::fig17_variant1(ctx),
        "fig17-v2" => variants::fig17_variant2(ctx),
        "appF-maint" => maintenance::appf_index_maintenance(ctx),
        _ => return None,
    };
    Some(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rendering_is_aligned_markdown() {
        let mut r = ExperimentReport::new("figX", "demo", &["dataset", "value"]);
        r.push_row(vec!["Flickr".into(), "1.0".into()]);
        r.push_row(vec!["DBLP".into(), "12.5".into()]);
        let text = r.render();
        assert!(text.contains("## figX — demo"));
        assert!(text.contains("| Flickr  | 1.0"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn strip_keywords_removes_all_keywords() {
        let g = acq_graph::paper_figure3_graph();
        let bare = strip_keywords(&g);
        assert_eq!(bare.num_vertices(), g.num_vertices());
        assert_eq!(bare.num_edges(), g.num_edges());
        assert!(bare.vertices().all(|v| bare.keyword_set(v).is_empty()));
    }

    #[test]
    fn time_ms_measures_something() {
        let (value, elapsed) = time_ms(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(elapsed >= 0.0);
    }

    #[test]
    fn unknown_experiment_id_is_rejected() {
        let ctx = ExperimentContext::dblp_only(ExperimentConfig::smoke_test());
        assert!(run_experiment("nope", &ctx).is_none());
        assert!(all_experiment_ids().contains(&"fig13"));
    }
}
