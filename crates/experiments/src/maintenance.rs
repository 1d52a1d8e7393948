//! Index maintenance cost (Section 5.2.2 / Appendix F): how fast the live
//! [`Engine::apply_updates`] pipeline absorbs graph deltas compared with
//! rebuilding the index from scratch per update — the reproduction of the
//! paper's claim that CL-tree maintenance touches only the affected subcore.

use crate::{time_ms, ExperimentContext, ExperimentReport};
use acq_cltree::build_advanced;
use acq_core::{Engine, UpdateStrategy};
use acq_graph::{AttributedGraph, GraphDelta, VertexId};
use std::sync::Arc;

/// A deterministic edge-toggle update stream (splitmix-style, seeded from the
/// experiment config) over the dataset's vertex set.
fn update_stream(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let u = (next() % n as u64) as u32;
        let v = (next() % n as u64) as u32;
        if u != v {
            pairs.push((VertexId(u), VertexId(v)));
        }
    }
    pairs
}

/// The delta that flips the edge `{u, v}` of `graph`.
fn toggle(graph: &AttributedGraph, u: VertexId, v: VertexId) -> GraphDelta {
    if graph.has_edge(u, v) {
        GraphDelta::remove_edge(u, v)
    } else {
        GraphDelta::insert_edge(u, v)
    }
}

/// Appendix F: per-update maintenance latency, `apply_updates` vs what the
/// paper compares it against — applying the delta to the graph and building
/// the index from scratch — plus how often the skeleton is kept.
pub fn appf_index_maintenance(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    let updates = ctx.config.queries.max(3);
    let mut report = ExperimentReport::new(
        "appF",
        "index maintenance: per-update latency, incremental apply_updates vs full rebuild",
        &[
            "dataset",
            "updates",
            "incremental ms/upd",
            "rebuild ms/upd",
            "speedup",
            "stable-skeleton %",
        ],
    );
    for dataset in &ctx.datasets {
        let pairs = update_stream(dataset.graph.num_vertices(), updates, ctx.config.seed ^ 0xF00D);

        // Incremental arm: deltas are applied one at a time (the serving
        // shape) so each call stages from the published generation.
        let incremental = Engine::builder(Arc::clone(&dataset.graph))
            .index(Arc::clone(&dataset.index))
            .threads(1)
            .build();
        let mut stable = 0usize;
        let (_, incremental_ms) = time_ms(|| {
            for &(u, v) in &pairs {
                let delta = toggle(&incremental.graph(), u, v);
                let outcome = incremental.apply_updates(&[delta]).expect("valid delta");
                if outcome.strategy == UpdateStrategy::IncrementalStableSkeleton {
                    stable += 1;
                }
            }
        });

        // Rebuild arm: the same stream, one `build_advanced` per update.
        let mut graph = Arc::clone(&dataset.graph);
        let (_, rebuild_ms) = time_ms(|| {
            for &(u, v) in &pairs {
                let delta = toggle(&graph, u, v);
                graph = Arc::new(graph.apply_deltas(&[delta]).expect("valid delta"));
                std::hint::black_box(build_advanced(&graph, true));
            }
        });

        let per_inc = incremental_ms / updates as f64;
        let per_reb = rebuild_ms / updates as f64;
        report.push_row(vec![
            dataset.name.clone(),
            updates.to_string(),
            format!("{per_inc:.3}"),
            format!("{per_reb:.3}"),
            format!("{:.2}x", if per_inc > 0.0 { per_reb / per_inc } else { f64::NAN }),
            format!("{:.0}%", 100.0 * stable as f64 / updates as f64),
        ]);
    }
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn maintenance_experiment_produces_one_row_per_dataset() {
        let ctx = ExperimentContext::dblp_only(ExperimentConfig::smoke_test());
        let reports = appf_index_maintenance(&ctx);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rows.len(), ctx.datasets.len());
        assert_eq!(reports[0].rows[0].len(), reports[0].headers.len());
    }
}
