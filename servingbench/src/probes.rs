//! Kernel probes: independent timed calls into each crate's public
//! functions, on the workload's own sampled queries and deltas.
//!
//! These are rows of their own in the per-layer table, not children of
//! `core.execute` or `core.apply`: they time the kernels those calls are
//! built from, on the same inputs, so that a later change to one kernel has
//! a number that should move with it.

use crate::report::Metrics;
use crate::stats::median_f64;
use acq_cltree::{build_advanced, ClTree};
use acq_core::{AcqAlgorithm, Engine, Executor, Request, ShardedEngine};
use acq_durable::{FsStorage, Storage, LOG_FILE};
use acq_fpm::{mine_frequent_itemsets, MiningAlgorithm, Transaction};
use acq_graph::{AttributedGraph, GraphDelta, KeywordId};
use acq_kcore::CoreDecomposition;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Runs `f` and returns its value with the time it took in µs.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e6)
}

/// Median time of `f` over `inputs`, in µs; 0 without inputs.
fn median_over<I>(inputs: impl IntoIterator<Item = I>, mut f: impl FnMut(I) -> f64) -> f64 {
    let times: Vec<f64> = inputs.into_iter().map(&mut f).collect();
    median_f64(&times)
}

/// Median time of `f` over `repeats` calls, in µs.
fn median_of(repeats: usize, mut f: impl FnMut()) -> f64 {
    median_over(0..repeats, |_| timed(&mut f).1)
}

/// What the probes are run on.
pub struct Inputs<'a> {
    pub graph: &'a Arc<AttributedGraph>,
    pub index: &'a Arc<ClTree>,
    /// Distinct requests in the order the workload draws them.
    pub requests: &'a [Request],
    /// The head of the workload's delta stream.
    pub deltas: &'a [GraphDelta],
    pub k: usize,
}

fn edge_of(delta: &GraphDelta) -> Option<(acq_graph::VertexId, acq_graph::VertexId, bool)> {
    match *delta {
        GraphDelta::InsertEdge { u, v } => Some((u, v, true)),
        GraphDelta::RemoveEdge { u, v } => Some((u, v, false)),
        _ => None,
    }
}

pub fn graph_layer(inputs: &Inputs<'_>, out: &mut Metrics) -> Result<(), String> {
    let graph = inputs.graph;
    let apply = median_over(inputs.deltas.iter().take(20), |delta| {
        timed(|| black_box(graph.apply_deltas(std::slice::from_ref(delta)))).1
    });
    out.set("graph.apply_delta_ms", apply / 1e3);

    let mut bytes = 0;
    let snapshot = median_of(3, || {
        bytes = serde_json::to_string(&**graph).map_or(0, |json| black_box(json).len());
    });
    if bytes == 0 {
        return Err("the graph does not serialize".to_owned());
    }
    out.set("graph.snapshot_json_ms", snapshot / 1e3);
    out.set("graph.snapshot_bytes", bytes as f64);
    Ok(())
}

pub fn kcore_layer(inputs: &Inputs<'_>, out: &mut Metrics) -> Result<(), String> {
    let (graph, index, k) = (inputs.graph, inputs.index, inputs.k);
    let n = graph.num_vertices();
    out.set(
        "kcore.decompose_ms",
        median_of(3, || drop(black_box(CoreDecomposition::compute(graph)))) / 1e3,
    );

    let (mut peels, mut components) = (Vec::new(), Vec::new());
    for request in inputs.requests.iter().take(100) {
        let q = request.vertex;
        let node = index.locate_core(q, k as u32).ok_or("a sampled anchor left its k-core")?;
        let subtree = index.subtree_vertex_subset(node, n);
        let (core, peel_us) = timed(|| acq_kcore::peel_to_kcore(graph, &subtree, k));
        peels.push(peel_us);
        components.push(timed(|| black_box(core.component_of(graph, q))).1);
    }
    out.set("kcore.peel_us", median_f64(&peels));
    out.set("kcore.component_us", median_f64(&components));

    let maintain =
        median_over(inputs.deltas.iter().filter_map(edge_of).take(12), |(u, v, insert)| {
            let delta =
                if insert { GraphDelta::insert_edge(u, v) } else { GraphDelta::remove_edge(u, v) };
            let updated = graph.apply_deltas(&[delta]).expect("a generated delta applies");
            let mut cores = index.decomposition().clone();
            timed(|| {
                if insert {
                    acq_kcore::maintenance::apply_edge_insertion(&updated, &mut cores, u, v)
                } else {
                    acq_kcore::maintenance::apply_edge_removal(&updated, &mut cores, u, v)
                }
            })
            .1
        });
    out.set("kcore.maintain_edge_us", maintain);
    Ok(())
}

pub fn cltree_layer(inputs: &Inputs<'_>, out: &mut Metrics) -> Result<(), String> {
    let (graph, index, k) = (inputs.graph, inputs.index, inputs.k);
    let n = graph.num_vertices();
    out.set("cltree.build_ms", median_of(3, || drop(black_box(build_advanced(graph, true)))) / 1e3);
    out.set("cltree.memory_mb", index.memory_estimate_bytes() as f64 / (1024.0 * 1024.0));

    let (mut locates, mut filters) = (Vec::new(), Vec::new());
    for request in inputs.requests.iter().take(100) {
        let q = request.vertex;
        let (node, locate_us) = timed(|| {
            let node = index.locate_core(q, k as u32);
            black_box(node.map(|node| index.subtree_vertex_subset(node, n)));
            node
        });
        let node = node.ok_or("a sampled anchor left its k-core")?;
        locates.push(locate_us);
        let keywords: Vec<KeywordId> = graph.keyword_set(q).iter().take(2).collect();
        filters.push(timed(|| black_box(index.vertices_with_keywords_under(node, &keywords))).1);
    }
    out.set("cltree.locate_us", median_f64(&locates));
    out.set("cltree.keyword_filter_us", median_f64(&filters));

    let inserts = inputs.deltas.iter().filter_map(edge_of).filter(|&(_, _, insert)| insert);
    let maintain = median_over(inserts.take(5), |(u, v, _)| {
        let updated = graph
            .apply_deltas(&[GraphDelta::insert_edge(u, v)])
            .expect("a generated delta applies");
        timed(|| {
            black_box(acq_cltree::maintenance::apply_edge_insertion_with_report(
                index, &updated, u, v,
            ))
        })
        .1
    });
    out.set("cltree.maintain_edge_ms", maintain / 1e3);
    Ok(())
}

/// Mines `q`'s neighbourhood the way `Dec` generates its candidates: one
/// transaction per neighbour, `W(neighbour) ∩ W(q)`, at support `k`.
pub fn fpm_layer(inputs: &Inputs<'_>, out: &mut Metrics) {
    let graph = inputs.graph;
    let mine = median_over(inputs.requests.iter().take(100), |request| {
        let own = graph.keyword_set(request.vertex);
        let transactions: Vec<Transaction> = graph
            .neighbors(request.vertex)
            .iter()
            .map(|&n| {
                graph.keyword_set(n).iter().filter(|&kw| own.contains(kw)).map(|kw| kw.0).collect()
            })
            .collect();
        timed(|| {
            black_box(mine_frequent_itemsets(&transactions, inputs.k, MiningAlgorithm::FpGrowth))
        })
        .1
    });
    out.set("fpm.mine_us", mine);
}

fn execute_median(
    executor: &dyn Executor,
    requests: &[Request],
    algorithm: AcqAlgorithm,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(requests.len());
    for request in requests {
        let request = request.clone().algorithm(algorithm);
        let (answer, us) = timed(|| executor.execute(&request));
        answer.map_err(|e| format!("{}: {e}", algorithm.name()))?;
        times.push(us);
    }
    Ok(median_f64(&times))
}

/// The non-default algorithms, the batch path and the sharded engine, on the
/// workload's requests. (`core.execute_dec_us` comes from the staged replay.)
pub fn core_read_layer(inputs: &Inputs<'_>, out: &mut Metrics) -> Result<(), String> {
    let with_threads = |threads: Option<usize>| {
        let builder = Engine::builder(Arc::clone(inputs.graph)).index(Arc::clone(inputs.index));
        match threads {
            Some(threads) => builder.threads(threads),
            None => builder,
        }
        .build()
    };
    let engine = with_threads(None);
    let sample = |n: usize| &inputs.requests[..n.min(inputs.requests.len())];
    out.set("core.execute_incs_us", execute_median(&engine, sample(50), AcqAlgorithm::IncS)?);
    out.set("core.execute_inct_us", execute_median(&engine, sample(50), AcqAlgorithm::IncT)?);
    out.set("core.execute_basicg_us", execute_median(&engine, sample(20), AcqAlgorithm::BasicG)?);

    let batch_ms = |engine: &Engine| {
        median_over(inputs.requests.chunks(16).filter(|c| c.len() == 16).take(10), |batch| {
            timed(|| black_box(engine.execute_batch(batch))).1
        }) / 1e3
    };
    let (one, many) = (batch_ms(&with_threads(Some(1))), batch_ms(&engine));
    out.set("core.batch16_ms_t1", one);
    out.set("core.batch16_ms_tn", many);
    out.set("core.batch_speedup", if many > 0.0 { one / many } else { 0.0 });

    let sharded = ShardedEngine::new(Arc::clone(inputs.graph), 1);
    out.set(
        "core.sharded1_execute_dec_us",
        execute_median(&sharded, sample(200), AcqAlgorithm::Dec)?,
    );
    Ok(())
}

/// `Engine::apply_updates` by delta kind, and as one batch of sixteen.
pub fn core_write_layer(inputs: &Inputs<'_>, out: &mut Metrics) -> Result<(), String> {
    let engine = Engine::builder(Arc::clone(inputs.graph)).index(Arc::clone(inputs.index)).build();
    let apply = |deltas: &[GraphDelta]| -> Result<f64, String> {
        let (report, us) = timed(|| engine.apply_updates(deltas));
        report.map(|_| us / 1e3).map_err(|e| format!("apply_updates: {e}"))
    };
    let (batch, singles) = inputs.deltas.split_at(16.min(inputs.deltas.len()));
    type IsKind = fn(&GraphDelta) -> bool;
    let kinds: [(&'static str, IsKind); 3] = [
        ("core.apply_edge_ms", |d| edge_of(d).is_some()),
        ("core.apply_keyword_ms", |d| {
            matches!(d, GraphDelta::AddKeyword { .. } | GraphDelta::RemoveKeyword { .. })
        }),
        ("core.apply_vertex_ms", |d| matches!(d, GraphDelta::InsertVertex { .. })),
    ];
    for (name, is_kind) in kinds {
        let mut times = Vec::new();
        for delta in singles.iter().filter(|d| is_kind(d)).take(5) {
            times.push(apply(std::slice::from_ref(delta))?);
        }
        out.set(name, median_f64(&times));
    }
    out.set("core.apply_batch16_ms", apply(batch)?);
    Ok(())
}

/// `Storage::sync` alone, on a log file that just grew by one small record.
pub fn fsync_probe(dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let mut storage = FsStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let mut times = Vec::new();
    for _ in 0..20 {
        storage.append(LOG_FILE, &[0u8; 96]).map_err(|e| format!("append: {e}"))?;
        let (synced, us) = timed(|| storage.sync(LOG_FILE));
        synced.map_err(|e| format!("sync: {e}"))?;
        times.push(us / 1e3);
    }
    out.set("durable.fsync_ms", median_f64(&times));
    Ok(())
}
