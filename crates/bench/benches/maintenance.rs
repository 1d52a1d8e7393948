//! Live-update latency (`Engine::apply_updates`) against what the paper
//! compares index maintenance with — applying the deltas to the graph and
//! building the CL-tree from scratch — across delta-batch sizes.
//!
//! Three arms per batch size:
//!
//! * `apply-updates` — `Engine::apply_updates`: stage the graph, run every
//!   edge delta through the traversal subcore kernels, then at most one
//!   skeleton rebuild (or one full build) for the whole batch, and publish;
//! * `from-scratch` — `AttributedGraph::apply_deltas` + `build_advanced`;
//! * `graph-deltas-only` — `AttributedGraph::apply_deltas` alone, isolating
//!   the incremental CSR/bitmap maintenance from index work.
//!
//! Before timing, every batch is **asserted equivalent**: the engine that
//! consumed the batch and an engine over the from-scratch index must produce
//! identical query results, so the CI smoke run fails on maintenance
//! regressions instead of letting them rot. Set `BENCH_QUICK=1` for the CI
//! smoke configuration; `BENCH_JSONL=<file>` appends machine-readable results
//! (see `BENCH_maintenance.json` at the repository root for the baseline).

use acq_bench::{default_fixture, fixture, BenchFixture};
use acq_cltree::{build_advanced, ClTree};
use acq_core::{Engine, Executor, Request, UpdateStrategy};
use acq_graph::{AttributedGraph, GraphDelta, VertexId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

/// Whether the CI smoke configuration is active.
fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn bench_fixture() -> BenchFixture {
    if quick() {
        fixture(&acq_datagen::tiny(), 2.0, 5, 3)
    } else {
        default_fixture()
    }
}

fn batch_sizes() -> Vec<usize> {
    if quick() {
        vec![1, 8]
    } else {
        vec![1, 4, 16, 64]
    }
}

/// A deterministic batch of `size` edge-toggling deltas plus a sprinkle of
/// keyword churn (every 4th delta), drawn from a splitmix-style stream.
fn delta_batch(fx: &BenchFixture, size: usize, salt: u64) -> Vec<GraphDelta> {
    let n = fx.graph.num_vertices() as u64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut deltas = Vec::with_capacity(size);
    while deltas.len() < size {
        let u = VertexId((next() % n) as u32);
        let v = VertexId((next() % n) as u32);
        if u == v {
            continue;
        }
        if deltas.len() % 4 == 3 {
            deltas.push(GraphDelta::add_keyword(u, "bench-churn"));
        } else if fx.graph.has_edge(u, v) {
            deltas.push(GraphDelta::remove_edge(u, v));
        } else {
            deltas.push(GraphDelta::insert_edge(u, v));
        }
    }
    deltas
}

/// A single-threaded engine over the fixture's shared graph+index.
fn engine(fx: &BenchFixture) -> Engine {
    Engine::builder(Arc::clone(&fx.graph)).index(Arc::clone(&fx.index)).threads(1).build()
}

/// The comparison arm: the updated graph and its index, built from scratch.
fn from_scratch(fx: &BenchFixture, deltas: &[GraphDelta]) -> (AttributedGraph, ClTree) {
    let graph = fx.graph.apply_deltas(deltas).expect("valid deltas");
    let index = build_advanced(&graph, true);
    (graph, index)
}

/// Equivalence gate: the engine that consumed `deltas` answers the fixture
/// workload exactly like an engine over the from-scratch index. Returns the
/// update's strategy.
fn assert_equals_from_scratch(fx: &BenchFixture, deltas: &[GraphDelta]) -> UpdateStrategy {
    let live = engine(fx);
    let report = live.apply_updates(deltas).expect("valid deltas");
    let (graph, index) = from_scratch(fx, deltas);
    let fresh = Engine::builder(Arc::new(graph)).index(Arc::new(index)).threads(1).build();
    for &q in &fx.queries {
        for request in [Request::community(q).k(4), Request::community(q).k(6)] {
            assert_eq!(
                live.execute(&request).expect("valid").result,
                fresh.execute(&request).expect("valid").result,
                "apply_updates and a from-scratch build diverged on {q:?}"
            );
        }
    }
    report.strategy
}

/// The timed arms shared by every group. The stand-in harness calls each
/// body once per sample, so every timed `apply_updates` runs on a fresh
/// engine (built outside `b.iter`) and really applies the batch.
fn bench_arms(c: &mut Criterion, group: String, fx: &BenchFixture, deltas: &[GraphDelta]) {
    let mut group = c.benchmark_group(group);
    group.sample_size(if quick() { 2 } else { 15 });
    group.bench_function("apply-updates", |b| {
        let e = engine(fx);
        b.iter(|| std::hint::black_box(e.apply_updates(deltas).expect("valid")))
    });
    group.bench_function("from-scratch", |b| {
        b.iter(|| std::hint::black_box(from_scratch(fx, deltas)))
    });
    group.bench_function("graph-deltas-only", |b| {
        b.iter(|| std::hint::black_box(fx.graph.apply_deltas(deltas).expect("valid")))
    });
    group.finish();
}

fn bench_apply_updates(c: &mut Criterion) {
    let fx = bench_fixture();
    for size in batch_sizes() {
        let deltas = delta_batch(&fx, size, size as u64);
        assert_equals_from_scratch(&fx, &deltas);
        bench_arms(c, format!("maintenance/batch={size}"), &fx, &deltas);
    }
}

/// Finds a single skeleton-preserving edge insertion — both endpoints in one
/// CL-tree node, no core number moves — the triadic-closure shape that
/// dominates real social-graph update streams and that the maintenance
/// short-circuit exists for.
fn internal_edge_delta(fx: &BenchFixture) -> Option<GraphDelta> {
    use acq_cltree::maintenance::apply_edge_insertion_with_report;
    for node in fx.index.preorder() {
        let vertices = &fx.index.node(node).vertices;
        for (i, &u) in vertices.iter().enumerate().take(40) {
            for &v in vertices.iter().skip(i + 1).take(40) {
                if fx.graph.has_edge(u, v) {
                    continue;
                }
                let g2 = fx.graph.with_edge_inserted(u, v).expect("valid edge");
                let (_, report) = apply_edge_insertion_with_report(&fx.index, &g2, u, v);
                if !report.skeleton_changed {
                    return Some(GraphDelta::insert_edge(u, v));
                }
            }
        }
    }
    None
}

fn bench_single_internal_edge(c: &mut Criterion) {
    let fx = bench_fixture();
    let Some(delta) = internal_edge_delta(&fx) else {
        eprintln!("maintenance bench: fixture has no internal edge candidate, skipping");
        return;
    };
    let deltas = vec![delta];
    assert_eq!(
        assert_equals_from_scratch(&fx, &deltas),
        UpdateStrategy::IncrementalStableSkeleton,
        "the probed edge must keep the skeleton"
    );
    bench_arms(c, "maintenance/single-edge-internal".to_owned(), &fx, &deltas);
}

criterion_group!(benches, bench_apply_updates, bench_single_internal_edge);
criterion_main!(benches);
