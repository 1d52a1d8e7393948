//! Delta-apply vs full-rebuild latency for the live-update pipeline
//! (`Engine::apply_updates`), across delta-batch sizes.
//!
//! Three arms per batch size:
//!
//! * `incremental` — an unreachable `rebuild_threshold`: every edge delta
//!   goes through
//!   the traversal subcore kernels; the CL-tree short-circuits to a clone
//!   when the skeleton is provably unchanged, else rebuilds the skeleton
//!   from the maintained decomposition;
//! * `full-rebuild` — `rebuild_threshold(-1.0)`: the kernels are skipped and
//!   the index is rebuilt from scratch with `build_advanced` (the historical
//!   behaviour of the update path);
//! * `graph-deltas-only` — `AttributedGraph::apply_deltas` alone, isolating
//!   the incremental CSR/bitmap maintenance from index work.
//!
//! Before timing, every batch is **asserted equivalent**: the incremental
//! and full-rebuild engines must produce identical query results on the
//! updated graph, so the CI smoke run fails on maintenance regressions
//! instead of letting them rot. Set `BENCH_QUICK=1` for the CI smoke
//! configuration; `BENCH_JSONL=<file>` appends machine-readable results
//! (see `BENCH_maintenance.json` at the repository root for the baseline).

use acq_bench::{default_fixture, fixture, BenchFixture};
use acq_core::{Engine, Executor, Request, UpdateStrategy};
use acq_graph::{GraphDelta, VertexId};
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

/// An engine over the fixture's shared graph+index with the given rebuild
/// threshold.
fn engine(fx: &BenchFixture, threshold: f64) -> Engine {
    Engine::builder(Arc::clone(&fx.graph))
        .index(Arc::clone(&fx.index))
        .threads(1)
        .rebuild_threshold(threshold)
        .build()
}

/// Equivalence gate: both maintenance policies answer the fixture workload
/// identically after consuming `deltas`.
fn assert_policies_agree(fx: &BenchFixture, deltas: &[GraphDelta]) {
    let incremental = engine(fx, f64::INFINITY);
    let rebuild = engine(fx, -1.0);
    let a = incremental.apply_updates(deltas).expect("valid deltas");
    let b = rebuild.apply_updates(deltas).expect("valid deltas");
    assert_ne!(
        a.strategy,
        UpdateStrategy::FullRebuild,
        "an unreachable threshold must stay incremental"
    );
    assert_eq!(b.strategy, UpdateStrategy::FullRebuild, "threshold -1.0 must force rebuild");
    for &q in &fx.queries {
        for request in [Request::community(q).k(4), Request::community(q).k(6)] {
            assert_eq!(
                incremental.execute(&request).expect("valid").result,
                rebuild.execute(&request).expect("valid").result,
                "incremental and rebuild diverged on {q:?}"
            );
        }
    }
}

fn bench_apply_updates(c: &mut Criterion) {
    let fx = bench_fixture();
    for size in batch_sizes() {
        let deltas = delta_batch(&fx, size, size as u64);
        assert_policies_agree(&fx, &deltas);

        let mut group = c.benchmark_group(format!("maintenance/batch={size}"));
        group.sample_size(if quick() { 2 } else { 15 });
        // Engine construction happens outside `b.iter`, so only the
        // apply_updates call (stage + maintain + publish) is timed; each
        // sample gets a fresh engine so every timed call applies the batch.
        group.bench_function("incremental", |b| {
            let e = engine(&fx, f64::INFINITY);
            b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
        });
        group.bench_function("full-rebuild", |b| {
            let e = engine(&fx, -1.0);
            b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
        });
        group.bench_function("graph-deltas-only", |b| {
            b.iter(|| std::hint::black_box(fx.graph.apply_deltas(&deltas).expect("valid")))
        });
        group.finish();
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
                if !report.skeleton_rebuilt {
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
    assert_policies_agree(&fx, &deltas);
    {
        let e = engine(&fx, f64::INFINITY);
        let report = e.apply_updates(&deltas).expect("valid");
        assert_eq!(
            report.strategy,
            UpdateStrategy::IncrementalStableSkeleton,
            "the probed edge must keep the skeleton"
        );
    }
    let mut group = c.benchmark_group("maintenance/single-edge-internal");
    group.sample_size(if quick() { 2 } else { 15 });
    group.bench_function("incremental", |b| {
        let e = engine(&fx, f64::INFINITY);
        b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
    });
    group.bench_function("full-rebuild", |b| {
        let e = engine(&fx, -1.0);
        b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
    });
    group.finish();
}

criterion_group!(benches, bench_apply_updates, bench_single_internal_edge);
criterion_main!(benches);
