//! Batch-vs-sequential micro-benchmark for the unified `Executor` surface:
//! the same `Request` workload through (a) a sequential cache-less `Engine`
//! loop, (b) a single-threaded cached `Engine` batch (isolates the shared
//! index cache from threading) and (c) a multi-threaded one (adds the
//! worker-pool fan-out).
//!
//! A duplicated workload (every request appears twice) is benchmarked
//! separately, since that is where the `(k, keyword-set)` LRU pays off most.
//! `BENCH_batch_query.json` at the repository root records a baseline run.

use acq_bench::default_fixture;
use acq_core::{Executor, Request};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_batch_vs_sequential(c: &mut Criterion) {
    let fx = default_fixture();
    let sequential = fx.engine(1);
    let requests: Vec<Request> = fx.queries.iter().map(|&q| Request::community(q).k(6)).collect();

    let mut group = c.benchmark_group("batch_vs_sequential");
    group.sample_size(10);
    group.bench_function("sequential-loop", |b| {
        b.iter(|| {
            for request in &requests {
                std::hint::black_box(sequential.execute(request).expect("valid"));
            }
        })
    });
    group.bench_function("batch-1-thread", |b| {
        let engine = fx.batch_engine(1);
        b.iter(|| std::hint::black_box(engine.execute_batch(&requests)))
    });
    group.bench_function("batch-4-threads", |b| {
        let engine = fx.batch_engine(4);
        b.iter(|| std::hint::black_box(engine.execute_batch(&requests)))
    });
    group.bench_function("batch-4-threads-uncached", |b| {
        let engine = fx.engine(4);
        b.iter(|| std::hint::black_box(engine.execute_batch(&requests)))
    });
    group.finish();
}

fn bench_repeated_workload(c: &mut Criterion) {
    let fx = default_fixture();
    let sequential = fx.engine(1);
    // Every request twice: the shape of a popular-query serving workload.
    let doubled: Vec<Request> =
        fx.queries.iter().chain(fx.queries.iter()).map(|&q| Request::community(q).k(6)).collect();

    let mut group = c.benchmark_group("repeated_workload");
    group.sample_size(10);
    group.bench_function("sequential-loop", |b| {
        b.iter(|| {
            for request in &doubled {
                std::hint::black_box(sequential.execute(request).expect("valid"));
            }
        })
    });
    group.bench_function("batch-4-threads-cached", |b| {
        let engine = fx.batch_engine(4);
        b.iter(|| std::hint::black_box(engine.execute_batch(&doubled)))
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_sequential, bench_repeated_workload);
criterion_main!(benches);
