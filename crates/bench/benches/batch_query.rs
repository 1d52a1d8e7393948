//! Batch-vs-sequential micro-benchmark for the unified `Executor` surface:
//! the same `Request` workload through (a) a sequential `Engine` loop, (b) a
//! single-threaded `Engine` batch (isolates the batch path from threading)
//! and (c) a multi-threaded one (adds the worker-pool fan-out).
//!
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
        let engine = fx.engine(1);
        b.iter(|| std::hint::black_box(engine.execute_batch(&requests)))
    });
    group.bench_function("batch-4-threads", |b| {
        let engine = fx.engine(4);
        b.iter(|| std::hint::black_box(engine.execute_batch(&requests)))
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_sequential);
criterion_main!(benches);
