//! The traced run: per-layer numbers taken from outside the program.
//!
//! Four sources feed the per-layer table. Kernel probes time each crate's
//! public functions on the workload's inputs; the staged replay walks a
//! fixed sample of reads and writes through every stage of their life with
//! one span per stage; reopening the staged writer's directory gives the
//! recovery numbers; and a count-sized run against the deployed stack gives
//! what only the running server knows (round-trip floor, serving overhead,
//! batching, cache and admission counters). End-to-end metrics never come
//! from here.

use crate::probes::{self, timed, Inputs};
use crate::replay::{self, StagedWriter};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stack::TempDir;
use crate::stats::{median_f64, Summary};
use crate::wire::{self, Limit, WireRun};
use crate::workload::{degree_bound, DeltaStream, QueryPool, Workload};
use acq_cltree::build_advanced;
use acq_core::{Engine, Executor, Request, UpdateReport, UpdateStrategy};
use acq_durable::{DurableEngine, DurableOptions};
use acq_graph::GraphDelta;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Reads walked through the staged replay.
const STAGED_READS: usize = 300;

/// Writes walked through the staged replay: past one compaction (64
/// records), leaving a log suffix for recovery to replay.
const STAGED_WRITES: usize = 72;

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A traced run's metrics, the spans behind them, and what it checked.
pub struct Traced {
    pub metrics: Metrics,
    pub recorder: Recorder,
    pub attempted: u64,
    pub failed: u64,
}

pub fn run(workload: &Workload, quick: bool, seed: u64) -> Result<Traced, String> {
    let k = degree_bound(quick);
    let mut out = Metrics::default();

    let (graph, generate_us) = timed(|| acq_datagen::generate(&workload.profile(quick)));
    out.set("datagen.generate_s", generate_us / 1e6);
    let graph = Arc::new(graph);
    let index = Arc::new(build_advanced(&graph, true));
    let engine = || Engine::builder(Arc::clone(&graph)).index(Arc::clone(&index)).build();

    // The workload's own inputs: the first draws of its read stream (and the
    // distinct requests of its pool, drawn ones first), the head of its
    // delta stream.
    let pool = QueryPool::new(workload, index.decomposition().core_numbers(), k, seed);
    let draws: Vec<usize> = pool.stream(seed, 0).take(STAGED_READS).collect();
    let mut seen = HashSet::new();
    let distinct: Vec<Request> = draws
        .iter()
        .copied()
        .chain(0..pool.requests.len())
        .filter(|&pick| seen.insert(pick))
        .map(|pick| pool.requests[pick].clone())
        .collect();
    let deltas: Vec<GraphDelta> = DeltaStream::new(&graph, seed).take(STAGED_WRITES + 64).collect();

    let inputs = Inputs { graph: &graph, index: &index, requests: &distinct, deltas: &deltas, k };
    probes::graph_layer(&inputs, &mut out)?;
    probes::kcore_layer(&inputs, &mut out)?;
    probes::cltree_layer(&inputs, &mut out)?;
    probes::fpm_layer(&inputs, &mut out);
    probes::core_read_layer(&inputs, &mut out)?;
    probes::core_write_layer(&inputs, &mut out)?;
    let scratch = TempDir::new("trace").map_err(|e| format!("scratch directory: {e}"))?;
    probes::fsync_probe(&scratch.path().join("fsync"), &mut out)?;

    // The staged reads twice, each on an engine of its own so that both
    // start cold: first with recording off, then on. The ratio of the two
    // wall times is what recording costs.
    let staged_reads = |recorder: &mut Recorder| -> Result<f64, String> {
        let engine = engine();
        let started = Instant::now();
        for (id, &pick) in draws.iter().enumerate() {
            replay::read(recorder, &engine, id as u64, &pool.requests[pick])?;
        }
        Ok(started.elapsed().as_secs_f64())
    };
    let untraced_s = staged_reads(&mut Recorder::new(false))?;
    let mut recorder = Recorder::new(true);
    let traced_s = staged_reads(&mut recorder)?;
    out.set("driver.trace_overhead_ratio", ratio(traced_s, untraced_s));
    read_stages(&recorder, &mut out);

    let staged_dir = scratch.path().join("staged");
    let mut writer = StagedWriter::open(&staged_dir, engine())?;
    for (id, delta) in deltas.iter().take(STAGED_WRITES).enumerate() {
        writer.write(&mut recorder, (STAGED_READS + id) as u64, delta)?;
    }
    write_stages(&recorder, &writer, &mut out);
    drop(writer);

    // Recovery of what the staged writer left: the snapshot of its one
    // compaction and the log suffix written since.
    let started = Instant::now();
    let (recovered, found) =
        DurableEngine::open_dir(&staged_dir, Arc::clone(&graph), DurableOptions::default())
            .map_err(|e| format!("reopen the staged log: {e}"))?;
    let answered = recovered.execute(&pool.requests[0]).is_ok();
    let recovery_s = started.elapsed().as_secs_f64();
    let suffix = STAGED_WRITES as u64 % DurableOptions::default().compact_every.max(1);
    if !answered || found.records_replayed != suffix || found.batches_skipped != 0 {
        return Err(format!("staged recovery should replay {suffix} records, found {found:?}"));
    }
    out.set("durable.recovery_s", recovery_s);
    out.set("durable.replay_ms_per_record", ratio(recovery_s * 1e3, found.records_replayed as f64));
    drop(recovered);

    let wire = wire::run(workload, &graph, quick, seed, Limit::TracedCounts)?;
    wire_counters(workload, &wire, &recorder, &mut out);

    let staged = (STAGED_READS + STAGED_WRITES) as u64;
    Ok(Traced {
        metrics: out,
        recorder,
        attempted: staged + wire.attempted(),
        failed: wire.failed(),
    })
}

/// The read path's stages, from the staged replay's spans.
fn read_stages(recorder: &Recorder, out: &mut Metrics) {
    out.set("core.execute_dec_us", recorder.median_us("read", "core.execute"));
    out.set(
        "core.candidates_per_query",
        mean(&recorder.counts("read", "core.execute", "candidates")),
    );
    out.set("core.members_per_response", mean(&recorder.counts("read", "core.execute", "members")));
    out.set("server.request_encode_us", recorder.median_us("read", "client.encode"));
    out.set("server.request_decode_us", recorder.median_us("read", "server.decode"));
    out.set("server.response_encode_us", recorder.median_us("read", "server.encode"));
    out.set("server.response_decode_us", recorder.median_us("read", "client.decode"));
    out.set("server.request_bytes", median_f64(&recorder.counts("read", "client.encode", "bytes")));
    out.set(
        "server.response_bytes",
        median_f64(&recorder.counts("read", "server.encode", "bytes")),
    );
}

/// The write path's stages and exact counts, from the staged replay.
fn write_stages(recorder: &Recorder, writer: &StagedWriter, out: &mut Metrics) {
    let stage_ms = |name| recorder.median_us("write", name) / 1e3;
    out.set("durable.encode_record_us", recorder.median_us("write", "durable.encode_record"));
    out.set(
        "durable.log_bytes_per_record",
        median_f64(&recorder.counts("write", "durable.encode_record", "bytes")),
    );
    out.set("durable.append_sync_ms", stage_ms("durable.append_sync"));
    out.set("durable.compact_ms", stage_ms("durable.compact"));
    out.set("durable.compactions", recorder.count("write", "durable.compact") as f64);
    out.set("durable.snapshot_bytes", writer.snapshot_bytes() as f64);
    let writes = writer.reports.len() as f64;
    out.set("durable.log_bytes_per_update", ratio(writer.bytes_written as f64, writes));

    let share = |strategy: UpdateStrategy| {
        ratio(writer.reports.iter().filter(|r| r.strategy == strategy).count() as f64, writes)
    };
    out.set("core.rebuild_ratio", share(UpdateStrategy::FullRebuild));
    out.set("core.stable_skeleton_ratio", share(UpdateStrategy::IncrementalStableSkeleton));
    let touched: Vec<f64> = writer.reports.iter().map(|r| r.subcore_touched as f64).collect();
    out.set("core.subcore_touched_mean", mean(&touched));
}

/// What only the running server and its clients know.
fn wire_counters(workload: &Workload, wire: &WireRun, recorder: &Recorder, out: &mut Metrics) {
    let us = |samples: &[f64]| Summary::new(samples.to_vec());
    let ping = us(&wire.ping_us).median();
    let overhead = us(&wire.reads.overhead_us).median();
    out.set("server.ping_rtt_us", ping);
    out.set("server.overhead_us", overhead);
    // What is left of the per-query overhead once the round trip (shared by
    // the queries of a burst) and the four codec stages are taken out: the
    // queue hop, thread wake-ups and syscalls. Zero without reads.
    let per_op = workload.queries_per_op() as f64;
    let codec: f64 = ["client.encode", "server.decode", "server.encode", "client.decode"]
        .iter()
        .map(|stage| recorder.median_us("read", stage))
        .sum();
    let has_reads = !wire.reads.overhead_us.is_empty();
    out.set("server.residual_us", if has_reads { overhead - ping / per_op - codec } else { 0.0 });

    let server = &wire.server.server;
    out.set(
        "server.mean_batch",
        ratio(server.queries_served as f64, server.batches_executed as f64),
    );
    out.set("server.max_batch", server.max_batch as f64);
    out.set("server.admission_rejections", server.admission_rejections as f64);
    out.set("server.deadline_shed", server.deadline_shed as f64);
    out.set("server.dedup_hits", server.dedup_hits as f64);

    let lookups = wire.reads.cache_hits + wire.reads.cache_misses;
    out.set("core.cache_hit_rate", ratio(wire.reads.cache_hits as f64, lookups as f64));
    let sum = |field: fn(&UpdateReport) -> u64| wire.writes.reports.iter().map(field).sum::<u64>();
    out.set("core.cache_carried", sum(|r| r.cache_carried) as f64);
    out.set("core.cache_dropped", sum(|r| r.cache_dropped) as f64);

    out.set("driver.read_p99_ms", us(&wire.reads.latency_us).percentile(99.0) / 1e3);
    let updates = us(&wire.writes.latency_us);
    out.set("driver.update_p50_ms", updates.median() / 1e3);
    out.set("driver.update_p95_ms", updates.percentile(95.0) / 1e3);
    out.set("driver.writer_lag_ms", us(&wire.writes.lag_us).median() / 1e3);
}
