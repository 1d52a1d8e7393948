//! One run of a workload against the deployed stack over loopback TCP.
//!
//! The run owns the whole life of the server process: spawn (which times the
//! set-ups), verify, warm up, measure, read the server's counters and peak
//! memory, kill it, and — after a write stream — recover its directory and
//! check that every acknowledged update survived.

use crate::stack::{self, ServerProcess, TempDir};
use crate::workload::{degree_bound, DeltaStream, Kind, QueryPool, Workload, PACED_UPDATES_PER_S};
use acq_core::{AcqResult, Engine, Executor, Request, Response, UpdateReport};
use acq_durable::{DurableEngine, DurableOptions};
use acq_graph::{AttributedGraph, GraphDelta};
use acq_metrics::serving::MetricsSnapshot;
use acq_server::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Pings timed before the measured phase for the round-trip floor.
const PINGS: usize = 200;

/// A duration in µs, nanosecond fraction kept.
fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// How long the measured phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Untraced runs measure for a fixed time.
    Seconds(f64),
    /// Traced runs do the workload's fixed operation counts, so that the
    /// counters they report repeat exactly.
    TracedCounts,
}

/// What the client threads saw of the read path.
#[derive(Debug, Default)]
pub struct ReadSide {
    /// Latency of each read operation (one query, or one burst), µs.
    pub latency_us: Vec<f64>,
    /// Per operation: (latency − Σ `meta.wall_time_us`) ÷ queries, µs.
    pub overhead_us: Vec<f64>,
    pub queries_ok: u64,
    pub attempted: u64,
    pub failed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub candidates: u64,
    pub members: u64,
}

impl ReadSide {
    fn absorb(&mut self, other: ReadSide) {
        self.latency_us.extend(other.latency_us);
        self.overhead_us.extend(other.overhead_us);
        self.queries_ok += other.queries_ok;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.candidates += other.candidates;
        self.members += other.members;
    }
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriteSide {
    /// `Client::update` → `UpdateOk`, µs; from the due time when paced.
    pub latency_us: Vec<f64>,
    /// How late the paced writer sent each update, µs (empty when closed-loop).
    pub lag_us: Vec<f64>,
    pub reports: Vec<UpdateReport>,
    pub acknowledged: Vec<GraphDelta>,
    pub attempted: u64,
    pub failed: u64,
}

/// What reopening the killed server's directory found.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub seconds: f64,
    pub records_replayed: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct WireRun {
    pub setups_s: Vec<f64>,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    pub ping_us: Vec<f64>,
    pub reads: ReadSide,
    pub writes: WriteSide,
    pub server: MetricsSnapshot,
    pub peak_rss_mb: f64,
    pub recovery: Option<Recovery>,
    /// Answers checked outside the measured phase (final state, recovery).
    pub checks_attempted: u64,
    pub checks_failed: u64,
}

impl WireRun {
    pub fn attempted(&self) -> u64 {
        self.reads.attempted + self.writes.attempted + self.checks_attempted
    }

    pub fn failed(&self) -> u64 {
        self.reads.failed + self.writes.failed + self.checks_failed
    }
}

/// The reference the answers are held against: an in-process engine over the
/// same graph, and the expected result of every request of the pool.
struct Reference {
    pool: QueryPool,
    expected: Vec<AcqResult>,
}

impl Reference {
    fn new(workload: &Workload, engine: &Engine, k: usize, seed: u64) -> Result<Self, String> {
        let index = engine.index();
        let pool = QueryPool::new(workload, index.decomposition().core_numbers(), k, seed);
        let expected = engine
            .execute_batch(&pool.requests)
            .into_iter()
            .map(|answer| answer.map(|response| response.result))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reference engine rejected a generated query: {e}"))?;
        Ok(Self { pool, expected })
    }
}

/// An answer is right if it equals the reference's while the server is still
/// on the generation the reference was built for. Once writes have moved it
/// on, the exact answer is checked at the end of the run; in between, every
/// community must at least hold its anchor.
fn answer_is_right(
    response: &Response,
    request: &Request,
    expected: &AcqResult,
    base_generation: u64,
) -> bool {
    if response.meta.generation == base_generation {
        response.result == *expected
    } else {
        response.result.communities.iter().all(|c| c.vertices.contains(&request.vertex))
    }
}

/// Shared by the client threads of one measured phase.
struct Phase<'a> {
    workload: &'a Workload,
    reference: &'a Reference,
    base_generation: u64,
    seed: u64,
    limit: Limit,
    /// All client threads connect and warm up, then start together.
    start: &'a Barrier,
    /// Set by the paced writer when its schedule ends; stops a mixed reader.
    writer_done: &'a AtomicBool,
}

impl Phase<'_> {
    fn deadline(&self, started: Instant) -> Option<Instant> {
        match self.limit {
            Limit::Seconds(s) => Some(started + Duration::from_secs_f64(s)),
            Limit::TracedCounts => None,
        }
    }
}

/// One read connection: warm up, then closed-loop until the phase ends.
/// Returns what it saw and when its measured phase started and ended.
fn read_loop(
    phase: &Phase<'_>,
    connection: u64,
    mut client: Client,
) -> (ReadSide, Instant, Instant) {
    let per_op = phase.workload.queries_per_op();
    let mut stream = phase.reference.pool.stream(phase.seed, connection);
    let mut side = ReadSide::default();
    let mut picks = Vec::with_capacity(per_op);
    let mut batch: Vec<Request> = Vec::with_capacity(per_op);

    let mut operation = |side: &mut ReadSide, timed: bool| {
        picks.clear();
        picks.extend(stream.by_ref().take(per_op));
        batch.clear();
        batch.extend(picks.iter().map(|&i| phase.reference.pool.requests[i].clone()));
        let sent = Instant::now();
        let answers = if per_op == 1 {
            client.query(&batch[0]).map(|response| vec![Ok(response)])
        } else {
            client.query_batch(&batch)
        };
        let latency_us = micros(sent.elapsed());
        side.attempted += per_op as u64;
        let answers = match answers {
            Ok(answers) => answers,
            Err(error) => {
                eprintln!("read failed: {error}");
                side.failed += per_op as u64;
                return;
            }
        };
        let mut engine_us = 0.0;
        for (&pick, answer) in picks.iter().zip(&answers) {
            let expected = &phase.reference.expected[pick];
            let request = &phase.reference.pool.requests[pick];
            match answer {
                Ok(response)
                    if answer_is_right(response, request, expected, phase.base_generation) =>
                {
                    side.queries_ok += 1;
                    side.cache_hits += response.meta.cache_hits;
                    side.cache_misses += response.meta.cache_misses;
                    side.candidates += response.result.stats.candidates_verified as u64;
                    side.members += response
                        .result
                        .communities
                        .iter()
                        .map(|c| c.vertices.len() as u64)
                        .sum::<u64>();
                    engine_us += response.meta.wall_time_us as f64;
                }
                wrong => {
                    if side.failed < 3 {
                        eprintln!("wrong answer to {request:?}: {wrong:?}");
                    }
                    side.failed += 1;
                }
            }
        }
        if timed {
            side.latency_us.push(latency_us);
            side.overhead_us.push((latency_us - engine_us).max(0.0) / per_op as f64);
        }
    };

    // Warm-up answers are verified like any other but not timed; their
    // counts are dropped so that rates cover the measured phase only.
    let mut warmup = ReadSide::default();
    for _ in 0..phase.workload.warmup {
        operation(&mut warmup, false);
    }
    side.failed += warmup.failed;
    side.attempted += warmup.failed;

    phase.start.wait();
    let started = Instant::now();
    let deadline = phase.deadline(started);
    let mut done = 0usize;
    loop {
        let over = match (phase.workload.kind, deadline) {
            (Kind::Mixed, _) => phase.writer_done.load(Ordering::Acquire),
            (_, Some(deadline)) => Instant::now() >= deadline,
            (_, None) => done >= phase.workload.traced_reads,
        };
        if over {
            break;
        }
        operation(&mut side, true);
        done += 1;
    }
    (side, started, Instant::now())
}

/// The write connection: closed-loop for a write stream, paced open-loop
/// beside the reader of a mixed workload.
fn write_loop(
    phase: &Phase<'_>,
    deltas: &mut DeltaStream<'_>,
    mut client: Client,
) -> (WriteSide, Instant, Instant) {
    // However this thread ends, a mixed reader must not wait for it forever.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let _done = Done(phase.writer_done);
    let mut side = WriteSide::default();
    let mut generation = phase.base_generation;

    // A timed update's latency runs from its due time when it has one (the
    // paced writer), else from the moment it was sent.
    let mut update = |side: &mut WriteSide, timed: bool, due: Option<Instant>| {
        let delta = deltas.next().expect("the delta stream is endless");
        let sent = Instant::now();
        let answer = client.update(std::slice::from_ref(&delta));
        let acked = Instant::now();
        side.attempted += 1;
        match answer {
            Ok(report) if report.generation == generation + 1 && report.deltas_applied == 1 => {
                generation = report.generation;
                if timed {
                    let from = due.unwrap_or(sent);
                    side.latency_us.push(micros(acked.duration_since(from)));
                    side.reports.push(report);
                }
                side.acknowledged.push(delta);
            }
            Ok(report) => {
                // Acknowledged, so part of the durable history, but wrong.
                eprintln!("update {delta:?} after generation {generation} reported {report:?}");
                generation = report.generation;
                side.acknowledged.push(delta);
                side.failed += 1;
            }
            Err(error) => {
                eprintln!("update {delta:?} failed: {error}");
                side.failed += 1;
            }
        }
    };

    let paced = phase.workload.kind == Kind::Mixed;
    if !paced {
        let mut warmup = WriteSide::default();
        for _ in 0..phase.workload.warmup {
            update(&mut warmup, false, None);
        }
        side.acknowledged = warmup.acknowledged;
        side.failed += warmup.failed;
        side.attempted += warmup.failed;
    }

    phase.start.wait();
    let started = Instant::now();
    if paced {
        let interval = Duration::from_micros(1_000_000 / PACED_UPDATES_PER_S);
        let scheduled = match phase.limit {
            Limit::Seconds(s) => (s * PACED_UPDATES_PER_S as f64) as u32,
            Limit::TracedCounts => phase.workload.traced_updates as u32,
        };
        for i in 0..scheduled {
            let due = started + interval * i;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            side.lag_us.push(micros(Instant::now().saturating_duration_since(due)));
            update(&mut side, true, Some(due));
        }
    } else {
        let deadline = phase.deadline(started);
        let mut done = 0usize;
        while deadline.map_or(done < phase.workload.traced_updates, |d| Instant::now() < d) {
            update(&mut side, true, None);
            done += 1;
        }
    }
    (side, started, Instant::now())
}

/// A client thread's result; a panic in it is the run's error, not a crash.
fn joined<T>(name: &str, handle: std::thread::ScopedJoinHandle<'_, T>) -> Result<T, String> {
    handle.join().map_err(|_| format!("the {name} thread panicked"))
}

/// Sends every request of `reference`'s pool over `client` and counts the
/// answers that differ from the expected ones.
fn check_pool(client: &mut Client, reference: &Reference) -> (u64, u64) {
    let mut failed = 0;
    for (request, expected) in reference.pool.requests.iter().zip(&reference.expected) {
        if !matches!(client.query(request), Ok(response) if response.result == *expected) {
            failed += 1;
        }
    }
    (reference.pool.requests.len() as u64, failed)
}

/// The engine a server must be equivalent to after `acknowledged`: a fresh
/// build over the base graph with the deltas applied to it directly.
fn fresh_reference(
    workload: &Workload,
    graph: &AttributedGraph,
    acknowledged: &[GraphDelta],
    k: usize,
    seed: u64,
) -> Result<Reference, String> {
    let updated = graph
        .apply_deltas(acknowledged)
        .map_err(|e| format!("acknowledged deltas do not apply to the base graph: {e}"))?;
    Reference::new(workload, &Engine::new(Arc::new(updated)), k, seed)
}

/// Reopens the directory the killed server left and holds the recovered
/// engine against [`fresh_reference`].
fn recover_and_check(
    workload: &Workload,
    state_dir: &std::path::Path,
    graph: &Arc<AttributedGraph>,
    writes: &WriteSide,
    base_generation: u64,
    k: usize,
    seed: u64,
) -> Result<(Recovery, u64, u64), String> {
    let fresh = fresh_reference(workload, graph, &writes.acknowledged, k, seed)?;
    let started = Instant::now();
    let (durable, report) =
        DurableEngine::open_dir(state_dir, Arc::clone(graph), DurableOptions::default())
            .map_err(|e| format!("reopen {}: {e}", state_dir.display()))?;
    let first = durable.execute(&fresh.pool.requests[0]);
    let seconds = started.elapsed().as_secs_f64();

    // A recovered engine numbers its generations from the snapshot it loaded,
    // so what must match is the log suffix: every record acknowledged since
    // the last compaction is replayed, none is lost and none is skipped.
    let acknowledged = writes.acknowledged.len() as u64;
    let suffix = acknowledged % DurableOptions::default().compact_every.max(1);
    let mut failed = u64::from(first.is_err());
    if report.records_replayed != suffix
        || report.batches_skipped != 0
        || report.generation != base_generation + suffix
    {
        eprintln!("recovery after {acknowledged} acknowledged updates found {report:?}");
        failed += 1;
    }
    for (request, expected) in fresh.pool.requests.iter().zip(&fresh.expected) {
        // "Byte-identical": the comparison is of the serialized answers.
        let same = durable.execute(request).is_ok_and(|response| {
            serde_json::to_string(&response.result).ok() == serde_json::to_string(expected).ok()
        });
        if !same {
            eprintln!("recovered engine and fresh engine disagree on {request:?}");
            failed += 1;
        }
    }
    let recovery = Recovery { seconds, records_replayed: report.records_replayed };
    Ok((recovery, 2 + fresh.pool.requests.len() as u64, failed))
}

/// Runs `workload` once. `graph` is the workload's graph, generated by the
/// caller (the server process generates its own copy from the same profile).
pub fn run(
    workload: &Workload,
    graph: &Arc<AttributedGraph>,
    quick: bool,
    seed: u64,
    limit: Limit,
) -> Result<WireRun, String> {
    let k = degree_bound(quick);
    let dir = TempDir::new(workload.name).map_err(|e| format!("scratch directory: {e}"))?;
    // The driver stays idle until the server reports ready, so the set-up
    // times are the server's alone.
    let server = ServerProcess::spawn(workload, quick, dir.path())?;

    let reference = Reference::new(workload, &Engine::new(Arc::clone(graph)), k, seed)?;
    // A connection for what is not load: generation, pings, counters. The
    // server reaps a connection that stays silent for 30 s, so it is not
    // kept across the measured phase.
    let mut control = stack::connect(server.addr)?;
    let base_generation = control.metrics().map_err(|e| format!("metrics: {e}"))?.generation;
    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let sent = Instant::now();
        control.ping().map_err(|e| format!("ping: {e}"))?;
        ping_us.push(micros(sent.elapsed()));
    }
    drop(control);

    let writers = usize::from(matches!(workload.kind, Kind::WriteStream | Kind::Mixed));
    let start = Barrier::new(workload.readers + writers);
    let writer_done = AtomicBool::new(false);
    let phase = Phase {
        workload,
        reference: &reference,
        base_generation,
        seed,
        limit,
        start: &start,
        writer_done: &writer_done,
    };
    let mut deltas = DeltaStream::new(graph, seed);

    // Every connection is made before any thread starts: a thread that could
    // fail on its way to the start barrier would leave the others waiting.
    let mut clients = Vec::new();
    for _ in 0..workload.readers + writers {
        clients.push(stack::connect(server.addr)?);
    }
    let write_client = (writers == 1).then(|| clients.pop().expect("one client per thread"));
    let phase = &phase;
    let (read_results, write_result) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0u64..)
            .zip(clients)
            .map(|(connection, client)| scope.spawn(move || read_loop(phase, connection, client)))
            .collect();
        let writer =
            write_client.map(|client| scope.spawn(|| write_loop(phase, &mut deltas, client)));
        (
            readers.into_iter().map(|handle| joined("reader", handle)).collect::<Vec<_>>(),
            writer.map(|handle| joined("writer", handle)),
        )
    });

    let mut reads = ReadSide::default();
    let mut windows = Vec::new();
    for result in read_results {
        let (side, started, ended) = result?;
        reads.absorb(side);
        windows.push((started, ended));
    }
    let mut writes = WriteSide::default();
    if let Some(result) = write_result {
        let (side, started, ended) = result?;
        writes = side;
        windows.push((started, ended));
    }
    let first = windows.iter().map(|s| s.0).min().expect("every workload has a client thread");
    let last = windows.iter().map(|s| s.1).max().expect("every workload has a client thread");
    let wall_s = last.duration_since(first).as_secs_f64();

    let mut control = stack::connect(server.addr)?;
    let (mut checks_attempted, mut checks_failed) = (0, 0);
    if workload.kind == Kind::Mixed {
        // The hot set once more, now against a fresh build over everything
        // the server acknowledged: the exact check the run itself could not
        // make while generations were moving.
        let fresh = fresh_reference(workload, graph, &writes.acknowledged, k, seed)?;
        (checks_attempted, checks_failed) = check_pool(&mut control, &fresh);
    }

    let snapshot = control.metrics().map_err(|e| format!("metrics: {e}"))?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let setups_s = server.setups_s.clone();
    drop(control);
    server.kill();

    let mut recovery = None;
    if workload.kind == Kind::WriteStream {
        let state_dir = stack::state_dir(dir.path());
        let (found, attempted, failed) =
            recover_and_check(workload, &state_dir, graph, &writes, base_generation, k, seed)?;
        recovery = Some(found);
        checks_attempted += attempted;
        checks_failed += failed;
    }

    Ok(WireRun {
        setups_s,
        wall_s,
        ping_us,
        reads,
        writes,
        server: snapshot,
        peak_rss_mb,
        recovery,
        checks_attempted,
        checks_failed,
    })
}
