//! `serving` — the repo's one end-to-end benchmark.
//!
//! It stands up the deployed stack (durable engine behind the framed TCP
//! server, every option at its default) in a process of its own, drives it
//! over loopback with `acq_server::Client`, checks every answer, and prints
//! every metric by name and unit. See `README.md` next to this crate for the
//! workloads, the metrics and how they are meant to move together.
//!
//! ```text
//! serving --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! serving run     [--seed <n>] [--seconds <s>] [--repeat <r>] [--workload <name>]... [--quick] [--out <file>]
//! serving trace   --workload <name> [--seed <n>] [--out <spans.jsonl>] [--quick]
//! serving compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, one run,
//! one JSON object on the last line of stdout — end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`.

mod compare;
mod probes;
mod replay;
mod report;
mod spans;
mod stack;
mod stats;
mod trace;
mod wire;
mod workload;

use report::{END_TO_END, PER_LAYER};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use wire::Limit;
use workload::{Kind, Workload, WORKLOADS};

/// Seconds a run measures for when `--seconds` is not given; the value
/// `BENCHMARK.json` records as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The command line, parsed: one optional subcommand, flags with values,
/// and bare paths.
#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    repeat: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
    benchmark: PathBuf,
    paths: Vec<PathBuf>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            repeat: 1,
            benchmark: PathBuf::from("BENCHMARK.json"),
            ..Args::default()
        };
        while let Some(arg) = raw.next() {
            let mut value = |what: &str| raw.next().ok_or_else(|| format!("{arg} needs {what}"));
            let number = |text: String| {
                text.parse::<f64>().map_err(|_| format!("{arg}: {text:?} is not a number"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    args.workloads.push(
                        workload::find(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    let text = value("a seed")?;
                    args.seed =
                        text.parse().map_err(|_| format!("--seed: {text:?} is not a u64"))?;
                }
                "--seconds" => args.seconds = number(value("a duration")?)?,
                "--repeat" => args.repeat = number(value("a count")?)? as u64,
                "--trace" => args.trace = number(value("0 or 1")?)? != 0.0,
                "--quick" => args.quick = true,
                "--out" => args.out = Some(value("a file")?.into()),
                "--dir" => args.dir = Some(value("a directory")?.into()),
                "--benchmark" => args.benchmark = value("a file")?.into(),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ if args.command.is_none() && args.paths.is_empty() && is_command(&arg) => {
                    args.command = Some(arg);
                }
                _ => args.paths.push(arg.into()),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(args)
    }

    fn one_workload(&self) -> Result<&'static Workload, String> {
        match self.workloads[..] {
            [workload] => Ok(workload),
            _ => Err(format!(
                "name exactly one --workload of: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    }
}

fn is_command(word: &str) -> bool {
    matches!(word, "run" | "trace" | "compare" | "serve")
}

/// One untraced run of one workload: the run and its end-to-end metrics,
/// rendered with or without the sample count beside each timing.
fn measure(
    workload: &Workload,
    args: &Args,
    seed: u64,
    with_samples: bool,
) -> Result<(wire::WireRun, Value), String> {
    let graph = Arc::new(acq_datagen::generate(&workload.profile(args.quick)));
    let run = wire::run(workload, &graph, args.quick, seed, Limit::Seconds(args.seconds))?;
    if report::primary_latencies(workload, &run).is_empty() {
        return Err(format!("{} completed no operation in {} s", workload.name, args.seconds));
    }
    let metrics = report::end_to_end(workload, &run);
    Ok((run, metrics.to_json(END_TO_END, with_samples)?))
}

/// One traced run of one workload; writes the span file.
fn traced(workload: &Workload, args: &Args) -> Result<Value, String> {
    let traced = trace::run(workload, args.quick, args.seed)?;
    let spans = args
        .out
        .clone()
        .unwrap_or_else(|| stack::exe_dir().join(format!("serving-trace-{}.jsonl", workload.name)));
    traced.recorder.write_jsonl(&spans).map_err(|e| format!("write {}: {e}", spans.display()))?;
    eprintln!("{} spans written to {}", traced.recorder.spans().len(), spans.display());
    let metrics = traced.metrics.to_json(PER_LAYER, false)?;
    Ok(report::result_json(traced.attempted, traced.failed, metrics))
}

/// The contract form: one run, one result object on the last line.
fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args.one_workload()?;
    let result = if args.trace {
        traced(workload, args)?
    } else {
        // The contract's metric objects hold a value and a unit, no more.
        let (run, metrics) = measure(workload, args, args.seed, false)?;
        report::result_json(run.attempted(), run.failed(), metrics)
    };
    println!("{}", report::render(&result));
    Ok(ExitCode::SUCCESS)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |hash| hash.trim().to_owned())
}

/// What a run did beyond the bounded metrics: operation counts, the highest
/// percentile its sample supports, and the write path's recovery and write
/// amplification where the workload has them.
fn extras(workload: &Workload, run: &wire::WireRun) -> Value {
    let float = |v: f64| Value::Float(v);
    let ops = stats::Summary::new(report::primary_latencies(workload, run).to_vec());
    let mut fields = vec![
        ("wall_s".to_owned(), float(run.wall_s)),
        ("read_operations".to_owned(), Value::UInt(run.reads.latency_us.len() as u64)),
        ("queries_ok".to_owned(), Value::UInt(run.reads.queries_ok)),
        ("updates_acknowledged".to_owned(), Value::UInt(run.writes.latency_us.len() as u64)),
        ("failed_ratio".to_owned(), float(run.failed() as f64 / run.attempted().max(1) as f64)),
    ];
    let (q1, _, q3) = ops.quartiles();
    fields.push(("op_q1_ms".to_owned(), float(q1 / 1e3)));
    fields.push(("op_q3_ms".to_owned(), float(q3 / 1e3)));
    if let Some(p) = ops.highest_supported() {
        fields.push(("op_tail_percentile".to_owned(), float(p)));
        fields.push(("op_tail_ms".to_owned(), float(ops.percentile(p) / 1e3)));
    }
    if workload.kind == Kind::Mixed {
        let updates = stats::Summary::new(run.writes.latency_us.clone());
        fields.push(("paced_update_p50_ms".to_owned(), float(updates.median() / 1e3)));
        fields.push(("paced_update_p95_ms".to_owned(), float(updates.percentile(95.0) / 1e3)));
    }
    if let Some(recovery) = run.recovery {
        fields.push(("recovery_s".to_owned(), float(recovery.seconds)));
        fields.push(("records_replayed".to_owned(), Value::UInt(recovery.records_replayed)));
    }
    if let (Some(d), true) = (run.server.durability, run.server.server.updates_applied > 0) {
        // Every compaction so far wrote a snapshot of about the current size.
        let written = d.log_bytes_appended + d.compactions * d.snapshot_bytes;
        let per_update = written as f64 / run.server.server.updates_applied as f64;
        fields.push(("log_bytes_per_update".to_owned(), float(per_update)));
    }
    Value::Object(fields)
}

/// `serving run`: every workload (or the named ones), `--repeat` times on
/// consecutive seeds, as one result document.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<&Workload> =
        if args.workloads.is_empty() { WORKLOADS.iter().collect() } else { args.workloads.clone() };
    let mut runs = Vec::new();
    let mut failed = 0;
    for workload in workloads {
        for seed in args.seed..args.seed + args.repeat {
            eprintln!("{} seed {seed}: measuring for {} s", workload.name, args.seconds);
            let (run, metrics) = measure(workload, args, seed, true)?;
            failed += run.failed();
            runs.push(Value::Object(vec![
                ("workload".to_owned(), Value::Str(workload.name.to_owned())),
                ("seed".to_owned(), Value::UInt(seed)),
                ("attempted".to_owned(), Value::UInt(run.attempted())),
                ("failed".to_owned(), Value::UInt(run.failed())),
                ("metrics".to_owned(), metrics),
                ("extras".to_owned(), extras(workload, &run)),
            ]));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let document = Value::Object(vec![
        ("benchmark".to_owned(), Value::Str("serving".to_owned())),
        ("commit".to_owned(), Value::Str(commit())),
        ("nproc".to_owned(), Value::UInt(nproc as u64)),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("seconds".to_owned(), Value::Float(args.seconds)),
        ("quick".to_owned(), Value::Bool(args.quick)),
        ("runs".to_owned(), Value::Array(runs)),
    ]);
    let text = report::render(&document);
    if let Some(out) = &args.out {
        std::fs::write(out, &text).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    println!("{text}");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.command.as_deref() {
        None => single(args),
        Some("run") => run_all(args),
        Some("trace") => {
            println!("{}", report::render(&traced(args.one_workload()?, args)?));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args.paths[..] {
            [a, b] => compare::run(&args.benchmark, a, b).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare takes two result documents".to_owned()),
        },
        Some("serve") => {
            let dir = args.dir.as_deref().ok_or("serve needs --dir")?;
            stack::serve(args.one_workload()?, args.quick, dir).map(|()| ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("serving: {message}");
            ExitCode::from(2)
        }
    }
}
