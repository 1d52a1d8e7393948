//! Metric names, units and the JSON the benchmark prints.
//!
//! The two tables below are the code's half of `BENCHMARK.json`; the smoke
//! test fails when either side names a metric the other does not.

use crate::stats::Summary;
use crate::wire::WireRun;
use crate::workload::{Kind, Workload};
use serde::Value;

/// End-to-end metrics, printed by every workload of an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload of a traced run. The prefix
/// is the layer (crate) the number belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("graph.apply_delta_ms", "ms"),
    ("graph.snapshot_json_ms", "ms"),
    ("graph.snapshot_bytes", "bytes"),
    ("kcore.decompose_ms", "ms"),
    ("kcore.peel_us", "us"),
    ("kcore.component_us", "us"),
    ("kcore.maintain_edge_us", "us"),
    ("cltree.build_ms", "ms"),
    ("cltree.memory_mb", "MB"),
    ("cltree.locate_us", "us"),
    ("cltree.keyword_filter_us", "us"),
    ("cltree.maintain_edge_ms", "ms"),
    ("fpm.mine_us", "us"),
    ("core.execute_dec_us", "us"),
    ("core.execute_incs_us", "us"),
    ("core.execute_inct_us", "us"),
    ("core.execute_basicg_us", "us"),
    ("core.batch16_ms_t1", "ms"),
    ("core.batch16_ms_tn", "ms"),
    ("core.batch_speedup", "ratio"),
    ("core.sharded1_execute_dec_us", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.cache_carried", "count"),
    ("core.cache_dropped", "count"),
    ("core.candidates_per_query", "count"),
    ("core.members_per_response", "count"),
    ("core.apply_edge_ms", "ms"),
    ("core.apply_keyword_ms", "ms"),
    ("core.apply_vertex_ms", "ms"),
    ("core.apply_batch16_ms", "ms"),
    ("core.rebuild_ratio", "ratio"),
    ("core.stable_skeleton_ratio", "ratio"),
    ("core.subcore_touched_mean", "count"),
    ("server.ping_rtt_us", "us"),
    ("server.request_encode_us", "us"),
    ("server.request_decode_us", "us"),
    ("server.response_encode_us", "us"),
    ("server.response_decode_us", "us"),
    ("server.request_bytes", "bytes"),
    ("server.response_bytes", "bytes"),
    ("server.overhead_us", "us"),
    ("server.residual_us", "us"),
    ("server.mean_batch", "count"),
    ("server.max_batch", "count"),
    ("server.admission_rejections", "count"),
    ("server.deadline_shed", "count"),
    ("server.dedup_hits", "count"),
    ("durable.encode_record_us", "us"),
    ("durable.log_bytes_per_record", "bytes"),
    ("durable.append_sync_ms", "ms"),
    ("durable.fsync_ms", "ms"),
    ("durable.compact_ms", "ms"),
    ("durable.compactions", "count"),
    ("durable.snapshot_bytes", "bytes"),
    ("durable.log_bytes_per_update", "bytes"),
    ("durable.recovery_s", "s"),
    ("durable.replay_ms_per_record", "ms"),
    ("driver.read_p99_ms", "ms"),
    ("driver.update_p50_ms", "ms"),
    ("driver.update_p95_ms", "ms"),
    ("driver.writer_lag_ms", "ms"),
    ("driver.trace_overhead_ratio", "ratio"),
];

/// One measured value. `samples` is the number of raw timings behind a
/// percentile; counts and single readings have none.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

/// Named values collected by a run, rendered in a table's order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push(Metric { name, value, samples: None });
    }

    /// Records percentile `p` of `summary`, in the unit `per_unit` µs make.
    pub fn set_percentile(&mut self, name: &'static str, summary: &Summary, p: f64, per_unit: f64) {
        let value = summary.percentile(p) / per_unit;
        self.0.push(Metric { name, value, samples: Some(summary.count()) });
    }

    /// The metrics of `table`, in its order, as the `metrics` JSON object.
    /// Fails on a name the run did not set: a table and the code that fills
    /// it must not drift apart silently.
    pub fn to_json(&self, table: &[(&str, &str)], with_samples: bool) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let metric = self
                .0
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was never measured"))?;
            let mut entry = vec![
                ("value".to_owned(), Value::Float(metric.value)),
                ("unit".to_owned(), Value::Str(unit.to_owned())),
            ];
            if let (true, Some(samples)) = (with_samples, metric.samples) {
                entry.push(("samples".to_owned(), Value::UInt(samples as u64)));
            }
            fields.push((name.to_owned(), Value::Object(entry)));
        }
        Ok(Value::Object(fields))
    }
}

/// The latencies of the operation a workload is about: updates for the write
/// stream, reads (single queries or bursts) everywhere else.
pub fn primary_latencies<'a>(workload: &Workload, run: &'a WireRun) -> &'a [f64] {
    match workload.kind {
        Kind::WriteStream => &run.writes.latency_us,
        _ => &run.reads.latency_us,
    }
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(workload: &Workload, run: &WireRun) -> Metrics {
    let ops = Summary::new(primary_latencies(workload, run).to_vec());
    let mut metrics = Metrics::default();
    metrics.set("setup_s", crate::stats::median_f64(&run.setups_s));
    metrics.set_percentile("op_p50_ms", &ops, 50.0, 1e3);
    metrics.set_percentile("op_p90_ms", &ops, 90.0, 1e3);
    metrics.set("ops_per_s", ops.count() as f64 / run.wall_s);
    metrics.set("peak_rss_mb", run.peak_rss_mb);
    metrics
}

/// The result object of one run: exactly the keys the benchmark contract
/// names, `metrics` rendered by [`Metrics::to_json`].
pub fn result_json(attempted: u64, failed: u64, metrics: Value) -> Value {
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(failed == 0)),
        ("attempted".to_owned(), Value::UInt(attempted)),
        ("failed".to_owned(), Value::UInt(failed)),
        ("metrics".to_owned(), metrics),
    ])
}

/// Renders a value tree as JSON text.
pub fn render(value: &Value) -> String {
    struct Tree<'a>(&'a Value);
    impl serde::Serialize for Tree<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(value)).expect("a value tree always renders")
}
