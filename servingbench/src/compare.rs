//! `serving compare <a.json> <b.json>`: holds two result documents of
//! `serving run` against the bounds in `BENCHMARK.json`.
//!
//! One row per (workload, end-to-end metric): both medians, the ratio with
//! its base, and a verdict. `regressed` means `b` is worse than `a` by more
//! than the metric's bound; `unresolved` means the runs of one side spread
//! wider than the bound, so neither "worse" nor "unchanged" can be said —
//! unless every run of `b` reads better than every run of `a`.

use crate::stats::{median_f64, relative_iqr};
use serde::Value;
use std::path::Path;

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match value.get_field(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("no array {key:?} in the document")),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    match value.get_field(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(format!("no string {key:?} in {value:?}")),
    }
}

/// The values of `metric` over the document's runs of `workload`.
fn readings(document: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let mut values = Vec::new();
    for run in array(document, "runs")? {
        if text(run, "workload")? != workload {
            continue;
        }
        let value = run
            .get_field("metrics")
            .and_then(|m| m.get_field(metric))
            .and_then(|m| m.get_field("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("a run of {workload} has no {metric}"))?;
        values.push(value);
    }
    Ok(values)
}

/// The verdict on one metric of one workload.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (&'static str, f64) {
    let (base, changed) = (median_f64(a), median_f64(b));
    let worse_by = if lower_is_better { changed - base } else { base - changed } / base.abs();
    let wide = [a, b].iter().any(|side| relative_iqr(side).is_some_and(|spread| spread > bound));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if wide && !b_always_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    };
    (verdict, changed / base)
}

/// Prints the table; `Ok(true)` if nothing regressed.
pub fn run(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let (benchmark, a, b) = (load(benchmark)?, load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<20} {:<12} {:>16} {:>16} {:>24} {:>6}  verdict",
        "workload", "metric", "a (median/n)", "b (median/n)", "b/a (base a)", "bound"
    );
    for workload in array(&benchmark, "workloads")? {
        let workload = text(workload, "name")?;
        for metric in array(&benchmark, "end_to_end")? {
            let name = text(metric, "name")?;
            let lower_is_better = text(metric, "better")? == "lower";
            let bound = metric
                .get_field("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name} has no bound"))?;
            let (va, vb) = (readings(&a, workload, name)?, readings(&b, workload, name)?);
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<20} {name:<12} {:>16} {:>16} {:>24} {bound:>6}  missing",
                    "-", "-", "-"
                );
                clean = false;
                continue;
            }
            let (verdict, ratio) = verdict(&va, &vb, lower_is_better, bound);
            clean &= verdict != "regressed";
            println!(
                "{workload:<20} {name:<12} {:>16} {:>16} {:>24} {bound:>6}  {verdict}",
                format!("{:.4}/{}", median_f64(&va), va.len()),
                format!("{:.4}/{}", median_f64(&vb), vb.len()),
                format!("{ratio:.4} ({:.4})", median_f64(&va)),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better, 5 % bound: +2 % is fine, +10 % is a regression.
        assert_eq!(verdict(&steady, &[10.2, 10.2, 10.2, 10.2], true, 0.05).0, "ok");
        assert_eq!(verdict(&steady, &[11.0, 11.0, 11.0, 11.0], true, 0.05).0, "regressed");
        // Higher is better: the same drop is a regression, the same rise is not.
        assert_eq!(verdict(&steady, &[9.0, 9.0, 9.0, 9.0], false, 0.05).0, "regressed");
        assert_eq!(verdict(&steady, &[11.0, 11.0, 11.0, 11.0], false, 0.05).0, "ok");
        // A side spread wider than the bound settles nothing...
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &[10.0, 10.0, 10.0, 10.0], true, 0.05).0, "unresolved");
        // ...unless every run of b beats every run of a.
        assert_eq!(verdict(&noisy, &[7.0, 7.5, 7.2, 7.1], true, 0.05).0, "ok");
        // A single run per side has no spread to speak of: the ratio decides.
        assert_eq!(verdict(&[10.0], &[10.4], true, 0.05), ("ok", 1.04));
    }
}
