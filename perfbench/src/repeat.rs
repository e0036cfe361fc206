//! Interleaved repeat mode: runs every workload round-robin, untraced and
//! for `run_seconds` from `BENCHMARK.json`, one child process per run, so
//! no workload's runs are back to back and drift on the host spreads over
//! all of them. Prints, per workload and metric, the median, the
//! quartiles (as Python's `statistics.quantiles` gives them), the spread
//! (interquartile range over median) and min–max, next to the metric's
//! bound from `BENCHMARK.json`.
//!
//! With `--sets 2` every round runs each seed twice, once per set, the
//! set that goes first alternating between rounds; the report then also
//! shows, per end-to-end metric, how much worse the second set's median
//! is than the first's, against the metric's bound.

use std::process::{Command, Stdio};

use vulcan_json::Value;

use crate::report::{median, quartiles};
use crate::workloads::Workload;
use crate::{check_flags, number};

/// One child run's verdict and metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

pub fn main(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--runs", "--seed", "--sets"])?;
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|text| vulcan_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))?;
    let seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json has no whole-number run_seconds")?;
    let runs: u64 = number(args, "--runs", Some(10))?;
    let seed0: u64 = number(args, "--seed", Some(1))?;
    let sets: usize = number(args, "--sets", Some(1))?;
    if !(1..=2).contains(&sets) {
        return Err(format!("--sets must be 1 or 2, not {sets}"));
    }
    let workloads = Workload::ALL;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;

    // outcomes[set][workload]
    let mut outcomes: Vec<Vec<Vec<Outcome>>> = (0..sets)
        .map(|_| workloads.iter().map(|_| Vec::new()).collect())
        .collect();
    for i in 0..runs {
        let seed = seed0 + i;
        for k in 0..sets {
            let set = if i % 2 == 0 { k } else { sets - 1 - k };
            for (w, runs_of_w) in workloads.iter().zip(&mut outcomes[set]) {
                let out = Command::new(&exe)
                    .args(["--workload", w.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let label = format!("[run {}/{runs} set {set}] {} seed {seed}", i + 1, w.name());
                match stdout.lines().last().and_then(parse_outcome) {
                    Some(o) if out.status.success() => {
                        eprintln!(
                            "{label}: correct {}, {} checks, {} failed",
                            o.correct, o.attempted, o.failed
                        );
                        runs_of_w.push(o);
                    }
                    _ => eprintln!("{label}: no result (exit {})", out.status),
                }
            }
        }
    }

    let spec = |name: &str, key: &str| -> Option<Value> {
        manifest
            .get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
            .get(key)
            .cloned()
    };
    let bound = |name: &str| spec(name, "bound").and_then(|b| b.as_f64());
    for (set, per_w) in outcomes.iter().enumerate() {
        for (w, runs_of_w) in workloads.iter().zip(per_w) {
            print_table(&format!("{} (set {set})", w.name()), runs_of_w, &bound);
        }
    }
    if sets == 2 {
        println!("\nsecond set against the first (medians; positive = worse)");
        for (wi, w) in workloads.iter().enumerate() {
            let Some(first) = outcomes[0][wi].first() else {
                continue;
            };
            for (name, _, unit) in &first.metrics {
                let (Some(b), Some(better)) = (bound(name), spec(name, "better")) else {
                    continue;
                };
                let (a, z) = (
                    median(&values(&outcomes[0][wi], name)),
                    median(&values(&outcomes[1][wi], name)),
                );
                let worse = if better.as_str() == Some("higher") {
                    (a - z) / a
                } else {
                    (z - a) / a
                };
                let verdict = if worse <= b { "ok" } else { "WORSE THAN BOUND" };
                println!(
                    "  {:<12} {name:<16} {a:>12.6} {z:>12.6} {unit:<7} {worse:>+8.4}  bound {b} {verdict}",
                    w.name()
                );
            }
        }
    }
    Ok(())
}

/// Every run's value of one metric.
fn values(runs: &[Outcome], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|o| o.metrics.iter().find(|(n, ..)| n == name).map(|m| m.1))
        .collect()
}

/// One workload's runs: per metric, median, quartiles, spread, min–max.
fn print_table(title: &str, runs: &[Outcome], bound: &dyn Fn(&str) -> Option<f64>) {
    let incorrect = runs.iter().filter(|o| !o.correct).count();
    let failed: u64 = runs.iter().map(|o| o.failed).sum();
    let attempted: u64 = runs.iter().map(|o| o.attempted).sum();
    println!(
        "\n{title}: {} runs, {incorrect} incorrect, {attempted} checks, {failed} failed",
        runs.len()
    );
    println!(
        "  {:<28} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}  unit / bound",
        "metric", "median", "q1", "q3", "spread", "min", "max"
    );
    let Some(first) = runs.first() else {
        return;
    };
    for (name, _, unit) in &first.metrics {
        let values = values(runs, name);
        let med = median(&values);
        let (q1, q3) = quartiles(&values).unwrap_or((med, med));
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let verdict = match bound(name) {
            Some(b) if spread <= b / 3.0 => format!("  bound {b} (spread under a third)"),
            Some(b) if spread <= b => format!("  bound {b} (spread within bound)"),
            Some(b) => format!("  bound {b} (SPREAD OVER BOUND)"),
            None => String::new(),
        };
        println!(
            "  {name:<28} {med:>12.6} {q1:>12.6} {q3:>12.6} {spread:>8.4} {lo:>12.6} {hi:>12.6}  {unit}{verdict}"
        );
    }
}

fn parse_outcome(line: &str) -> Option<Outcome> {
    let v = vulcan_json::parse(line).ok()?;
    let metrics = v
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.to_string(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect();
    Some(Outcome {
        correct: v.get("correct")?.as_bool()?,
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        metrics,
    })
}
