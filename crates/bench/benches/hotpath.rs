//! Access-throughput microbench for the per-access hot path.
//!
//! This harness measures *wall-clock accesses per second* through
//! `SimRunner::run_quantum` for three access mixes and emits the numbers
//! to `BENCH_hotpath.json` at the repo root, so the hot-path perf
//! trajectory is tracked in-tree:
//!
//! - `hit_heavy`  — small preallocated working set, TLB-resident, read
//!   mostly: the steady-state fast path (lookup + heat update).
//! - `fault_heavy` — demand paging over a uniform footprint with a 50/50
//!   read/write mix: walks, major faults and dirty walks dominate.
//! - `thp_mix`   — THP-backed footprint: every access takes the
//!   huge-page `touch` path, so the radix walk cache is on the line.
//!
//! Invocation modes:
//! - `cargo test` (no args): one tiny smoke repetition, no files written.
//! - `cargo bench --bench hotpath` : full run, writes `BENCH_hotpath.json`.
//! - `... -- --quick`: CI-scale run, still writes `BENCH_hotpath.json`.
//! - `... -- --save-baseline`: additionally records the run as the
//!   pre-optimization baseline in `target/experiments/hotpath_baseline.json`;
//!   later runs report speedup against it (override the baseline path
//!   with `HOTPATH_BASELINE`).

use std::time::Instant;
use vulcan::prelude::*;
use vulcan_json::{Map, Value};

/// One benchmark scenario: a workload mix plus quanta counts.
struct Mix {
    name: &'static str,
    spec: WorkloadSpec,
    machine: MachineSpec,
    accesses_per_op: u64,
    /// Quanta run before timing starts (0 = measure from cold start, so
    /// demand faults land inside the timed window).
    warm_quanta: u64,
    measure_quanta: u64,
}

fn micro_spec(name: &str, cfg: MicroConfig, threads: usize) -> WorkloadSpec {
    microbench(name, cfg, threads)
}

fn mixes(quick: bool) -> Vec<Mix> {
    let (warm, measure) = if quick { (2, 4) } else { (4, 24) };
    let fault_measure = if quick { 2 } else { 4 };
    vec![
        Mix {
            name: "hit_heavy",
            spec: micro_spec(
                "hit",
                MicroConfig {
                    rss_pages: 8_192,
                    wss_pages: 1_024,
                    skew: 0.9,
                    read_ratio: 0.95,
                    accesses_per_op: 8,
                    wss_drift: 0,
                    fixed_op: Nanos::ZERO,
                },
                4,
            )
            .preallocated(TierKind::Fast),
            machine: MachineSpec::small(16_384, 16_384, 4),
            accesses_per_op: 8,
            warm_quanta: warm,
            measure_quanta: measure,
        },
        Mix {
            name: "fault_heavy",
            spec: micro_spec(
                "fault",
                MicroConfig {
                    rss_pages: 65_536,
                    wss_pages: 65_536,
                    skew: 0.0,
                    read_ratio: 0.5,
                    accesses_per_op: 4,
                    wss_drift: 0,
                    fixed_op: Nanos::ZERO,
                },
                4,
            ),
            machine: MachineSpec::small(49_152, 32_768, 4),
            accesses_per_op: 4,
            warm_quanta: 0,
            measure_quanta: fault_measure,
        },
        Mix {
            name: "thp_mix",
            spec: micro_spec(
                "thp",
                MicroConfig {
                    rss_pages: 65_536,
                    wss_pages: 32_768,
                    skew: 0.6,
                    read_ratio: 0.7,
                    accesses_per_op: 8,
                    wss_drift: 0,
                    fixed_op: Nanos::ZERO,
                },
                4,
            )
            .with_thp(),
            machine: MachineSpec::small(49_152, 32_768, 4),
            accesses_per_op: 8,
            warm_quanta: warm.min(1),
            measure_quanta: measure,
        },
    ]
}

/// Run one mix once: build a fresh runner, warm it, then time
/// `measure_quanta` quanta. Returns (accesses, wall_nanos).
fn run_once(mix: &Mix) -> (u64, u128) {
    let mut runner = SimRunner::builder()
        .machine(mix.machine.clone())
        .workloads(vec![mix.spec.clone()])
        .policy(Box::new(StaticPlacement))
        .config(SimConfig {
            n_quanta: 0,
            record_series: false,
            seed: 42,
            ..Default::default()
        })
        .build();
    for _ in 0..mix.warm_quanta {
        runner.run_quantum();
    }
    let ops_before = runner.state.workloads[0].stats.ops_total;
    let t = Instant::now();
    for _ in 0..mix.measure_quanta {
        runner.run_quantum();
    }
    let wall = t.elapsed().as_nanos();
    let ops_after = runner.state.workloads[0].stats.ops_total;
    ((ops_after - ops_before) * mix.accesses_per_op, wall)
}

/// Best (highest accesses/sec) of `reps` repetitions of a mix.
fn run_mix(mix: &Mix, reps: u32) -> (u64, u128, f64) {
    let mut best: Option<(u64, u128, f64)> = None;
    for _ in 0..reps {
        let (accesses, wall) = run_once(mix);
        let mps = accesses as f64 / (wall.max(1) as f64 / 1e9) / 1e6;
        if best.map(|(_, _, b)| mps > b).unwrap_or(true) {
            best = Some((accesses, wall, mps));
        }
    }
    best.expect("at least one repetition")
}

fn baseline_path() -> std::path::PathBuf {
    match std::env::var_os("HOTPATH_BASELINE") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/experiments/hotpath_baseline.json"),
    }
}

/// Parse `{"mixes": [{"name": ..., "maccesses_per_sec": ...}]}` out of a
/// previously saved baseline file.
fn load_baseline() -> Option<Map> {
    let text = std::fs::read_to_string(baseline_path()).ok()?;
    match vulcan_json::parse(&text).ok()? {
        Value::Object(m) => Some(m),
        _ => None,
    }
}

fn baseline_rate(baseline: &Map, mix: &str) -> Option<f64> {
    let mixes = match baseline.get("mixes")? {
        Value::Array(a) => a,
        _ => return None,
    };
    for entry in mixes {
        if let Value::Object(m) = entry {
            if m.get("name").and_then(Value::as_str) == Some(mix) {
                return m.get("maccesses_per_sec").and_then(Value::as_f64);
            }
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench_mode = args.iter().any(|a| a == "--bench");
    let quick = args.iter().any(|a| a == "--quick") || std::env::var_os("HOTPATH_QUICK").is_some();
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
    // `--only <mix>` restricts the run to one mix (profiling aid); such
    // runs never overwrite the tracked artifact.
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    // Plain `cargo test` runs harness=false bench binaries with no args:
    // smoke-test only, write nothing.
    let smoke = !bench_mode && !quick && !save_baseline;

    let (reps, label) = if smoke {
        (1, "smoke")
    } else if quick {
        (2, "quick")
    } else {
        (5, "full")
    };
    let baseline = if save_baseline { None } else { load_baseline() };

    let mut rows: Vec<Value> = Vec::new();
    for mix in mixes(quick || smoke)
        .iter()
        .filter(|m| only.as_deref().is_none_or(|o| o == m.name))
    {
        let (accesses, wall, mps) = if smoke {
            let (a, w) = run_once(mix);
            (a, w, a as f64 / (w.max(1) as f64 / 1e9) / 1e6)
        } else {
            run_mix(mix, reps)
        };
        let mut row = Map::new()
            .with("name", mix.name)
            .with("accesses", accesses)
            .with("wall_ns", wall as u64)
            .with("maccesses_per_sec", mps);
        let mut line = format!(
            "hotpath/{}: {:.2} M accesses/s ({} accesses)",
            mix.name, mps, accesses
        );
        if let Some(base) = baseline.as_ref().and_then(|b| baseline_rate(b, mix.name)) {
            let speedup = mps / base;
            row = row
                .with("baseline_maccesses_per_sec", base)
                .with("speedup", speedup);
            line.push_str(&format!("  [{speedup:.2}x vs baseline {base:.2}]"));
        }
        println!("{line}");
        rows.push(Value::Object(row));
    }

    let report = Map::new()
        .with("bench", "hotpath")
        .with("mode", label)
        .with("mixes", Value::Array(rows));

    if smoke || only.is_some() {
        println!("hotpath: no artifacts written; run with --bench or --quick (and no --only) for a tracked run");
        return;
    }
    if save_baseline {
        let path = baseline_path();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(
            &path,
            format!("{}\n", Value::Object(report.clone()).to_json_pretty()),
        )
        .expect("write baseline");
        println!("[wrote {}]", path.display());
        return;
    }
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json");
    std::fs::write(
        &out,
        format!("{}\n", Value::Object(report).to_json_pretty()),
    )
    .expect("write BENCH_hotpath.json");
    println!("[wrote {}]", out.display());
}
