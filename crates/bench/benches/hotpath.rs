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

/// The sharded-sweep scenario: four core-disjoint hit-heavy tenants on a
/// 16-core machine, everything preallocated in fast so the plenty guard
/// holds and every quantum takes the sharded path. Measures the wall
/// clock of the same simulation at `shards = 1` versus `shards = n` —
/// results are byte-identical, only the sweep parallelism differs.
fn shard_cell(shards: usize) -> SimRunner {
    let cfg = MicroConfig {
        rss_pages: 8_192,
        wss_pages: 1_024,
        skew: 0.9,
        read_ratio: 0.95,
        accesses_per_op: 8,
        wss_drift: 0,
        fixed_op: Nanos::ZERO,
    };
    let tenants: Vec<WorkloadSpec> = (0..4)
        .map(|i| micro_spec(&format!("hit{i}"), cfg.clone(), 4).preallocated(TierKind::Fast))
        .collect();
    SimRunner::builder()
        .machine(MachineSpec::small(36_864, 16_384, 16))
        .workloads(tenants)
        .policy(Box::new(StaticPlacement))
        .config(SimConfig {
            n_quanta: 0,
            record_series: false,
            seed: 42,
            shards,
            ..Default::default()
        })
        .build()
}

/// Time `measure` quanta of the shard cell at a given shard count.
/// Returns (wall_nanos, total_ops, sharded_quanta).
fn run_shard_cell(shards: usize, warm: u64, measure: u64) -> (u128, u64, u64) {
    let mut runner = shard_cell(shards);
    for _ in 0..warm {
        runner.run_quantum();
    }
    let ops_before: u64 = runner
        .state
        .workloads
        .iter()
        .map(|w| w.stats.ops_total)
        .sum();
    let t = Instant::now();
    for _ in 0..measure {
        runner.run_quantum();
    }
    let wall = t.elapsed().as_nanos();
    let ops_after: u64 = runner
        .state
        .workloads
        .iter()
        .map(|w| w.stats.ops_total)
        .sum();
    (wall, ops_after - ops_before, runner.sharded_quanta())
}

/// Best-of-`reps` wall clock for the shard cell at `shards`.
fn best_shard_wall(shards: usize, warm: u64, measure: u64, reps: u32) -> (u128, u64, u64) {
    let mut best: Option<(u128, u64, u64)> = None;
    for _ in 0..reps {
        let run = run_shard_cell(shards, warm, measure);
        if best.map(|(w, _, _)| run.0 < w).unwrap_or(true) {
            best = Some(run);
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
    // `--shards <n>` overrides the high side of the shard-speedup
    // comparison (default 4; the low side is always 1).
    let shard_hi = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--shards needs an integer"))
        .unwrap_or(4);
    assert!(shard_hi >= 1, "--shards needs an integer >= 1");
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

    // Shard-speedup comparison: same cell, shards = 1 vs shards = hi.
    // Skipped under `--only` (it is not one of the access mixes).
    if only.is_none() {
        let (warm, measure) = if smoke {
            (0, 1)
        } else if quick {
            (2, 6)
        } else {
            (2, 16)
        };
        // The attainable ceiling is min(shards, host CPUs): on a 1-CPU
        // host the two timings measure the same serial work plus merge
        // overhead, so the ratio is pure noise — mark the row skipped
        // rather than track a meaningless number.
        let host_cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if host_cpus == 1 {
            println!("hotpath/shard_speedup: skipped (single-CPU host; ratio would be noise)");
            rows.push(Value::Object(
                Map::new()
                    .with("name", "shard_speedup")
                    .with("shards", shard_hi as u64)
                    .with("host_cpus", host_cpus as u64)
                    .with("skipped_single_cpu", true),
            ));
        } else {
            let (seq_wall, seq_ops, _) = best_shard_wall(1, warm, measure, reps);
            let (par_wall, par_ops, par_quanta) = best_shard_wall(shard_hi, warm, measure, reps);
            assert_eq!(
                seq_ops, par_ops,
                "shard cell must do identical work at every shard count"
            );
            let speedup = seq_wall as f64 / par_wall.max(1) as f64;
            println!(
                "hotpath/shard_speedup: {speedup:.2}x at {shard_hi} shards on {host_cpus} cpu(s) \
                 ({:.2} ms -> {:.2} ms over {measure} quanta, {par_quanta} sharded)",
                seq_wall as f64 / 1e6,
                par_wall as f64 / 1e6,
            );
            rows.push(Value::Object(
                Map::new()
                    .with("name", "shard_speedup")
                    .with("shards", shard_hi as u64)
                    .with("host_cpus", host_cpus as u64)
                    .with("sequential_wall_ns", seq_wall as u64)
                    .with("sharded_wall_ns", par_wall as u64)
                    .with("sharded_quanta", par_quanta)
                    .with("ops", seq_ops)
                    .with("shard_speedup", speedup),
            ));
        }
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
