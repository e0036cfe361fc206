//! The parallel sweep contract: thread count is a throughput knob, never
//! a results knob. A fig10-style (policy × trial) grid must produce
//! byte-identical JSON artifacts and identical per-cell results whether
//! it runs on one thread or four.

use rayon::pool;
use vulcan::prelude::*;
use vulcan_bench::figures::{fig10_grid, thp_grid};
use vulcan_bench::save_json;
use vulcan_bench::suite::SuiteOpts;
use vulcan_json::{Map, Value};

/// One JSON row per cell with every scalar the figure artifacts derive
/// from (policy, seed, CFI, per-workload totals) plus the full time
/// series, so any divergence a figure could show shows here.
fn artifact_rows(results: &[RunResult], seeds: &[u64]) -> Vec<Value> {
    results
        .iter()
        .zip(seeds)
        .map(|(res, &seed)| {
            let mut workloads = Map::new();
            for w in &res.per_workload {
                workloads.insert(
                    w.name.clone(),
                    Map::new()
                        .with("ops_total", w.ops_total)
                        .with("mean_ops_per_sec", w.mean_ops_per_sec)
                        .with("mean_latency_ns", w.mean_latency_ns)
                        .with("mean_fthr", w.mean_fthr),
                );
            }
            Value::Object(
                Map::new()
                    .with("policy", res.policy.as_str())
                    .with("seed", seed)
                    .with("cfi", res.cfi)
                    .with("workloads", workloads)
                    .with("series", res.series.to_json()),
            )
        })
        .collect()
}

#[test]
fn sweep_artifacts_are_byte_identical_across_thread_counts() {
    // A scaled-down figure-10 grid: 4 policies × 2 trials of the §5.3
    // co-location, 10 quanta per cell.
    let opts = SuiteOpts {
        trials: 2,
        quanta_cap: Some(10),
    };

    pool::set_num_threads(1);
    let grid = fig10_grid(&opts);
    let seeds: Vec<u64> = grid.cells.iter().map(|c| c.seed).collect();
    let sequential = grid.run();

    pool::set_num_threads(4);
    let parallel = fig10_grid(&opts).run();

    assert_eq!(sequential.len(), 8);
    assert_eq!(parallel.len(), 8);

    // Identical RunResults, cell by cell, in declaration order.
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(s.policy, p.policy, "cell {i}: policy order diverged");
        assert_eq!(s.cfi, p.cfi, "cell {i} ({}): CFI diverged", s.policy);
        for (sw, pw) in s.per_workload.iter().zip(&p.per_workload) {
            assert_eq!(sw.ops_total, pw.ops_total, "cell {i}/{}", sw.name);
            assert_eq!(sw.mean_ops_per_sec, pw.mean_ops_per_sec);
            assert_eq!(sw.mean_latency_ns, pw.mean_latency_ns);
        }
        assert_eq!(
            s.series.to_json(),
            p.series.to_json(),
            "cell {i} ({}): series diverged",
            s.policy
        );
    }

    // Byte-identical JSON artifacts through the real save path.
    let p1 = save_json("determinism_threads1", &artifact_rows(&sequential, &seeds))
        .expect("write t1 artifact");
    let p4 = save_json("determinism_threads4", &artifact_rows(&parallel, &seeds))
        .expect("write t4 artifact");
    let b1 = std::fs::read(&p1).expect("read t1 artifact");
    let b4 = std::fs::read(&p4).expect("read t4 artifact");
    assert!(!b1.is_empty());
    assert_eq!(b1, b4, "artifacts differ between --threads 1 and 4");
}

#[test]
fn hot_path_grids_are_run_to_run_deterministic() {
    // The hot-path engine (flat heat table with open-addressed spillover,
    // per-thread walk caches, branchless Zipf sampling) must stay free of
    // address- or hash-order-dependent behaviour: two fresh runs of the
    // same quick-scale grids render byte-identical artifact JSON. The THP
    // grid keeps the huge-page walk/split path on the line; fig10 covers
    // the 4K demand-paging and hint-fault paths across all policies.
    let opts = SuiteOpts {
        trials: 1,
        quanta_cap: Some(10),
    };
    pool::set_num_threads(2);
    for (name, grid) in [
        ("thp", thp_grid as fn(&SuiteOpts) -> _),
        ("fig10", fig10_grid),
    ] {
        let first = grid(&opts);
        let seeds: Vec<u64> = first.cells.iter().map(|c| c.seed).collect();
        let a = artifact_rows(&first.run(), &seeds);
        let b = artifact_rows(&grid(&opts).run(), &seeds);
        let ja = Value::Array(a).to_json_pretty();
        let jb = Value::Array(b).to_json_pretty();
        assert!(!ja.is_empty());
        assert_eq!(
            ja, jb,
            "grid {name}: rerun produced different artifact bytes"
        );
    }
}

#[test]
fn quick_tiers_sweep_upholds_its_contract() {
    // The quick chain-shape sweep over 2- and 3-tier machines
    // conserves frames on every chain tier and upholds its contract.
    use vulcan_bench::tiers::{run_tiers, TiersOpts};
    pool::set_num_threads(2);
    let report = run_tiers(&TiersOpts::quick());
    assert!(
        report.violations.is_empty(),
        "quick tiers sweep violated its contract: {:?}",
        report.violations
    );
}

#[test]
fn quick_churn_sweep_upholds_its_contract() {
    // The quick churn sweep steps cells through the typed QuantumOutcome
    // API and upholds its contract, rate-0 controls included.
    use vulcan_bench::churn::{run_churn, ChurnOpts};
    pool::set_num_threads(2);
    let report = run_churn(&ChurnOpts::quick());
    assert!(
        report.violations.is_empty(),
        "quick churn sweep violated its contract: {:?}",
        report.violations
    );
}
