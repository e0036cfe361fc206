//! # vulcan-bench — the paper's evaluation harness
//!
//! One binary per table and figure of the paper (see DESIGN.md §4 for the
//! full index), plus the `vulcan-bench` driver that can replay any subset
//! of the simulation grids through one code path (`vulcan-bench suite`):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `fig1`   | hot/cold pages under Memtis, solo vs co-located + the dilemma summary |
//! | `fig2`   | single base-page migration cost breakdown, 2–32 CPUs |
//! | `fig3`   | TLB vs copy share across batch sizes and thread counts |
//! | `fig4`   | sync vs async copying across read/write ratios |
//! | `fig7`   | speedup of Vulcan's migration-mechanism optimizations |
//! | `fig8`   | migration bandwidth, 4 systems × 3 WSS scenarios |
//! | `fig9`   | Vulcan's dynamic allocation / FTHR / GPT timelines |
//! | `fig10`  | performance + CFI fairness, 4 systems, multi-trial |
//! | `table1` | the biased-migration priority/strategy matrix |
//! | `table2` | the workload/RSS inventory |
//! | `ablation` | component ablations (§3.6 discussion) |
//! | `thp`    | transparent-huge-page study: TLB reach + split-on-promotion (§3.4/§3.5) |
//! | `bias_study` | MTM → no-bias → Table 1 policy lineage (§3.5) |
//!
//! Every binary prints its rows and writes the underlying series/values
//! as JSON under `target/experiments/`. Simulation sweeps are declared as
//! [`suite::Experiment`] grids of independent [`suite::ExperimentCell`]s
//! and executed on the workspace thread pool (sized by
//! `--threads`/`RAYON_NUM_THREADS`, see [`init_threads`]); every cell is
//! seeded deterministically, so artifacts are byte-identical regardless
//! of the thread count.

pub mod chaos;
pub mod churn;
pub mod suite;
pub mod tiers;
pub mod tournament;

use std::io;
use std::path::PathBuf;
use vulcan::prelude::*;

/// Where experiment JSON artifacts are written.
pub fn experiments_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Persist a JSON artifact, pretty-printed. Returns the path written.
pub fn save_json<T: Clone + Into<vulcan_json::Value>>(
    name: &str,
    value: &T,
) -> io::Result<PathBuf> {
    let path = experiments_dir()?.join(format!("{name}.json"));
    let rendered: vulcan_json::Value = value.clone().into();
    std::fs::write(&path, rendered.to_json_pretty())?;
    Ok(path)
}

/// Persist a JSON artifact; on failure report to stderr and exit with
/// status 1 (the workspace convention: 2 = usage error, 1 = runtime
/// failure such as an unwritable artifact directory).
pub fn save_json_or_exit<T: Clone + Into<vulcan_json::Value>>(name: &str, value: &T) {
    match save_json(name, value) {
        Ok(path) => println!("[wrote {}]", path.display()),
        Err(e) => {
            eprintln!("error: cannot write artifact '{name}': {e}");
            std::process::exit(1);
        }
    }
}

/// Honor a `--threads N` (or `--threads=N`) argument by sizing the
/// workspace thread pool; `RAYON_NUM_THREADS` is the environment
/// fallback and `available_parallelism` the default. Call at the top of
/// every binary `main`.
pub fn init_threads() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(n) = parse_threads(&args) {
        rayon::pool::set_num_threads(n);
    }
}

/// Extract the value of a `--threads N` / `--threads=N` flag.
pub fn parse_threads(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threads" {
            return it.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            return v.parse().ok();
        }
    }
    None
}

/// The §5.3 staggered three-application co-location.
pub fn colocation_specs() -> Vec<WorkloadSpec> {
    vec![
        memcached(),
        pagerank().starting_at(Nanos::secs(50)),
        liblinear().starting_at(Nanos::secs(110)),
    ]
}

/// Number of trials, overridable with `VULCAN_TRIALS` (paper uses 10).
pub fn trials() -> u64 {
    std::env::var("VULCAN_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_instantiate() {
        for kind in PolicyKind::PAPER {
            assert_eq!(kind.make().name(), kind.name());
        }
    }

    #[test]
    fn colocation_specs_match_paper() {
        let specs = colocation_specs();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[1].start, Nanos::secs(50));
        assert_eq!(specs[2].start, Nanos::secs(110));
    }

    #[test]
    fn experiments_dir_exists() {
        assert!(experiments_dir().unwrap().is_dir());
    }

    #[test]
    fn threads_flag_parses_both_forms() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&args(&["--threads", "4"])), Some(4));
        assert_eq!(parse_threads(&args(&["--threads=2"])), Some(2));
        assert_eq!(parse_threads(&args(&["--quick"])), None);
        assert_eq!(parse_threads(&args(&["--threads"])), None);
    }
}
