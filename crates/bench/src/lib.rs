//! # vulcan-bench — the paper's evaluation harness
//!
//! `vulcan-bench suite` renders every table and figure of the paper (see
//! DESIGN.md §4 for the full index, `vulcan-bench suite --list` for the
//! targets): each [`suite::SUITE`] target prints its rows and writes the
//! underlying series/values as JSON under `target/experiments/`.
//! Simulation sweeps are declared as [`suite::Experiment`] grids of
//! independent [`suite::ExperimentCell`]s and executed on the workspace
//! thread pool (sized by `--threads`/`RAYON_NUM_THREADS`); every cell is
//! seeded deterministically, so artifacts are byte-identical regardless
//! of the thread count. The `chaos`, `churn`, `tiers` and `tournament`
//! sweeps check contracts beyond the paper and each return a
//! [`SweepReport`].

pub mod chaos;
pub mod churn;
pub mod figures;
pub mod suite;
pub mod tiers;
pub mod tournament;

use std::io;
use std::path::PathBuf;
use vulcan::prelude::*;
use vulcan::runtime::SystemState;
use vulcan::sim::MAX_TIERS;
use vulcan_json::Value;

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

/// What a contract-checked sweep (chaos, churn, tiers, tournament)
/// returns: its artifact rows and every contract violation it observed.
pub struct SweepReport {
    /// One JSON row per grid point, in the sweep's artifact order.
    pub rows: Vec<Value>,
    /// Contract violations; empty on a passing sweep.
    pub violations: Vec<String>,
}

/// Tear down every workload of `state` and audit frame conservation.
/// Returns the frames each tier held just before the teardown (indexed
/// by [`TierKind::index`], 0 for tiers off the chain) and one violation,
/// prefixed with `label`, for every chain tier still holding frames
/// after it.
pub fn teardown_audit(state: &mut SystemState, label: &str) -> ([u64; MAX_TIERS], Vec<String>) {
    let chain: Vec<TierKind> = state.machine.spec().chain().to_vec();
    let mut used = [0u64; MAX_TIERS];
    for &tier in &chain {
        used[tier.index()] = state.machine.allocator(tier).used_frames();
    }
    for w in 0..state.workloads.len() {
        state.teardown(w);
    }
    let violations = chain
        .iter()
        .filter_map(|&tier| {
            let leaked = state.machine.allocator(tier).used_frames();
            (leaked != 0).then(|| {
                format!(
                    "{label}: {leaked} frames leaked at teardown on {}",
                    tier.name()
                )
            })
        })
        .collect();
    (used, violations)
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
}
