//! Restore-replay identity on every quick-suite cell.
//!
//! For each cell of each `SUITE` grid at `SuiteOpts::quick()`: step a
//! straight run to the end; step a second run to a quantum Q drawn from
//! the cell's seed and index, checkpoint it to JSON text, parse the
//! text, restore it with a fresh policy and the cell's profiler factory,
//! and finish. Every `QuantumOutcome` and the final checkpoint text must
//! equal the straight run's. A field some layer forgets to serialize
//! makes the resumed run diverge, so this covers every policy, profiler,
//! machine shape and workload mix the suite runs, not a chosen few.
//!
//! Too slow for a debug build; run it in release:
//!
//! ```text
//! cargo test --release -p vulcan-bench --test restore_replay
//! ```

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vulcan::prelude::*;
use vulcan::runtime::checkpoint::parse_checkpoint;
use vulcan::runtime::QuantumOutcome;
use vulcan_bench::suite::{ExperimentCell, SuiteOpts, SUITE};

/// The restore point of cell `index` in its grid: a quantum in
/// `[1, quanta)` drawn from the cell's seed and index, so cells that
/// share a seed still restore at different quanta.
fn restore_point(seed: u64, index: usize, quanta: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ ((index as u64) << 32)).gen_range(1..quanta)
}

/// Run `cell` for its quanta; with `restore_at`, round-trip the runner
/// through checkpoint text after that many quanta. Returns the outcomes
/// and the final checkpoint text.
fn drive(cell: &ExperimentCell, restore_at: Option<u64>) -> (Vec<QuantumOutcome>, String) {
    let mut runner = cell.paused_runner();
    let mut outcomes = Vec::with_capacity(cell.quanta as usize);
    for q in 0..cell.quanta {
        if restore_at == Some(q) {
            let text = runner.checkpoint().expect("checkpoint").to_json();
            let v = parse_checkpoint(&text).expect("reparse");
            let profiler = Arc::clone(&cell.profiler);
            runner = SimRunner::restore(&v, (cell.policy)(), move |w| profiler(w))
                .unwrap_or_else(|e| panic!("{}: restore at {q}: {e}", cell.label));
        }
        outcomes.push(runner.run_quantum());
    }
    let fin = runner.checkpoint().expect("final checkpoint").to_json();
    (outcomes, fin)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every quick-suite cell twice; use a --release build"
)]
fn every_quick_suite_cell_replays_identically_after_a_restore() {
    let opts = SuiteOpts::quick();
    let mut cells = 0;
    for build in SUITE.iter().filter_map(|e| e.build) {
        let exp = build(&opts);
        for (index, cell) in exp.cells.iter().enumerate() {
            let label = format!("{}/{}", exp.name, cell.label);
            assert!(cell.quanta >= 2, "{label}: needs two quanta to restore");
            let at = restore_point(cell.seed, index, cell.quanta);
            let (straight, straight_fin) = drive(cell, None);
            let (resumed, resumed_fin) = drive(cell, Some(at));
            for (q, (a, b)) in resumed.iter().zip(&straight).enumerate() {
                assert_eq!(a, b, "{label}: quantum {q} diverged, restored at {at}");
            }
            assert_eq!(
                resumed_fin, straight_fin,
                "{label}: final state diverged, restored at {at}"
            );
            cells += 1;
        }
    }
    assert!(cells > 0, "the suite has no simulation cells");
    eprintln!("restore-replay identity held on {cells} quick-suite cells");
}
