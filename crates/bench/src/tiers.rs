//! `vulcan-bench tiers` — race the policy registry across tier-chain
//! shapes (ISSUE 9).
//!
//! The two-tier grids elsewhere in the suite can never catch a policy
//! that silently assumes "not fast" means "slow". This grid crosses the
//! registered policies with {2,3}-tier machine shapes on a pressured
//! co-location whose combined RSS exceeds fast+slow on the thin shapes,
//! so the lower chain genuinely fills: a latency-critical front end plus
//! the THP-enabled buffer-pool family, whose scan/lookup phase shifts
//! are exactly the access pattern that should push cold relation pages
//! *past* the slow tier instead of pinning capacity there.
//!
//! Each cell is stepped to completion, torn down, and audited: every
//! chain tier's allocator must report zero used frames (frame
//! conservation is an N-tier property now, not a fast/slow pair
//! property). Per-cell rows report mean FTHR, Jain fairness over the
//! per-workload FTHRs, and the p99 of per-quantum op latency — the
//! "leave no one behind" metrics, per chain shape — and land in
//! `target/experiments/tiers.json`. Cells are deterministic, so the
//! artifact is byte-identical across reruns and thread counts.

use rayon::prelude::*;
use vulcan::prelude::*;
use vulcan_json::{Map, Value};

use crate::suite::ExperimentCell;

/// Base seed shared by every tiers cell.
const TIERS_SEED: u64 = 9;

/// One machine shape of the grid: a label plus its chain.
pub struct TierShape {
    /// Row label (`2tier`, `3tier`, `3tier-thin`).
    pub name: &'static str,
    /// Builder for the machine (shapes are `MachineSpec` constructors).
    pub build: fn() -> MachineSpec,
}

/// The swept chain shapes, in grid order. Combined workload RSS is
/// 5 120 pages: it fits fast+slow on the first two shapes and exceeds
/// fast+slow (3 584) on the thin shape, forcing residency on nvm.
pub const SHAPES: [TierShape; 3] = [
    TierShape {
        name: "2tier",
        build: || MachineSpec::small(1_536, 8_192, 8),
    },
    TierShape {
        name: "3tier",
        build: || MachineSpec::small3(1_536, 6_144, 8_192, 8),
    },
    TierShape {
        name: "3tier-thin",
        build: || MachineSpec::small3(1_536, 2_048, 8_192, 8),
    },
];

/// Scale knobs for the tiers sweep.
#[derive(Clone, Copy, Debug)]
pub struct TiersOpts {
    /// Quanta per cell.
    pub quanta: u64,
    /// Race the full registry (`PolicyKind::ALL`) or just the four
    /// paper systems.
    pub all_policies: bool,
}

impl TiersOpts {
    /// The full grid: every registered policy × 3 shapes.
    pub fn full() -> Self {
        TiersOpts {
            quanta: 40,
            all_policies: true,
        }
    }

    /// CI scale: the four paper policies, short cells.
    pub fn quick() -> Self {
        TiersOpts {
            quanta: 10,
            all_policies: false,
        }
    }

    fn policies(&self) -> &'static [PolicyKind] {
        if self.all_policies {
            &PolicyKind::ALL
        } else {
            &PolicyKind::PAPER
        }
    }
}

/// The tiers co-location: a latency-critical front end and the
/// buffer-pool family under THP, both preallocated down-chain so the
/// capacity pressure is physically real from quantum zero.
fn tiers_specs() -> Vec<WorkloadSpec> {
    let mut lc = microbench(
        "lc",
        MicroConfig {
            rss_pages: 1_024,
            wss_pages: 256,
            read_ratio: 0.9,
            skew: 1.1,
            ..Default::default()
        },
        4,
    )
    .preallocated(TierKind::Slow);
    lc.class = WorkloadClass::LatencyCritical;
    let bp = bufferpool(
        "bufpool",
        BufferPoolConfig {
            rss_pages: 4_096,
            phase_ops: 128,
            ..Default::default()
        },
        4,
    )
    .preallocated(TierKind::Slow)
    .with_thp();
    vec![lc, bp]
}

/// One grid point: the cell plus its shape label.
struct TiersCell {
    cell: ExperimentCell,
    shape: &'static str,
    n_tiers: usize,
}

fn tiers_grid(opts: &TiersOpts) -> Vec<TiersCell> {
    let mut grid = Vec::new();
    for shape in &SHAPES {
        let machine = (shape.build)();
        let n_tiers = machine.n_tiers();
        for &kind in opts.policies() {
            let mut cell = ExperimentCell::new(kind, tiers_specs(), opts.quanta, TIERS_SEED)
                .on_machine(machine.clone())
                .with_quantum_active(Nanos::millis(1));
            cell.label = format!("{}/{kind}", shape.name);
            grid.push(TiersCell {
                cell,
                shape: shape.name,
                n_tiers,
            });
        }
    }
    grid
}

/// Outcome of one stepped cell: the artifact row plus any contract
/// violations observed.
struct CellOutcome {
    row: Value,
    violations: Vec<String>,
}

/// Step one cell to completion, snapshot per-tier residency, audit
/// teardown on every chain tier, and summarize.
fn run_cell(c: &TiersCell) -> CellOutcome {
    let mut violations = Vec::new();
    let mut runner = c.cell.paused_runner();
    for _ in 0..c.cell.quanta {
        runner.run_quantum();
    }

    // Pre-teardown residency per chain tier: the proof the shape's
    // lower chain actually held pages (MAX_TIERS-wide, absent tiers 0).
    let chain: Vec<TierKind> = runner.state.machine.spec().chain().to_vec();
    let used: Vec<u64> = TierKind::ALL
        .iter()
        .map(|&t| {
            if chain.contains(&t) {
                runner.state.machine.allocator(t).used_frames()
            } else {
                0
            }
        })
        .collect();

    // Teardown audit: every workload down, zero frames still allocated
    // on any chain tier.
    for w in 0..runner.state.workloads.len() {
        runner.state.teardown(w);
    }
    for &tier in &chain {
        let leaked = runner.state.machine.allocator(tier).used_frames();
        if leaked != 0 {
            violations.push(format!(
                "{}: {leaked} frames leaked at teardown on {}",
                c.cell.label,
                tier.name()
            ));
        }
    }

    let res = runner.into_result();
    let fthrs: Vec<f64> = res.per_workload.iter().map(|w| w.mean_fthr).collect();
    let mean_fthr = fthrs.iter().sum::<f64>() / fthrs.len().max(1) as f64;
    let jain = jain_index(&fthrs);
    let mut latencies: Vec<f64> = res
        .per_workload
        .iter()
        .filter_map(|w| res.series.get(&format!("{}.latency_ns", w.name)))
        .flat_map(|s| s.points.iter().map(|&(_, v)| v))
        .collect();
    let p99 = vulcan::metrics::percentile(&mut latencies, 99.0);
    let ops_total: u64 = res.per_workload.iter().map(|w| w.ops_total).sum();

    let row = Value::Object(
        Map::new()
            .with("cell", c.cell.label.as_str())
            .with("shape", c.shape)
            .with("n_tiers", c.n_tiers as u64)
            .with("policy", res.policy.as_str())
            .with("quanta", c.cell.quanta)
            .with("mean_fthr", mean_fthr)
            .with("jain_fthr", jain)
            .with("p99_latency_ns", p99)
            .with("cfi", res.cfi)
            .with("ops_total", ops_total)
            .with("used_fast", used[TierKind::Fast.index()])
            .with("used_slow", used[TierKind::Slow.index()])
            .with("used_nvm", used[TierKind::Nvm.index()]),
    );
    CellOutcome { row, violations }
}

/// Results of a tiers sweep: artifact rows (declaration order) and
/// every contract violation observed.
pub struct TiersReport {
    /// One JSON row per grid point.
    pub rows: Vec<Value>,
    /// Frame-conservation violations; empty on a passing sweep.
    pub violations: Vec<String>,
}

/// Run the full sweep. Pure — printing and exit codes are the binary's
/// concern (and the tests').
pub fn run_tiers(opts: &TiersOpts) -> TiersReport {
    let grid = tiers_grid(opts);
    let outcomes: Vec<CellOutcome> = grid.par_iter().map(run_cell).collect();

    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for o in outcomes {
        rows.push(o.row);
        violations.extend(o.violations);
    }
    TiersReport { rows, violations }
}

/// Render the sweep as a terminal table (one row per grid point).
pub fn tiers_table(rows: &[Value]) -> Table {
    let mut table = Table::new(
        format!(
            "tiers: chain-shape sweep ({} threads)",
            rayon::pool::current_num_threads()
        ),
        &[
            "cell",
            "tiers",
            "FTHR",
            "jain",
            "p99 lat (us)",
            "used f/s/n",
        ],
    );
    for row in rows {
        let u = |k: &str| row.get(k).and_then(Value::as_u64).unwrap_or_default();
        let f = |k: &str| row.get(k).and_then(Value::as_f64);
        table.row(&[
            row.get("cell")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            u("n_tiers").to_string(),
            format!("{:.3}", f("mean_fthr").unwrap_or_default()),
            format!("{:.3}", f("jain_fthr").unwrap_or_default()),
            f("p99_latency_ns")
                .map(|v| format!("{:.1}", v / 1e3))
                .unwrap_or_else(|| "-".into()),
            format!("{}/{}/{}", u("used_fast"), u("used_slow"), u("used_nvm")),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-policy micro sweep: frame conservation across every
    /// chain shape, and the thin 3-tier shape actually exercises nvm.
    #[test]
    fn micro_sweep_conserves_frames_on_every_shape() {
        let opts = TiersOpts {
            quanta: 4,
            all_policies: false,
        };
        let report = run_tiers(&opts);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert_eq!(report.rows.len(), 3 * PolicyKind::PAPER.len());
        for row in &report.rows {
            let shape = row.get("shape").and_then(Value::as_str).unwrap();
            let n_tiers = row.get("n_tiers").and_then(Value::as_u64).unwrap();
            let used_nvm = row.get("used_nvm").and_then(Value::as_u64).unwrap();
            match shape {
                "2tier" => {
                    assert_eq!(n_tiers, 2);
                    assert_eq!(used_nvm, 0, "2-tier shape cannot hold nvm pages");
                }
                "3tier" => assert_eq!(n_tiers, 3),
                "3tier-thin" => {
                    assert_eq!(n_tiers, 3);
                    // RSS 5120 > fast+slow 3584: the chain's tail must
                    // be holding the overflow while the cell runs.
                    assert!(used_nvm > 0, "thin shape never spilled to nvm: {row:?}");
                }
                other => panic!("unknown shape {other}"),
            }
            assert!(row.get("ops_total").and_then(Value::as_u64).unwrap() > 0);
        }
    }

    #[test]
    fn sweep_rows_are_identical_across_reruns() {
        let opts = TiersOpts {
            quanta: 3,
            all_policies: false,
        };
        let a = run_tiers(&opts);
        let b = run_tiers(&opts);
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.to_json(), rb.to_json());
        }
    }
}
