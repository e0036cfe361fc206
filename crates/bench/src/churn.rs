//! `vulcan-bench churn` — open-loop multi-tenant churn sweeps (ISSUE 6).
//!
//! The grid crosses arrival rates with the four paper policies on a
//! shared machine carrying two long-lived anchor tenants. Each cell
//! wraps an [`ExperimentCell`]'s paused runner in a
//! [`vulcan_churn::ChurnEngine`] and drives hundreds of tenant
//! lifetimes — Poisson arrivals, Pareto lifetimes, capacity-gated
//! admission, periodic compaction — then audits the wreckage:
//!
//! 1. **No panics** — every cell runs to completion at every rate.
//! 2. **Frame conservation** — after the final teardown sweep both tier
//!    allocators report zero used frames: no arrival/departure/
//!    compaction interleaving leaks a frame.
//! 3. **Churn scale** — the full sweep spawns at least
//!    [`ChurnOpts::min_spawned`] tenants per cell (the "hundreds of
//!    lifetimes" bar; relaxed in `--quick`).
//! 4. **Rate-0 identity** — a rate-0, compaction-off engine cell
//!    produces a [`RunResult`] identical to the same cell run through
//!    the plain static path (`ExperimentCell::run`): the churn engine
//!    is provably a no-op wrapper when nothing churns.
//!
//! Per-policy rows report windowed fairness (mean Jain over live-tenant
//! FTHR windows), mean windowed FTHR, and the p99 tail of per-quantum op
//! latency across all tenants — the "leave no one behind" metrics under
//! sustained tenancy churn. Cells are deterministic (counter-hashed
//! randomness, single-threaded engines), so the artifact is
//! byte-identical across thread counts and reruns.

use rayon::prelude::*;
use vulcan::prelude::*;
use vulcan_churn::{Catalog, ChurnConfig, ChurnEngine, ChurnReport};
use vulcan_json::{Map, Value};

use crate::suite::ExperimentCell;
use crate::SweepReport;

/// Base seed for every churn cell (one seed governs runner + engine).
const CHURN_SEED: u64 = 42;

/// Scale knobs for the churn sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChurnOpts {
    /// Arrival rates swept (tenants per displayed second).
    pub rates: &'static [f64],
    /// Quanta (displayed seconds) per cell.
    pub quanta: u64,
    /// Minimum tenants each cell must spawn (0 disables the check).
    pub min_spawned: u64,
}

impl ChurnOpts {
    /// The full grid: 2 rates × 4 policies, long enough that every cell
    /// spawns and retires well over 200 tenants.
    pub fn full() -> Self {
        ChurnOpts {
            rates: &[2.0, 4.0],
            quanta: 160,
            min_spawned: 200,
        }
    }

    /// CI scale: one rate, short cells, no tenant-count floor.
    pub fn quick() -> Self {
        ChurnOpts {
            rates: &[3.0],
            quanta: 16,
            min_spawned: 0,
        }
    }
}

/// The anchor co-location: a latency-critical front end and a
/// best-effort scan that never depart, preallocated so the capacity
/// they hold is physically real from quantum zero. Churned tenants
/// arrive and leave around them.
fn anchor_specs() -> Vec<WorkloadSpec> {
    let mut lc = microbench(
        "anchor-lc",
        MicroConfig {
            rss_pages: 512,
            wss_pages: 128,
            read_ratio: 0.9,
            skew: 1.1,
            ..Default::default()
        },
        2,
    )
    .preallocated(TierKind::Slow);
    lc.class = WorkloadClass::LatencyCritical;
    let be = microbench(
        "anchor-be",
        MicroConfig {
            rss_pages: 512,
            wss_pages: 256,
            read_ratio: 0.6,
            skew: 0.9,
            ..Default::default()
        },
        2,
    )
    .preallocated(TierKind::Slow);
    vec![lc, be]
}

fn base_cell(kind: PolicyKind, quanta: u64) -> ExperimentCell {
    ExperimentCell::new(kind, anchor_specs(), quanta, CHURN_SEED)
        .on_machine(MachineSpec::small(2_048, 32_768, 8))
        .with_quantum_active(Nanos::millis(1))
}

fn churn_cfg(rate: f64, quanta: u64) -> ChurnConfig {
    ChurnConfig {
        arrival_rate_per_sec: rate,
        lifetime_xm: Nanos::secs(2),
        lifetime_alpha: 2.0,
        n_quanta: quanta,
        max_queue: 8,
        queue_timeout: Nanos::secs(10),
        compaction_period: Nanos::secs(5),
        compaction_budget: 256,
    }
}

/// One grid point: a cell plus the churn configuration driving it.
struct ChurnCell {
    cell: ExperimentCell,
    cfg: ChurnConfig,
    rate: f64,
}

fn churn_grid(opts: &ChurnOpts) -> Vec<ChurnCell> {
    let mut grid = Vec::new();
    for &rate in opts.rates {
        for kind in PolicyKind::PAPER {
            let mut cell = base_cell(kind, opts.quanta);
            cell.label = format!("churn/{kind}/r{rate}");
            grid.push(ChurnCell {
                cell,
                cfg: churn_cfg(rate, opts.quanta),
                rate,
            });
        }
    }
    grid
}

/// Outcome of one churned cell: the artifact row plus any contract
/// violations observed.
struct CellOutcome {
    row: Value,
    violations: Vec<String>,
}

fn run_cell(c: &ChurnCell, min_spawned: u64) -> CellOutcome {
    let runner = c.cell.paused_runner();
    let engine = ChurnEngine::new(runner, c.cell.seed, c.cfg.clone(), Catalog::default_mix());
    let report = engine.run();
    let mut violations = Vec::new();

    if report.leaked_total() != 0 {
        violations.push(format!(
            "{}: frames leaked at teardown (per tier: {:?})",
            c.cell.label, report.leaked_by_tier
        ));
    }
    if min_spawned > 0 && report.stats.spawned() < min_spawned {
        violations.push(format!(
            "{}: only {} tenants spawned (churn floor is {min_spawned})",
            c.cell.label,
            report.stats.spawned()
        ));
    }
    // Arrival bookkeeping: every arrival admitted, queued or rejected.
    let s = &report.stats;
    if s.arrivals != s.admitted + s.queued + s.rejected {
        violations.push(format!(
            "{}: arrival ledger does not balance: {s:?}",
            c.cell.label
        ));
    }

    CellOutcome {
        row: cell_row(&c.cell.label, c.rate, &report),
        violations,
    }
}

fn cell_row(label: &str, rate: f64, report: &ChurnReport) -> Value {
    let s = &report.stats;
    let ops_total: u64 = report.run.per_workload.iter().map(|w| w.ops_total).sum();
    Value::Object(
        Map::new()
            .with("cell", label)
            .with("policy", report.run.policy.as_str())
            .with("rate", rate)
            .with("arrivals", s.arrivals)
            .with("spawned", s.spawned())
            .with("departed", s.departed)
            .with("retired_at_end", s.retired_at_end)
            .with("queued", s.queued)
            .with("admitted_from_queue", s.admitted_from_queue)
            .with("rejected", s.rejected)
            .with("timed_out", s.timed_out)
            .with("peak_active", s.peak_active)
            .with("compaction_rounds", s.compaction_rounds)
            .with("shadows_reclaimed", s.shadows_reclaimed)
            .with("compaction_promoted", s.compaction_promoted)
            .with("mean_windowed_jain", report.mean_windowed_jain())
            .with("mean_windowed_fthr", report.mean_windowed_fthr())
            .with("p99_latency_ns", report.p99_latency_ns())
            .with("ops_total", ops_total)
            .with("leaked_fast", report.leaked_fast)
            .with("leaked_slow", report.leaked_slow),
    )
}

/// Run the full sweep: one row per grid point in declaration order, then
/// one rate-0 control per policy, and every contract violation. Pure —
/// printing and exit codes are the binary's concern (and the tests').
pub fn run_churn(opts: &ChurnOpts) -> SweepReport {
    let grid = churn_grid(opts);
    let outcomes: Vec<CellOutcome> = grid
        .par_iter()
        .map(|c| run_cell(c, opts.min_spawned))
        .collect();

    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for o in outcomes {
        rows.push(o.row);
        violations.extend(o.violations);
    }

    // Rate-0 identity: an engine that schedules nothing must reproduce
    // the static path bit for bit — same summaries, same series.
    let controls: Vec<(Value, Vec<String>)> = PolicyKind::PAPER
        .into_par_iter()
        .map(|kind| {
            let mut cell = base_cell(kind, opts.quanta);
            cell.label = format!("churn/{kind}/r0");
            let baseline = cell.run();
            let engine = ChurnEngine::new(
                cell.paused_runner(),
                cell.seed,
                ChurnConfig {
                    n_quanta: opts.quanta,
                    ..ChurnConfig::control(opts.quanta)
                },
                Catalog::default_mix(),
            );
            let report = engine.run();
            let mut violations = Vec::new();
            if format!("{baseline:?}") != format!("{:?}", report.run) {
                violations.push(format!(
                    "{}: rate-0 engine diverged from the static run",
                    cell.label
                ));
            }
            if report.leaked_total() != 0 {
                violations.push(format!(
                    "{}: control cell leaked frames (per tier: {:?})",
                    cell.label, report.leaked_by_tier
                ));
            }
            if report.stats.arrivals != 0 || report.stats.compaction_rounds != 0 {
                violations.push(format!(
                    "{}: control cell scheduled events: {:?}",
                    cell.label, report.stats
                ));
            }
            (cell_row(&cell.label, 0.0, &report), violations)
        })
        .collect();
    for (row, vs) in controls {
        rows.push(row);
        violations.extend(vs);
    }

    SweepReport { rows, violations }
}

/// Render the sweep as a terminal table (one row per grid point).
pub fn churn_table(rows: &[Value]) -> Table {
    let mut table = Table::new(
        format!(
            "churn: open-loop tenancy sweep ({} threads)",
            rayon::pool::current_num_threads()
        ),
        &[
            "cell",
            "rate",
            "spawned",
            "departed",
            "rejected",
            "peak",
            "jain(win)",
            "p99 lat (us)",
        ],
    );
    for row in rows {
        let u = |k: &str| {
            row.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_default()
                .to_string()
        };
        let f = |k: &str| row.get(k).and_then(Value::as_f64);
        table.row(&[
            row.get("cell")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            format!("{:.1}", f("rate").unwrap_or_default()),
            u("spawned"),
            u("departed"),
            u("rejected"),
            u("peak_active"),
            f("mean_windowed_jain")
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into()),
            f("p99_latency_ns")
                .map(|v| format!("{:.1}", v / 1e3))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-rate micro sweep: the full contract on a grid small enough
    /// for CI unit tests.
    #[test]
    fn micro_sweep_upholds_the_churn_contract() {
        let opts = ChurnOpts {
            rates: &[5.0],
            quanta: 8,
            min_spawned: 1,
        };
        let report = run_churn(&opts);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        // 1 rate × 4 policies + 4 rate-0 controls.
        assert_eq!(report.rows.len(), 4 + 4);
        // Every churn cell spawned tenants; every control spawned none.
        for row in &report.rows[..4] {
            assert!(row.get("spawned").and_then(Value::as_u64).unwrap() >= 1);
        }
        for row in &report.rows[4..] {
            assert_eq!(row.get("spawned").and_then(Value::as_u64), Some(0));
            assert_eq!(row.get("arrivals").and_then(Value::as_u64), Some(0));
        }
    }

    #[test]
    fn sweep_rows_are_identical_across_reruns() {
        let opts = ChurnOpts {
            rates: &[4.0],
            quanta: 6,
            min_spawned: 0,
        };
        let a = run_churn(&opts);
        let b = run_churn(&opts);
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.to_json(), rb.to_json());
        }
    }
}
