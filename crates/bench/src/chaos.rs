//! `vulcan-bench chaos` — deterministic fault-injection sweeps over the
//! migration/allocation substrate (ISSUE 5).
//!
//! The grid crosses every [`FaultSite`] with a set of fault rates and
//! all four paper policies on a pressured co-location (combined RSS >
//! fast tier, one workload departing mid-run with transactions
//! potentially in flight). Each cell is stepped quantum by quantum so
//! the harness can observe fault tallies as they accrue, then torn down
//! and audited. The sweep asserts the degradation contract end to end:
//!
//! 1. **No panics** — every cell runs to completion under every fault
//!    class at every rate (transient failures requeue, permanent ones
//!    abort-escalate, allocation exhaustion degrades to stall + retry).
//! 2. **Frame conservation** — after tearing every workload down, every
//!    chain tier's allocator reports zero used frames: no fault path
//!    leaks a frame or double-frees one.
//! 3. **FTHR ≥ GPT** — Vulcan's QoS floor survives injected faults
//!    (CBFRP shrinks quotas under sustained capacity faults instead of
//!    over-promising).
//! 4. **Rate-0 identity** — a config with every rate at zero is an
//!    exact no-op: its cells produce results identical to cells with no
//!    fault plan at all. (The driver-level complement — the seed suite
//!    artifact staying byte-identical — is checked in CI by hashing
//!    `target/experiments/suite.json`.)
//!
//! Latency percentiles over the *throttled-quantum* window exercise
//! [`vulcan::metrics::percentile`]'s empty-window path: for every
//! non-throttle fault site the window is legitimately empty and the
//! artifact records `null` rather than the harness dying (the ISSUE 5
//! regression).

use rayon::prelude::*;
use vulcan::prelude::*;
use vulcan::sim::{FaultConfig, FaultSite};
use vulcan_json::{Map, Value};

use crate::suite::ExperimentCell;
use crate::{teardown_audit, SweepReport};

/// Tolerance on the FTHR ≥ GPT comparison: both are per-quantum EMAs
/// sampled at slightly different points of the control loop, so a small
/// transient undershoot is measurement skew, not a broken guarantee.
const FTHR_SLACK: f64 = 0.05;

/// Quanta of the FTHR/GPT tail window (the steady state after CBFRP has
/// reacted to the fault pattern).
const TAIL_QUANTA: usize = 5;

/// Scale knobs for the chaos sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOpts {
    /// Fault rates swept per site.
    pub rates: &'static [f64],
    /// Quanta per cell.
    pub quanta: u64,
}

impl ChaosOpts {
    /// The full grid: 3 rates × 7 sites × 4 policies.
    pub fn full() -> Self {
        ChaosOpts {
            rates: &[0.01, 0.1, 0.5],
            quanta: 30,
        }
    }

    /// CI scale: 2 rates, shorter cells.
    pub fn quick() -> Self {
        ChaosOpts {
            rates: &[0.05, 0.5],
            quanta: 12,
        }
    }
}

/// The chaos co-location: a latency-critical front end, a best-effort
/// scan, and a workload that departs mid-run (tearing down under load,
/// with async transactions potentially in flight). Combined RSS (4608
/// pages) exceeds the fast tier (1536), so allocation faults land on a
/// genuinely contended allocator.
fn chaos_specs(quanta: u64) -> Vec<WorkloadSpec> {
    // Preallocated so `rss_pages()` (mapped pages, the GPT denominator)
    // is the full spec RSS from quantum zero — GPT is then a stable,
    // attainable capacity fraction rather than a transient 1.0 while the
    // mapping is still smaller than the guaranteed share.
    let mut lc = microbench(
        "lc",
        MicroConfig {
            rss_pages: 1_536,
            wss_pages: 256,
            read_ratio: 0.9,
            skew: 1.1,
            ..Default::default()
        },
        4,
    )
    .preallocated(TierKind::Slow);
    lc.class = WorkloadClass::LatencyCritical;
    let be = microbench(
        "be",
        MicroConfig {
            rss_pages: 2_048,
            wss_pages: 512,
            read_ratio: 0.5,
            skew: 0.9,
            ..Default::default()
        },
        4,
    )
    .preallocated(TierKind::Slow);
    let dep = microbench(
        "dep",
        MicroConfig {
            rss_pages: 1_024,
            wss_pages: 128,
            ..Default::default()
        },
        2,
    )
    .preallocated(TierKind::Slow)
    .stopping_at(Nanos::millis(quanta / 2));
    vec![lc, be, dep]
}

fn base_cell(kind: PolicyKind, quanta: u64) -> ExperimentCell {
    ExperimentCell::new(kind, chaos_specs(quanta), quanta, 7)
        .on_machine(MachineSpec::small(1_536, 8_192, 8))
        .with_quantum_active(Nanos::millis(1))
}

/// One grid point: `(cell, fault site, rate)`. `site == None` marks the
/// rate-0 control cells.
struct ChaosCell {
    cell: ExperimentCell,
    site: Option<FaultSite>,
    rate: f64,
}

fn chaos_grid(opts: &ChaosOpts) -> Vec<ChaosCell> {
    let mut grid = Vec::new();
    for site in FaultSite::ALL {
        for &rate in opts.rates {
            for kind in PolicyKind::PAPER {
                let mut cell =
                    base_cell(kind, opts.quanta).with_faults(FaultConfig::single(site, rate));
                if site == FaultSite::AllocNvm {
                    // The nvm alloc site can only fire on a machine that
                    // has the tier *and* spills into it: fast + slow
                    // (3584 pages) < combined RSS (4608), so prealloc
                    // overflows down the chain onto nvm.
                    cell = cell.on_machine(MachineSpec::small3(1_536, 2_048, 8_192, 8));
                }
                cell.label = format!("{}/{kind}/r{rate}", site.name());
                grid.push(ChaosCell {
                    cell,
                    site: Some(site),
                    rate,
                });
            }
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

fn tail_mean(points: &[(f64, f64)], n: usize) -> Option<f64> {
    if points.is_empty() {
        return None;
    }
    let tail = &points[points.len().saturating_sub(n)..];
    Some(tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64)
}

/// Step one cell to completion, audit teardown, and summarize. The
/// stepping (rather than [`ExperimentCell::run`]) is what lets the
/// harness snapshot fault tallies per quantum and inspect the machine
/// after teardown.
fn run_cell(c: &ChaosCell) -> CellOutcome {
    let mut violations = Vec::new();
    let mut runner = c.cell.paused_runner();

    // Per-quantum throttle snapshots: quanta during which a bandwidth
    // throttle fired form the latency window below.
    let throttle_idx = FaultSite::Throttle.index();
    let mut throttled_quanta: Vec<usize> = Vec::new();
    let mut last_throttle = 0u64;
    for q in 0..c.cell.quanta {
        runner.run_quantum();
        let injected = runner.state.machine.faults.stats().injected[throttle_idx];
        if injected > last_throttle {
            throttled_quanta.push(q as usize);
            last_throttle = injected;
        }
    }

    let stats = runner.state.machine.faults.stats().clone();
    let injected: u64 = stats.injected.iter().sum();
    let recovered: u64 = stats.recovered.iter().sum();
    if c.site.is_none() && injected != 0 {
        violations.push(format!(
            "{}: control cell injected {injected} faults",
            c.cell.label
        ));
    }

    // Teardown audit: every workload down, zero frames still allocated
    // on any chain tier.
    violations.extend(teardown_audit(&mut runner.state, &c.cell.label).1);

    let res = runner.into_result();

    // Vulcan's QoS floor: steady-state FTHR stays at or above the
    // guaranteed-page threshold for the resident workloads. The
    // departing workload is excluded (its series ends mid-run).
    if res.policy == "vulcan" {
        for name in ["lc", "be"] {
            let fthr = res.series.get(&format!("{name}.fthr"));
            let gpt = res.series.get(&format!("{name}.gpt"));
            if let (Some(f), Some(g)) = (fthr, gpt) {
                if let (Some(fm), Some(gm)) = (
                    tail_mean(&f.points, TAIL_QUANTA),
                    tail_mean(&g.points, TAIL_QUANTA),
                ) {
                    if fm + FTHR_SLACK < gm {
                        violations.push(format!(
                            "{}: {name} FTHR {fm:.3} below GPT {gm:.3} under faults",
                            c.cell.label
                        ));
                    }
                }
            }
        }
    }

    // Latency percentiles over the throttled-quantum window. Empty for
    // every non-throttle site: `percentile` returns `None` and the row
    // records `null` (the ISSUE 5 empty-window regression path).
    let lat = res.series.get("lc.latency_ns");
    let mut window: Vec<f64> = throttled_quanta
        .iter()
        .filter_map(|&q| lat.and_then(|s| s.points.get(q)).map(|&(_, v)| v))
        .collect();
    let p50 = vulcan::metrics::percentile(&mut window, 50.0);
    let p99 = vulcan::metrics::percentile(&mut window, 99.0);

    let ops_total: u64 = res.per_workload.iter().map(|w| w.ops_total).sum();
    let row = Value::Object(
        Map::new()
            .with("cell", c.cell.label.as_str())
            .with("policy", res.policy.as_str())
            .with("site", c.site.map(FaultSite::name).unwrap_or("none"))
            .with("rate", c.rate)
            .with("cfi", res.cfi)
            .with("ops_total", ops_total)
            .with("injected", injected)
            .with("recovered", recovered)
            .with("throttled_quanta", throttled_quanta.len())
            .with("p50_throttled_latency_ns", p50)
            .with("p99_throttled_latency_ns", p99),
    );
    CellOutcome { row, violations }
}

/// Run the full sweep: one row per grid point (fault cells first, then
/// the rate-0 control cells) and every degradation-contract violation.
/// Pure — printing and exit codes are the binary's concern (and the
/// tests').
pub fn run_chaos(opts: &ChaosOpts) -> SweepReport {
    let grid = chaos_grid(opts);
    let outcomes: Vec<CellOutcome> = grid.par_iter().map(run_cell).collect();

    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for o in outcomes {
        rows.push(o.row);
        violations.extend(o.violations);
    }

    // Rate-0 identity: an installed-but-all-zero fault config must be an
    // exact no-op. Both variants share a label so the rows — cfi, ops,
    // percentiles and all — must compare equal value for value.
    let controls: Vec<(CellOutcome, CellOutcome)> = PolicyKind::PAPER
        .into_par_iter()
        .map(|kind| {
            let mut plain = base_cell(kind, opts.quanta);
            plain.label = format!("none/{kind}/r0");
            let zero = {
                let mut c = plain.clone().with_faults(FaultConfig::default());
                c.label = plain.label.clone();
                c
            };
            let plain = ChaosCell {
                cell: plain,
                site: None,
                rate: 0.0,
            };
            let zero = ChaosCell {
                cell: zero,
                site: None,
                rate: 0.0,
            };
            (run_cell(&plain), run_cell(&zero))
        })
        .collect();
    for (plain, zero) in controls {
        if plain.row != zero.row {
            violations.push(format!(
                "rate-0 config diverged from no-fault-plan run: {} vs {}",
                plain.row.to_json(),
                zero.row.to_json()
            ));
        }
        violations.extend(plain.violations);
        violations.extend(zero.violations);
        rows.push(plain.row);
    }

    SweepReport { rows, violations }
}

/// Render the sweep as a terminal table (one row per grid point).
pub fn chaos_table(rows: &[Value]) -> Table {
    let mut table = Table::new(
        format!(
            "chaos: fault-injection sweep ({} threads)",
            rayon::pool::current_num_threads()
        ),
        &["cell", "policy", "rate", "injected", "recovered", "CFI"],
    );
    for row in rows {
        let s = |k: &str| {
            row.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let u = |k: &str| {
            row.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_default()
                .to_string()
        };
        table.row(&[
            s("cell"),
            s("policy"),
            format!(
                "{:.2}",
                row.get("rate").and_then(Value::as_f64).unwrap_or_default()
            ),
            u("injected"),
            u("recovered"),
            format!(
                "{:.3}",
                row.get("cfi").and_then(Value::as_f64).unwrap_or_default()
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-rate, one-policy-set micro sweep: the full contract on a
    /// grid small enough for CI unit tests.
    #[test]
    fn micro_sweep_upholds_the_degradation_contract() {
        let opts = ChaosOpts {
            rates: &[0.5],
            quanta: 6,
        };
        let report = run_chaos(&opts);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        // 7 sites × 1 rate × 4 policies + 4 rate-0 controls.
        assert_eq!(report.rows.len(), 7 * 4 + 4);
        // At rate 0.5 every fault *site* injected something (individual
        // cells can legitimately stay clean — a policy that has not
        // migrated anything yet cannot hit a copy fault).
        for site in FaultSite::ALL {
            let injected: u64 = report.rows[..28]
                .iter()
                .filter(|r| r.get("site").and_then(Value::as_str) == Some(site.name()))
                .map(|r| r.get("injected").and_then(Value::as_u64).unwrap())
                .sum();
            assert!(injected > 0, "site {} never injected", site.name());
        }
        // Control cells injected nothing.
        for row in &report.rows[28..] {
            assert_eq!(row.get("injected").and_then(Value::as_u64), Some(0));
            assert_eq!(row.get("site").and_then(Value::as_str), Some("none"));
        }
    }

    #[test]
    fn non_throttle_cells_record_null_latency_percentiles() {
        let opts = ChaosOpts {
            rates: &[0.5],
            quanta: 4,
        };
        let report = run_chaos(&opts);
        let copy_row = report
            .rows
            .iter()
            .find(|r| r.get("site").and_then(Value::as_str) == Some("copy_fail"))
            .unwrap();
        assert!(copy_row.get("p50_throttled_latency_ns").unwrap().is_null());
        let throttle_row = report
            .rows
            .iter()
            .find(|r| r.get("site").and_then(Value::as_str) == Some("throttle"))
            .unwrap();
        assert!(!throttle_row
            .get("p50_throttled_latency_ns")
            .unwrap()
            .is_null());
    }
}
