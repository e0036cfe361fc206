//! `vulcan-bench tournament` — fork one checkpoint across the policy
//! registry and a set of what-if machine knobs (ISSUE 10).
//!
//! The checkpoint/restore layer makes a new kind of experiment cheap:
//! run a pressured co-location to a mid-run quantum *once* under an
//! origin policy, checkpoint it, then fork that frozen placement into
//! every registered policy crossed with re-parameterized machines — the
//! "what if CXL had twice the bandwidth" and "what if the NVM device
//! were thinner" questions — without replaying the common prefix per
//! contestant. Every fork answers the same question from the same
//! starting state: given this exact page placement, heat history and
//! in-flight pressure, which policy serves the remaining quanta best?
//!
//! Forks start the policy cold (no policy state is replayed — profiler
//! families are paired with policies, so each fork also gets fresh
//! profilers), which is precisely the "operator swaps the policy live"
//! scenario. The origin policy's own baseline fork is the reference
//! row: per-row deltas (FTHR, Jain, p99, final fast-tier occupancy) are
//! against it, so "what would switching buy" reads directly off the
//! artifact. Every fork is torn down and audited for frame
//! conservation on every chain tier; rows land ranked by mean FTHR in
//! `target/experiments/tournament.json`, byte-identical across reruns
//! and thread counts.

use rayon::prelude::*;
use vulcan::prelude::*;
use vulcan::runtime::{SimConfig, SimRunner};
use vulcan::sim::MAX_TIERS;
use vulcan_json::{Map, Value};

use crate::{teardown_audit, SweepReport};

/// Base seed for the origin run.
const TOURNAMENT_SEED: u64 = 17;

/// One what-if machine re-parameterization.
pub struct Knob {
    /// Row label (`baseline`, `cxl2x`, `nvm-thin`).
    pub name: &'static str,
    /// Transform the origin spec; identity for the baseline.
    pub respec: fn(&MachineSpec) -> Option<MachineSpec>,
}

/// The swept knobs, in grid order. The shape/capacity/core-count are
/// invariant by the fork contract — only latency, bandwidth and cost
/// parameters move.
pub const KNOBS: [Knob; 3] = [
    Knob {
        name: "baseline",
        respec: |_| None,
    },
    Knob {
        // The CXL link doubles its per-direction bandwidth: queueing
        // inflation on the slow tier halves at equal pressure.
        name: "cxl2x",
        respec: |spec| {
            let mut s = spec.clone();
            s.tier_mut(TierKind::Slow).bandwidth_bytes_per_ns *= 2.0;
            Some(s)
        },
    },
    Knob {
        // A thinned NVM device: half the bandwidth, double the media
        // latency — the cheap-capacity end of the design space.
        name: "nvm-thin",
        respec: |spec| {
            let mut s = spec.clone();
            s.tier_mut(TierKind::Nvm).bandwidth_bytes_per_ns /= 2.0;
            s.access_costs.nvm = Nanos(s.access_costs.nvm.0 * 2);
            Some(s)
        },
    },
];

/// Scale knobs for the tournament.
#[derive(Clone, Copy, Debug)]
pub struct TournamentOpts {
    /// Origin policy that runs the common prefix.
    pub origin: PolicyKind,
    /// Quantum the common checkpoint is taken at.
    pub fork_at: u64,
    /// Total quanta (prefix + forked continuation).
    pub quanta: u64,
    /// Fork the full registry or just the four paper systems.
    pub all_policies: bool,
}

impl TournamentOpts {
    /// The full tournament: every registered policy × every knob.
    pub fn full() -> Self {
        TournamentOpts {
            origin: PolicyKind::Vulcan,
            fork_at: 12,
            quanta: 36,
            all_policies: true,
        }
    }

    /// CI scale: shorter prefix and continuation, same full registry —
    /// the acceptance bar wants all four paper policies over every
    /// knob, and the registry is a superset.
    pub fn quick() -> Self {
        TournamentOpts {
            origin: PolicyKind::Vulcan,
            fork_at: 4,
            quanta: 12,
            all_policies: true,
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

/// The contested machine: the *thin* 3-tier shape from the tiers sweep
/// — combined workload RSS (5 120 pages) exceeds fast+slow (3 584), so
/// the NVM tier genuinely holds pages and the nvm-thin knob has a real
/// device to thin.
fn tournament_machine() -> MachineSpec {
    MachineSpec::small3(1_536, 2_048, 8_192, 8)
}

/// The contested co-location: a latency-critical front end and the
/// THP-backed buffer-pool family, preallocated down-chain — the same
/// pressure family the tiers sweep uses, so fork placements are
/// genuinely contended when the checkpoint is cut.
fn tournament_specs() -> Vec<WorkloadSpec> {
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

/// Metrics of one completed fork, before ranking/deltas are applied.
struct ForkOutcome {
    policy: String,
    knob: &'static str,
    mean_fthr: f64,
    jain_fthr: f64,
    p99_latency_ns: Option<f64>,
    cfi: f64,
    ops_total: u64,
    used: [u64; MAX_TIERS],
    violations: Vec<String>,
}

/// Fork the checkpoint under (`kind`, `knob`), run the continuation to
/// completion, audit teardown on every chain tier, and summarize.
fn run_fork(ck: &Value, kind: PolicyKind, knob: &Knob) -> Result<ForkOutcome, String> {
    let respec = (knob.respec)(&tournament_machine());
    let mut runner = SimRunner::fork(ck, kind.make(), move |_| kind.profiler(), respec)
        .map_err(|e| format!("fork {kind}/{}: {e}", knob.name))?;
    let total = runner.n_quanta();
    while runner.state.quantum_index < total {
        runner.run_quantum();
    }

    let (used, violations) = teardown_audit(&mut runner.state, &format!("{kind}/{}", knob.name));

    let res = runner.into_result();
    let fthrs: Vec<f64> = res.per_workload.iter().map(|w| w.mean_fthr).collect();
    let mean_fthr = fthrs.iter().sum::<f64>() / fthrs.len().max(1) as f64;
    let mut latencies: Vec<f64> = res
        .per_workload
        .iter()
        .filter_map(|w| res.series.get(&format!("{}.latency_ns", w.name)))
        .flat_map(|s| s.points.iter().map(|&(_, v)| v))
        .collect();
    Ok(ForkOutcome {
        policy: res.policy.clone(),
        knob: knob.name,
        mean_fthr,
        jain_fthr: jain_index(&fthrs),
        p99_latency_ns: vulcan::metrics::percentile(&mut latencies, 99.0),
        cfi: res.cfi,
        ops_total: res.per_workload.iter().map(|w| w.ops_total).sum(),
        used,
        violations,
    })
}

/// Run the tournament: one row per (policy × knob) fork, ranked by mean
/// FTHR, and every fork failure and frame-conservation violation. Pure
/// — printing and exit codes are the binary's concern (and the tests').
pub fn run_tournament(opts: &TournamentOpts) -> SweepReport {
    // The common prefix: one origin run to the fork quantum. The full
    // horizon goes into the config — the checkpoint carries it, so
    // every fork knows how many quanta remain.
    let origin_kind = opts.origin;
    let mut origin = SimRunner::builder()
        .machine(tournament_machine())
        .workloads(tournament_specs())
        .profiler_factory(move |_| origin_kind.profiler())
        .policy(origin_kind.make())
        .config(SimConfig {
            n_quanta: opts.quanta,
            seed: TOURNAMENT_SEED,
            quantum_active: Nanos::millis(1),
            ..Default::default()
        })
        .build();
    for _ in 0..opts.fork_at {
        origin.run_quantum();
    }
    let ck = match origin.checkpoint() {
        Ok(v) => v,
        Err(e) => {
            return SweepReport {
                rows: Vec::new(),
                violations: vec![format!("origin checkpoint failed: {e}")],
            }
        }
    };

    let grid: Vec<(PolicyKind, &Knob)> = opts
        .policies()
        .iter()
        .flat_map(|&k| KNOBS.iter().map(move |knob| (k, knob)))
        .collect();
    let outcomes: Vec<Result<ForkOutcome, String>> = grid
        .par_iter()
        .map(|&(kind, knob)| run_fork(&ck, kind, knob))
        .collect();

    let mut violations = Vec::new();
    let mut forks = Vec::new();
    for o in outcomes {
        match o {
            Ok(f) => {
                violations.extend(f.violations.iter().cloned());
                forks.push(f);
            }
            Err(e) => violations.push(e),
        }
    }

    // Reference row: the origin policy's own baseline fork — the same
    // cold start every contestant gets, so deltas isolate the policy
    // and knob, not the restart.
    let origin_name = opts.origin.to_string();
    let reference = forks
        .iter()
        .find(|f| f.policy == origin_name && f.knob == "baseline")
        .map(|f| (f.mean_fthr, f.jain_fthr, f.p99_latency_ns, f.used));

    // Rank by mean FTHR, ties broken by (policy, knob) for determinism.
    let mut order: Vec<usize> = (0..forks.len()).collect();
    order.sort_by(|&a, &b| {
        forks[b]
            .mean_fthr
            .partial_cmp(&forks[a].mean_fthr)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| forks[a].policy.cmp(&forks[b].policy))
            .then_with(|| forks[a].knob.cmp(forks[b].knob))
    });

    let rows = order
        .iter()
        .enumerate()
        .map(|(rank, &i)| {
            let f = &forks[i];
            let mut m = Map::new()
                .with("rank", (rank + 1) as u64)
                .with("policy", f.policy.as_str())
                .with("knob", f.knob)
                .with("origin_policy", origin_name.as_str())
                .with("fork_at", opts.fork_at)
                .with("quanta", opts.quanta)
                .with("mean_fthr", f.mean_fthr)
                .with("jain_fthr", f.jain_fthr)
                .with("cfi", f.cfi)
                .with("ops_total", f.ops_total)
                .with("used_fast", f.used[TierKind::Fast.index()])
                .with("used_slow", f.used[TierKind::Slow.index()])
                .with("used_nvm", f.used[TierKind::Nvm.index()]);
            m = match f.p99_latency_ns {
                Some(p) => m.with("p99_latency_ns", p),
                None => m.with("p99_latency_ns", Value::Null),
            };
            if let Some((ref_fthr, ref_jain, ref_p99, ref_used)) = &reference {
                m = m
                    .with("delta_fthr", f.mean_fthr - ref_fthr)
                    .with("delta_jain", f.jain_fthr - ref_jain)
                    .with(
                        "delta_used_fast",
                        f.used[TierKind::Fast.index()] as i64
                            - ref_used[TierKind::Fast.index()] as i64,
                    );
                m = match (f.p99_latency_ns, ref_p99) {
                    (Some(p), Some(r)) => m.with("delta_p99_ns", p - r),
                    _ => m.with("delta_p99_ns", Value::Null),
                };
            }
            Value::Object(m)
        })
        .collect();
    SweepReport { rows, violations }
}

/// Render the tournament as a terminal table, ranked rows first.
pub fn tournament_table(rows: &[Value]) -> Table {
    let mut table = Table::new(
        format!(
            "tournament: forked policy race ({} threads)",
            rayon::pool::current_num_threads()
        ),
        &[
            "rank", "policy", "knob", "FTHR", "dFTHR", "jain", "p99 (us)", "fast use",
        ],
    );
    for row in rows {
        let u = |k: &str| row.get(k).and_then(Value::as_u64).unwrap_or_default();
        let f = |k: &str| row.get(k).and_then(Value::as_f64);
        table.row(&[
            u("rank").to_string(),
            row.get("policy")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            row.get("knob")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            format!("{:.3}", f("mean_fthr").unwrap_or_default()),
            f("delta_fthr")
                .map(|v| format!("{v:+.3}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.3}", f("jain_fthr").unwrap_or_default()),
            f("p99_latency_ns")
                .map(|v| format!("{:.1}", v / 1e3))
                .unwrap_or_else(|| "-".into()),
            u("used_fast").to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TournamentOpts {
        TournamentOpts {
            origin: PolicyKind::Vulcan,
            fork_at: 3,
            quanta: 10,
            all_policies: false,
        }
    }

    #[test]
    fn forks_cover_the_grid_and_conserve_frames() {
        let report = run_tournament(&tiny());
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert_eq!(report.rows.len(), PolicyKind::PAPER.len() * KNOBS.len());
        // Every (policy, knob) pair appears exactly once and rank is a
        // permutation of 1..=N.
        let mut pairs: Vec<(String, String)> = report
            .rows
            .iter()
            .map(|r| {
                (
                    r.get("policy").and_then(Value::as_str).unwrap().to_string(),
                    r.get("knob").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), report.rows.len());
        let mut ranks: Vec<u64> = report
            .rows
            .iter()
            .map(|r| r.get("rank").and_then(Value::as_u64).unwrap())
            .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=ranks.len() as u64).collect::<Vec<_>>());
        for row in &report.rows {
            assert!(row.get("ops_total").and_then(Value::as_u64).unwrap() > 0);
        }
    }

    #[test]
    fn origin_baseline_fork_has_zero_deltas() {
        let report = run_tournament(&tiny());
        let origin = report
            .rows
            .iter()
            .find(|r| {
                r.get("policy").and_then(Value::as_str) == Some("vulcan")
                    && r.get("knob").and_then(Value::as_str) == Some("baseline")
            })
            .expect("origin baseline row");
        assert_eq!(origin.get("delta_fthr").and_then(Value::as_f64), Some(0.0));
        assert_eq!(origin.get("delta_jain").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            origin.get("delta_used_fast").and_then(Value::as_i64),
            Some(0)
        );
    }

    #[test]
    fn rows_are_identical_across_reruns() {
        let a = run_tournament(&tiny());
        let b = run_tournament(&tiny());
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.to_json(), rb.to_json());
        }
    }

    #[test]
    fn knobs_change_the_race() {
        // The what-if machines must actually bite. The thin shape keeps
        // the NVM tier resident (RSS > fast+slow), so doubling the NVM
        // media latency must move every policy's p99 — a knob that
        // changes nothing would make the tournament's what-if axis a
        // no-op.
        let report = run_tournament(&tiny());
        let ops = |policy: &str, knob: &str| -> u64 {
            report
                .rows
                .iter()
                .find(|r| {
                    r.get("policy").and_then(Value::as_str) == Some(policy)
                        && r.get("knob").and_then(Value::as_str) == Some(knob)
                })
                .and_then(|r| r.get("ops_total").and_then(Value::as_u64))
                .unwrap()
        };
        for kind in PolicyKind::PAPER {
            let p = kind.to_string();
            let (base, thin) = (ops(&p, "baseline"), ops(&p, "nvm-thin"));
            assert!(
                thin < base,
                "{p}: doubling resident-NVM latency did not cost any work \
                 (baseline {base} ops, nvm-thin {thin} ops)"
            );
        }
    }
}
