//! The scalar access loop that the batched plane sweep replaced: one
//! `next_op` per operation, one [`simulate_access`] per access, the
//! profiler fed inline. It is the reference the lockstep tests below hold
//! the sweep to. Only this crate's tests compile it, and no
//! configuration can select it: a test opts its own thread in with
//! [`with_reference`].

use std::cell::Cell;

use crate::access::simulate_access_unprofiled;
use crate::state::{WorkloadState, WorkloadStats};
use vulcan_migrate::ShadowRegistry;
use vulcan_profile::AnyProfiler;
use vulcan_sim::{CoreId, FaultSite, Machine, Nanos};
use vulcan_vm::{LocalTid, Process, TlbArray, Vpn};

thread_local! {
    static SELECTED: Cell<bool> = const { Cell::new(false) };
}

/// Whether quanta stepped on this thread run the reference loop.
pub(crate) fn selected() -> bool {
    SELECTED.with(Cell::get)
}

/// Run `f` with every thread quantum stepped on this thread driven by
/// the reference loop instead of the plane sweep.
pub(crate) fn with_reference<T>(f: impl FnOnce() -> T) -> T {
    SELECTED.with(|s| s.set(true));
    let out = f();
    SELECTED.with(|s| s.set(false));
    out
}

/// Simulate one memory access of `tid` to `vpn`; returns its latency.
/// Feeds the profiler inline: the hint fault first, then the access
/// unless the fault plan drops its sample.
#[allow(clippy::too_many_arguments)]
fn simulate_access(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    process: &mut Process,
    profiler: &mut AnyProfiler,
    shadows: &mut ShadowRegistry,
    stats: &mut WorkloadStats,
    quota: u64,
    thp: bool,
    core: CoreId,
    tid: LocalTid,
    vpn: Vpn,
    write: bool,
) -> Nanos {
    let (t, hint) = simulate_access_unprofiled(
        machine, tlbs, process, shadows, stats, quota, thp, core, tid, vpn, write,
    );
    if hint {
        profiler.on_hint_fault(vpn, write);
    }
    if machine.faults.sample_dropped() {
        machine.faults.note_recovery(FaultSite::SampleDrop);
    } else {
        profiler.on_access(vpn, write);
    }
    t
}

/// Run one thread of a workload for (at least) `budget` of simulated
/// time, completing whole operations, one access at a time.
pub(crate) fn run_thread_quantum(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    ws: &mut WorkloadState,
    thread_idx: usize,
    budget: Nanos,
) {
    let quota = ws.effective_quota();
    let thp = ws.spec.thp;
    let tid = LocalTid(u8::try_from(thread_idx).expect("thread index fits the 7-bit PTE field"));
    let WorkloadState {
        gen,
        rngs,
        process,
        profiler,
        shadows,
        stats,
        ..
    } = ws;
    let core = machine
        .topology
        .core_of(process.sim_thread(tid))
        .expect("threads are pinned at construction");
    let rng = &mut rngs[thread_idx];
    let mut buf: Vec<vulcan_workloads::PageAccess> = Vec::with_capacity(16);
    let mut used = Nanos::ZERO;
    while used < budget {
        buf.clear();
        gen.next_op(thread_idx, rng, &mut buf);
        let mut t = gen.fixed_op_nanos();
        for a in &buf {
            t += simulate_access(
                machine,
                tlbs,
                process,
                profiler,
                shadows,
                stats,
                quota,
                thp,
                core,
                tid,
                Vpn(a.offset),
                a.write,
            );
        }
        used += t;
        stats.ops_q += 1;
        stats.ops_total += 1;
        stats.op_latency_q += t;
    }
    ws.stats.active_q += used;
}

/// The plane sweep's contract: it is a host-side speedup, never a
/// results change. Every generator kind, stepped through the sweep and
/// through the reference loop, must yield byte-identical
/// [`QuantumOutcome`](crate::QuantumOutcome)s and byte-identical
/// checkpoints — page tables, TLBs, heat tables, generator cursors, RNG
/// streams and fault-plan counters — after every quantum.
mod tests {
    use super::with_reference;
    use crate::access::BATCH_OPS;
    use crate::{QuantumOutcome, SimConfig, SimRunner, SystemState, TieringPolicy};
    use std::sync::Arc;
    use vulcan_migrate::MechanismConfig;
    use vulcan_sim::{FaultConfig, FaultSite, MachineSpec, Nanos, TierKind};
    use vulcan_vm::Vpn;
    use vulcan_workloads::{
        bufferpool, microbench, replay, BufferPoolConfig, KvConfig, KvStore, MicroConfig, PrConfig,
        SweepConfig, Trace, WorkloadClass, WorkloadKind, WorkloadSpec,
    };

    /// Shuttles pages both ways every quantum: sync promotions stall and
    /// shoot down TLBs, background demotions age out. The sweep's TLB
    /// probes then run against entries that migrations invalidated.
    struct Shuttle {
        mech: MechanismConfig,
    }

    fn resident(st: &SystemState, w: usize, tier: TierKind, cap: usize) -> Vec<Vpn> {
        let space = &st.workloads[w].process.space;
        space
            .mapped_vpns()
            .filter(|&v| space.pte(v).tier() == Some(tier))
            .take(cap)
            .collect()
    }

    impl TieringPolicy for Shuttle {
        fn name(&self) -> &'static str {
            "shuttle"
        }

        fn on_quantum(&mut self, st: &mut SystemState) {
            for w in 0..st.n_workloads() {
                if !st.workloads[w].started {
                    continue;
                }
                let up = resident(st, w, TierKind::Slow, 8);
                if !up.is_empty() {
                    st.migrate_sync(w, &up, TierKind::Fast, &self.mech);
                }
                let down = resident(st, w, TierKind::Fast, 4);
                if !down.is_empty() {
                    st.migrate_background(w, &down, TierKind::Slow, &self.mech);
                }
            }
        }
    }

    fn spec(name: &str, kind: WorkloadKind, class: WorkloadClass) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            class,
            n_threads: 2,
            start: Nanos::ZERO,
            kind,
            prealloc: None,
            thp: false,
            stop: None,
        }
    }

    /// One workload of every generator kind, scaled to small RSSs: the
    /// Table 2 applications, the buffer pool, the microbenchmark (the
    /// one generator with a specialized fill) and a trace replay.
    fn every_generator(thp: bool) -> Vec<WorkloadSpec> {
        let trace = {
            let mut g = KvStore::new(KvConfig {
                rss_pages: 384,
                ..Default::default()
            });
            Arc::new(Trace::record(&mut g, 2, 300, 3))
        };
        let lc = WorkloadClass::LatencyCritical;
        let be = WorkloadClass::BestEffort;
        let mut specs = vec![
            spec(
                "kv",
                WorkloadKind::Kv(KvConfig {
                    rss_pages: 512,
                    ..Default::default()
                }),
                lc,
            ),
            spec(
                "pr",
                WorkloadKind::PageRank(PrConfig {
                    rss_pages: 512,
                    ..Default::default()
                }),
                be,
            ),
            spec(
                "sweep",
                WorkloadKind::Sweep(SweepConfig {
                    rss_pages: 512,
                    ..Default::default()
                }),
                be,
            ),
            bufferpool(
                "bp",
                BufferPoolConfig {
                    rss_pages: 512,
                    phase_ops: 24,
                    ..Default::default()
                },
                2,
            ),
            microbench(
                "mb",
                MicroConfig {
                    rss_pages: 512,
                    wss_pages: 192,
                    ..Default::default()
                },
                2,
            ),
            replay("rp", trace, lc),
        ];
        for s in &mut specs {
            s.thp = thp;
        }
        specs
    }

    fn runner(thp: bool, seed: u64, quantum: Nanos, faults: FaultConfig) -> SimRunner {
        SimRunner::builder()
            .machine(MachineSpec::small(1_024, 8_192, 4))
            .workloads(every_generator(thp))
            .policy(Box::new(Shuttle {
                mech: MechanismConfig::linux_baseline(),
            }))
            .config(SimConfig {
                n_quanta: 0,
                quantum_active: quantum,
                seed,
                faults,
                ..Default::default()
            })
            .build()
    }

    /// Step the reference loop and the plane sweep over the same cell,
    /// comparing outcomes and full checkpoints after every quantum.
    /// Returns the sweep's outcomes.
    fn assert_lockstep(
        thp: bool,
        seed: u64,
        quantum: Nanos,
        faults: FaultConfig,
        quanta: u64,
    ) -> (Vec<QuantumOutcome>, SimRunner) {
        let mut reference = runner(thp, seed, quantum, faults.clone());
        let mut sweep = runner(thp, seed, quantum, faults);
        let mut outcomes = Vec::new();
        for q in 0..quanta {
            let want = with_reference(|| reference.run_quantum());
            let got = sweep.run_quantum();
            assert_eq!(
                got, want,
                "outcome diverged at quantum {q} (thp={thp} seed={seed})"
            );
            assert!(
                sweep.checkpoint().unwrap().to_json() == reference.checkpoint().unwrap().to_json(),
                "state diverged at quantum {q} (thp={thp} seed={seed})"
            );
            outcomes.push(got);
        }
        (outcomes, sweep)
    }

    #[test]
    fn batched_matches_scalar_without_thp() {
        // Demand faults, hint faults (the default Hybrid profiler poisons
        // PTEs), sync-promotion shootdowns and write hits all interleave
        // with the probe runs; a millisecond quantum spans several
        // chunks per thread before the budget runs out.
        for seed in [7, 42] {
            assert_lockstep(false, seed, Nanos::millis(1), FaultConfig::default(), 8);
        }
    }

    #[test]
    fn batched_matches_scalar_with_thp() {
        // THP-backed regions never enter the read-hit probe (one 2 MiB
        // entry covers them), so every huge access exercises the
        // cold-path handoff mid-plane.
        for seed in [7, 42] {
            assert_lockstep(true, seed, Nanos::millis(1), FaultConfig::default(), 8);
        }
    }

    #[test]
    fn budget_runs_out_mid_chunk_for_every_generator() {
        // A 30 µs quantum ends every thread inside its first chunk, so
        // each quantum that runs ops rewinds an unconsumed fill. (Quanta
        // whose budget the shuttle's sync-migration stall eats run none.)
        for thp in [false, true] {
            let (outcomes, _) =
                assert_lockstep(thp, 5, Nanos::micros(30), FaultConfig::default(), 12);
            for w in 0..outcomes[0].workloads.len() {
                let ops: Vec<u64> = outcomes.iter().map(|o| o.workloads[w].ops).collect();
                assert!(
                    ops.iter().all(|&n| n < BATCH_OPS as u64) && ops.iter().any(|&n| n > 0),
                    "workload {w} ops per quantum {ops:?} (thp={thp})"
                );
            }
        }
    }

    #[test]
    fn armed_fault_plans_match_scalar() {
        // Allocation rolls stay in access order in the cold path; the
        // sample-drop rolls move to the chunk flush. Per-site streams
        // make both orders draw identical decisions.
        let cfg = FaultConfig {
            alloc_fast_rate: 0.05,
            sample_drop_rate: 0.05,
            ..FaultConfig::default()
        };
        for thp in [false, true] {
            let (_, sweep) = assert_lockstep(thp, 11, Nanos::micros(400), cfg.clone(), 8);
            let stats = sweep.state.machine.faults.stats();
            for site in [FaultSite::AllocFast, FaultSite::SampleDrop] {
                assert!(
                    stats.injected[site.index()] > 0,
                    "{site:?} never fired (thp={thp})"
                );
            }
        }
    }
}
