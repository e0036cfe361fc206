//! TLB shootdown planning and execution.
//!
//! Conventional kernels broadcast IPIs to every core running any thread of
//! the process (the `mm_cpumask`), because the shared page table gives no
//! finer information. Vulcan's per-thread replication identifies exactly
//! which threads can cache a migrating page (§3.4), shrinking the IPI
//! target set — `ShootdownScope::Targeted`.

use crate::addr::Vpn;
use crate::process::Process;
use crate::pte::PageOwner;
use crate::tlb::TlbArray;
use vulcan_sim::{CoreId, CoreSet, Cycles, FaultPlan, FaultSite, MigrationCosts, Topology};

/// How IPI targets are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShootdownScope {
    /// All cores running any thread of the process (vanilla Linux).
    ProcessWide,
    /// Only cores whose threads own/share the pages (Vulcan, §3.4).
    Targeted,
}

/// How the flush cost is modeled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShootdownMode {
    /// Cold single-page path (Figure 2 regime).
    Cold,
    /// Batched bulk-migration path (Figure 3/7 regime).
    Batched,
}

/// A planned shootdown: pages to invalidate and cores to interrupt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShootdownPlan<'a> {
    /// Pages whose translations must be invalidated.
    pub pages: &'a [Vpn],
    /// Remote cores that receive an IPI.
    pub targets: CoreSet,
}

impl ShootdownPlan<'_> {
    /// Number of IPI targets.
    pub fn n_targets(&self) -> u16 {
        u16::try_from(self.targets.len())
            .expect("IPI targets are distinct cores, and core IDs are u16")
    }
}

/// The core each thread of one process is pinned to, looked up once so
/// that every page of a batch (or every commit of an async poll) is
/// planned without scanning the topology again.
#[derive(Clone, Debug)]
pub struct ThreadCores {
    /// `by_tid[t]`: the core of the process's local thread `t`, if pinned.
    by_tid: Vec<Option<CoreId>>,
    /// Every core running a thread of the process: the process-wide
    /// target set, and the set a shared page can be cached on.
    all: CoreSet,
}

impl ThreadCores {
    /// Look up the core of every thread of `process`.
    pub fn new(process: &Process, topology: &Topology) -> ThreadCores {
        let by_tid: Vec<Option<CoreId>> = process
            .sim_threads()
            .iter()
            .map(|&t| topology.core_of(t))
            .collect();
        let all = by_tid.iter().flatten().copied().collect();
        ThreadCores { by_tid, all }
    }

    /// Every core running a thread of the process.
    pub fn all(&self) -> &CoreSet {
        &self.all
    }

    /// Plan a shootdown for `pages` of `process` (the process this table
    /// was built for) under `scope`.
    ///
    /// Unmapped pages contribute no targets of their own but are still
    /// listed for invalidation (their translations may linger in TLBs).
    pub fn plan<'a>(
        &self,
        process: &Process,
        pages: &'a [Vpn],
        scope: ShootdownScope,
    ) -> ShootdownPlan<'a> {
        let targets = match scope {
            ShootdownScope::ProcessWide => self.all.clone(),
            ShootdownScope::Targeted => {
                let mut cores = CoreSet::new();
                for &vpn in pages {
                    match process.space.owner(vpn) {
                        Some(PageOwner::Private(t)) => {
                            if let Some(&Some(core)) = self.by_tid.get(t.0 as usize) {
                                cores.insert(core);
                            }
                        }
                        Some(PageOwner::Shared) => {
                            // A shared page may be cached by every thread,
                            // and no page adds a core outside that set.
                            cores = self.all.clone();
                            break;
                        }
                        None => {}
                    }
                }
                cores
            }
        };
        ShootdownPlan { pages, targets }
    }
}

/// Plan a shootdown for `pages` of `process` under `scope`.
///
/// Unmapped pages contribute no targets of their own but are still listed
/// for invalidation (their translations may linger in TLBs).
pub fn plan<'a>(
    process: &Process,
    topology: &Topology,
    pages: &'a [Vpn],
    scope: ShootdownScope,
) -> ShootdownPlan<'a> {
    ThreadCores::new(process, topology).plan(process, pages, scope)
}

/// Outcome of a shootdown under fault injection: total modeled cycles
/// (base IPI round plus every retry and its backoff) and how the round
/// degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShootdownOutcome {
    /// Total cycles charged to the cost model.
    pub cycles: Cycles,
    /// Ack-timeout retries performed (0 when no fault fired).
    pub retries: u32,
    /// True when the retry budget was exhausted and the initiator fell
    /// back to a final full re-broadcast.
    pub escalated: bool,
}

/// Base spin-wait charged for the first ack-timeout backoff; doubles per
/// retry (bounded by the plan's retry budget).
const ACK_BACKOFF_BASE: u64 = 1 << 12;

/// Execute a planned shootdown: invalidate TLB entries on the target cores
/// and return the modeled cycle cost.
pub fn execute(
    plan: &ShootdownPlan,
    process: &Process,
    tlbs: &mut TlbArray,
    costs: &MigrationCosts,
    mode: ShootdownMode,
) -> Cycles {
    let mut no_faults = FaultPlan::disabled();
    execute_faulty(plan, process, tlbs, costs, mode, &mut no_faults).cycles
}

/// Execute a planned shootdown under a fault plan. Injected ack timeouts
/// cost bounded retries with exponential backoff, all charged to the
/// returned cycle total; when the retry budget runs out the initiator
/// escalates to one final re-broadcast (correctness is preserved — the
/// invalidations themselves always complete).
pub fn execute_faulty(
    plan: &ShootdownPlan,
    process: &Process,
    tlbs: &mut TlbArray,
    costs: &MigrationCosts,
    mode: ShootdownMode,
    faults: &mut FaultPlan,
) -> ShootdownOutcome {
    for &vpn in plan.pages {
        tlbs.invalidate_on(plan.targets.iter(), process.asid, vpn);
    }
    let base = cost_of(plan, costs, mode);
    let mut out = ShootdownOutcome {
        cycles: base,
        retries: 0,
        escalated: false,
    };
    if plan.n_targets() == 0 {
        // No remote acks to wait on; nothing to time out.
        return out;
    }
    let budget = faults.config().max_shootdown_retries;
    while faults.shootdown_times_out() {
        if out.retries >= budget {
            // Budget exhausted: one final full re-broadcast, no more
            // timeout draws (the escalated round is modeled as reliable).
            out.escalated = true;
            out.cycles += base;
            break;
        }
        out.retries += 1;
        // Re-send the IPI round and spin an exponentially growing
        // backoff before sampling the acks again.
        let backoff = ACK_BACKOFF_BASE << (out.retries - 1).min(16);
        out.cycles += base + Cycles(backoff);
        faults.note_recovery(FaultSite::ShootdownTimeout);
    }
    out
}

/// The modeled cost of a shootdown without executing it (used by
/// what-if analysis in the biased migration policy).
pub fn cost_of(plan: &ShootdownPlan, costs: &MigrationCosts, mode: ShootdownMode) -> Cycles {
    let targets = plan.n_targets();
    match mode {
        ShootdownMode::Cold => {
            // One broadcast per page on the cold path.
            let per_page = costs.shootdown_cold(targets);
            Cycles(per_page.0 * plan.pages.len() as u64)
        }
        ShootdownMode::Batched => costs.shootdown_batched(plan.pages.len() as u64, targets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::Asid;
    use vulcan_sim::{FrameId, SimThreadId, TierKind};

    /// 8 threads on 8 distinct cores; pages 0..4 private to t0, page 10 shared.
    fn setup() -> (Process, Topology, TlbArray) {
        let mut p = Process::new(Asid(1), true);
        let mut topo = Topology::new(32);
        for i in 0..8u32 {
            let tid = p.spawn_thread(SimThreadId(i));
            topo.pin(SimThreadId(i), CoreId(i as u16));
            let _ = tid;
        }
        for v in 0..4u64 {
            p.space.map(
                Vpn(v),
                FrameId {
                    tier: TierKind::Slow,
                    index: v as u32,
                },
                crate::pte::LocalTid(0),
            );
            p.space
                .touch(Vpn(v), crate::pte::LocalTid(0), false)
                .unwrap();
        }
        p.space.map(
            Vpn(10),
            FrameId {
                tier: TierKind::Slow,
                index: 10,
            },
            crate::pte::LocalTid(0),
        );
        p.space
            .touch(Vpn(10), crate::pte::LocalTid(0), false)
            .unwrap();
        p.space
            .touch(Vpn(10), crate::pte::LocalTid(3), false)
            .unwrap();
        let tlbs = TlbArray::new(32);
        (p, topo, tlbs)
    }

    #[test]
    fn process_wide_targets_all_process_cores() {
        let (p, topo, _) = setup();
        let plan = plan(&p, &topo, &[Vpn(0)], ShootdownScope::ProcessWide);
        assert_eq!(plan.n_targets(), 8);
    }

    #[test]
    fn targeted_private_page_hits_one_core() {
        let (p, topo, _) = setup();
        let plan = plan(&p, &topo, &[Vpn(0)], ShootdownScope::Targeted);
        assert_eq!(plan.n_targets(), 1);
        assert!(plan.targets.contains(CoreId(0)));
    }

    #[test]
    fn targeted_shared_page_hits_all_threads() {
        let (p, topo, _) = setup();
        let plan = plan(&p, &topo, &[Vpn(10)], ShootdownScope::Targeted);
        assert_eq!(plan.n_targets(), 8, "shared page caches anywhere");
    }

    #[test]
    fn targeted_mixed_batch_unions_targets() {
        let (p, topo, _) = setup();
        let plan = plan(&p, &topo, &[Vpn(0), Vpn(1)], ShootdownScope::Targeted);
        assert_eq!(plan.n_targets(), 1, "both pages private to t0");
    }

    #[test]
    fn unmapped_page_contributes_no_targets() {
        let (p, topo, _) = setup();
        let plan = plan(&p, &topo, &[Vpn(999)], ShootdownScope::Targeted);
        assert_eq!(plan.n_targets(), 0);
    }

    #[test]
    fn execute_invalidates_target_tlbs_only() {
        let (p, topo, mut tlbs) = setup();
        let f = FrameId {
            tier: TierKind::Slow,
            index: 0,
        };
        tlbs.core(CoreId(0)).insert(p.asid, Vpn(0), f);
        tlbs.core(CoreId(5)).insert(p.asid, Vpn(0), f);
        let plan = plan(&p, &topo, &[Vpn(0)], ShootdownScope::Targeted);
        let cost = execute(
            &plan,
            &p,
            &mut tlbs,
            &MigrationCosts::default(),
            ShootdownMode::Cold,
        );
        assert!(cost > Cycles::ZERO);
        // Target core 0 flushed; non-target core 5 keeps its stale entry
        // (harmless here: only the migration path relies on invalidation,
        // and it targets exactly the cores that can hold the page).
        assert_eq!(tlbs.core(CoreId(0)).lookup(p.asid, Vpn(0)), None);
        assert!(tlbs.core(CoreId(5)).lookup(p.asid, Vpn(0)).is_some());
    }

    #[test]
    fn targeted_cost_is_lower() {
        let (p, topo, _) = setup();
        let costs = MigrationCosts::default();
        let pages: Vec<Vpn> = (0..4).map(Vpn).collect();
        let wide = plan(&p, &topo, &pages, ShootdownScope::ProcessWide);
        let narrow = plan(&p, &topo, &pages, ShootdownScope::Targeted);
        let wide_cost = cost_of(&wide, &costs, ShootdownMode::Batched);
        let narrow_cost = cost_of(&narrow, &costs, ShootdownMode::Batched);
        assert!(
            narrow_cost.0 * 4 < wide_cost.0,
            "{narrow_cost} vs {wide_cost}"
        );
    }

    #[test]
    fn faulty_ack_timeouts_charge_bounded_retries() {
        use vulcan_sim::{FaultConfig, FaultSite};
        let (p, topo, mut tlbs) = setup();
        let costs = MigrationCosts::default();
        let sd = plan(&p, &topo, &[Vpn(0)], ShootdownScope::Targeted);
        let clean = cost_of(&sd, &costs, ShootdownMode::Cold);
        // Every ack round times out: retries must stop at the budget and
        // escalate, charging every round to the cost model.
        let mut faults = FaultPlan::new(3, FaultConfig::single(FaultSite::ShootdownTimeout, 1.0));
        let out = execute_faulty(&sd, &p, &mut tlbs, &costs, ShootdownMode::Cold, &mut faults);
        let budget = faults.config().max_shootdown_retries;
        assert_eq!(out.retries, budget);
        assert!(out.escalated);
        // base + budget retries + final escalation broadcast + backoffs.
        assert!(out.cycles.0 > clean.0 * (budget as u64 + 2));
        assert!(faults.stats().injected[FaultSite::ShootdownTimeout.index()] > 0);
    }

    #[test]
    fn faulty_zero_rate_matches_clean_execute() {
        let (p, topo, mut tlbs) = setup();
        let costs = MigrationCosts::default();
        let sd = plan(&p, &topo, &[Vpn(0), Vpn(1)], ShootdownScope::Targeted);
        let mut faults = FaultPlan::disabled();
        let out = execute_faulty(
            &sd,
            &p,
            &mut tlbs,
            &costs,
            ShootdownMode::Batched,
            &mut faults,
        );
        assert_eq!(out.cycles, cost_of(&sd, &costs, ShootdownMode::Batched));
        assert_eq!(out.retries, 0);
        assert!(!out.escalated);
    }

    #[test]
    fn zero_target_shootdown_never_times_out() {
        use vulcan_sim::{FaultConfig, FaultSite};
        let (p, topo, mut tlbs) = setup();
        let sd = plan(&p, &topo, &[Vpn(999)], ShootdownScope::Targeted);
        let mut faults = FaultPlan::new(1, FaultConfig::single(FaultSite::ShootdownTimeout, 1.0));
        let out = execute_faulty(
            &sd,
            &p,
            &mut tlbs,
            &MigrationCosts::default(),
            ShootdownMode::Cold,
            &mut faults,
        );
        assert_eq!(out.retries, 0, "no remote acks to wait on");
    }

    /// Pins the Fig 7 responder-accounting convention audited in DESIGN
    /// §8: a process-wide plan counts every core running a thread of the
    /// process — including the initiating core — while the paper's
    /// Figure 2/3 sweeps report *responders* (n − 1). The +1 shrinks the
    /// relative benefit of targeted shootdowns in the Fig 7 comparison
    /// (the "TLB-opt increment understated" deviation in EXPERIMENTS.md).
    #[test]
    fn process_wide_plan_counts_initiator_as_target() {
        let (p, topo, _) = setup();
        let wide = plan(&p, &topo, &[Vpn(0)], ShootdownScope::ProcessWide);
        // 8 threads on 8 cores: all 8 are targets, not 7 responders.
        assert_eq!(wide.n_targets(), 8);
        let narrow = plan(&p, &topo, &[Vpn(0)], ShootdownScope::Targeted);
        // The private page is owned by thread 0 — which runs on the
        // initiating core in the Fig 7 workloads, so the targeted set
        // still contains the initiator rather than dropping to zero.
        assert_eq!(narrow.n_targets(), 1);
    }

    /// The planner this module replaced, kept as the reference: per page,
    /// the list of threads that may cache it, each looked up in the
    /// topology, gathered in a `BTreeSet`.
    fn reference_targets(
        process: &Process,
        topology: &Topology,
        pages: &[Vpn],
        scope: ShootdownScope,
    ) -> std::collections::BTreeSet<CoreId> {
        match scope {
            ShootdownScope::ProcessWide => topology.cores_of(process.sim_threads().iter().copied()),
            ShootdownScope::Targeted => {
                let mut cores = std::collections::BTreeSet::new();
                for &vpn in pages {
                    if let Some(threads) = process.caching_threads(vpn) {
                        cores.extend(topology.cores_of(threads));
                    }
                }
                cores
            }
        }
    }

    proptest::proptest! {
        /// The per-batch planner targets exactly the reference's cores,
        /// in the same ascending order, for both scopes: pages private to
        /// any thread, shared, or unmapped; threads left unpinned or
        /// stacked on one core; core ids on both sides of 64 and 256,
        /// where the bitmap's words and its inline part end.
        #[test]
        fn planner_matches_the_per_page_reference(
            pins in proptest::collection::vec(0usize..8, 1..10),
            pages in proptest::collection::vec((0u8..3, 0u8..10, 0u8..10), 1..24),
        ) {
            use proptest::prelude::*;
            // Index 7 leaves the thread unpinned; the rest repeat often.
            const CORES: [u16; 7] = [0, 3, 63, 64, 255, 256, 299];
            let mut p = Process::new(Asid(1), true);
            let mut topo = Topology::new(300);
            for (i, &pin) in pins.iter().enumerate() {
                let sim = SimThreadId(100 + i as u32);
                p.spawn_thread(sim);
                if let Some(&core) = CORES.get(pin) {
                    topo.pin(sim, CoreId(core));
                }
            }
            let n = pins.len() as u8;
            let mut vpns = Vec::new();
            for (i, &(kind, a, b)) in pages.iter().enumerate() {
                let vpn = Vpn(i as u64 * 37);
                let (a, b) = (crate::pte::LocalTid(a % n), crate::pte::LocalTid(b % n));
                if kind > 0 {
                    let frame = FrameId { tier: TierKind::Slow, index: i as u32 };
                    p.space.map(vpn, frame, a);
                    p.space.touch(vpn, a, false).unwrap();
                    if kind == 2 {
                        // Shared once a second thread touches it.
                        p.space.touch(vpn, b, true).unwrap();
                    }
                }
                vpns.push(vpn);
            }
            let costs = MigrationCosts::default();
            for scope in [ShootdownScope::ProcessWide, ShootdownScope::Targeted] {
                let got = plan(&p, &topo, &vpns, scope);
                let want = reference_targets(&p, &topo, &vpns, scope);
                prop_assert!(got.targets.iter().eq(want.iter().copied()), "{:?}", scope);
                prop_assert_eq!(got.n_targets() as usize, want.len());
                let reference = ShootdownPlan { pages: &vpns, targets: want.into_iter().collect() };
                for mode in [ShootdownMode::Cold, ShootdownMode::Batched] {
                    prop_assert_eq!(cost_of(&got, &costs, mode), cost_of(&reference, &costs, mode));
                }
            }
        }
    }

    #[test]
    fn zero_target_shootdown_is_free() {
        let (p, topo, _) = setup();
        let plan = plan(&p, &topo, &[Vpn(999)], ShootdownScope::Targeted);
        let cost = cost_of(&plan, &MigrationCosts::default(), ShootdownMode::Cold);
        assert_eq!(cost, Cycles::ZERO);
    }
}
