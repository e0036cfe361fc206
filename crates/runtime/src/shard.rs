//! Sharded execution of the quantum's execute + profile phases.
//!
//! A cell's workloads are partitioned across *shards* — core-disjoint
//! groups of workloads, each swept by its own OS thread against a
//! leased [`Machine::shard_view`] and its owned cores' TLBs (moved out
//! wholesale, placeholders left behind — never copied). At the
//! quantum boundary the shards' typed deltas (bandwidth bytes, unused
//! lease frames, per-core TLB state) are merged back in fixed shard
//! order, so the result is byte-identical for any shard count.
//!
//! # Determinism contract
//!
//! The parallel path runs only when every condition below holds;
//! otherwise the quantum falls back to the sequential sweep:
//!
//! 1. **Core disjointness.** Workloads whose pinned core ranges overlap
//!    share per-core TLBs (capacity evictions couple them), so
//!    [`plan_shards`] unions them into one group. Sharding needs at
//!    least two groups.
//! 2. **The plenty guard.** Every tier must hold at least
//!    `Σ demand_bound(w)` free pages — the most any workload can still
//!    demand-allocate this quantum. Under the guard every fault is
//!    served from its *preferred* tier in both schedules (fallback and
//!    shadow-reclaim stay unreachable) and the THP `free ≥ 512` check
//!    passes identically, so per-access outcomes depend only on tiers,
//!    never on which frame index was handed out.
//! 3. **No observers with global ordering.** Telemetry event traces and
//!    fault-injection schedules are ordered across workloads; both force
//!    the sequential path.
//!
//! Within a shard, workloads execute in ascending index order —
//! the same relative order the sequential sweep uses.

use std::collections::BTreeSet;

use vulcan_sim::{CoreId, Machine, Nanos, TierKind};
use vulcan_telemetry::EventKind;
use vulcan_vm::TlbArray;

use crate::access::run_thread_quantum;
use crate::state::{SystemState, WorkloadState};

/// How a quantum's execute phase actually ran. Exposed via
/// [`SimRunner::last_execute_mode`](crate::SimRunner::last_execute_mode)
/// so tests can assert the parallel path was exercised; deliberately
/// *not* part of [`QuantumOutcome`](crate::QuantumOutcome), whose values
/// are identical across shard counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecuteMode {
    /// The monolithic sweep: one thread, workloads in index order.
    Sequential,
    /// The sharded sweep ran with this many core-disjoint shards.
    Sharded {
        /// Effective shard count (`min(requested, core-disjoint groups)`).
        shards: usize,
    },
}

/// The shard partition of one quantum: which workload indices each
/// shard sweeps, plus the underlying core-disjoint groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Workload indices per shard, each ascending. Groups are assigned
    /// round-robin, so `shards.len() == min(requested, groups.len())`.
    pub shards: Vec<Vec<usize>>,
    /// Core-disjoint workload groups, ordered by least member index.
    pub groups: Vec<Vec<usize>>,
}

/// Partition the started workloads into core-disjoint groups and assign
/// the groups round-robin onto at most `requested` shards.
///
/// Two workloads land in the same group iff their pinned core sets are
/// connected (directly or transitively) — per-core TLBs carry
/// cross-ASID capacity evictions, so core-sharing workloads must be
/// swept by the same shard to preserve the sequential interleaving.
pub fn plan_shards(st: &SystemState, requested: usize) -> ShardPlan {
    // Merge-on-intersect union of core sets; one pass per workload.
    let mut sets: Vec<(BTreeSet<CoreId>, Vec<usize>)> = Vec::new();
    for (wi, ws) in st.workloads.iter().enumerate() {
        if !ws.started {
            continue;
        }
        let mut cores = st
            .machine
            .topology
            .cores_of(ws.process.sim_threads().iter().copied());
        let mut members = vec![wi];
        let mut kept = Vec::new();
        for (gc, gm) in sets.drain(..) {
            if gc.iter().any(|c| cores.contains(c)) {
                cores.extend(gc);
                members.extend(gm);
            } else {
                kept.push((gc, gm));
            }
        }
        sets = kept;
        members.sort_unstable();
        sets.push((cores, members));
    }
    sets.sort_by_key(|(_, m)| m[0]);
    let groups: Vec<Vec<usize>> = sets.into_iter().map(|(_, m)| m).collect();

    let effective = requested.min(groups.len());
    let mut shards = vec![Vec::new(); effective];
    for (g, members) in groups.iter().enumerate() {
        shards[g % effective].extend(members.iter().copied());
    }
    for s in &mut shards {
        s.sort_unstable();
    }
    ShardPlan { shards, groups }
}

/// Upper bound on pages workload `w` can still demand-allocate: its
/// spec RSS (rounded up to whole 2 MiB regions under THP, which may map
/// past the RSS tail) minus what is already mapped.
pub(crate) fn demand_bound(ws: &WorkloadState) -> u64 {
    let rss = ws.spec.rss_pages();
    let ceiling = if ws.spec.thp {
        let span = vulcan_sim::HUGE_PAGE_PAGES as u64;
        rss.div_ceil(span) * span
    } else {
        rss
    };
    ceiling.saturating_sub(ws.process.space.rss_pages())
}

/// Run the quantum's execute + profile phases, sharded when the
/// determinism contract allows and `requested > 1`, sequentially
/// otherwise. Returns how the sweep actually ran.
pub(crate) fn execute_quantum(
    st: &mut SystemState,
    quantum: Nanos,
    requested: usize,
) -> ExecuteMode {
    if requested > 1 && !st.telemetry.is_enabled() && !st.machine.faults.is_enabled() {
        if let Some(shards) = try_execute_sharded(st, quantum, requested) {
            return ExecuteMode::Sharded { shards };
        }
    }
    execute_sequential(st, quantum);
    ExecuteMode::Sequential
}

/// The monolithic sweep: every thread of every started workload, then
/// the bandwidth roll, then the profiling epochs.
fn execute_sequential(st: &mut SystemState, quantum: Nanos) {
    // Execute every thread of every started workload.
    for wi in 0..st.workloads.len() {
        if !st.workloads[wi].started {
            continue;
        }
        // Split the workload out of the Vec to borrow machine+tlbs
        // mutably alongside it.
        let (machine, tlbs) = (&mut st.machine, &mut st.tlbs);
        let ws = &mut st.workloads[wi];
        execute_workload(machine, tlbs, ws, quantum);
    }

    // Roll bandwidth contention into the next quantum.
    st.machine.end_quantum(quantum);

    // Profiling epochs (daemon side). Freshly poisoned PTEs must be
    // flushed from the workload's TLBs so the hint faults fire.
    for ws in &mut st.workloads {
        if !ws.started {
            continue;
        }
        let out = ws.profiler.epoch(&mut ws.process.space);
        ws.stats.daemon_cycles += out.cycles;
        if st.telemetry.is_enabled() {
            st.telemetry
                .record_phase(&ws.spec.name, "profiler.epoch", out.cycles);
            st.telemetry.emit(
                st.now,
                Some(&ws.spec.name),
                EventKind::ProfilerScan {
                    pages_poisoned: out.poisoned.len() as u64,
                },
            );
        }
        if !out.poisoned.is_empty() {
            let cores = st
                .machine
                .topology
                .cores_of(ws.process.sim_threads().iter().copied());
            for vpn in out.poisoned {
                st.tlbs
                    .invalidate_on(cores.iter().copied(), ws.process.asid, vpn);
            }
        }
    }
}

/// One workload's slice of the execute phase: charge pending
/// sync-migration stall against the budget, sweep every thread, and
/// account the blocked time.
fn execute_workload(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    ws: &mut WorkloadState,
    quantum: Nanos,
) {
    let n_threads = ws.spec.n_threads;
    // Charge pending sync-migration stall against this quantum.
    let stall_per_thread = ws.pending_stall / n_threads as u64;
    ws.pending_stall = Nanos::ZERO;
    let budget = quantum.saturating_sub(stall_per_thread);
    for t in 0..n_threads {
        run_thread_quantum(machine, tlbs, ws, t, budget);
    }
    // Blocked time is wall time: it counts against throughput
    // (ops / active second) and inflates the quantum's op
    // latencies — on-critical-path migration is not free.
    let blocked = stall_per_thread * n_threads as u64;
    ws.stats.active_q += blocked;
    ws.stats.op_latency_q += blocked;
}

/// Attempt the sharded sweep; `None` means a contract condition failed
/// and the caller must run sequentially. On success returns the
/// effective shard count.
fn try_execute_sharded(st: &mut SystemState, quantum: Nanos, requested: usize) -> Option<usize> {
    let plan = plan_shards(st, requested);
    let n_shards = plan.shards.len();
    if n_shards <= 1 {
        return None;
    }

    // The plenty guard: every chain tier must cover every workload's
    // residual demand, or allocation outcomes become schedule-dependent.
    // Iterate the machine's chain, not `TierKind::ALL` — absent tiers
    // have zero capacity and would veto sharding forever.
    let total_bound: u64 = st
        .workloads
        .iter()
        .filter(|w| w.started)
        .map(demand_bound)
        .sum();
    for &tier in st.machine.spec().chain() {
        if st.machine.free_pages(tier) < total_bound {
            return None;
        }
    }

    // Per-shard residual demand and owned cores (disjoint by plan).
    let shard_bounds: Vec<u64> = plan
        .shards
        .iter()
        .map(|s| s.iter().map(|&wi| demand_bound(&st.workloads[wi])).sum())
        .collect();
    let shard_cores: Vec<Vec<CoreId>> = plan
        .shards
        .iter()
        .map(|s| {
            let mut cores = BTreeSet::new();
            for &wi in s {
                cores.extend(
                    st.machine
                        .topology
                        .cores_of(st.workloads[wi].process.sim_threads().iter().copied()),
                );
            }
            cores.into_iter().collect()
        })
        .collect();

    // Lease frames and per-core TLBs, and build the shard views, in
    // fixed shard order. The guard above guarantees every frame lease
    // comes back full; the TLB lease *moves* each owned core's TLB into
    // the shard (placeholders left behind) so no TLB state is copied.
    let mut views: Vec<(Machine, TlbArray)> = Vec::with_capacity(n_shards);
    let chain: Vec<TierKind> = st.machine.spec().chain().to_vec();
    for (&bound, cores) in shard_bounds.iter().zip(&shard_cores) {
        let leases: Vec<Vec<_>> = chain
            .iter()
            .map(|&tier| {
                let lease = st.machine.allocator_mut(tier).alloc_many(bound);
                debug_assert_eq!(
                    lease.len() as u64,
                    bound,
                    "plenty guard admitted a short lease on {tier:?}"
                );
                lease
            })
            .collect();
        views.push((st.machine.shard_view(&leases), st.tlbs.lease_cores(cores)));
    }

    // Hand each shard exclusive `&mut` access to its workloads.
    let mut slots: Vec<Option<&mut WorkloadState>> = st.workloads.iter_mut().map(Some).collect();
    let mut tasks: Vec<(Machine, TlbArray, Vec<&mut WorkloadState>)> = Vec::with_capacity(n_shards);
    for (members, (view, tlbs)) in plan.shards.iter().zip(views) {
        let workloads = members.iter().filter_map(|&wi| slots[wi].take()).collect();
        tasks.push((view, tlbs, workloads));
    }

    #[cfg(feature = "oracle")]
    let now_ns = st.now.0;

    // Fan out. `std::thread::scope` (not the worker pool) because the
    // cell sweep may itself run inside a pooled bench task, and join
    // order — hence result order — must stay the spawn order.
    let results: Vec<(Machine, TlbArray)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|(mut view, mut tlbs, mut workloads)| {
                scope.spawn(move || {
                    // Oracle builds: divergence reports from this shard
                    // carry the quantum's simulated time.
                    #[cfg(feature = "oracle")]
                    vulcan_oracle::set_now(now_ns);
                    run_shard(&mut view, &mut tlbs, &mut workloads, quantum);
                    (view, tlbs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    drop(slots);

    // Merge the typed deltas in fixed shard order: per-core TLB state
    // swaps back (cores are disjoint across shards), bandwidth bytes
    // and unused lease frames are absorbed by the real machine.
    for ((view, mut tlbs), cores) in results.into_iter().zip(shard_cores) {
        for core in cores {
            std::mem::swap(st.tlbs.core(core), tlbs.core(core));
        }
        st.machine.absorb_shard_view(view);
    }

    // Roll bandwidth contention into the next quantum, exactly where
    // the sequential sweep does.
    st.machine.end_quantum(quantum);
    Some(n_shards)
}

/// One shard's sweep: the execute phase for each owned workload in
/// ascending index order, then their profiling epochs. Telemetry is
/// guaranteed disabled on this path, so the sequential path's
/// epoch-recording branch has no counterpart here.
fn run_shard(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    workloads: &mut [&mut WorkloadState],
    quantum: Nanos,
) {
    for ws in workloads.iter_mut() {
        execute_workload(machine, tlbs, ws, quantum);
    }
    for ws in workloads.iter_mut() {
        let out = ws.profiler.epoch(&mut ws.process.space);
        ws.stats.daemon_cycles += out.cycles;
        if !out.poisoned.is_empty() {
            let cores = machine
                .topology
                .cores_of(ws.process.sim_threads().iter().copied());
            for vpn in out.poisoned {
                tlbs.invalidate_on(cores.iter().copied(), ws.process.asid, vpn);
            }
        }
    }
}
