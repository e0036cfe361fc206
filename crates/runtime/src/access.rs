//! Per-access simulation: TLB → page walk → tier access, with demand
//! paging, hint faults and replication faults.
//!
//! Every generator runs through one loop, the batched plane sweep
//! (DESIGN §11): the generator fills a struct-of-arrays [`AccessPlan`]
//! for a whole chunk of ops, the TLB probes read-hit runs over the flat
//! planes, only cold accesses (writes, misses, huge-region hits) drop
//! into the full per-access path, and the profiler consumes the
//! executed plane once per chunk via [`AccessBatch`]. Batching reorders
//! *host* work only — simulated latencies, stats and heat contents are
//! byte-identical to one-access-at-a-time execution because every
//! reordered quantity (u64 latency sums, byte counters, fault rolls of
//! distinct sites) commutes and every order-sensitive one (f64 heat
//! records, generator RNG draws, one site's fault rolls) is replayed in
//! exact plane order.

use crate::state::{WorkloadState, WorkloadStats};
use vulcan_migrate::ShadowRegistry;
use vulcan_profile::{AccessBatch, AnyProfiler};
use vulcan_sim::{CoreId, FaultPlan, FaultSite, Machine, Nanos, TierKind};
use vulcan_vm::{LocalTid, Process, TlbArray, Vpn};
use vulcan_workloads::AccessPlan;

/// Cost of linking a thread's private upper-level tables to a shared leaf
/// (a minor "replication fault", §3.6's manipulation overhead).
const REPLICATION_FAULT: Nanos = Nanos(400);

/// Cost of a major (demand-allocation) fault.
const MAJOR_FAULT: Nanos = Nanos(2_000);

/// Cost of a THP (2 MiB) demand fault — allocation plus clearing of a
/// whole region, amortized over 512 base pages of coverage.
const THP_FAULT: Nanos = Nanos(8_000);

/// Extra cost of the locked walk that sets the dirty bit on a write hit.
const DIRTY_WALK: Nanos = Nanos(5);

/// Modeled direct-reclaim stall charged when a demand allocation hits an
/// injected exhaustion and the fault path retries (ISSUE 5 degradation
/// contract: alloc faults degrade to a stall, never a panic).
const ALLOC_RETRY_STALL: Nanos = Nanos(10_000);

/// Ops per batched plane chunk. Large enough to amortize the per-chunk
/// profiler flush and latency loads, small enough that the rewind replay
/// on budget exhaustion stays cheap.
pub(crate) const BATCH_OPS: usize = 128;

/// The machine/VM side of one access, with every profiler call hoisted
/// out: returns the access latency and whether it took a hint fault (the
/// caller owes the profiler `on_hint_fault` + `on_access`, in that
/// order). The plane sweep defers those to its per-chunk flush.
#[allow(clippy::too_many_arguments)]
// Allow-listed for the ISSUE 5 lint gate: every expect below guards a
// mapping invariant established earlier on the same path (a page just
// mapped, touched or capacity-checked), not an external condition.
#[allow(clippy::expect_used)]
pub(crate) fn simulate_access_unprofiled(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    process: &mut Process,
    shadows: &mut ShadowRegistry,
    stats: &mut WorkloadStats,
    quota: u64,
    thp: bool,
    core: CoreId,
    tid: LocalTid,
    vpn: Vpn,
    write: bool,
) -> (Nanos, bool) {
    let ac = &machine.spec().access_costs;
    let (tlb_hit, walk, minor_fault) = (ac.tlb_hit, ac.walk, ac.minor_fault);
    let mut t = tlb_hit;

    // THP-backed region: one 2 MiB TLB entry covers 512 base pages.
    if process.space.in_huge(vpn) {
        let hit = tlbs.core(core).lookup_huge(process.asid, vpn);
        if !hit {
            t += walk;
        }
        // Hardware still maintains A/D on the (split-ready) base PTEs.
        let out = process
            .space
            .touch(vpn, tid, write)
            .expect("huge-marked region is mapped");
        if !hit {
            tlbs.core(core).insert_huge(process.asid, vpn);
            if out.replication_fault {
                stats.replication_faults += 1;
                t += REPLICATION_FAULT;
            }
        }
        let frame = out.pte.frame().expect("mapped");
        let tier = frame.tier;
        let lat = machine.access_latency(tier);
        t += lat;
        machine.record_access(tier);
        if tier == TierKind::Fast {
            stats.fast_q += 1;
        } else {
            stats.slow_q += 1; // every non-fast chain tier counts against FTHR
        }
        if write {
            stats.write_bytes_q += 64;
        } else {
            stats.read_bytes_q += 64;
        }
        stats.mem_time_q += lat;
        return (t, false);
    }

    let mut hint = false;
    let cached = tlbs.core(core).lookup(process.asid, vpn);
    let frame = match cached {
        Some(f) if !write => f,
        Some(f) => {
            // Write hit: hardware performs a locked walk to set D.
            t += DIRTY_WALK;
            match process.space.touch(vpn, tid, true) {
                Some(out) => {
                    if out.hint_fault {
                        stats.hint_faults += 1;
                        t += minor_fault;
                        hint = true;
                        stats.hint_faulted_pages.push((vpn, true));
                    }
                    out.pte.frame().expect("touched mapped page")
                }
                None => f, // defensive: stale entry, use the cached frame
            }
        }
        None => {
            t += walk;
            let out = match process.space.touch(vpn, tid, write) {
                Some(o) => o,
                None => {
                    // Major fault: demand-allocate, preferring the fast
                    // tier while the workload is under its quota.
                    stats.major_faults += 1;
                    let pref = if stats.fast_used < quota {
                        TierKind::Fast
                    } else {
                        TierKind::Slow
                    };
                    if thp && try_thp_fault(machine, process, stats, pref, tid, vpn) {
                        t += THP_FAULT;
                        tlbs.core(core).insert_huge(process.asid, vpn);
                        process.space.touch(vpn, tid, write).expect("just mapped");
                        // Account the access against the mapped tier.
                        let pte = process.space.pte(vpn);
                        let tier = pte.tier().expect("mapped");
                        let lat = machine.access_latency(tier);
                        machine.record_access(tier);
                        if tier == TierKind::Fast {
                            stats.fast_q += 1;
                        } else {
                            stats.slow_q += 1;
                        }
                        if write {
                            stats.write_bytes_q += 64;
                        } else {
                            stats.read_bytes_q += 64;
                        }
                        stats.mem_time_q += lat;
                        return (t + lat, false);
                    }
                    t += MAJOR_FAULT;
                    let frame = match machine.alloc_with_fallback(pref) {
                        Ok(f) => f,
                        Err(_) => {
                            if machine.last_alloc_injected() {
                                // Injected exhaustion: charge the modeled
                                // direct-reclaim stall the kernel would
                                // take, then retry without injection. The
                                // injection flag reports on the *final*
                                // fallback attempt, so the recovery is
                                // attributed to the spill terminus.
                                t += ALLOC_RETRY_STALL;
                                let terminus = machine.spill_terminus(pref);
                                machine.faults.note_recovery(FaultSite::alloc_for(terminus));
                            }
                            match machine.alloc_with_fallback_uninjected(pref) {
                                Ok(f) => f,
                                Err(_) => {
                                    // Both tiers genuinely full: reclaim
                                    // shadow frames and retry once more.
                                    for f in shadows.evict(64) {
                                        machine.free(f);
                                    }
                                    #[allow(clippy::expect_used)]
                                    // invariant: specs size tiers below combined RSS
                                    machine
                                        .alloc_with_fallback_uninjected(pref)
                                        .expect("tiers sized below combined RSS")
                                }
                            }
                        }
                    };
                    if frame.tier == TierKind::Fast {
                        stats.fast_used += 1;
                    }
                    process.space.map(vpn, frame, tid);
                    process.space.touch(vpn, tid, write).expect("just mapped")
                }
            };
            if out.hint_fault {
                stats.hint_faults += 1;
                t += minor_fault;
                hint = true;
                stats.hint_faulted_pages.push((vpn, write));
            }
            if out.replication_fault {
                stats.replication_faults += 1;
                t += REPLICATION_FAULT;
            }
            let frame = out.pte.frame().expect("mapped");
            tlbs.core(core).insert(process.asid, vpn, frame);
            frame
        }
    };

    let tier = frame.tier;
    let lat = machine.access_latency(tier);
    t += lat;
    machine.record_access(tier);
    if tier == TierKind::Fast {
        stats.fast_q += 1;
    } else {
        stats.slow_q += 1;
    }
    if write {
        stats.write_bytes_q += 64;
    } else {
        stats.read_bytes_q += 64;
    }
    stats.mem_time_q += lat;
    (t, hint)
}

/// Try to service a major fault with a whole 2 MiB region: every page of
/// the region must be unmapped and the preferred tier must have 512 free
/// frames (THP does not straddle tiers). Returns true on success.
fn try_thp_fault(
    machine: &mut Machine,
    process: &mut Process,
    stats: &mut WorkloadStats,
    pref: TierKind,
    tid: LocalTid,
    vpn: Vpn,
) -> bool {
    let base = vpn.huge_base();
    let span = vulcan_sim::HUGE_PAGE_PAGES as u64;
    if machine.free_pages(pref) < span {
        return false;
    }
    for v in base.0..base.0 + span {
        if process.space.is_mapped(Vpn(v)) {
            return false; // partially populated region: fall back to 4K
        }
    }
    for v in base.0..base.0 + span {
        // The capacity check above makes genuine exhaustion impossible,
        // but an injected allocation fault can still fail mid-region:
        // unwind the partial mapping and fall back to the 4K path (the
        // kernel's THP fallback), leaking nothing.
        let frame = match machine.alloc(pref) {
            Ok(f) => f,
            Err(_) => {
                debug_assert!(machine.last_alloc_injected(), "capacity was checked");
                for u in base.0..v {
                    if let Some(pte) = process.space.unmap(Vpn(u)) {
                        if let Some(f) = pte.frame() {
                            machine.free(f);
                        }
                    }
                }
                machine.faults.note_recovery(FaultSite::alloc_for(pref));
                return false;
            }
        };
        process.space.map(Vpn(v), frame, tid);
    }
    if pref == TierKind::Fast {
        stats.fast_used += span;
    }
    process.space.mark_huge(base);
    true
}

/// Run one thread of a workload for (at least) `budget` of simulated
/// time, completing whole operations, as the batched plane sweep
/// (DESIGN §11). Per chunk of [`BATCH_OPS`] ops:
///
/// 1. **fill** — the generator writes a struct-of-arrays [`AccessPlan`]
///    (generator state and RNG snapshotted first, for the budget
///    rewind);
/// 2. **probe** — [`Tlb::probe_read_one`](vulcan_vm::Tlb) consumes runs
///    of base-page read hits per op segment, applying exactly
///    `lookup`'s clock/stamp/hit effects, while hit latencies
///    accumulate as `count × loaded-latency` (u64 products, so sums
///    match per-access order bit-for-bit);
/// 3. **cold** — the access that stopped the probe (a write, a
///    huge-region page, or a TLB miss) runs the full
///    [`simulate_access_unprofiled`] walk/fault path;
/// 4. **flush** — the executed plane prefix feeds the profiler once via
///    [`AnyProfiler::on_access_batch`], hint positions interleaved in
///    plane order, reproducing the per-access event sequence exactly.
///    Under an armed sample-drop plan the flush replays the plane
///    access by access instead ([`flush_dropping_samples`]).
///
/// Budget is checked per op. If it exhausts mid-chunk, the generator
/// and RNG are rewound to the op boundary: both snapshots are restored
/// and the fill is replayed for exactly the executed ops.
// Allow-listed for the crate's no-panic lint gate: thread indices, core
// pinning and a generator restoring its own snapshot are
// construction-time invariants, not runtime conditions.
#[allow(clippy::expect_used)]
pub(crate) fn run_thread_quantum(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    ws: &mut WorkloadState,
    thread_idx: usize,
    budget: Nanos,
) {
    #[cfg(test)]
    if crate::reference::selected() {
        crate::reference::run_thread_quantum(machine, tlbs, ws, thread_idx, budget);
        return;
    }
    let quota = ws.effective_quota();
    let thp = ws.spec.thp;
    let drops_armed = machine.faults.sample_drops_armed();
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
    // Threads are pinned at construction and never migrate between
    // cores, so the (linear-scan) topology lookup is hoisted out of the
    // per-access loop.
    let core = machine
        .topology
        .core_of(process.sim_thread(tid))
        .expect("threads are pinned at construction");
    let rng = &mut rngs[thread_idx];
    let fixed = gen.fixed_op_nanos();
    let tlb_hit = machine.spec().access_costs.tlb_hit;
    let asid = process.asid;

    let mut plan = AccessPlan::default();
    let mut scratch = AccessPlan::default();
    let mut hints: Vec<u32> = Vec::new();
    let mut used = Nanos::ZERO;

    while used < budget {
        plan.clear();
        let gen_snapshot = gen.snapshot_state();
        let rng_snapshot = rng.clone();
        let filled = gen.fill_batch(thread_idx, rng, &mut plan, BATCH_OPS);
        debug_assert!(filled > 0 && filled <= BATCH_OPS);
        hints.clear();
        // Loaded latencies only change at quantum boundaries; one load
        // per chunk also keeps the oracle's Latency lockstep check warm.
        // Indexed by `TierKind::index()`; tiers absent from the chain
        // never receive hits, and the machine keeps no loaded latency
        // for them, so their entries stay zero.
        let mut lat = [Nanos::ZERO; vulcan_sim::MAX_TIERS];
        for &t in machine.chain() {
            lat[t.index()] = machine.access_latency(t);
        }
        // Huge regions appear only through THP faults, so a chunk that
        // starts with none (and no THP) can skip the per-access
        // `in_huge` screen entirely.
        let huge_possible = thp || process.space.huge_count() > 0;
        // Tier hits fold into per-chunk counters; every reordered
        // quantity is a u64 sum, so totals match per-access order
        // bit-for-bit.
        let mut chunk_hits = [0u64; vulcan_sim::MAX_TIERS];
        let mut executed = 0usize; // accesses of the plan actually run
        let mut ops_done = 0usize;
        for op in 0..filled {
            let (start, end) = plan.op_range(op);
            let mut hits = [0u64; vulcan_sim::MAX_TIERS];
            let mut cold = Nanos::ZERO;
            let mut i = start;
            while i < end {
                // Hot run: consecutive base-page read hits, probed with
                // `lookup`'s exact side effects and no per-access
                // accounting beyond the per-tier hit counters.
                {
                    let tlb = tlbs.core(core);
                    while i < end {
                        if plan.writes[i] {
                            break;
                        }
                        let vpn = Vpn(plan.offsets[i]);
                        if huge_possible && process.space.in_huge(vpn) {
                            break;
                        }
                        match tlb.probe_read_one(asid, vpn) {
                            Some(frame) => {
                                hits[frame.tier.index()] += 1;
                                i += 1;
                            }
                            None => break,
                        }
                    }
                }
                if i < end {
                    // The access that stopped the run: a write, a
                    // huge-region page, or a TLB miss.
                    let (dt, hint) = simulate_access_unprofiled(
                        machine,
                        tlbs,
                        process,
                        shadows,
                        stats,
                        quota,
                        thp,
                        core,
                        tid,
                        Vpn(plan.offsets[i]),
                        plan.writes[i],
                    );
                    cold += dt;
                    if hint {
                        hints.push(i as u32);
                    }
                    i += 1;
                }
            }
            let reads: u64 = hits.iter().sum();
            let mem: u64 = lat.iter().zip(&hits).map(|(l, &h)| l.0 * h).sum();
            let t = fixed + Nanos(tlb_hit.0 * reads + mem) + cold;
            for (c, h) in chunk_hits.iter_mut().zip(&hits) {
                *c += h;
            }
            used += t;
            stats.ops_q += 1;
            stats.ops_total += 1;
            stats.op_latency_q += t;
            ops_done = op + 1;
            executed = end;
            if used >= budget {
                break;
            }
        }
        let reads: u64 = chunk_hits.iter().sum();
        stats.fast_q += chunk_hits[TierKind::Fast.index()];
        // FTHR's denominator splits fast vs everything below it, so all
        // non-fast chain tiers fold into `slow_q`.
        stats.slow_q += reads - chunk_hits[TierKind::Fast.index()];
        stats.read_bytes_q += 64 * reads;
        stats.mem_time_q += Nanos(lat.iter().zip(&chunk_hits).map(|(l, &h)| l.0 * h).sum());
        for (t, &h) in TierKind::ALL.iter().zip(&chunk_hits) {
            machine.record_accesses(*t, h);
        }
        // One profiler flush per chunk, over the executed plane prefix.
        let batch = AccessBatch {
            offsets: &plan.offsets[..executed],
            writes: &plan.writes[..executed],
            hints: &hints,
        };
        if drops_armed {
            flush_dropping_samples(&mut machine.faults, profiler, &batch);
        } else {
            profiler.on_access_batch(&batch);
        }
        if ops_done < filled {
            // Budget exhausted mid-chunk: rewind generator and RNG to the
            // consumed op boundary by replaying the fill for exactly the
            // executed ops, leaving both as `ops_done` `next_op` calls
            // would have.
            gen.restore_state(&gen_snapshot)
                .expect("a generator restores its own snapshot");
            *rng = rng_snapshot;
            scratch.clear();
            let refilled = gen.fill_batch(thread_idx, rng, &mut scratch, ops_done);
            debug_assert_eq!(refilled, ops_done);
            debug_assert_eq!(
                scratch.offsets.as_slice(),
                &plan.offsets[..executed],
                "rewind replay must reproduce the executed plan prefix"
            );
        }
    }
    ws.stats.active_q += used;
}

/// The profiler flush under an armed sample-drop plan: the plane replays
/// access by access in [`AccessBatch::replay_scalar`] order, rolling
/// each access's drop decision just before its `on_access`. A drop is
/// self-recovering — the page's heat simply decays as if it were cold —
/// so the recovery is tallied at the roll.
///
/// Each fault site draws from its own counter-hash stream, so only the
/// order of rolls *within* a site matters. The sample-drop rolls keep
/// plane order here, and the allocation rolls keep it in the cold path,
/// so rolling a chunk's drops at its flush rather than after each
/// access leaves every decision unchanged.
fn flush_dropping_samples(faults: &mut FaultPlan, profiler: &mut AnyProfiler, batch: &AccessBatch) {
    debug_assert!(faults.sample_drops_armed());
    let mut hints = batch.hints.iter().peekable();
    for (i, (&offset, &write)) in batch.offsets.iter().zip(batch.writes).enumerate() {
        let vpn = Vpn(offset);
        if hints.next_if(|&&h| h as usize == i).is_some() {
            profiler.on_hint_fault(vpn, write);
        }
        if faults.sample_dropped() {
            faults.note_recovery(FaultSite::SampleDrop);
        } else {
            profiler.on_access(vpn, write);
        }
    }
}
