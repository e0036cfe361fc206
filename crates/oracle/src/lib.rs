//! # vulcan-oracle — lockstep differential checking for the hot path
//!
//! PR 3 rebuilt the per-access hot path (flat epoch-versioned heat
//! table, per-ASID walk caches, branchless Zipf sampling, per-quantum
//! loaded-latency caching) under a byte-identity contract. Whole-run
//! sha256 comparison enforces that contract only in aggregate: it cannot
//! localize a divergence, it passes when two bugs cancel out, and it
//! goes stale the moment baselines are regenerated.
//!
//! This crate is the spine of a *structural* alternative, in the spirit
//! of Virtuoso's imitation-based validation of its fast VM models: each
//! optimized structure runs beside a naive, obviously-correct reference
//! and their states are diffed **at every step**, not at the end of the
//! run. The checks live inside the optimized crates behind their
//! `oracle` cargo feature (zero code, zero cost when disabled); this
//! crate provides what they share:
//!
//! - [`check`] / [`fail`]: divergence reporting that identifies the
//!   *structure*, the *VPN* and the *simulated time* of the first
//!   mismatch, so a failure localizes to one update of one structure.
//! - [`Structure`] check counters, so drivers (`vulcan-bench oracle`)
//!   can prove how many lockstep comparisons a run actually performed.
//! - [`set_now`]: a thread-local simulated clock the runtime advances
//!   every quantum, giving deep call sites a timestamp without threading
//!   one through every signature.
//! - [`RefHeat`]: the reference heat model — the exact `HashMap`
//!   semantics the flat table replaced.
//!
//! # Adding a reference model for a future optimization
//!
//! 1. Add a variant to [`Structure`] (and its name in
//!    [`Structure::name`]).
//! 2. In the optimized crate, gate a shadow reference model (or an
//!    inline recomputation) behind `#[cfg(feature = "oracle")]` and
//!    compare after every mutation via [`check`], passing the VPN (or
//!    other key) when one exists.
//! 3. Forward the crate's `oracle` feature from `vulcan-runtime` (and
//!    so from `vulcan` / `vulcan-bench`) so `vulcan-bench oracle`
//!    exercises it across the whole evaluation grid.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The optimized structures under lockstep verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// `profile::heat::HeatMap` (flat epoch-versioned table + spill) vs
    /// the reference `HashMap` model ([`RefHeat`]), compared after every
    /// `record` and `decay_epoch`.
    Heat,
    /// `vm::table`'s software walk caches vs the uncached radix walk.
    Walk,
    /// `workloads::zipf`'s branchless/indexed sampler vs a full-range
    /// `partition_point`.
    Zipf,
    /// `sim::machine`'s per-quantum loaded-latency cache vs a
    /// recomputed-from-scratch inflation.
    Latency,
    /// `profile::engine`'s specialized per-profiler batch sweep
    /// (`on_access_batch`) vs a scalar replay of the same access plane
    /// through `on_access`/`on_hint_fault` on a cloned profiler.
    Batch,
    /// `vm::table`'s per-tier resident counters vs a scan of every
    /// mapped PTE, compared at each `recount_fast`.
    Resident,
    /// `vm::table`'s mapped-page list, read from the leaf tables' present
    /// bits, vs the ordered set of mapped VPNs it replaced, compared at
    /// every `mapped_ptes` and `rss_pages`.
    Mapped,
}

impl Structure {
    /// All structures, in display order.
    pub const ALL: [Structure; 7] = [
        Structure::Heat,
        Structure::Walk,
        Structure::Zipf,
        Structure::Latency,
        Structure::Batch,
        Structure::Resident,
        Structure::Mapped,
    ];

    /// Human-readable structure name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Structure::Heat => "heat-map",
            Structure::Walk => "walk-cache",
            Structure::Zipf => "zipf-sampler",
            Structure::Latency => "loaded-latency",
            Structure::Batch => "access-batch",
            Structure::Resident => "tier-residency",
            Structure::Mapped => "mapped-list",
        }
    }

    fn index(self) -> usize {
        match self {
            Structure::Heat => 0,
            Structure::Walk => 1,
            Structure::Zipf => 2,
            Structure::Latency => 3,
            Structure::Batch => 4,
            Structure::Resident => 5,
            Structure::Mapped => 6,
        }
    }
}

/// Lockstep comparisons performed, per structure. Global (not
/// thread-local): experiment grids run cells on a thread pool and the
/// driver wants one total.
static CHECKS: [AtomicU64; Structure::ALL.len()] =
    [const { AtomicU64::new(0) }; Structure::ALL.len()];

thread_local! {
    /// Simulated time (ns) of the quantum currently executing on this
    /// thread, if the runtime set one.
    static NOW: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Set the simulated clock for divergence reports from this thread.
/// The runtime calls this at every quantum boundary.
pub fn set_now(ns: u64) {
    NOW.with(|c| c.set(Some(ns)));
}

/// Clear the simulated clock (e.g. when a run finishes).
pub fn clear_now() {
    NOW.with(|c| c.set(None));
}

/// The simulated time of the last [`set_now`] on this thread.
pub fn now() -> Option<u64> {
    NOW.with(|c| c.get())
}

/// Number of lockstep checks performed against `structure` since the
/// last [`reset_checks`].
pub fn checks(structure: Structure) -> u64 {
    CHECKS[structure.index()].load(Ordering::Relaxed)
}

/// Total lockstep checks across all structures.
pub fn total_checks() -> u64 {
    Structure::ALL.iter().map(|&s| checks(s)).sum()
}

/// Reset every check counter to zero (drivers call this before a run).
pub fn reset_checks() {
    for c in &CHECKS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Report a divergence and abort: the optimized `structure` disagrees
/// with its reference model. Never returns; the panic message carries
/// the structure, the VPN (when the check is keyed by one) and the
/// simulated time, which is everything needed to replay the failing
/// step under a debugger.
#[cold]
#[inline(never)]
pub fn fail(structure: Structure, vpn: Option<u64>, detail: &str) -> ! {
    let vpn = match vpn {
        Some(v) => format!("vpn {v:#x}"),
        None => "no vpn".to_string(),
    };
    let when = match now() {
        Some(ns) => format!("simulated time {ns} ns"),
        None => "simulated time unset".to_string(),
    };
    panic!(
        "oracle divergence [{}] at {when}, {vpn}: {detail}",
        structure.name()
    );
}

/// Count one lockstep comparison against `structure`; if `ok` is false,
/// report the divergence via [`fail`]. `detail` is only evaluated on
/// failure, so call sites can format rich diffs without hot-path cost
/// beyond the comparison itself.
#[inline]
pub fn check(structure: Structure, ok: bool, vpn: Option<u64>, detail: impl FnOnce() -> String) {
    CHECKS[structure.index()].fetch_add(1, Ordering::Relaxed);
    if !ok {
        fail(structure, vpn, &detail());
    }
}

/// Per-page statistics of the reference heat model. Field-for-field the
/// optimized `PageStats` (kept dependency-free: this crate sits below
/// `vulcan-profile`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RefStats {
    /// Decayed access heat.
    pub heat: f64,
    /// Decayed sampled reads.
    pub reads: f64,
    /// Decayed sampled writes.
    pub writes: f64,
}

/// The reference heat model: the exact `HashMap` semantics
/// `profile::heat::HeatMap` replaced with its flat epoch-versioned
/// table. It mirrors the two operations that change heat, `record` and
/// `decay_epoch`, with the same arithmetic in the same order, so a
/// correct flat table must match it *bitwise*, not approximately.
#[derive(Clone, Debug, Default)]
pub struct RefHeat {
    map: std::collections::HashMap<u64, RefStats>,
}

impl RefHeat {
    /// An empty reference model.
    pub fn new() -> RefHeat {
        RefHeat::default()
    }

    /// Record `weight` accesses to `key` (`HashMap::entry().or_default()`).
    pub fn record(&mut self, key: u64, is_write: bool, weight: f64) {
        let s = self.map.entry(key).or_default();
        s.heat += weight;
        if is_write {
            s.writes += weight;
        } else {
            s.reads += weight;
        }
    }

    /// One epoch of exponential decay with pruning below `threshold`
    /// (`HashMap::retain` semantics).
    pub fn decay(&mut self, decay: f64, threshold: f64) {
        self.map.retain(|_, s| {
            s.heat *= decay;
            s.reads *= decay;
            s.writes *= decay;
            s.heat >= threshold
        });
    }

    /// Install exact statistics for `key`, bypassing the arithmetic
    /// path — checkpoint restore rebuilds the shadow model bitwise from
    /// serialized state, so subsequent oracle diffs stay exact.
    pub fn set_exact(&mut self, key: u64, stats: RefStats) {
        self.map.insert(key, stats);
    }

    /// Statistics for `key`; zero when untracked.
    pub fn get(&self, key: u64) -> RefStats {
        self.map.get(&key).copied().unwrap_or_default()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Tracked keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The check counters are process-global and the test harness runs
    /// tests in parallel: every test that bumps or reads them holds this
    /// lock, so exact counts never see a sibling's checks.
    fn counters_lock() -> MutexGuard<'static, ()> {
        static COUNTERS: Mutex<()> = Mutex::new(());
        COUNTERS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn structure_indices_are_dense_in_display_order() {
        for (i, s) in Structure::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{}", s.name());
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _counters = counters_lock();
        reset_checks();
        check(Structure::Zipf, true, None, || unreachable!());
        check(Structure::Zipf, true, Some(4), || unreachable!());
        check(Structure::Heat, true, None, || unreachable!());
        assert_eq!(checks(Structure::Zipf), 2);
        assert_eq!(checks(Structure::Heat), 1);
        assert_eq!(total_checks(), 3);
        reset_checks();
        assert_eq!(total_checks(), 0);
    }

    #[test]
    fn failing_check_reports_structure_vpn_and_time() {
        let _counters = counters_lock();
        set_now(1_234);
        let err = std::panic::catch_unwind(|| {
            check(Structure::Walk, false, Some(0x42), || {
                "leaf 7 != leaf 9".into()
            });
        })
        .unwrap_err();
        clear_now();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("walk-cache"), "{msg}");
        assert!(msg.contains("vpn 0x42"), "{msg}");
        assert!(msg.contains("1234 ns"), "{msg}");
        assert!(msg.contains("leaf 7 != leaf 9"), "{msg}");
    }

    #[test]
    fn ref_heat_matches_hashmap_semantics() {
        let mut h = RefHeat::new();
        h.record(1, false, 2.0);
        h.record(1, true, 3.0);
        h.record(2, false, 0.001);
        assert_eq!(
            h.get(1),
            RefStats {
                heat: 5.0,
                reads: 2.0,
                writes: 3.0
            }
        );
        assert_eq!(h.len(), 2);
        h.decay(0.5, 1e-3);
        assert_eq!(h.get(1).heat, 2.5);
        assert!(!h.contains(2), "negligible key pruned");
    }
}
