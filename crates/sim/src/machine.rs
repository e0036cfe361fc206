//! The simulated tiered-memory machine: tiers, allocators, bandwidth,
//! topology and cost models in one place.
//!
//! Tiers form an ordered demotion chain (see `tier.rs`); the classic
//! two-tier paper testbed is simply the chain `[Fast, Slow]`. Per-tier
//! state lives in `MAX_TIERS`-sized arrays indexed by
//! [`TierKind::index`]; tiers absent from the chain hold zero-capacity
//! allocators and placeholder bandwidth, so they can never satisfy an
//! allocation and never perturb two-tier results.

use crate::bandwidth::BandwidthTracker;
use crate::costs::{AccessCosts, MigrationCosts};
use crate::faults::{FaultPlan, FaultSite};
use crate::frame::{FrameAllocator, FrameId, OutOfFrames};
use crate::tier::{validate_chain, TierKind, TierSpec, MAX_TIERS, PAGE_SIZE};
use crate::time::Nanos;
use crate::topology::Topology;

/// Configuration of a simulated machine.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Ordered demotion chain, fastest first — a non-empty prefix of
    /// [`TierKind::ALL`] (validated when a [`Machine`] is built).
    pub tiers: Vec<TierSpec>,
    /// Cores on the socket.
    pub n_cores: u16,
    /// Demand-access cost model.
    pub access_costs: AccessCosts,
    /// Migration cost model.
    pub migration_costs: MigrationCosts,
}

impl MachineSpec {
    /// The paper's testbed: one 32-core socket, 32 GB fast / 256 GB slow
    /// (scaled), 70 ns / 162 ns (§5.1).
    pub fn paper_testbed() -> MachineSpec {
        MachineSpec {
            tiers: vec![TierSpec::paper_fast(), TierSpec::paper_slow()],
            n_cores: 32,
            access_costs: AccessCosts::default(),
            migration_costs: MigrationCosts::default(),
        }
    }

    /// The testbed extended with an NVM-class third tier — the
    /// DRAM→CXL→NVM demotion chain of ROADMAP item 4.
    pub fn paper_3tier() -> MachineSpec {
        MachineSpec {
            tiers: vec![
                TierSpec::paper_fast(),
                TierSpec::paper_slow(),
                TierSpec::paper_nvm(),
            ],
            n_cores: 32,
            access_costs: AccessCosts::default(),
            migration_costs: MigrationCosts::default(),
        }
    }

    /// A small two-tier machine for tests: `fast_pages` / `slow_pages`.
    pub fn small(fast_pages: u64, slow_pages: u64, n_cores: u16) -> MachineSpec {
        MachineSpec {
            tiers: vec![
                TierSpec::test_tier(TierKind::Fast, fast_pages),
                TierSpec::test_tier(TierKind::Slow, slow_pages),
            ],
            n_cores,
            access_costs: AccessCosts::default(),
            migration_costs: MigrationCosts::default(),
        }
    }

    /// A small three-tier machine for tests.
    pub fn small3(fast_pages: u64, slow_pages: u64, nvm_pages: u64, n_cores: u16) -> MachineSpec {
        MachineSpec {
            tiers: vec![
                TierSpec::test_tier(TierKind::Fast, fast_pages),
                TierSpec::test_tier(TierKind::Slow, slow_pages),
                TierSpec::test_tier(TierKind::Nvm, nvm_pages),
            ],
            n_cores,
            access_costs: AccessCosts::default(),
            migration_costs: MigrationCosts::default(),
        }
    }

    /// Number of tiers in the chain.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The chain's tier kinds, fastest first.
    pub fn chain(&self) -> &'static [TierKind] {
        &TierKind::ALL[..self.tiers.len()]
    }

    /// Spec of one tier; panics if the tier is not in the chain.
    pub fn tier(&self, kind: TierKind) -> &TierSpec {
        self.tiers
            .get(kind.index())
            .unwrap_or_else(|| panic!("tier {kind:?} absent from {}-tier chain", self.tiers.len()))
    }

    /// Mutable spec of one tier; panics if the tier is not in the chain.
    pub fn tier_mut(&mut self, kind: TierKind) -> &mut TierSpec {
        let n = self.tiers.len();
        self.tiers
            .get_mut(kind.index())
            .unwrap_or_else(|| panic!("tier {kind:?} absent from {n}-tier chain"))
    }

    /// One hop down this machine's demotion chain, or `None` at the end.
    pub fn demote_target(&self, tier: TierKind) -> Option<TierKind> {
        tier.demote_target(self.tiers.len())
    }

    /// One hop up this machine's demotion chain, or `None` at the top.
    pub fn promote_target(&self, tier: TierKind) -> Option<TierKind> {
        tier.promote_target()
    }
}

impl vulcan_json::Snapshot for MachineSpec {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Snapshot, Value};
        snap::obj(vec![
            (
                "tiers",
                Value::Array(self.tiers.iter().map(Snapshot::snapshot).collect()),
            ),
            ("n_cores", snap::u64_value(self.n_cores as u64)),
            ("access_costs", self.access_costs.snapshot()),
            ("migration_costs", self.migration_costs.snapshot()),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let tiers = snap::field_array(v, "tiers")?
            .iter()
            .map(TierSpec::restore)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MachineSpec {
            tiers,
            n_cores: u16::try_from(snap::field_u64(v, "n_cores")?)
                .map_err(|_| "n_cores out of u16 range".to_string())?,
            access_costs: AccessCosts::restore(snap::field(v, "access_costs")?)?,
            migration_costs: MigrationCosts::restore(snap::field(v, "migration_costs")?)?,
        })
    }
}

/// The live machine state.
#[derive(Clone, Debug)]
pub struct Machine {
    spec: MachineSpec,
    allocators: [FrameAllocator; MAX_TIERS],
    /// Per-tier bandwidth accounting and contention.
    pub bandwidth: BandwidthTracker,
    /// Cores and thread pinning.
    pub topology: Topology,
    /// Per-tier inflated demand latency, recomputed once per quantum —
    /// inflation only changes at [`Machine::end_quantum`], so the f64
    /// multiply-and-round is hoisted off the per-access path.
    loaded_latency: [Nanos; MAX_TIERS],
    /// Seeded fault-injection schedule (disabled by default; installed by
    /// the runtime after construction so preallocation is unaffected).
    pub faults: FaultPlan,
    /// Extra loaded-latency multiplier while a transient throttle fault
    /// is active this quantum; exactly 1.0 otherwise.
    throttle_now: f64,
    /// Whether the most recent [`Machine::alloc`] failure was injected
    /// by the fault plan (consumers use this to attribute recoveries).
    last_alloc_injected: bool,
}

impl Machine {
    /// Build a machine from a spec. Panics if the spec's tiers do not
    /// form a valid demotion chain (non-empty prefix of `TierKind::ALL`).
    pub fn new(spec: MachineSpec) -> Machine {
        let kinds: Vec<TierKind> = spec.tiers.iter().map(|t| t.kind).collect();
        validate_chain(&kinds);
        // Absent tiers get zero-capacity allocators: every alloc fails,
        // free_pages reads 0, and teardown audits see them empty.
        let allocators = TierKind::ALL.map(|kind| {
            FrameAllocator::new(
                kind,
                spec.tiers.get(kind.index()).map_or(0, |t| t.capacity_pages),
            )
        });
        let peaks: Vec<f64> = spec
            .tiers
            .iter()
            .map(|t| t.bandwidth_bytes_per_ns)
            .collect();
        let bandwidth = BandwidthTracker::new(&peaks);
        let topology = Topology::new(spec.n_cores);
        // Inflation starts at 1.0, so the loaded latency is the unloaded
        // one (inflate(x, 1.0) rounds back to x exactly).
        let loaded_latency = TierKind::ALL.map(|kind| spec.access_costs.tier_latency(kind));
        Machine {
            spec,
            allocators,
            bandwidth,
            topology,
            loaded_latency,
            faults: FaultPlan::disabled(),
            throttle_now: 1.0,
            last_alloc_injected: false,
        }
    }

    /// The machine's static spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Number of tiers in the demotion chain.
    pub fn n_tiers(&self) -> usize {
        self.spec.tiers.len()
    }

    /// The chain's tier kinds, fastest first.
    pub fn chain(&self) -> &'static [TierKind] {
        self.spec.chain()
    }

    /// The frame allocator for one tier.
    pub fn allocator(&self, tier: TierKind) -> &FrameAllocator {
        &self.allocators[tier.index()]
    }

    /// Allocate a frame in `tier`.
    ///
    /// Subject to fault injection: an active [`FaultPlan`] may report
    /// exhaustion even while frames remain. Recovery paths that have
    /// already absorbed the fault (modeled a stall, reclaimed space)
    /// should retry through [`Machine::alloc_uninjected`].
    pub fn alloc(&mut self, tier: TierKind) -> Result<FrameId, OutOfFrames> {
        self.last_alloc_injected = false;
        if self.faults.alloc_fails(tier) {
            self.last_alloc_injected = true;
            return Err(OutOfFrames { tier });
        }
        self.allocators[tier.index()].alloc()
    }

    /// Whether the most recent [`Machine::alloc`] failure was an injected
    /// fault rather than genuine exhaustion. (For `alloc_with_fallback`
    /// this reports on the final attempt.)
    pub fn last_alloc_injected(&self) -> bool {
        self.last_alloc_injected
    }

    /// Allocate a frame in `tier`, bypassing fault injection — the
    /// degraded-path retry after a consumer has handled an injected
    /// exhaustion fault.
    pub fn alloc_uninjected(&mut self, tier: TierKind) -> Result<FrameId, OutOfFrames> {
        self.allocators[tier.index()].alloc()
    }

    /// Spill order after `preferred` fails: the rest of the chain in
    /// demotion order below `preferred` first (new allocations spill
    /// *down* — first-touch behaviour of tiered systems), then upward —
    /// every tier is tried before exhaustion is reported, so a chain
    /// never skips its middle tiers.
    fn spill_order(&self, preferred: TierKind) -> impl Iterator<Item = TierKind> {
        let n = self.spec.tiers.len();
        let p = preferred.index();
        debug_assert!(
            p < n,
            "preferred tier {preferred:?} absent from {n}-tier chain"
        );
        let down = TierKind::ALL[p + 1..n].iter().copied();
        let up = TierKind::ALL[..p].iter().rev().copied();
        down.chain(up)
    }

    /// The last tier [`Machine::alloc_with_fallback`] attempts for
    /// `preferred` — the tier whose fault site an all-tiers-failed
    /// outcome reports on. `preferred` itself on a single-tier chain.
    pub fn spill_terminus(&self, preferred: TierKind) -> TierKind {
        self.spill_order(preferred).last().unwrap_or(preferred)
    }

    /// Allocate in `tier` if possible, else walk the remaining chain
    /// tiers (downward in demotion order, then upward) and only report
    /// exhaustion once every tier has failed.
    ///
    /// A successful spill after an *injected* exhaustion of the
    /// preferred tier is itself the degraded path, so it is tallied as
    /// a recovery; callers only handle the case where all tiers fail.
    pub fn alloc_with_fallback(&mut self, tier: TierKind) -> Result<FrameId, OutOfFrames> {
        let mut res = self.alloc(tier);
        if res.is_ok() {
            return res;
        }
        let preferred_injected = self.last_alloc_injected;
        for next in self.spill_order(tier).collect::<Vec<_>>() {
            res = self.alloc(next);
            if res.is_ok() {
                if preferred_injected {
                    self.faults.note_recovery(FaultSite::alloc_for(tier));
                }
                return res;
            }
        }
        res
    }

    /// Fallback allocation bypassing fault injection (degraded-path
    /// retry; see [`Machine::alloc_uninjected`]).
    pub fn alloc_with_fallback_uninjected(
        &mut self,
        tier: TierKind,
    ) -> Result<FrameId, OutOfFrames> {
        let mut res = self.alloc_uninjected(tier);
        if res.is_ok() {
            return res;
        }
        for next in self.spill_order(tier).collect::<Vec<_>>() {
            res = self.alloc_uninjected(next);
            if res.is_ok() {
                return res;
            }
        }
        res
    }

    /// Free a frame back to its tier.
    pub fn free(&mut self, frame: FrameId) {
        self.allocators[frame.tier.index()].free(frame);
    }

    /// Loaded latency of a demand access to `tier`, including current
    /// bandwidth-contention inflation (recomputed once per quantum).
    #[inline]
    pub fn access_latency(&self, tier: TierKind) -> Nanos {
        // Inflation only changes at `end_quantum`, so recomputing from
        // scratch mid-quantum must reproduce the cache exactly.
        #[cfg(feature = "oracle")]
        {
            let want = Self::apply_throttle(
                self.bandwidth
                    .inflate(tier, self.spec.access_costs.tier_latency(tier)),
                self.throttle_now,
            );
            vulcan_oracle::check(
                vulcan_oracle::Structure::Latency,
                self.loaded_latency[tier.index()] == want,
                None,
                || {
                    format!(
                        "cached loaded latency {:?} != recomputed {want:?} for {tier:?}",
                        self.loaded_latency[tier.index()]
                    )
                },
            );
        }
        self.loaded_latency[tier.index()]
    }

    /// Record one cache-line demand access against `tier`'s bandwidth.
    #[inline]
    pub fn record_access(&mut self, tier: TierKind) {
        self.bandwidth.record(tier, 64);
    }

    /// Record `n` cache-line demand accesses against `tier`'s bandwidth
    /// in one call. Byte counters are plain sums, so this is exactly
    /// `n` calls to [`record_access`](Self::record_access).
    #[inline]
    pub fn record_accesses(&mut self, tier: TierKind, n: u64) {
        self.bandwidth.record(tier, 64 * n);
    }

    /// Record a page copy (reads source tier, writes destination tier).
    pub fn record_page_copy(&mut self, from: TierKind, to: TierKind) {
        self.bandwidth.record(from, PAGE_SIZE as u64);
        self.bandwidth.record(to, PAGE_SIZE as u64);
    }

    /// Close a quantum of length `quantum`: roll bandwidth contention
    /// over, draw the next transient-throttle fault decision, and refresh
    /// the cached loaded latencies for every chain tier.
    pub fn end_quantum(&mut self, quantum: Nanos) {
        self.bandwidth.end_quantum(quantum);
        // One throttle decision per quantum; with faults disabled this is
        // a no-op and the factor stays exactly 1.0 (byte-identity).
        self.throttle_now = if self.faults.quantum_throttled() {
            self.faults.config().throttle_factor
        } else {
            1.0
        };
        for &tier in self.spec.chain() {
            self.loaded_latency[tier.index()] = Self::apply_throttle(
                self.bandwidth
                    .inflate(tier, self.spec.access_costs.tier_latency(tier)),
                self.throttle_now,
            );
        }
    }

    /// Re-parameterize the machine in place for a what-if fork: swap
    /// latency, bandwidth and cost-model parameters without touching any
    /// *state* (allocator frame maps, bandwidth windows, fault plan). The
    /// new spec must keep the same tier chain, per-tier capacities and
    /// core count — frame numbering, placement and thread pinning stay
    /// valid — otherwise the machine is left unchanged and an error
    /// describes the mismatch. Cached loaded latencies are refreshed
    /// under the current inflation and throttle factors, exactly as
    /// [`end_quantum`](Machine::end_quantum) would compute them.
    pub fn reconfigure(&mut self, spec: MachineSpec) -> Result<(), String> {
        let shape = |s: &MachineSpec| -> Vec<(TierKind, u64)> {
            s.tiers.iter().map(|t| (t.kind, t.capacity_pages)).collect()
        };
        if shape(&spec) != shape(&self.spec) {
            return Err(format!(
                "what-if spec changes the tier shape: {:?} -> {:?} (only \
                 latency/bandwidth/cost parameters may change on a fork)",
                shape(&self.spec),
                shape(&spec)
            ));
        }
        if spec.n_cores != self.spec.n_cores {
            return Err(format!(
                "what-if spec changes the core count: {} -> {}",
                self.spec.n_cores, spec.n_cores
            ));
        }
        self.spec = spec;
        let peaks: Vec<f64> = self
            .spec
            .tiers
            .iter()
            .map(|t| t.bandwidth_bytes_per_ns)
            .collect();
        self.bandwidth.set_peaks(&peaks);
        for &tier in self.spec.chain() {
            self.loaded_latency[tier.index()] = Self::apply_throttle(
                self.bandwidth
                    .inflate(tier, self.spec.access_costs.tier_latency(tier)),
                self.throttle_now,
            );
        }
        Ok(())
    }

    /// Whether a transient bandwidth-throttle fault is active this
    /// quantum.
    pub fn throttled(&self) -> bool {
        self.throttle_now > 1.0
    }

    /// Scale a loaded latency by the active throttle factor. Exact
    /// identity when the factor is 1.0 so the disabled path never
    /// perturbs latencies through f64 rounding.
    fn apply_throttle(base: Nanos, factor: f64) -> Nanos {
        if factor == 1.0 {
            return base;
        }
        Nanos((base.0 as f64 * factor).round() as u64)
    }

    /// Free pages remaining in `tier`.
    pub fn free_pages(&self, tier: TierKind) -> u64 {
        self.allocator(tier).free_frames()
    }
}

impl vulcan_json::Snapshot for Machine {
    /// Serializes the *live* machine, including the three fields the
    /// ISSUE 10 hidden-state audit flagged: the per-quantum cached loaded
    /// latencies (refreshed at [`Machine::end_quantum`], consumed all
    /// next quantum), the active throttle factor, and the
    /// last-alloc-injected attribution bit. Rebuilding any of them from
    /// the spec would silently diverge a restored run.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Snapshot, Value};
        let latencies: Vec<u64> = self.loaded_latency.iter().map(|n| n.0).collect();
        snap::obj(vec![
            ("spec", self.spec.snapshot()),
            (
                "allocators",
                Value::Array(self.allocators.iter().map(Snapshot::snapshot).collect()),
            ),
            ("bandwidth", self.bandwidth.snapshot()),
            ("topology", self.topology.snapshot()),
            ("loaded_latency", snap::u64_array(&latencies)),
            ("faults", self.faults.snapshot()),
            ("throttle_now", snap::f64_value(self.throttle_now)),
            ("last_alloc_injected", Value::Bool(self.last_alloc_injected)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let spec = MachineSpec::restore(snap::field(v, "spec")?)?;
        let kinds: Vec<TierKind> = spec.tiers.iter().map(|t| t.kind).collect();
        validate_chain(&kinds);
        let allocs = snap::field_array(v, "allocators")?;
        if allocs.len() != MAX_TIERS {
            return Err(format!(
                "\"allocators\" needs {MAX_TIERS} entries, got {}",
                allocs.len()
            ));
        }
        let mut allocators = Vec::with_capacity(MAX_TIERS);
        for (kind, a) in TierKind::ALL.into_iter().zip(allocs) {
            let a = FrameAllocator::restore(a)?;
            if a.tier() != kind {
                return Err(format!("allocator {} out of chain order", a.tier().name()));
            }
            allocators.push(a);
        }
        let allocators: [FrameAllocator; MAX_TIERS] =
            allocators.try_into().expect("length checked above");
        let lat = snap::array_u64(snap::field(v, "loaded_latency")?)?;
        let loaded_latency: [Nanos; MAX_TIERS] = <[u64; MAX_TIERS]>::try_from(lat)
            .map_err(|l| {
                format!(
                    "\"loaded_latency\" needs {MAX_TIERS} entries, got {}",
                    l.len()
                )
            })?
            .map(Nanos);
        Ok(Machine {
            spec,
            allocators,
            bandwidth: BandwidthTracker::restore(snap::field(v, "bandwidth")?)?,
            topology: Topology::restore(snap::field(v, "topology")?)?,
            loaded_latency,
            faults: FaultPlan::restore(snap::field(v, "faults")?)?,
            throttle_now: snap::field_f64(v, "throttle_now")?,
            last_alloc_injected: snap::field_bool(v, "last_alloc_injected")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_snapshot_roundtrips_live_state() {
        use vulcan_json::Snapshot;
        let mut m = Machine::new(MachineSpec::small3(8, 8, 8, 4));
        m.topology.pin(crate::SimThreadId(3), crate::CoreId(1));
        let keep = m.alloc(TierKind::Fast).unwrap();
        let f = m.alloc(TierKind::Fast).unwrap();
        m.free(f); // free-list order now differs from a fresh machine
        for _ in 0..50_000 {
            m.record_access(TierKind::Slow);
        }
        m.end_quantum(Nanos::micros(10)); // non-trivial inflation + cache
        let text = m.snapshot().to_json();
        let back = Machine::restore(&vulcan_json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            back.access_latency(TierKind::Slow),
            m.access_latency(TierKind::Slow)
        );
        assert_eq!(
            back.bandwidth.inflation(TierKind::Slow).to_bits(),
            m.bandwidth.inflation(TierKind::Slow).to_bits()
        );
        assert_eq!(
            back.free_pages(TierKind::Fast),
            m.free_pages(TierKind::Fast)
        );
        assert!(back.allocator(TierKind::Fast).is_allocated(keep.index));
        assert_eq!(
            back.topology.core_of(crate::SimThreadId(3)),
            Some(crate::CoreId(1))
        );
        // The next allocation must hand out the same frame.
        let mut a = m;
        let mut b = back;
        assert_eq!(a.alloc(TierKind::Fast), b.alloc(TierKind::Fast));
    }

    #[test]
    fn paper_testbed_dimensions() {
        let m = Machine::new(MachineSpec::paper_testbed());
        assert_eq!(m.allocator(TierKind::Fast).capacity(), 8192);
        assert_eq!(m.allocator(TierKind::Slow).capacity(), 65536);
        assert_eq!(m.allocator(TierKind::Nvm).capacity(), 0, "absent tier");
        assert_eq!(m.topology.n_cores(), 32);
        assert_eq!(m.n_tiers(), 2);
    }

    #[test]
    fn three_tier_testbed_dimensions() {
        let m = Machine::new(MachineSpec::paper_3tier());
        assert_eq!(m.n_tiers(), 3);
        assert_eq!(m.allocator(TierKind::Nvm).capacity(), 131072);
        assert_eq!(m.spec().demote_target(TierKind::Slow), Some(TierKind::Nvm));
        assert_eq!(m.spec().demote_target(TierKind::Nvm), None);
    }

    #[test]
    fn fallback_allocation_spills_to_slow() {
        let mut m = Machine::new(MachineSpec::small(1, 4, 2));
        let a = m.alloc_with_fallback(TierKind::Fast).unwrap();
        assert_eq!(a.tier, TierKind::Fast);
        let b = m.alloc_with_fallback(TierKind::Fast).unwrap();
        assert_eq!(b.tier, TierKind::Slow);
    }

    #[test]
    fn alloc_storm_walks_the_whole_chain_in_order() {
        // Regression (ISSUE 9 satellite): the spill path used to be
        // hard-wired to `tier.other()` — on a 3-tier chain it must visit
        // fast, then the MIDDLE tier, then nvm, and only then give up.
        let mut m = Machine::new(MachineSpec::small3(2, 2, 2, 2));
        let tiers: Vec<TierKind> = (0..6)
            .map(|_| m.alloc_with_fallback(TierKind::Fast).unwrap().tier)
            .collect();
        assert_eq!(
            tiers,
            [
                TierKind::Fast,
                TierKind::Fast,
                TierKind::Slow,
                TierKind::Slow,
                TierKind::Nvm,
                TierKind::Nvm
            ],
            "middle tier skipped"
        );
        assert!(m.alloc_with_fallback(TierKind::Fast).is_err());
    }

    #[test]
    fn spill_prefers_down_chain_before_up() {
        // From the middle of the chain, spill goes down (Nvm) before up.
        let mut m = Machine::new(MachineSpec::small3(4, 1, 1, 2));
        m.alloc(TierKind::Slow).unwrap();
        assert_eq!(
            m.alloc_with_fallback(TierKind::Slow).map(|f| f.tier),
            Ok(TierKind::Nvm)
        );
        // Nvm now full too: next spill climbs to Fast.
        assert_eq!(
            m.alloc_with_fallback(TierKind::Slow).map(|f| f.tier),
            Ok(TierKind::Fast)
        );
    }

    #[test]
    fn uninjected_fallback_walks_the_chain_too() {
        let mut m = Machine::new(MachineSpec::small3(1, 1, 1, 2));
        assert_eq!(
            m.alloc_with_fallback_uninjected(TierKind::Slow)
                .map(|f| f.tier),
            Ok(TierKind::Slow)
        );
        assert_eq!(
            m.alloc_with_fallback_uninjected(TierKind::Slow)
                .map(|f| f.tier),
            Ok(TierKind::Nvm)
        );
        assert_eq!(
            m.alloc_with_fallback_uninjected(TierKind::Slow)
                .map(|f| f.tier),
            Ok(TierKind::Fast)
        );
        assert!(m.alloc_with_fallback_uninjected(TierKind::Slow).is_err());
    }

    #[test]
    fn exhausting_both_tiers_errors() {
        let mut m = Machine::new(MachineSpec::small(1, 1, 2));
        m.alloc_with_fallback(TierKind::Fast).unwrap();
        m.alloc_with_fallback(TierKind::Fast).unwrap();
        assert!(m.alloc_with_fallback(TierKind::Fast).is_err());
    }

    #[test]
    fn latency_reflects_contention() {
        let mut m = Machine::new(MachineSpec::small(64, 64, 2));
        let unloaded = m.access_latency(TierKind::Slow);
        assert_eq!(unloaded, Nanos(162));
        // Saturate the slow tier for one quantum.
        for _ in 0..100_000 {
            m.record_access(TierKind::Slow);
        }
        m.end_quantum(Nanos::micros(10));
        assert!(m.access_latency(TierKind::Slow) > unloaded);
    }

    #[test]
    fn free_returns_capacity() {
        let mut m = Machine::new(MachineSpec::small(2, 2, 2));
        let f = m.alloc(TierKind::Fast).unwrap();
        assert_eq!(m.free_pages(TierKind::Fast), 1);
        m.free(f);
        assert_eq!(m.free_pages(TierKind::Fast), 2);
    }

    #[test]
    fn injected_alloc_fault_reports_exhaustion_with_frames_free() {
        use crate::faults::{FaultConfig, FaultPlan, FaultSite};
        let mut m = Machine::new(MachineSpec::small(4, 4, 2));
        m.faults = FaultPlan::new(1, FaultConfig::single(FaultSite::AllocFast, 1.0));
        assert!(m.alloc(TierKind::Fast).is_err(), "injected exhaustion");
        assert_eq!(m.free_pages(TierKind::Fast), 4, "no frame consumed");
        assert!(m.alloc_uninjected(TierKind::Fast).is_ok(), "bypass works");
        // Fallback rolls per tier: fast injected, slow clean.
        assert_eq!(
            m.alloc_with_fallback(TierKind::Fast).map(|f| f.tier),
            Ok(TierKind::Slow)
        );
    }

    #[test]
    fn injected_nvm_fault_spills_back_up_the_chain() {
        use crate::faults::{FaultConfig, FaultPlan, FaultSite};
        let mut m = Machine::new(MachineSpec::small3(4, 4, 4, 2));
        m.faults = FaultPlan::new(7, FaultConfig::single(FaultSite::AllocNvm, 1.0));
        assert!(m.alloc(TierKind::Nvm).is_err(), "injected exhaustion");
        assert!(m.last_alloc_injected());
        // Bottom of the chain: spill climbs upward and tallies recovery.
        assert_eq!(
            m.alloc_with_fallback(TierKind::Nvm).map(|f| f.tier),
            Ok(TierKind::Slow)
        );
        assert_eq!(m.faults.stats().recovered[FaultSite::AllocNvm.index()], 1);
    }

    #[test]
    fn throttle_fault_scales_loaded_latency() {
        use crate::faults::{FaultConfig, FaultPlan, FaultSite};
        let mut m = Machine::new(MachineSpec::small(64, 64, 2));
        let base = m.access_latency(TierKind::Slow);
        let mut cfg = FaultConfig::single(FaultSite::Throttle, 1.0);
        cfg.throttle_factor = 3.0;
        m.faults = FaultPlan::new(9, cfg);
        m.end_quantum(Nanos::micros(10));
        assert!(m.throttled());
        assert_eq!(m.access_latency(TierKind::Slow), Nanos(base.0 * 3));
    }

    #[test]
    fn disabled_faults_leave_end_quantum_latency_exact() {
        let mut m = Machine::new(MachineSpec::small(64, 64, 2));
        let base = m.access_latency(TierKind::Fast);
        m.end_quantum(Nanos::micros(10));
        assert!(!m.throttled());
        assert_eq!(m.access_latency(TierKind::Fast), base);
    }

    #[test]
    fn page_copy_charges_both_tiers() {
        let mut m = Machine::new(MachineSpec::small(2, 2, 2));
        m.record_page_copy(TierKind::Slow, TierKind::Fast);
        assert_eq!(m.bandwidth.bytes_this_quantum(TierKind::Slow), 4096);
        assert_eq!(m.bandwidth.bytes_this_quantum(TierKind::Fast), 4096);
    }

    #[test]
    #[should_panic(expected = "prefix of TierKind::ALL")]
    fn machine_rejects_invalid_chains() {
        let mut spec = MachineSpec::small(2, 2, 2);
        spec.tiers.remove(0); // [Slow] is not a prefix of ALL
        Machine::new(spec);
    }
}
