//! Profiling mechanisms (§2.1): PEBS-like event sampling, page-table
//! scanning, NUMA hinting faults, and the hybrid profiler Vulcan uses by
//! default (performance counters + hint faults, inspired by FlexMem).
//!
//! Each mechanism trades accuracy for overhead differently — the paper's
//! §2.1 concludes "none provide a universal solution", which is why the
//! daemon decouples the choice per workload (§3.2).

use crate::heat::HeatMap;
use vulcan_sim::Cycles;
use vulcan_vm::{AddressSpace, Vpn};

/// Result of one profiling epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochOutcome {
    /// Daemon-side cycle cost of the epoch.
    pub cycles: Cycles,
    /// Pages freshly poisoned for hinting faults — the runtime must
    /// invalidate their TLB entries so the next access actually faults
    /// (real kernels flush when installing the hint PTE).
    pub poisoned: Vec<Vpn>,
}

impl EpochOutcome {
    /// An epoch that only cost cycles.
    pub fn cost(cycles: Cycles) -> Self {
        EpochOutcome {
            cycles,
            poisoned: Vec::new(),
        }
    }
}

/// One batched access plane handed to a profiler at a chunk boundary.
///
/// The plane *is* the event stream: every access stands for exactly one
/// `on_access(Vpn(offsets[i]), writes[i])`, and `hints` lists
/// (ascending) the plane indices whose access was immediately preceded
/// by an `on_hint_fault` with the same VPN and write flag. Replaying the
/// plane in index order therefore reproduces the per-access event
/// sequence bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct AccessBatch<'a> {
    /// Page numbers, one per access, in issue order.
    pub offsets: &'a [u64],
    /// Write flags, parallel to `offsets`.
    pub writes: &'a [bool],
    /// Ascending plane indices that took a hint fault.
    pub hints: &'a [u32],
}

impl AccessBatch<'_> {
    /// Replay the plane through the per-event interface. This is the
    /// reference semantics every specialized `on_access_batch` must
    /// reproduce (and the oracle's lockstep comparand).
    pub fn replay_scalar<P: Profiler + ?Sized>(&self, p: &mut P) {
        let mut h = 0usize;
        for i in 0..self.offsets.len() {
            if h < self.hints.len() && self.hints[h] as usize == i {
                p.on_hint_fault(Vpn(self.offsets[i]), self.writes[i]);
                h += 1;
            }
            p.on_access(Vpn(self.offsets[i]), self.writes[i]);
        }
    }
}

/// A page-access profiler.
///
/// The runtime calls [`on_access`](Profiler::on_access) for every demand
/// access, [`on_hint_fault`](Profiler::on_hint_fault) when a poisoned PTE
/// faults, and [`epoch`](Profiler::epoch) at each profiling interval; the
/// returned cycles are charged to the daemon, not the application.
pub trait Profiler {
    /// Observe one demand access (the mechanism decides whether to sample).
    fn on_access(&mut self, vpn: Vpn, is_write: bool);

    /// Observe a hinting fault taken on a poisoned PTE.
    fn on_hint_fault(&mut self, vpn: Vpn, is_write: bool) {
        let _ = (vpn, is_write);
    }

    /// Observe a whole access plane at a batch boundary. Must be
    /// byte-equivalent to [`AccessBatch::replay_scalar`]; the default is
    /// exactly that replay, so implementations only override it to go
    /// faster (e.g. sampling countdown skip-ahead).
    fn on_access_batch(&mut self, batch: &AccessBatch) {
        batch.replay_scalar(self);
    }

    /// Per-epoch maintenance (scanning, poisoning, decay). Returns the
    /// daemon-side cycle cost and any pages poisoned this epoch.
    fn epoch(&mut self, space: &mut AddressSpace) -> EpochOutcome;

    /// The accumulated heat map.
    fn heat(&self) -> &HeatMap;

    /// Mutable access to the heat map (the runtime pre-sizes it with
    /// [`HeatMap::reserve`]).
    fn heat_mut(&mut self) -> &mut HeatMap;
}

/// Default per-epoch heat decay (recency-vs-frequency balance).
pub const DEFAULT_DECAY: f64 = 0.7;

// ---------------------------------------------------------------------------

/// PEBS-style event sampling: every `period`-th access is recorded.
///
/// Cheap and precise at moderate scale but suffers false negatives when
/// the footprint is huge relative to the sampling rate (§2.1 cites
/// Telescope's terabyte-scale critique) — reproduced here naturally: a
/// page needs ≥`period` accesses per epoch to be reliably seen.
#[derive(Clone, Debug)]
pub struct PebsProfiler {
    period: u64,
    countdown: u64,
    heat: HeatMap,
    samples: u64,
}

impl PebsProfiler {
    /// Sample every `period`-th access (Memtis uses a similar budget).
    pub fn new(period: u64) -> Self {
        assert!(period > 0);
        PebsProfiler {
            period,
            countdown: period,
            heat: HeatMap::new(DEFAULT_DECAY),
            samples: 0,
        }
    }

    /// Total samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The sampling period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Advance the sampling countdown across a run of accesses, touching
    /// only the sampled ones — O(samples) instead of O(accesses). The
    /// countdown stays in `[1, period]` on entry and exit, exactly as a
    /// per-access decrement loop would leave it.
    #[inline]
    fn advance(&mut self, offsets: &[u64], writes: &[bool]) {
        let n = offsets.len() as u64;
        let mut pos = 0u64;
        while self.countdown <= n - pos {
            pos += self.countdown;
            let i = (pos - 1) as usize;
            self.countdown = self.period;
            self.samples += 1;
            self.heat
                .record(Vpn(offsets[i]), writes[i], self.period as f64);
        }
        self.countdown -= n - pos;
    }
}

impl Profiler for PebsProfiler {
    fn on_access(&mut self, vpn: Vpn, is_write: bool) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.period;
            self.samples += 1;
            // One sample stands for `period` accesses.
            self.heat.record(vpn, is_write, self.period as f64);
        }
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        // Hint faults are a no-op for pure PEBS, so the plane reduces to
        // the countdown skip-ahead.
        self.advance(batch.offsets, batch.writes);
    }

    fn epoch(&mut self, _space: &mut AddressSpace) -> EpochOutcome {
        self.heat.decay_epoch();
        // Draining the PEBS buffer is cheap and amortized.
        EpochOutcome::cost(Cycles(2_000))
    }

    fn heat(&self) -> &HeatMap {
        &self.heat
    }

    fn heat_mut(&mut self) -> &mut HeatMap {
        &mut self.heat
    }
}

// ---------------------------------------------------------------------------

/// Page-table scanning: walk every mapped PTE each epoch, harvest and
/// clear accessed bits (Nimble / MULTI-CLOCK style). Accurate presence
/// signal, but the epoch cost is linear in RSS — the scalability problem
/// §2.1 notes.
#[derive(Clone, Debug)]
pub struct PtScanProfiler {
    heat: HeatMap,
    /// Cycles to test-and-clear one PTE during the scan.
    per_pte: Cycles,
    scans: u64,
    /// Scratch buffer of mapped VPNs, reused across epochs so each scan
    /// does not re-allocate a footprint-sized vector.
    scratch: Vec<Vpn>,
}

impl PtScanProfiler {
    /// A scanner with the default per-PTE cost (~30 cycles).
    pub fn new() -> Self {
        PtScanProfiler {
            heat: HeatMap::new(DEFAULT_DECAY),
            per_pte: Cycles(30),
            scans: 0,
            scratch: Vec::new(),
        }
    }

    /// Completed scan passes.
    pub fn scans(&self) -> u64 {
        self.scans
    }
}

impl Default for PtScanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler for PtScanProfiler {
    fn on_access(&mut self, _vpn: Vpn, _is_write: bool) {
        // Scanning sees accesses only through PTE accessed bits.
    }

    fn on_access_batch(&mut self, _batch: &AccessBatch) {
        // No per-access state at all: whole planes are free.
    }

    fn epoch(&mut self, space: &mut AddressSpace) -> EpochOutcome {
        self.heat.decay_epoch();
        let mut vpns = std::mem::take(&mut self.scratch);
        vpns.clear();
        vpns.extend(space.mapped_vpns());
        let mut cost = Cycles::ZERO;
        for vpn in &vpns {
            let pte = space.pte(*vpn);
            cost += self.per_pte;
            if pte.accessed() {
                // One bit per epoch: scanning can't distinguish 1 access
                // from 1000 (its precision limitation), nor reads/writes
                // beyond the dirty bit.
                self.heat.record(*vpn, pte.dirty(), 1.0);
                space.set_pte(*vpn, pte.clear_accessed().clear_dirty());
            }
        }
        self.scratch = vpns;
        self.scans += 1;
        EpochOutcome::cost(cost)
    }

    fn heat(&self) -> &HeatMap {
        &self.heat
    }

    fn heat_mut(&mut self) -> &mut HeatMap {
        &mut self.heat
    }
}

// ---------------------------------------------------------------------------

/// NUMA hinting faults: each epoch poisons a window of mapped pages; the
/// next access to a poisoned page takes a minor fault that reports the
/// access precisely (AutoTiering / TPP style). Precise, but every sampled
/// access pays fault latency — the overhead the runtime charges via
/// [`vulcan_vm::TouchOutcome::hint_fault`].
#[derive(Clone, Debug)]
pub struct HintFaultProfiler {
    heat: HeatMap,
    /// Fraction of mapped pages poisoned each epoch.
    poison_fraction: f64,
    /// Rotating start offset so successive epochs cover different pages.
    cursor: u64,
    faults: u64,
    /// Scratch buffer of mapped VPNs, reused across epochs so each
    /// poisoning pass does not re-allocate a footprint-sized vector.
    scratch: Vec<Vpn>,
}

impl HintFaultProfiler {
    /// Poison `poison_fraction` of the RSS each epoch.
    pub fn new(poison_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&poison_fraction));
        HintFaultProfiler {
            heat: HeatMap::new(DEFAULT_DECAY),
            poison_fraction,
            cursor: 0,
            faults: 0,
            scratch: Vec::new(),
        }
    }

    /// Hint faults observed.
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

impl Profiler for HintFaultProfiler {
    fn on_access(&mut self, _vpn: Vpn, _is_write: bool) {}

    fn on_hint_fault(&mut self, vpn: Vpn, is_write: bool) {
        self.faults += 1;
        // A fault on a poisoned page witnesses roughly one epoch-window
        // of accesses; weight higher than a scan bit.
        self.heat.record(vpn, is_write, 4.0);
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        // `on_access` is a no-op, so only the hint positions matter.
        for &h in batch.hints {
            let i = h as usize;
            self.on_hint_fault(Vpn(batch.offsets[i]), batch.writes[i]);
        }
    }

    fn epoch(&mut self, space: &mut AddressSpace) -> EpochOutcome {
        self.heat.decay_epoch();
        let mut vpns = std::mem::take(&mut self.scratch);
        vpns.clear();
        vpns.extend(space.mapped_vpns());
        if vpns.is_empty() {
            self.scratch = vpns;
            return EpochOutcome::default();
        }
        let n = ((vpns.len() as f64 * self.poison_fraction).ceil() as usize).max(1);
        let start = (self.cursor as usize) % vpns.len();
        let mut cost = Cycles::ZERO;
        let mut poisoned = Vec::with_capacity(n);
        for i in 0..n.min(vpns.len()) {
            let vpn = vpns[(start + i) % vpns.len()];
            let pte = space.pte(vpn);
            space.set_pte(vpn, pte.with_poisoned(true));
            poisoned.push(vpn);
            cost += Cycles(150); // PTE write + local flush
        }
        self.cursor = self.cursor.wrapping_add(n as u64);
        self.scratch = vpns;
        EpochOutcome {
            cycles: cost,
            poisoned,
        }
    }

    fn heat(&self) -> &HeatMap {
        &self.heat
    }

    fn heat_mut(&mut self) -> &mut HeatMap {
        &mut self.heat
    }
}

// ---------------------------------------------------------------------------

/// Vulcan's default: PEBS sampling fused with hinting faults (§3.2,
/// "hybrid profiling approach that integrates performance counter-based
/// profiling and page hinting fault-based profiling", after FlexMem).
///
/// PEBS provides broad, cheap coverage; hint faults add precise
/// confirmation for a rotating window, overcoming sampling's false
/// negatives on large, moderately-warm footprints.
#[derive(Clone, Debug)]
pub struct HybridProfiler {
    pebs: PebsProfiler,
    hint: HintFaultProfiler,
}

impl HybridProfiler {
    /// Hybrid with the given PEBS period and hint-fault window fraction.
    pub fn new(pebs_period: u64, poison_fraction: f64) -> Self {
        HybridProfiler {
            pebs: PebsProfiler::new(pebs_period),
            hint: HintFaultProfiler::new(poison_fraction),
        }
    }

    /// Vulcan's default configuration.
    pub fn vulcan_default() -> Self {
        HybridProfiler::new(64, 0.05)
    }
}

impl Profiler for HybridProfiler {
    fn on_access(&mut self, vpn: Vpn, is_write: bool) {
        self.pebs.on_access(vpn, is_write);
    }

    fn on_hint_fault(&mut self, vpn: Vpn, is_write: bool) {
        // Fold the precise signal into the shared (PEBS) heat map so
        // policies read a single fused view.
        self.hint.faults += 1;
        self.pebs.heat.record(vpn, is_write, 4.0);
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        // Hint faults interleave with the sampled stream in plane order
        // (hint i fires just before access i), so the heat-map record
        // sequence — and with it every f64 sum — matches the scalar
        // path: skip-ahead between hint positions, per-event at them.
        let mut start = 0usize;
        for &h in batch.hints {
            let h = h as usize;
            self.pebs
                .advance(&batch.offsets[start..h], &batch.writes[start..h]);
            self.on_hint_fault(Vpn(batch.offsets[h]), batch.writes[h]);
            self.pebs
                .advance(&batch.offsets[h..=h], &batch.writes[h..=h]);
            start = h + 1;
        }
        self.pebs
            .advance(&batch.offsets[start..], &batch.writes[start..]);
    }

    fn epoch(&mut self, space: &mut AddressSpace) -> EpochOutcome {
        let a = self.pebs.epoch(space);
        let mut b = self.hint.epoch(space);
        b.cycles += a.cycles;
        b
    }

    fn heat(&self) -> &HeatMap {
        &self.pebs.heat
    }

    fn heat_mut(&mut self) -> &mut HeatMap {
        &mut self.pebs.heat
    }
}

impl vulcan_json::Snapshot for PebsProfiler {
    /// The countdown is the profiler's position inside its sampling
    /// stride — hidden state that decides *which* future access is the
    /// next sample, so it must travel for restore-replay identity.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("period", snap::u64_value(self.period)),
            ("countdown", snap::u64_value(self.countdown)),
            ("samples", snap::u64_value(self.samples)),
            ("heat", self.heat.snapshot()),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let period = snap::field_u64(v, "period")?;
        if period == 0 {
            return Err("PEBS period must be positive".into());
        }
        let countdown = snap::field_u64(v, "countdown")?;
        if countdown == 0 || countdown > period {
            return Err(format!("countdown {countdown} outside [1, {period}]"));
        }
        Ok(PebsProfiler {
            period,
            countdown,
            heat: HeatMap::restore(snap::field(v, "heat")?)?,
            samples: snap::field_u64(v, "samples")?,
        })
    }
}

impl vulcan_json::Snapshot for PtScanProfiler {
    /// The scratch buffer is reuse-only (cleared before every scan), so
    /// it restores empty.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("per_pte", snap::u64_value(self.per_pte.0)),
            ("scans", snap::u64_value(self.scans)),
            ("heat", self.heat.snapshot()),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        Ok(PtScanProfiler {
            heat: HeatMap::restore(snap::field(v, "heat")?)?,
            per_pte: Cycles(snap::field_u64(v, "per_pte")?),
            scans: snap::field_u64(v, "scans")?,
            scratch: Vec::new(),
        })
    }
}

impl vulcan_json::Snapshot for HintFaultProfiler {
    /// The rotating cursor decides which window poisons next epoch —
    /// hidden state with direct downstream effect on fault timing.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("poison_fraction", snap::f64_value(self.poison_fraction)),
            ("cursor", snap::u64_value(self.cursor)),
            ("faults", snap::u64_value(self.faults)),
            ("heat", self.heat.snapshot()),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let poison_fraction = snap::field_f64(v, "poison_fraction")?;
        if !(0.0..=1.0).contains(&poison_fraction) {
            return Err(format!("poison_fraction {poison_fraction} out of [0,1]"));
        }
        Ok(HintFaultProfiler {
            heat: HeatMap::restore(snap::field(v, "heat")?)?,
            poison_fraction,
            cursor: snap::field_u64(v, "cursor")?,
            faults: snap::field_u64(v, "faults")?,
            scratch: Vec::new(),
        })
    }
}

impl vulcan_json::Snapshot for HybridProfiler {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("pebs", self.pebs.snapshot()),
            ("hint", self.hint.snapshot()),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        Ok(HybridProfiler {
            pebs: PebsProfiler::restore(snap::field(v, "pebs")?)?,
            hint: HintFaultProfiler::restore(snap::field(v, "hint")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_sim::{FrameId, TierKind};
    use vulcan_vm::LocalTid;

    fn space_with_pages(n: u64) -> AddressSpace {
        let mut s = AddressSpace::new(false);
        for v in 0..n {
            s.map(
                Vpn(v),
                FrameId {
                    tier: TierKind::Slow,
                    index: v as u32,
                },
                LocalTid(0),
            );
        }
        s
    }

    #[test]
    fn pebs_samples_every_period() {
        let mut p = PebsProfiler::new(10);
        for _ in 0..100 {
            p.on_access(Vpn(1), false);
        }
        assert_eq!(p.samples(), 10);
        assert_eq!(p.heat().get(Vpn(1)).heat, 100.0, "weighted by period");
    }

    #[test]
    fn pebs_misses_infrequent_pages() {
        let mut p = PebsProfiler::new(100);
        // 99 accesses: below the period, never sampled.
        for _ in 0..99 {
            p.on_access(Vpn(7), false);
        }
        assert_eq!(p.samples(), 0, "false negative by design");
    }

    #[test]
    fn ptscan_harvests_and_clears_accessed_bits() {
        let mut s = space_with_pages(4);
        s.touch(Vpn(0), LocalTid(0), false).unwrap();
        s.touch(Vpn(1), LocalTid(0), true).unwrap();
        let mut p = PtScanProfiler::new();
        let out = p.epoch(&mut s);
        assert!(out.cycles.0 >= 4 * 30);
        assert_eq!(p.heat().get(Vpn(0)).heat, 1.0);
        assert!(p.heat().get(Vpn(1)).write_ratio() > 0.0);
        assert_eq!(p.heat().get(Vpn(2)).heat, 0.0);
        assert!(!s.pte(Vpn(0)).accessed(), "bit cleared for next epoch");
        assert_eq!(p.scans(), 1);
    }

    #[test]
    fn ptscan_cost_scales_with_rss() {
        let mut small = space_with_pages(10);
        let mut large = space_with_pages(1000);
        let mut p1 = PtScanProfiler::new();
        let mut p2 = PtScanProfiler::new();
        assert!(p2.epoch(&mut large).cycles.0 > 50 * p1.epoch(&mut small).cycles.0);
    }

    #[test]
    fn hint_fault_poisons_rotating_window() {
        let mut s = space_with_pages(100);
        let mut p = HintFaultProfiler::new(0.1);
        let out = p.epoch(&mut s);
        assert_eq!(out.poisoned.len(), 10, "epoch reports poisoned pages");
        let poisoned: Vec<Vpn> = s.mapped_vpns().filter(|&v| s.pte(v).poisoned()).collect();
        assert_eq!(poisoned.len(), 10);
        // Next epoch poisons a different window.
        p.epoch(&mut s);
        let poisoned2: usize = s.mapped_vpns().filter(|&v| s.pte(v).poisoned()).count();
        assert_eq!(poisoned2, 20, "windows rotate, first batch still set");
    }

    #[test]
    fn hint_fault_records_heat() {
        let mut p = HintFaultProfiler::new(0.1);
        p.on_hint_fault(Vpn(3), true);
        assert_eq!(p.faults(), 1);
        assert!(p.heat().get(Vpn(3)).heat > 0.0);
        assert!(p.heat().get(Vpn(3)).write_ratio() > 0.99);
    }

    #[test]
    fn hybrid_fuses_both_signals() {
        let mut s = space_with_pages(50);
        let mut p = HybridProfiler::vulcan_default();
        for _ in 0..640 {
            p.on_access(Vpn(5), false);
        }
        p.on_hint_fault(Vpn(9), false);
        let out = p.epoch(&mut s);
        assert!(out.cycles > Cycles::ZERO);
        assert!(!out.poisoned.is_empty(), "hybrid poisons via hint faults");
        assert!(p.heat().get(Vpn(5)).heat > 0.0, "PEBS signal present");
        assert!(p.heat().get(Vpn(9)).heat > 0.0, "hint signal fused in");
        // Poisoning happened too.
        assert!(s.mapped_vpns().any(|v| s.pte(v).poisoned()));
    }

    #[test]
    fn epoch_on_empty_space_is_safe() {
        let mut s = AddressSpace::new(false);
        let mut p = HintFaultProfiler::new(0.5);
        let out = p.epoch(&mut s);
        assert_eq!(out.cycles, Cycles::ZERO);
        assert!(out.poisoned.is_empty());
    }

    /// The hybrid profiler restored mid-stride must sample exactly the
    /// same future accesses as the original: the PEBS countdown, the
    /// hint cursor and every heat cell continue bit-for-bit.
    #[test]
    fn hybrid_snapshot_roundtrip_continues_the_sample_stream() {
        use vulcan_json::Snapshot;
        let mut s1 = space_with_pages(64);
        let mut orig = HybridProfiler::vulcan_default();
        for i in 0..777u64 {
            orig.on_access(Vpn(i % 64), i % 5 == 0); // countdown mid-stride
        }
        orig.epoch(&mut s1);
        orig.on_hint_fault(Vpn(9), true);
        let snap = orig.snapshot();
        let mut back = HybridProfiler::restore(&snap).expect("restore");
        assert_eq!(back.snapshot(), snap, "idempotent");
        let mut s2 = s1.clone();
        for i in 0..500u64 {
            orig.on_access(Vpn((i * 7) % 64), i % 3 == 0);
            back.on_access(Vpn((i * 7) % 64), i % 3 == 0);
        }
        let o1 = orig.epoch(&mut s1);
        let o2 = back.epoch(&mut s2);
        assert_eq!(o1.cycles, o2.cycles);
        assert_eq!(o1.poisoned, o2.poisoned, "hint cursor traveled");
        for v in 0..64u64 {
            let a = orig.heat().get(Vpn(v));
            let b = back.heat().get(Vpn(v));
            assert_eq!(a.heat.to_bits(), b.heat.to_bits(), "vpn {v}");
            assert_eq!(a.writes.to_bits(), b.writes.to_bits(), "vpn {v}");
        }
        assert_eq!(back.snapshot(), orig.snapshot(), "lockstep");
    }

    #[test]
    fn pebs_restore_rejects_mid_stride_corruption() {
        use vulcan_json::Snapshot;
        let p = PebsProfiler::new(10);
        let mut v = p.snapshot();
        if let vulcan_json::Value::Object(m) = &mut v {
            m.insert("countdown", vulcan_json::snap::u64_value(11));
        }
        assert!(PebsProfiler::restore(&v).unwrap_err().contains("countdown"));
    }
}
