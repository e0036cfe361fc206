//! Per-core set-associative TLBs.
//!
//! Each simulated core caches translations in a set-associative TLB keyed
//! by (ASID, VPN). TLB shootdowns during migration invalidate entries on
//! remote cores — the coherence traffic §2.2 Observation #3 measures.
//! Sizing follows a typical server-class second-level TLB (1536 entries,
//! 12-way is common; we use 128 sets × 12 ways).

use crate::addr::Vpn;
use vulcan_sim::{CoreId, FrameId};

/// An address-space identifier (one per process).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asid(pub u16);

#[derive(Clone, Copy, Debug)]
struct Way {
    asid: Asid,
    vpn: Vpn,
    frame: FrameId,
    stamp: u32,
}

#[derive(Clone, Copy, Debug)]
struct HugeWay {
    asid: Asid,
    /// 2 MiB-aligned base VPN of the covered region.
    base: u64,
    stamp: u32,
}

/// A single core's TLB.
///
/// Two structures, as in real cores: a large base-page array and a
/// smaller 2 MiB-entry array. One huge entry covers 512 base pages —
/// the TLB-coverage benefit THP buys (§3.5 keeps THP enabled by default
/// and splits only on promotion).
///
/// Ways live in one flat slot array per structure (`set * ways` stride)
/// with a per-set occupancy count, instead of a `Vec` per set: one
/// allocation, no pointer chase per probe, and the batched plane sweep
/// ([`Tlb::probe_read_one`]) walks it linearly. Within a set the scan
/// order is insertion order and eviction replaces the minimum-stamp way
/// in place — exactly the semantics the per-set `Vec`s had.
#[derive(Clone, Debug)]
pub struct Tlb {
    slots: Vec<Way>,
    lens: Vec<u32>,
    n_sets: usize,
    ways: usize,
    huge_slots: Vec<HugeWay>,
    huge_lens: Vec<u32>,
    huge_ways: usize,
    clock: u32,
    hits: u64,
    misses: u64,
}

/// Filler for unoccupied flat slots (never read: `lens` bounds scans).
const EMPTY_WAY: Way = Way {
    asid: Asid(0),
    vpn: Vpn(0),
    frame: FrameId {
        tier: vulcan_sim::TierKind::Fast,
        index: 0,
    },
    stamp: 0,
};

const EMPTY_HUGE_WAY: HugeWay = HugeWay {
    asid: Asid(0),
    base: 0,
    stamp: 0,
};

/// The number of huge-TLB sets (fixed; 16 sets × 8 ways = 128 entries).
const HUGE_SETS: usize = 16;

/// `Vec::retain` over one flat set: keep ways satisfying `keep`,
/// shifting survivors left (preserving scan order); returns whether
/// anything was dropped.
fn retain_set<W: Copy>(slots: &mut [W], len: &mut u32, mut keep: impl FnMut(&W) -> bool) -> bool {
    let n = *len as usize;
    let mut kept = 0;
    for i in 0..n {
        if keep(&slots[i]) {
            slots[kept] = slots[i];
            kept += 1;
        }
    }
    *len = kept as u32;
    kept != n
}

impl Tlb {
    /// A TLB with `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Tlb {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            slots: vec![EMPTY_WAY; sets * ways],
            lens: vec![0; sets],
            n_sets: sets,
            ways,
            huge_slots: vec![EMPTY_HUGE_WAY; HUGE_SETS * 8],
            huge_lens: vec![0; HUGE_SETS],
            huge_ways: 8,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Default server-class sizing: 128 sets × 12 ways = 1536 base
    /// entries plus 128 huge (2 MiB) entries.
    pub fn server_default() -> Tlb {
        Tlb::new(128, 12)
    }

    fn huge_set_of(&self, base: u64) -> usize {
        ((base >> 9) as usize) & (self.huge_lens.len() - 1)
    }

    /// The occupied slice of huge set `set`, mutable.
    #[inline]
    fn huge_set_mut(&mut self, set: usize) -> &mut [HugeWay] {
        let base = set * self.huge_ways;
        &mut self.huge_slots[base..base + self.huge_lens[set] as usize]
    }

    /// Look up a 2 MiB translation covering `vpn` (base = `vpn & !511`).
    #[inline]
    pub fn lookup_huge(&mut self, asid: Asid, vpn: Vpn) -> bool {
        self.clock = self.clock.wrapping_add(1);
        let stamp = self.clock;
        let base = vpn.huge_base().0;
        let set = self.huge_set_of(base);
        if let Some(w) = self
            .huge_set_mut(set)
            .iter_mut()
            .find(|w| w.asid == asid && w.base == base)
        {
            w.stamp = stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        false
    }

    /// Install a 2 MiB translation for the region containing `vpn`.
    pub fn insert_huge(&mut self, asid: Asid, vpn: Vpn) {
        self.clock = self.clock.wrapping_add(1);
        let stamp = self.clock;
        let base = vpn.huge_base().0;
        let ways = self.huge_ways;
        let set = self.huge_set_of(base);
        if let Some(w) = self
            .huge_set_mut(set)
            .iter_mut()
            .find(|w| w.asid == asid && w.base == base)
        {
            w.stamp = stamp;
            return;
        }
        let way = HugeWay { asid, base, stamp };
        let len = self.huge_lens[set] as usize;
        let slot_base = set * ways;
        if len < ways {
            self.huge_slots[slot_base + len] = way;
            self.huge_lens[set] += 1;
        } else {
            *self.huge_slots[slot_base..slot_base + ways]
                .iter_mut()
                .min_by_key(|w| w.stamp)
                .expect("full set") = way;
        }
    }

    /// Drop the 2 MiB entry covering `vpn` (after a THP split).
    pub fn invalidate_huge(&mut self, asid: Asid, vpn: Vpn) -> bool {
        let base = vpn.huge_base().0;
        let set = self.huge_set_of(base);
        let ways = self.huge_ways;
        retain_set(
            &mut self.huge_slots[set * ways..(set + 1) * ways],
            &mut self.huge_lens[set],
            |w| !(w.asid == asid && w.base == base),
        )
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.n_sets - 1)
    }

    /// Look up a translation; records hit/miss statistics.
    #[inline]
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        self.clock = self.clock.wrapping_add(1);
        let stamp = self.clock;
        let set = self.set_of(vpn);
        let base = set * self.ways;
        // VPN first: it discriminates more than the ASID, so mismatching
        // ways fail on the first compare.
        if let Some(way) = self.slots[base..base + self.lens[set] as usize]
            .iter_mut()
            .find(|w| w.vpn == vpn && w.asid == asid)
        {
            way.stamp = stamp;
            self.hits += 1;
            return Some(way.frame);
        }
        self.misses += 1;
        None
    }

    /// One read-probe of the batched plane sweep: [`Tlb::lookup`]
    /// specialized to the hit case. On a hit it applies exactly
    /// `lookup`'s side effects (clock bump, stamp refresh, hit count)
    /// and returns the frame; on a miss the TLB is left completely
    /// untouched — no miss count, no clock tick — so the cold path's
    /// own `lookup` replays the access's single miss exactly.
    #[inline]
    pub fn probe_read_one(&mut self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let pos = self.slots[base..base + self.lens[set] as usize]
            .iter()
            .position(|w| w.vpn == vpn && w.asid == asid)?;
        self.clock = self.clock.wrapping_add(1);
        self.hits += 1;
        let way = &mut self.slots[base + pos];
        way.stamp = self.clock;
        Some(way.frame)
    }

    /// Install a translation, evicting LRU within the set if needed.
    pub fn insert(&mut self, asid: Asid, vpn: Vpn, frame: FrameId) {
        self.clock = self.clock.wrapping_add(1);
        let stamp = self.clock;
        let ways = self.ways;
        let set = self.set_of(vpn);
        let base = set * ways;
        let len = self.lens[set] as usize;
        if let Some(way) = self.slots[base..base + len]
            .iter_mut()
            .find(|w| w.asid == asid && w.vpn == vpn)
        {
            way.frame = frame;
            way.stamp = stamp;
            return;
        }
        let way = Way {
            asid,
            vpn,
            frame,
            stamp,
        };
        if len < ways {
            self.slots[base + len] = way;
            self.lens[set] += 1;
        } else {
            let lru = self.slots[base..base + ways]
                .iter_mut()
                .min_by_key(|w| w.stamp)
                .expect("non-empty full set");
            *lru = way;
        }
    }

    /// Invalidate one page's translation (remote `invlpg`).
    /// Returns true if an entry was present.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) -> bool {
        let set = self.set_of(vpn);
        let ways = self.ways;
        retain_set(
            &mut self.slots[set * ways..(set + 1) * ways],
            &mut self.lens[set],
            |w| !(w.asid == asid && w.vpn == vpn),
        )
    }

    /// Flush every entry of one address space (full-ASID shootdown).
    pub fn flush_asid(&mut self, asid: Asid) {
        for set in 0..self.n_sets {
            let ways = self.ways;
            retain_set(
                &mut self.slots[set * ways..(set + 1) * ways],
                &mut self.lens[set],
                |w| w.asid != asid,
            );
        }
        for set in 0..self.huge_lens.len() {
            let ways = self.huge_ways;
            retain_set(
                &mut self.huge_slots[set * ways..(set + 1) * ways],
                &mut self.huge_lens[set],
                |w| w.asid != asid,
            );
        }
    }

    /// Flush everything (context switch without PCID).
    pub fn flush_all(&mut self) {
        self.lens.fill(0);
        self.huge_lens.fill(0);
    }

    /// Base-page entries currently cached.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Huge (2 MiB) entries currently cached.
    pub fn huge_occupancy(&self) -> usize {
        self.huge_lens.iter().map(|&l| l as usize).sum()
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One TLB per core of the machine.
#[derive(Clone, Debug)]
pub struct TlbArray {
    tlbs: Vec<Tlb>,
}

impl TlbArray {
    /// Build `n_cores` server-default TLBs.
    pub fn new(n_cores: u16) -> TlbArray {
        TlbArray {
            tlbs: (0..n_cores).map(|_| Tlb::server_default()).collect(),
        }
    }

    /// The TLB of `core`.
    #[inline]
    pub fn core(&mut self, core: CoreId) -> &mut Tlb {
        &mut self.tlbs[core.0 as usize]
    }

    /// Invalidate `vpn` on every listed core; returns how many cores
    /// actually held the translation.
    pub fn invalidate_on(
        &mut self,
        cores: impl IntoIterator<Item = CoreId>,
        asid: Asid,
        vpn: Vpn,
    ) -> usize {
        cores
            .into_iter()
            .filter(|&c| self.tlbs[c.0 as usize].invalidate(asid, vpn))
            .count()
    }

    /// Drop the huge entry covering `vpn` on every listed core (THP
    /// split); returns how many cores held it.
    pub fn invalidate_huge_on(
        &mut self,
        cores: impl IntoIterator<Item = CoreId>,
        asid: Asid,
        vpn: Vpn,
    ) -> usize {
        cores
            .into_iter()
            .filter(|&c| self.tlbs[c.0 as usize].invalidate_huge(asid, vpn))
            .count()
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.tlbs.len()
    }

    /// Whether there are no cores (never true for a real machine).
    pub fn is_empty(&self) -> bool {
        self.tlbs.is_empty()
    }
}

impl vulcan_json::Snapshot for Tlb {
    /// Way order within a set, per-way stamps and the global clock are
    /// all behavioral (set scans run in insertion order; eviction picks
    /// the minimum-stamp way), so every occupied way travels verbatim in
    /// set-major order as parallel flat arrays. Hit/miss counters feed
    /// FTHR telemetry and policy decisions, so they travel too.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        let mut asids = Vec::new();
        let mut vpns = Vec::new();
        let mut tiers = Vec::new();
        let mut frames = Vec::new();
        let mut stamps = Vec::new();
        for set in 0..self.n_sets {
            let base = set * self.ways;
            for w in &self.slots[base..base + self.lens[set] as usize] {
                asids.push(w.asid.0 as u64);
                vpns.push(w.vpn.0);
                tiers.push(w.frame.tier.index() as u64);
                frames.push(w.frame.index as u64);
                stamps.push(w.stamp as u64);
            }
        }
        let mut h_asids = Vec::new();
        let mut h_bases = Vec::new();
        let mut h_stamps = Vec::new();
        for set in 0..self.huge_lens.len() {
            let base = set * self.huge_ways;
            for w in &self.huge_slots[base..base + self.huge_lens[set] as usize] {
                h_asids.push(w.asid.0 as u64);
                h_bases.push(w.base);
                h_stamps.push(w.stamp as u64);
            }
        }
        let lens: Vec<u64> = self.lens.iter().map(|&l| l as u64).collect();
        let huge_lens: Vec<u64> = self.huge_lens.iter().map(|&l| l as u64).collect();
        snap::obj(vec![
            ("sets", snap::u64_value(self.n_sets as u64)),
            ("ways", snap::u64_value(self.ways as u64)),
            ("lens", snap::u64_array(&lens)),
            ("way_asid", snap::u64_array(&asids)),
            ("way_vpn", snap::u64_array(&vpns)),
            ("way_tier", snap::u64_array(&tiers)),
            ("way_frame", snap::u64_array(&frames)),
            ("way_stamp", snap::u64_array(&stamps)),
            ("huge_ways", snap::u64_value(self.huge_ways as u64)),
            ("huge_lens", snap::u64_array(&huge_lens)),
            ("huge_asid", snap::u64_array(&h_asids)),
            ("huge_base", snap::u64_array(&h_bases)),
            ("huge_stamp", snap::u64_array(&h_stamps)),
            ("clock", snap::u64_value(self.clock as u64)),
            ("hits", snap::u64_value(self.hits)),
            ("misses", snap::u64_value(self.misses)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        use vulcan_sim::TierKind;
        let n_sets = snap::field_usize(v, "sets")?;
        let ways = snap::field_usize(v, "ways")?;
        if !n_sets.is_power_of_two() {
            return Err(format!("set count {n_sets} not a power of two"));
        }
        let huge_ways = snap::field_usize(v, "huge_ways")?;
        let u32s = |key: &str| -> Result<Vec<u32>, String> {
            snap::array_u64(snap::field(v, key)?)?
                .into_iter()
                .map(|x| u32::try_from(x).map_err(|_| format!("\"{key}\" entry out of u32 range")))
                .collect()
        };
        let lens = u32s("lens")?;
        let huge_lens = u32s("huge_lens")?;
        if lens.len() != n_sets || huge_lens.len() != HUGE_SETS {
            return Err("TLB set-length arrays have wrong shape".into());
        }
        let asids = u32s("way_asid")?;
        let vpns = snap::array_u64(snap::field(v, "way_vpn")?)?;
        let tiers = u32s("way_tier")?;
        let frames = u32s("way_frame")?;
        let stamps = u32s("way_stamp")?;
        let occupied: usize = lens.iter().map(|&l| l as usize).sum();
        if [
            asids.len(),
            vpns.len(),
            tiers.len(),
            frames.len(),
            stamps.len(),
        ]
        .iter()
        .any(|&n| n != occupied)
        {
            return Err("TLB way arrays disagree with set lengths".into());
        }
        let mut slots = vec![EMPTY_WAY; n_sets * ways];
        let mut cursor = 0;
        for (set, &len) in lens.iter().enumerate() {
            if len as usize > ways {
                return Err(format!("set {set} holds {len} ways, capacity {ways}"));
            }
            for i in 0..len as usize {
                let tier = *TierKind::ALL
                    .get(tiers[cursor] as usize)
                    .ok_or_else(|| format!("bad tier index {}", tiers[cursor]))?;
                slots[set * ways + i] = Way {
                    asid: Asid(
                        u16::try_from(asids[cursor])
                            .map_err(|_| "asid out of u16 range".to_string())?,
                    ),
                    vpn: Vpn(vpns[cursor]),
                    frame: FrameId {
                        tier,
                        index: frames[cursor],
                    },
                    stamp: stamps[cursor],
                };
                cursor += 1;
            }
        }
        let h_asids = u32s("huge_asid")?;
        let h_bases = snap::array_u64(snap::field(v, "huge_base")?)?;
        let h_stamps = u32s("huge_stamp")?;
        let h_occupied: usize = huge_lens.iter().map(|&l| l as usize).sum();
        if h_asids.len() != h_occupied
            || h_bases.len() != h_occupied
            || h_stamps.len() != h_occupied
        {
            return Err("huge-TLB way arrays disagree with set lengths".into());
        }
        let mut huge_slots = vec![EMPTY_HUGE_WAY; HUGE_SETS * huge_ways];
        let mut cursor = 0;
        for (set, &len) in huge_lens.iter().enumerate() {
            if len as usize > huge_ways {
                return Err(format!(
                    "huge set {set} holds {len} ways, capacity {huge_ways}"
                ));
            }
            for i in 0..len as usize {
                huge_slots[set * huge_ways + i] = HugeWay {
                    asid: Asid(
                        u16::try_from(h_asids[cursor])
                            .map_err(|_| "asid out of u16 range".to_string())?,
                    ),
                    base: h_bases[cursor],
                    stamp: h_stamps[cursor],
                };
                cursor += 1;
            }
        }
        Ok(Tlb {
            slots,
            lens,
            n_sets,
            ways,
            huge_slots,
            huge_lens,
            huge_ways,
            clock: u32::try_from(snap::field_u64(v, "clock")?)
                .map_err(|_| "clock out of u32 range".to_string())?,
            hits: snap::field_u64(v, "hits")?,
            misses: snap::field_u64(v, "misses")?,
        })
    }
}

impl vulcan_json::Snapshot for TlbArray {
    fn snapshot(&self) -> vulcan_json::Value {
        vulcan_json::Value::Array(self.tlbs.iter().map(|t| t.snapshot()).collect())
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        let arr = v
            .as_array()
            .ok_or_else(|| "TlbArray snapshot must be an array".to_string())?;
        Ok(TlbArray {
            tlbs: arr.iter().map(Tlb::restore).collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_sim::TierKind;

    fn frame(index: u32) -> FrameId {
        FrameId {
            tier: TierKind::Fast,
            index,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::server_default();
        let asid = Asid(1);
        assert_eq!(tlb.lookup(asid, Vpn(5)), None);
        tlb.insert(asid, Vpn(5), frame(9));
        assert_eq!(tlb.lookup(asid, Vpn(5)), Some(frame(9)));
        assert_eq!(tlb.stats(), (1, 1));
        assert!((tlb.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asids_do_not_collide() {
        let mut tlb = Tlb::server_default();
        tlb.insert(Asid(1), Vpn(5), frame(1));
        tlb.insert(Asid(2), Vpn(5), frame(2));
        assert_eq!(tlb.lookup(Asid(1), Vpn(5)), Some(frame(1)));
        assert_eq!(tlb.lookup(Asid(2), Vpn(5)), Some(frame(2)));
    }

    #[test]
    fn reinsert_updates_frame() {
        let mut tlb = Tlb::server_default();
        tlb.insert(Asid(1), Vpn(5), frame(1));
        tlb.insert(Asid(1), Vpn(5), frame(2));
        assert_eq!(tlb.lookup(Asid(1), Vpn(5)), Some(frame(2)));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut tlb = Tlb::new(1, 2); // one set, two ways
        let asid = Asid(1);
        tlb.insert(asid, Vpn(1), frame(1));
        tlb.insert(asid, Vpn(2), frame(2));
        tlb.lookup(asid, Vpn(1)); // make vpn=2 the LRU
        tlb.insert(asid, Vpn(3), frame(3));
        assert_eq!(tlb.lookup(asid, Vpn(2)), None, "LRU way evicted");
        assert!(tlb.lookup(asid, Vpn(1)).is_some());
        assert!(tlb.lookup(asid, Vpn(3)).is_some());
    }

    #[test]
    fn invalidate_single_page() {
        let mut tlb = Tlb::server_default();
        tlb.insert(Asid(1), Vpn(5), frame(1));
        assert!(tlb.invalidate(Asid(1), Vpn(5)));
        assert!(!tlb.invalidate(Asid(1), Vpn(5)));
        assert_eq!(tlb.lookup(Asid(1), Vpn(5)), None);
    }

    #[test]
    fn flush_asid_leaves_other_processes() {
        let mut tlb = Tlb::server_default();
        tlb.insert(Asid(1), Vpn(5), frame(1));
        tlb.insert(Asid(2), Vpn(6), frame(2));
        tlb.flush_asid(Asid(1));
        assert_eq!(tlb.lookup(Asid(1), Vpn(5)), None);
        assert!(tlb.lookup(Asid(2), Vpn(6)).is_some());
    }

    #[test]
    fn flush_all() {
        let mut tlb = Tlb::server_default();
        tlb.insert(Asid(1), Vpn(5), frame(1));
        tlb.flush_all();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn huge_entries_cover_whole_regions() {
        let mut tlb = Tlb::server_default();
        let asid = Asid(1);
        assert!(!tlb.lookup_huge(asid, Vpn(700)));
        tlb.insert_huge(asid, Vpn(700)); // region base 512
        assert!(tlb.lookup_huge(asid, Vpn(512)), "same region");
        assert!(tlb.lookup_huge(asid, Vpn(1023)), "same region");
        assert!(!tlb.lookup_huge(asid, Vpn(1024)), "next region");
        assert_eq!(tlb.huge_occupancy(), 1, "one entry, 512 pages");
    }

    #[test]
    fn huge_invalidation_after_split() {
        let mut tlb = Tlb::server_default();
        let asid = Asid(1);
        tlb.insert_huge(asid, Vpn(512));
        assert!(tlb.invalidate_huge(asid, Vpn(600)));
        assert!(!tlb.lookup_huge(asid, Vpn(512)));
        assert!(!tlb.invalidate_huge(asid, Vpn(600)), "idempotent");
    }

    #[test]
    fn huge_entries_flushed_with_asid() {
        let mut tlb = Tlb::server_default();
        tlb.insert_huge(Asid(1), Vpn(0));
        tlb.insert_huge(Asid(2), Vpn(0));
        tlb.flush_asid(Asid(1));
        assert!(!tlb.lookup_huge(Asid(1), Vpn(0)));
        assert!(tlb.lookup_huge(Asid(2), Vpn(0)));
        tlb.flush_all();
        assert_eq!(tlb.huge_occupancy(), 0);
    }

    #[test]
    fn huge_lru_eviction() {
        let mut tlb = Tlb::new(128, 12);
        let asid = Asid(1);
        // 16 sets x 8 ways = 128 huge entries; insert regions mapping to
        // one set (base>>9 multiples of 16) to force eviction.
        for i in 0..9u64 {
            tlb.insert_huge(asid, Vpn(i * 16 * 512));
        }
        assert!(!tlb.lookup_huge(asid, Vpn(0)), "LRU way evicted");
        assert!(tlb.lookup_huge(asid, Vpn(8 * 16 * 512)));
    }

    #[test]
    fn array_invalidation_counts_holders() {
        let mut arr = TlbArray::new(4);
        arr.core(CoreId(0)).insert(Asid(1), Vpn(9), frame(1));
        arr.core(CoreId(2)).insert(Asid(1), Vpn(9), frame(1));
        let held = arr.invalidate_on([CoreId(0), CoreId(1), CoreId(2)], Asid(1), Vpn(9));
        assert_eq!(held, 2);
        assert_eq!(arr.core(CoreId(0)).lookup(Asid(1), Vpn(9)), None);
    }

    /// A restored TLB must evict exactly the same victims as the
    /// original: stamps, way order and the clock all travel, so the LRU
    /// decisions downstream of the checkpoint are bit-identical.
    #[test]
    fn snapshot_roundtrip_preserves_lru_and_stats() {
        use vulcan_json::Snapshot;
        let mut orig = Tlb::new(4, 2); // tiny, to force evictions
        let asid = Asid(3);
        for i in 0..10u64 {
            orig.insert(asid, Vpn(i), frame(i as u32));
            orig.lookup(asid, Vpn(i / 2)); // mixed hits/misses, stamp churn
        }
        orig.insert_huge(asid, Vpn(512));
        orig.lookup_huge(asid, Vpn(513));
        let snap = orig.snapshot();
        let mut back = Tlb::restore(&snap).expect("restore");
        assert_eq!(back.snapshot(), snap, "idempotent");
        assert_eq!(back.stats(), orig.stats());
        assert_eq!(back.occupancy(), orig.occupancy());
        // Continue both with the same pressure; evictions must agree.
        for i in 10..40u64 {
            assert_eq!(
                orig.lookup(asid, Vpn(i % 13)),
                back.lookup(asid, Vpn(i % 13)),
                "lookup {i}"
            );
            orig.insert(asid, Vpn(i), frame(i as u32));
            back.insert(asid, Vpn(i), frame(i as u32));
        }
        assert_eq!(back.snapshot(), orig.snapshot(), "lockstep after resume");
    }

    #[test]
    fn restore_rejects_overfull_set() {
        use vulcan_json::Snapshot;
        let mut tlb = Tlb::new(2, 2);
        tlb.insert(Asid(1), Vpn(0), frame(0));
        let mut v = tlb.snapshot();
        if let vulcan_json::Value::Object(m) = &mut v {
            m.insert("ways", vulcan_json::snap::u64_value(0));
        }
        assert!(Tlb::restore(&v).is_err());
    }

    #[test]
    fn array_roundtrip() {
        use vulcan_json::Snapshot;
        let mut arr = TlbArray::new(3);
        arr.core(CoreId(1)).insert(Asid(1), Vpn(42), frame(7));
        let back = TlbArray::restore(&arr.snapshot()).expect("restore");
        assert_eq!(back.snapshot(), arr.snapshot());
        assert_eq!(back.len(), 3);
    }
}
