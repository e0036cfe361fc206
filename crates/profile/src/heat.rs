//! Per-page heat tracking with exponential decay.
//!
//! Profilers feed observed accesses into a [`HeatMap`]; migration
//! policies read hot sets and write-intensity out of it. Decay gives the
//! recency weighting that systems like Memtis apply to their access
//! histograms (§2.1: strategies based on "frequency, recency, or a
//! combination of both").
//!
//! # Representation
//!
//! `record` sits on the per-access simulation hot path (every PEBS
//! sample and every hint fault lands here), so the map is *not* a
//! `HashMap`: it is a dense, epoch-versioned flat table indexed
//! directly by VPN. Workload VPNs are footprint-relative offsets
//! starting at zero, so the dense part covers essentially every page;
//! a small open-addressed spill table absorbs sparse outliers above
//! [`DENSE_LIMIT`]. Liveness is an epoch stamp per slot: `decay_epoch`
//! bumps the map epoch and re-stamps survivors, so a pruned page's slot
//! is retired without being written at all, and a later `record`
//! resurrects it from zero exactly like a fresh `HashMap` entry.
//! A `live` key list (first-record order) makes decay sweeps and
//! iteration proportional to the number of tracked pages, not table
//! capacity, and gives the map a deterministic iteration order.
//!
//! Each map has one owner, its workload's profiler, which writes it
//! through `&mut`; the sharded sweep moves whole workloads between
//! threads, so no map is ever shared and the table needs no atomics.

use std::fmt;
use vulcan_vm::Vpn;

/// VPNs below this go in the dense direct-indexed table (2 Mi pages =
/// 8 GiB of 4 KiB-page footprint); anything above spills to the
/// open-addressed side table.
const DENSE_LIMIT: u64 = 1 << 21;

/// Pages whose decayed heat drops below this are pruned, matching the
/// prior `HashMap::retain` semantics.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// Accumulated statistics for one page.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PageStats {
    /// Decayed access heat.
    pub heat: f64,
    /// Sampled reads since tracking began (decayed alongside heat).
    pub reads: f64,
    /// Sampled writes since tracking began (decayed alongside heat).
    pub writes: f64,
}

impl PageStats {
    /// Fraction of sampled accesses that were writes, in `[0, 1]`.
    pub fn write_ratio(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0.0 {
            0.0
        } else {
            self.writes / total
        }
    }

    /// Whether the page counts as write-intensive under `threshold`
    /// (Table 1 classifies pages read- vs write-intensive).
    pub fn write_intensive(&self, threshold: f64) -> bool {
        self.write_ratio() >= threshold
    }
}

/// One table entry: page statistics plus the liveness epoch stamp.
/// The slot is live iff `stamp` equals the map's current epoch.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    stats: PageStats,
    stamp: u64,
}

/// Open-addressed (linear probe) spill table for VPNs above the dense
/// range. Entries are never physically removed — death is an epoch-stamp
/// transition — so probing needs no tombstones; the table grows at 70%
/// occupancy of *distinct keys ever inserted*.
#[derive(Clone, Debug)]
struct Spill {
    keys: Vec<u64>,
    slots: Vec<Slot>,
    used: usize,
}

impl Spill {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Spill {
        Spill {
            keys: Vec::new(),
            slots: Vec::new(),
            used: 0,
        }
    }

    /// SplitMix64 finalizer: cheap, deterministic, well-mixed.
    fn hash(key: u64) -> usize {
        let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x as usize
    }

    fn find(&self, key: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            match self.keys[i] {
                k if k == key => return Some(i),
                Self::EMPTY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot for `key`, inserting an empty one if absent.
    fn slot_mut(&mut self, key: u64) -> &mut Slot {
        debug_assert_ne!(key, Self::EMPTY, "sentinel VPN is unrepresentable");
        if self.keys.is_empty() || (self.used + 1) * 10 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            match self.keys[i] {
                k if k == key => return &mut self.slots[i],
                Self::EMPTY => {
                    self.keys[i] = key;
                    self.used += 1;
                    return &mut self.slots[i];
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::default(); cap]);
        let mask = cap - 1;
        for (key, slot) in old_keys.into_iter().zip(old_slots) {
            if key == Self::EMPTY {
                continue;
            }
            let mut i = Self::hash(key) & mask;
            while self.keys[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.slots[i] = slot;
        }
    }

    /// Rebuild the table around the slots live at `epoch`, reclaiming
    /// the capacity held by dead keys. `used` counts distinct keys ever
    /// inserted (death is an epoch-stamp transition, not a removal), so
    /// without this a workload churning through sparse VPNs grows the
    /// table with its *history* rather than its live set. Live slots
    /// move verbatim — stats stay byte-identical — and iteration order
    /// lives in `HeatMap::live`, so nothing observable changes.
    fn compact(&mut self, epoch: u64) {
        let live: Vec<(u64, Slot)> = self
            .keys
            .iter()
            .zip(&self.slots)
            .filter(|&(&key, slot)| key != Self::EMPTY && slot.stamp == epoch)
            .map(|(&key, &slot)| (key, slot))
            .collect();
        // Smallest power-of-two capacity keeping the live set under the
        // same 70% bound `slot_mut` grows at.
        let mut cap = 64;
        while (live.len() + 1) * 10 > cap * 7 {
            cap *= 2;
        }
        self.keys = vec![Self::EMPTY; cap];
        self.slots = vec![Slot::default(); cap];
        self.used = live.len();
        let mask = cap - 1;
        for (key, slot) in live {
            let mut i = Self::hash(key) & mask;
            while self.keys[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.slots[i] = slot;
        }
    }
}

/// Grow the dense table to cover index `i`, by powers of two and to at
/// least 1024 slots, so a workload's first touches regrow it rarely.
#[cold]
fn grow_dense(dense: &mut Vec<Slot>, i: usize) {
    dense.resize((i + 1).next_power_of_two().max(1024), Slot::default());
}

/// Decayed per-page heat map over a dense epoch-versioned flat table.
///
/// ```
/// use vulcan_profile::HeatMap;
/// use vulcan_vm::Vpn;
///
/// let mut heat = HeatMap::new(0.7);
/// heat.record(Vpn(1), false, 10.0);
/// heat.record(Vpn(2), true, 2.0);
/// assert_eq!(heat.get(Vpn(2)).write_ratio(), 1.0);
/// heat.decay_epoch();
/// assert_eq!(heat.get(Vpn(1)).heat, 7.0); // decayed by 0.7
/// ```
#[derive(Clone)]
pub struct HeatMap {
    /// Multiplier applied at each epoch (0 = pure frequency of last epoch,
    /// 1 = pure cumulative frequency).
    decay: f64,
    /// Current liveness epoch; bumped by [`HeatMap::decay_epoch`]. Never
    /// 0, the stamp of a slot no page ever lived in.
    epoch: u64,
    /// Slots indexed directly by VPN below [`DENSE_LIMIT`] (grown on
    /// demand).
    dense: Vec<Slot>,
    /// Spill table for VPNs at or above [`DENSE_LIMIT`].
    spill: Spill,
    /// Keys of currently-live pages in first-record order.
    live: Vec<u64>,
    /// Lockstep reference model (oracle builds only): the exact
    /// `HashMap` semantics this flat table replaced. Every mutation is
    /// mirrored into it and the affected state diffed immediately.
    #[cfg(feature = "oracle")]
    shadow: vulcan_oracle::RefHeat,
}

impl HeatMap {
    /// A heat map with per-epoch decay factor `decay` in `[0, 1]`.
    pub fn new(decay: f64) -> HeatMap {
        assert!((0.0..=1.0).contains(&decay), "decay must be in [0,1]");
        HeatMap {
            decay,
            epoch: 1,
            dense: Vec::new(),
            spill: Spill::new(),
            live: Vec::new(),
            #[cfg(feature = "oracle")]
            shadow: vulcan_oracle::RefHeat::new(),
        }
    }

    /// Pre-size the dense table for a footprint of `pages` pages, so the
    /// first touches of a workload don't pay incremental regrowth.
    pub fn reserve(&mut self, pages: u64) {
        let want = pages.min(DENSE_LIMIT) as usize;
        if want > self.dense.len() {
            self.dense.resize(want, Slot::default());
        }
    }

    /// Record `weight` sampled accesses to `vpn`.
    #[inline]
    pub fn record(&mut self, vpn: Vpn, is_write: bool, weight: f64) {
        let HeatMap {
            epoch,
            dense,
            spill,
            live,
            ..
        } = self;
        let slot = if vpn.0 < DENSE_LIMIT {
            let i = vpn.0 as usize;
            if i >= dense.len() {
                grow_dense(dense, i);
            }
            &mut dense[i]
        } else {
            spill.slot_mut(vpn.0)
        };
        if slot.stamp != *epoch {
            // Dead or never-seen slot: resurrect from zero, exactly like
            // a fresh map entry.
            slot.stats = PageStats::default();
            slot.stamp = *epoch;
            live.push(vpn.0);
        }
        slot.stats.heat += weight;
        if is_write {
            slot.stats.writes += weight;
        } else {
            slot.stats.reads += weight;
        }
        #[cfg(feature = "oracle")]
        {
            self.shadow.record(vpn.0, is_write, weight);
            self.oracle_check_key(vpn.0);
        }
    }

    /// Apply one epoch of exponential decay, dropping negligible pages.
    ///
    /// Bumping the epoch retires every slot at once; survivors are
    /// re-stamped during the sweep, so pruned pages cost no writes.
    pub fn decay_epoch(&mut self) {
        self.epoch += 1;
        let d = self.decay;
        let HeatMap {
            epoch,
            dense,
            spill,
            live,
            ..
        } = self;
        let mut live_spill = 0usize;
        live.retain(|&key| {
            let slot = if key < DENSE_LIMIT {
                &mut dense[key as usize]
            } else {
                let i = spill.find(key).expect("live key is in the spill table");
                &mut spill.slots[i]
            };
            slot.stats.heat *= d;
            slot.stats.reads *= d;
            slot.stats.writes *= d;
            let survives = slot.stats.heat >= PRUNE_THRESHOLD;
            if survives {
                slot.stamp = *epoch;
                live_spill += usize::from(key >= DENSE_LIMIT);
            }
            survives
        });
        // Reclaim spill capacity once dead keys dominate: `used` counts
        // distinct keys ever inserted, so sparse-VPN churn would grow
        // the table forever. The 2× hysteresis (compaction resets
        // `used` to the live count) keeps this amortized O(1).
        if spill.used > (2 * live_spill).max(64) {
            spill.compact(*epoch);
        }
        #[cfg(feature = "oracle")]
        {
            self.shadow.decay(d, PRUNE_THRESHOLD);
            self.oracle_check_live_set();
        }
    }

    /// Statistics for one page (zero if never sampled).
    #[inline]
    pub fn get(&self, vpn: Vpn) -> PageStats {
        let slot = if vpn.0 < DENSE_LIMIT {
            self.dense.get(vpn.0 as usize)
        } else {
            self.spill.find(vpn.0).map(|i| &self.spill.slots[i])
        };
        match slot {
            Some(s) if s.stamp == self.epoch => s.stats,
            _ => PageStats::default(),
        }
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterate `(vpn, stats)` over live pages in first-record order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageStats)> + '_ {
        self.live.iter().map(move |&k| (Vpn(k), self.get(Vpn(k))))
    }

    /// Oracle builds: diff one key's flat-table view against the shadow
    /// `HashMap` model — bitwise, since both sides apply the identical
    /// arithmetic in the identical order.
    #[cfg(feature = "oracle")]
    fn oracle_check_key(&self, key: u64) {
        let got = self.get(Vpn(key));
        let want = self.shadow.get(key);
        vulcan_oracle::check(
            vulcan_oracle::Structure::Heat,
            got.heat == want.heat && got.reads == want.reads && got.writes == want.writes,
            Some(key),
            || format!("flat {got:?} != reference {want:?}"),
        );
    }

    /// Oracle builds: after `decay_epoch`, the surviving live set (and
    /// every survivor's stats) must equal the reference's retained set.
    #[cfg(feature = "oracle")]
    fn oracle_check_live_set(&self) {
        vulcan_oracle::check(
            vulcan_oracle::Structure::Heat,
            self.live.len() == self.shadow.len(),
            None,
            || {
                format!(
                    "after decay: flat live count {} != reference {}",
                    self.live.len(),
                    self.shadow.len()
                )
            },
        );
        for &key in &self.live {
            vulcan_oracle::check(
                vulcan_oracle::Structure::Heat,
                self.shadow.contains(key),
                Some(key),
                || "flat live key not tracked by reference".to_string(),
            );
            self.oracle_check_key(key);
        }
    }

    /// Capacity of the spill table, in slots (diagnostics; bounded-growth
    /// tests assert churned-through sparse VPNs don't grow it forever).
    pub fn spill_capacity(&self) -> usize {
        self.spill.keys.len()
    }
}

impl vulcan_json::Snapshot for HeatMap {
    /// Live pages travel as the `live` key list (first-record order is
    /// behavioral: it is the map's iteration order) plus parallel
    /// bit-exact stat arrays. The spill table is serialized **verbatim**
    /// — keys (dead ones included), stamps, stats and the `used`
    /// counter — because compaction hysteresis depends on the history of
    /// distinct keys ever inserted, not just the live set.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        // Every field is bound by name, so a field added later without
        // serialization fails to compile here.
        let HeatMap {
            decay,
            epoch,
            // Derived: restore rebuilds the dense slots from `live` and
            // the stat arrays, and its capacity is host-side only.
            dense: _,
            spill: Spill { keys, slots, used },
            live,
            // Derived: restore rebuilds the reference from the live stats.
            #[cfg(feature = "oracle")]
                shadow: _,
        } = self;
        let mut heat = Vec::with_capacity(live.len());
        let mut reads = Vec::with_capacity(live.len());
        let mut writes = Vec::with_capacity(live.len());
        for &key in live {
            let s = self.get(Vpn(key));
            heat.push(s.heat);
            reads.push(s.reads);
            writes.push(s.writes);
        }
        let spill_stamps: Vec<u64> = slots.iter().map(|s| s.stamp).collect();
        let spill_heat: Vec<f64> = slots.iter().map(|s| s.stats.heat).collect();
        let spill_reads: Vec<f64> = slots.iter().map(|s| s.stats.reads).collect();
        let spill_writes: Vec<f64> = slots.iter().map(|s| s.stats.writes).collect();
        snap::obj(vec![
            ("decay", snap::f64_value(*decay)),
            ("epoch", snap::u64_value(*epoch)),
            ("live", snap::u64_array(live)),
            ("heat", snap::f64_array(&heat)),
            ("reads", snap::f64_array(&reads)),
            ("writes", snap::f64_array(&writes)),
            ("spill_keys", snap::u64_array(keys)),
            ("spill_stamps", snap::u64_array(&spill_stamps)),
            ("spill_heat", snap::f64_array(&spill_heat)),
            ("spill_reads", snap::f64_array(&spill_reads)),
            ("spill_writes", snap::f64_array(&spill_writes)),
            ("spill_used", snap::u64_value(*used as u64)),
        ])
    }

    /// Fails closed on any state the map could not have reached: every
    /// check below guards an invariant `record`, `decay_epoch` and the
    /// spill probes rely on, so a corrupt checkpoint is a typed error
    /// rather than a hang, a panic or silently wrong heat.
    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let decay = snap::field_f64(v, "decay")?;
        if !(0.0..=1.0).contains(&decay) {
            return Err(format!("decay {decay} out of [0,1]"));
        }
        let epoch = snap::field_u64(v, "epoch")?;
        if epoch == 0 {
            return Err("heat-map epoch 0 would make never-recorded slots live".into());
        }
        let live = snap::array_u64(snap::field(v, "live")?)?;
        let heat = snap::array_f64(snap::field(v, "heat")?)?;
        let reads = snap::array_f64(snap::field(v, "reads")?)?;
        let writes = snap::array_f64(snap::field(v, "writes")?)?;
        if heat.len() != live.len() || reads.len() != live.len() || writes.len() != live.len() {
            return Err("heat-map stat arrays disagree with live key list".into());
        }
        let spill_keys = snap::array_u64(snap::field(v, "spill_keys")?)?;
        if !spill_keys.is_empty() && !spill_keys.len().is_power_of_two() {
            return Err("spill capacity must be a power of two".into());
        }
        let spill_stamps = snap::array_u64(snap::field(v, "spill_stamps")?)?;
        let spill_heat = snap::array_f64(snap::field(v, "spill_heat")?)?;
        let spill_reads = snap::array_f64(snap::field(v, "spill_reads")?)?;
        let spill_writes = snap::array_f64(snap::field(v, "spill_writes")?)?;
        if [
            spill_stamps.len(),
            spill_heat.len(),
            spill_reads.len(),
            spill_writes.len(),
        ]
        .iter()
        .any(|&n| n != spill_keys.len())
        {
            return Err("spill arrays disagree with spill capacity".into());
        }
        if let Some(stamp) = spill_stamps.iter().find(|&&s| s > epoch) {
            return Err(format!("spill stamp {stamp} is past epoch {epoch}"));
        }
        // Every probe must meet an empty slot: `used` counts the occupied
        // keys and stays within the load bound `slot_mut` grows at.
        let used = usize::try_from(snap::field_u64(v, "spill_used")?)
            .map_err(|_| "spill_used out of range".to_string())?;
        let occupied = spill_keys.iter().filter(|&&k| k != Spill::EMPTY).count();
        if used != occupied {
            return Err(format!(
                "spill_used {used} disagrees with {occupied} occupied spill keys"
            ));
        }
        if used * 10 > spill_keys.len() * 7 {
            return Err(format!(
                "{used} spill keys in {} slots exceed the 70% load bound",
                spill_keys.len()
            ));
        }
        let mut map = HeatMap::new(decay);
        map.epoch = epoch;
        map.spill = Spill {
            slots: spill_stamps
                .iter()
                .zip(spill_heat.iter().zip(spill_reads.iter().zip(&spill_writes)))
                .map(|(&stamp, (&heat, (&reads, &writes)))| Slot {
                    stats: PageStats {
                        heat,
                        reads,
                        writes,
                    },
                    stamp,
                })
                .collect(),
            keys: spill_keys,
            used,
        };
        let mut live_spill = 0usize;
        for (i, &key) in live.iter().enumerate() {
            let stats = PageStats {
                heat: heat[i],
                reads: reads[i],
                writes: writes[i],
            };
            if ![stats.heat, stats.reads, stats.writes]
                .iter()
                .all(|x| x.is_finite() && *x >= 0.0)
            {
                return Err(format!(
                    "live key {key} has {stats:?}, not non-negative finite"
                ));
            }
            if key < DENSE_LIMIT {
                let idx = key as usize;
                if idx >= map.dense.len() {
                    grow_dense(&mut map.dense, idx);
                }
                // The dense table starts with every stamp 0, and epoch
                // is not 0: a live stamp means the key came before.
                if map.dense[idx].stamp == epoch {
                    return Err(format!("live key {key} is listed twice"));
                }
                map.dense[idx] = Slot {
                    stats,
                    stamp: epoch,
                };
            } else {
                let slot = map
                    .spill
                    .find(key)
                    .map(|j| map.spill.slots[j])
                    .ok_or_else(|| format!("live spill key {key} missing from spill table"))?;
                if slot.stamp != epoch {
                    return Err(format!("live spill key {key} has a dead stamp"));
                }
                if slot.stats != stats {
                    return Err(format!(
                        "live spill key {key} disagrees with its spill slot"
                    ));
                }
                live_spill += 1;
            }
            #[cfg(feature = "oracle")]
            map.shadow.set_exact(
                key,
                vulcan_oracle::RefStats {
                    heat: stats.heat,
                    reads: stats.reads,
                    writes: stats.writes,
                },
            );
        }
        // A live-stamped spill slot outside `live` would read as live
        // yet never decay; a spill key listed twice in `live` shows here
        // as one more live key than stamped slots.
        let stamped = map
            .spill
            .keys
            .iter()
            .zip(&map.spill.slots)
            .filter(|&(&k, s)| k != Spill::EMPTY && s.stamp == epoch)
            .count();
        if stamped != live_spill {
            return Err(format!(
                "spill table stamps {stamped} keys live, but live lists {live_spill}"
            ));
        }
        map.live = live;
        Ok(map)
    }
}

impl fmt::Debug for HeatMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeatMap")
            .field("decay", &self.decay)
            .field("epoch", &self.epoch)
            .field("live_pages", &self.live.len())
            .field("spill_capacity", &self.spill.keys.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 1.0);
        h.record(Vpn(1), true, 2.0);
        let s = h.get(Vpn(1));
        assert_eq!(s.heat, 3.0);
        assert_eq!(s.reads, 1.0);
        assert_eq!(s.writes, 2.0);
        assert!((s.write_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_page_is_cold() {
        let h = HeatMap::new(0.5);
        assert_eq!(h.get(Vpn(42)), PageStats::default());
        assert_eq!(h.get(Vpn(42)).write_ratio(), 0.0);
    }

    #[test]
    fn decay_halves_and_prunes() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 8.0);
        h.record(Vpn(2), false, 0.001);
        h.decay_epoch();
        assert_eq!(h.get(Vpn(1)).heat, 4.0);
        assert_eq!(h.len(), 1, "negligible page pruned");
        for _ in 0..20 {
            h.decay_epoch();
        }
        assert!(h.is_empty(), "everything decays away eventually");
    }

    #[test]
    fn write_intensity_threshold() {
        let mut h = HeatMap::new(1.0);
        h.record(Vpn(1), true, 3.0);
        h.record(Vpn(1), false, 7.0);
        assert!(h.get(Vpn(1)).write_intensive(0.3));
        assert!(!h.get(Vpn(1)).write_intensive(0.5));
    }

    #[test]
    fn spill_pages_behave_like_dense_pages() {
        let mut h = HeatMap::new(0.5);
        let far = Vpn(DENSE_LIMIT + 12_345);
        let farther = Vpn(DENSE_LIMIT * 3 + 7);
        h.record(far, false, 8.0);
        h.record(farther, true, 2.0);
        h.record(Vpn(3), false, 4.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(far).heat, 8.0);
        assert_eq!(h.get(farther).writes, 2.0);
        h.decay_epoch();
        assert_eq!(h.get(far).heat, 4.0);
        assert_eq!(h.get(farther).writes, 1.0);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn spill_survives_regrowth() {
        let mut h = HeatMap::new(1.0);
        // Enough distinct spill keys to force several table regrowths.
        for i in 0..500u64 {
            h.record(Vpn(DENSE_LIMIT + i * 97), false, i as f64 + 1.0);
        }
        assert_eq!(h.len(), 500);
        for i in 0..500u64 {
            assert_eq!(h.get(Vpn(DENSE_LIMIT + i * 97)).heat, i as f64 + 1.0);
        }
    }

    #[test]
    fn pruned_page_resurrects_from_zero() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(9), true, 0.001);
        h.decay_epoch(); // 0.0005 < threshold: pruned
        assert!(h.is_empty());
        h.record(Vpn(9), false, 1.0);
        let s = h.get(Vpn(9));
        assert_eq!(s.heat, 1.0, "no stale heat from the retired slot");
        assert_eq!(s.writes, 0.0, "no stale writes from the retired slot");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn iteration_order_is_first_record_order() {
        let mut h = HeatMap::new(1.0);
        for v in [5u64, 2, 9, DENSE_LIMIT + 1, 3] {
            h.record(Vpn(v), false, 1.0);
        }
        let order: Vec<u64> = h.iter().map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![5, 2, 9, DENSE_LIMIT + 1, 3]);
    }

    /// The flat table must be observationally identical to the reference
    /// `HashMap` semantics: same survivors, same values.
    #[test]
    fn matches_reference_hashmap_semantics() {
        use std::collections::HashMap;
        let mut flat = HeatMap::new(0.7);
        let mut reference: HashMap<u64, PageStats> = HashMap::new();
        // Deterministic pseudo-random op stream (LCG).
        let mut x: u64 = 0x1234_5678;
        let mut step = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        for round in 0..50 {
            for _ in 0..200 {
                let r = step();
                let vpn = match r % 10 {
                    0..=7 => r % 512,            // dense
                    8 => DENSE_LIMIT + (r % 64), // spill
                    _ => 1024 + (r % 97),        // dense, sparser
                };
                let write = r % 3 == 0;
                let weight = ((r % 7) + 1) as f64;
                flat.record(Vpn(vpn), write, weight);
                let s = reference.entry(vpn).or_default();
                s.heat += weight;
                if write {
                    s.writes += weight;
                } else {
                    s.reads += weight;
                }
            }
            if round % 3 == 0 {
                flat.decay_epoch();
                reference.retain(|_, s| {
                    s.heat *= 0.7;
                    s.reads *= 0.7;
                    s.writes *= 0.7;
                    s.heat >= 1e-3
                });
            }
        }
        assert_eq!(flat.len(), reference.len());
        for (&vpn, s) in &reference {
            assert_eq!(flat.get(Vpn(vpn)), *s, "vpn {vpn}");
        }
    }

    #[test]
    fn spill_capacity_stays_bounded_under_churning_sparse_vpns() {
        // Long-run resource regression: `Spill::used` counts distinct
        // keys ever inserted. A workload churning through sparse VPNs
        // (mmap/munmap cycles, drifting footprints) inserts a stream of
        // distinct spill keys that all die at the next decay; without
        // dead-slot reclamation the table grows with *history*, not
        // with the live set.
        let mut h = HeatMap::new(0.0); // decay 0: everything pruned each epoch
        for round in 0..200u64 {
            for i in 0..100u64 {
                h.record(Vpn(DENSE_LIMIT + round * 1_000 + i * 7), false, 1.0);
            }
            h.decay_epoch();
            assert!(h.is_empty(), "decay 0 prunes every page");
        }
        // 20_000 distinct keys ever, zero live. The capacity must track
        // the live set (here: empty), not the insertion history, which
        // would need ≥ 32_768 slots at 70% occupancy.
        assert!(
            h.spill_capacity() <= 1_024,
            "spill capacity {} grew with history, not live set",
            h.spill_capacity()
        );
    }

    #[test]
    fn spill_compaction_preserves_live_stats_bitwise() {
        // Hot spill pages must survive compaction with bit-identical
        // stats while churned-through cold neighbours are reclaimed.
        use std::collections::HashMap;
        let mut h = HeatMap::new(0.5);
        let mut reference: HashMap<u64, PageStats> = HashMap::new();
        let hot: Vec<u64> = (0..40).map(|i| DENSE_LIMIT + 13 + i * 101).collect();
        for round in 0..120u64 {
            for (j, &key) in hot.iter().enumerate() {
                let w = (j + 1) as f64;
                h.record(Vpn(key), j % 3 == 0, w);
                let s = reference.entry(key).or_default();
                s.heat += w;
                if j % 3 == 0 {
                    s.writes += w;
                } else {
                    s.reads += w;
                }
            }
            // Transient sparse keys that die immediately.
            for i in 0..50u64 {
                h.record(
                    Vpn(DENSE_LIMIT + 1_000_000 + round * 500 + i * 9),
                    false,
                    0.001,
                );
            }
            h.decay_epoch();
            reference.retain(|_, s| {
                s.heat *= 0.5;
                s.reads *= 0.5;
                s.writes *= 0.5;
                s.heat >= 1e-3
            });
        }
        assert_eq!(h.len(), reference.len());
        for (&key, want) in &reference {
            assert_eq!(h.get(Vpn(key)), *want, "key {key}");
        }
        assert!(
            h.spill_capacity() <= 2_048,
            "capacity {} tracks history",
            h.spill_capacity()
        );
    }

    #[test]
    fn reserve_presizes_without_changing_semantics() {
        let mut h = HeatMap::new(1.0);
        h.reserve(4_096);
        assert!(h.is_empty());
        h.record(Vpn(4_000), false, 2.0);
        assert_eq!(h.get(Vpn(4_000)).heat, 2.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn clone_is_deep_and_independent() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 4.0);
        h.record(Vpn(DENSE_LIMIT + 5), true, 2.0);
        let mut c = h.clone();
        assert_eq!(c.get(Vpn(1)), h.get(Vpn(1)));
        assert_eq!(c.get(Vpn(DENSE_LIMIT + 5)), h.get(Vpn(DENSE_LIMIT + 5)));
        c.record(Vpn(1), false, 1.0);
        c.decay_epoch();
        assert_eq!(h.get(Vpn(1)).heat, 4.0, "original untouched by clone");
        assert_eq!(c.get(Vpn(1)).heat, 2.5);
    }

    /// `h`'s snapshot with each `(field, value)` pair replaced.
    fn snapshot_with(h: &HeatMap, fields: &[(&str, vulcan_json::Value)]) -> vulcan_json::Value {
        use vulcan_json::{Snapshot, Value};
        let Value::Object(mut m) = h.snapshot() else {
            unreachable!("a heat map snapshots to an object")
        };
        for (field, value) in fields {
            m.insert(*field, value.clone());
        }
        Value::Object(m)
    }

    fn restore_err(v: &vulcan_json::Value) -> String {
        use vulcan_json::Snapshot;
        match HeatMap::restore(v) {
            Ok(h) => panic!("corrupt heat map restored: {h:?}"),
            Err(e) => e,
        }
    }

    /// With every spill slot occupied, the probe for an absent key never
    /// meets an empty slot and loops forever.
    #[test]
    fn restore_rejects_a_full_spill_table() {
        use vulcan_json::snap;
        let keys: Vec<u64> = (0..64).map(|i| DENSE_LIMIT + i).collect();
        let spill = |used: u64| {
            snapshot_with(
                &HeatMap::new(0.5),
                &[
                    ("spill_keys", snap::u64_array(&keys)),
                    ("spill_stamps", snap::u64_array(&[0; 64])),
                    ("spill_heat", snap::f64_array(&[0.0; 64])),
                    ("spill_reads", snap::f64_array(&[0.0; 64])),
                    ("spill_writes", snap::f64_array(&[0.0; 64])),
                    ("spill_used", snap::u64_value(used)),
                ],
            )
        };
        assert!(restore_err(&spill(0)).contains("disagrees with 64 occupied"));
        assert!(restore_err(&spill(64)).contains("70% load bound"));
    }

    #[test]
    fn restore_rejects_non_finite_or_negative_stats() {
        use vulcan_json::snap;
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 8.0);
        for (field, x) in [
            ("heat", f64::INFINITY),
            ("reads", -1.0),
            ("writes", f64::NAN),
        ] {
            let err = restore_err(&snapshot_with(&h, &[(field, snap::f64_array(&[x]))]));
            assert!(err.contains("not non-negative finite"), "{field}: {err}");
        }
    }

    /// A key listed twice would be decayed twice per epoch.
    #[test]
    fn restore_rejects_a_key_listed_twice() {
        use vulcan_json::snap;
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 8.0);
        let v = snapshot_with(
            &h,
            &[
                ("live", snap::u64_array(&[1, 1])),
                ("heat", snap::f64_array(&[8.0, 8.0])),
                ("reads", snap::f64_array(&[8.0, 8.0])),
                ("writes", snap::f64_array(&[0.0, 0.0])),
            ],
        );
        assert!(restore_err(&v).contains("listed twice"));
    }

    /// At epoch 0 a never-recorded slot's stamp reads as live, so
    /// `record` would never add the page to `live`.
    #[test]
    fn restore_rejects_epoch_zero() {
        use vulcan_json::snap;
        let v = snapshot_with(&HeatMap::new(0.5), &[("epoch", snap::u64_value(0))]);
        assert!(restore_err(&v).contains("epoch 0"));
    }

    /// Spill slots must agree with `live`: a live-stamped key outside it
    /// would never decay, a stamp past the epoch would come alive at a
    /// later one, and a live key's stats come from its slot.
    #[test]
    fn restore_rejects_spill_slots_that_disagree_with_live() {
        use vulcan_json::{snap, Snapshot};
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(DENSE_LIMIT + 1), false, 8.0);
        let mut stamps = snap::array_u64(h.snapshot().get("spill_stamps").unwrap()).unwrap();
        let slot = stamps.iter().position(|&s| s == 1).unwrap();
        let mut heat = vec![0.0; stamps.len()];
        heat[slot] = 9.0;
        let v = snapshot_with(&h, &[("spill_heat", snap::f64_array(&heat))]);
        assert!(restore_err(&v).contains("disagrees with its spill slot"));
        let mut fields = vec![
            ("live", snap::u64_array(&[])),
            ("heat", snap::f64_array(&[])),
            ("reads", snap::f64_array(&[])),
            ("writes", snap::f64_array(&[])),
        ];
        assert!(restore_err(&snapshot_with(&h, &fields)).contains("stamps 1 keys live"));
        stamps[slot] = 2;
        fields.push(("spill_stamps", snap::u64_array(&stamps)));
        assert!(restore_err(&snapshot_with(&h, &fields)).contains("past epoch"));
    }
}
