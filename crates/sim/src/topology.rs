//! CPU topology: cores and the threads pinned to them.
//!
//! The paper's testbed pins each application to a dedicated set of 8 cores
//! on a single 32-core socket (§5.3). TLB shootdown cost depends on *which*
//! cores must receive an IPI, so the topology tracks a reverse map from
//! cores to the simulated software threads currently scheduled on them.

use std::collections::BTreeSet;

/// Identifier of a physical core on the simulated socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

/// Identifier of a simulated software thread (unique across all workloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimThreadId(pub u32);

/// 64-bit words of [`CoreSet`] kept inline: cores 0..256 never touch the
/// heap, so planning a shootdown allocates nothing on any realistic socket.
const INLINE_WORDS: usize = 4;

/// A set of cores as a bitmap that iterates in ascending core order —
/// the order a `BTreeSet<CoreId>` iterates in, so a shootdown planned
/// into it invalidates the same cores in the same order and counts the
/// same targets. Cores below 256 live inline; higher ids spill into
/// heap words only on sockets that large.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreSet {
    low: [u64; INLINE_WORDS],
    /// Words for cores 256 and up. Grown only to hold a bit being set,
    /// so the last word is never zero and derived equality is set
    /// equality.
    high: Vec<u64>,
}

impl CoreSet {
    /// The empty set.
    pub fn new() -> CoreSet {
        CoreSet::default()
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < INLINE_WORDS {
            return &mut self.low[w];
        }
        let h = w - INLINE_WORDS;
        if h >= self.high.len() {
            self.high.resize(h + 1, 0);
        }
        &mut self.high[h]
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.low.iter().chain(&self.high).copied()
    }

    /// Add `core`.
    pub fn insert(&mut self, core: CoreId) {
        let c = core.0 as usize;
        *self.word_mut(c / 64) |= 1 << (c % 64);
    }

    /// Whether `core` is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        let c = core.0 as usize;
        self.words()
            .nth(c / 64)
            .is_some_and(|w| w & (1 << (c % 64)) != 0)
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no cores.
    pub fn is_empty(&self) -> bool {
        self.words().all(|w| w == 0)
    }

    /// Whether every core of `self` is in `other`.
    pub fn is_subset(&self, other: &CoreSet) -> bool {
        self.iter().all(|c| other.contains(c))
    }

    /// The cores in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // A set bit sits at a position some `CoreId` inserted.
                    CoreId((w * 64 + b) as u16)
                })
            })
        })
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(cores: I) -> CoreSet {
        let mut set = CoreSet::new();
        for c in cores {
            set.insert(c);
        }
        set
    }
}

/// A single-socket CPU topology with static thread→core pinning.
#[derive(Clone, Debug)]
pub struct Topology {
    n_cores: u16,
    /// `pin[t]` = core the thread with dense index `t` runs on.
    pins: Vec<CoreId>,
    /// Thread ids in dense order (parallel to `pins`).
    threads: Vec<SimThreadId>,
}

impl Topology {
    /// Create a topology with `n_cores` cores and no threads.
    pub fn new(n_cores: u16) -> Self {
        assert!(n_cores > 0, "topology needs at least one core");
        Topology {
            n_cores,
            pins: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Number of cores on the socket.
    pub fn n_cores(&self) -> u16 {
        self.n_cores
    }

    /// Pin a thread to a core. Threads may share cores (oversubscription),
    /// mirroring how a real scheduler would stack them.
    pub fn pin(&mut self, thread: SimThreadId, core: CoreId) {
        assert!(core.0 < self.n_cores, "core {core:?} out of range");
        if let Some(i) = self.threads.iter().position(|&t| t == thread) {
            self.pins[i] = core;
        } else {
            self.threads.push(thread);
            self.pins.push(core);
        }
    }

    /// Pin `threads` round-robin over the half-open core range `[lo, hi)`.
    ///
    /// This mirrors the paper's per-application dedicated core sets
    /// (8 threads on 8 cores per app).
    pub fn pin_range(&mut self, threads: &[SimThreadId], lo: u16, hi: u16) {
        assert!(lo < hi && hi <= self.n_cores, "bad core range [{lo},{hi})");
        let span = (hi - lo) as usize;
        for (i, &t) in threads.iter().enumerate() {
            self.pin(t, CoreId(lo + (i % span) as u16));
        }
    }

    /// The core a thread is pinned to, if it has been pinned.
    pub fn core_of(&self, thread: SimThreadId) -> Option<CoreId> {
        self.threads
            .iter()
            .position(|&t| t == thread)
            .map(|i| self.pins[i])
    }

    /// All distinct cores hosting any of the given threads.
    ///
    /// This is the IPI target set for an ownership-targeted TLB shootdown:
    /// only cores actually running threads that share the migrating page.
    pub fn cores_of(&self, threads: impl IntoIterator<Item = SimThreadId>) -> BTreeSet<CoreId> {
        threads
            .into_iter()
            .filter_map(|t| self.core_of(t))
            .collect()
    }

    /// All cores that host at least one pinned thread (the conventional
    /// process-wide shootdown target set, minus idle cores).
    pub fn occupied_cores(&self) -> BTreeSet<CoreId> {
        self.pins.iter().copied().collect()
    }

    /// All threads currently pinned.
    pub fn threads(&self) -> &[SimThreadId] {
        &self.threads
    }

    /// Threads pinned to a given core.
    pub fn threads_on(&self, core: CoreId) -> Vec<SimThreadId> {
        self.threads
            .iter()
            .zip(&self.pins)
            .filter(|&(_, &c)| c == core)
            .map(|(&t, _)| t)
            .collect()
    }
}

impl vulcan_json::Snapshot for Topology {
    /// Dense thread order is preserved: `threads_on` and the pin tables
    /// iterate it, so a restored topology must list threads in the same
    /// order they were pinned.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        let threads: Vec<u64> = self.threads.iter().map(|t| t.0 as u64).collect();
        let pins: Vec<u64> = self.pins.iter().map(|c| c.0 as u64).collect();
        snap::obj(vec![
            ("n_cores", snap::u64_value(self.n_cores as u64)),
            ("threads", snap::u64_array(&threads)),
            ("pins", snap::u64_array(&pins)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let n_cores = u16::try_from(snap::field_u64(v, "n_cores")?)
            .map_err(|_| "n_cores out of u16 range".to_string())?;
        let threads = snap::array_u64(snap::field(v, "threads")?)?;
        let pins = snap::array_u64(snap::field(v, "pins")?)?;
        if threads.len() != pins.len() {
            return Err("threads/pins length mismatch".into());
        }
        let mut topo = Topology::new(n_cores);
        for (&t, &c) in threads.iter().zip(&pins) {
            let t = u32::try_from(t).map_err(|_| "thread id out of u32 range".to_string())?;
            let c = u16::try_from(c)
                .ok()
                .filter(|&c| c < n_cores)
                .ok_or_else(|| format!("pin core {c} out of range 0..{n_cores}"))?;
            topo.pin(SimThreadId(t), CoreId(c));
        }
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_and_lookup() {
        let mut topo = Topology::new(4);
        topo.pin(SimThreadId(7), CoreId(2));
        assert_eq!(topo.core_of(SimThreadId(7)), Some(CoreId(2)));
        assert_eq!(topo.core_of(SimThreadId(8)), None);
    }

    #[test]
    fn repin_moves_thread() {
        let mut topo = Topology::new(4);
        topo.pin(SimThreadId(1), CoreId(0));
        topo.pin(SimThreadId(1), CoreId(3));
        assert_eq!(topo.core_of(SimThreadId(1)), Some(CoreId(3)));
        assert_eq!(topo.threads().len(), 1);
    }

    #[test]
    fn pin_range_round_robin() {
        let mut topo = Topology::new(32);
        let ts: Vec<_> = (0..8).map(SimThreadId).collect();
        topo.pin_range(&ts, 8, 16);
        assert_eq!(topo.core_of(SimThreadId(0)), Some(CoreId(8)));
        assert_eq!(topo.core_of(SimThreadId(7)), Some(CoreId(15)));
        // Oversubscription wraps.
        let more: Vec<_> = (8..18).map(SimThreadId).collect();
        topo.pin_range(&more, 0, 4);
        assert_eq!(topo.core_of(SimThreadId(12)), Some(CoreId(0)));
    }

    #[test]
    fn targeted_core_set_smaller_than_occupied() {
        let mut topo = Topology::new(32);
        let ts: Vec<_> = (0..16).map(SimThreadId).collect();
        topo.pin_range(&ts, 0, 16);
        let private_owner = [SimThreadId(3)];
        assert_eq!(topo.cores_of(private_owner).len(), 1);
        assert_eq!(topo.occupied_cores().len(), 16);
    }

    #[test]
    fn threads_on_core() {
        let mut topo = Topology::new(2);
        topo.pin(SimThreadId(0), CoreId(0));
        topo.pin(SimThreadId(1), CoreId(0));
        topo.pin(SimThreadId(2), CoreId(1));
        assert_eq!(topo.threads_on(CoreId(0)).len(), 2);
        assert_eq!(topo.threads_on(CoreId(1)), vec![SimThreadId(2)]);
    }

    #[test]
    fn core_set_iterates_ascending_like_a_btree_set() {
        let ids = [300u16, 5, 64, 63, 0, 255, 256, 5, 65_535, 127];
        let set: CoreSet = ids.iter().map(|&c| CoreId(c)).collect();
        let tree: BTreeSet<CoreId> = ids.iter().map(|&c| CoreId(c)).collect();
        assert!(set.iter().eq(tree.iter().copied()));
        assert_eq!(set.len(), tree.len());
        assert!(set.contains(CoreId(65_535)) && !set.contains(CoreId(1)));
        assert!(
            !set.contains(CoreId(4_000)),
            "a clear bit among the spill words"
        );
        let mut small = CoreSet::new();
        assert!(small.is_empty() && small.is_subset(&set));
        small.insert(CoreId(64));
        assert!(!small.contains(CoreId(1_000)), "past the last spill word");
        assert!(small.is_subset(&set) && !set.is_subset(&small));
        let rebuilt: CoreSet = set.iter().collect();
        assert_eq!(rebuilt, set);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_out_of_range_panics() {
        let mut topo = Topology::new(2);
        topo.pin(SimThreadId(0), CoreId(5));
    }
}
