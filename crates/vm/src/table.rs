//! Four-level radix page tables with per-thread replication.
//!
//! Implements the structure of Figure 6: one **process-wide** table is
//! always maintained (the kernel's view, `process_pgd` in §4), and when
//! per-thread replication is enabled each thread additionally owns its own
//! upper-level tables (PGD/PUD/PMD) whose last-level entries point at
//! **shared leaf tables**. Leaf tables constitute the vast majority of
//! page-table memory, so sharing them keeps the replication overhead to
//! the (small) upper levels — the memory-efficiency argument of §3.4.
//!
//! Tables are arena-allocated inside the [`AddressSpace`]: inner nodes and
//! leaf tables live in two `Vec`s and reference each other by index, so a
//! leaf is "shared" simply by being reachable from several trees.

use crate::addr::{Vpn, FANOUT, LEVEL_BITS, VPN_BITS};
use crate::pte::{merge_owner, LocalTid, PageOwner, Pte};
use std::collections::BTreeSet;
use vulcan_sim::{FrameId, TierKind, MAX_TIERS};

/// Slots in each software walk cache (power of two, direct-mapped).
const WALK_CACHE_SLOTS: usize = 128;

/// Tag marking an empty walk-cache slot. `u64::MAX >> LEVEL_BITS` regions
/// would need a 2^64-page address space, so the tag is unreachable.
const WALK_TAG_EMPTY: u64 = u64::MAX;

/// A direct-mapped software walk cache: memoizes the leaf-table arena
/// index per 2 MiB region (`vpn >> 9`), so repeated touches in the same
/// region skip the three-level radix descent. This mirrors hardware
/// paging-structure caches (and Virtuoso-style simulator walk caches):
/// it accelerates *translation to the leaf*, while PTE bits are always
/// read from and written to the leaf itself, keeping PTE state exact.
#[derive(Clone, Debug)]
struct WalkCache {
    tags: Box<[u64]>,
    leaves: Box<[u32]>,
}

impl WalkCache {
    fn new() -> WalkCache {
        WalkCache {
            tags: vec![WALK_TAG_EMPTY; WALK_CACHE_SLOTS].into_boxed_slice(),
            leaves: vec![0; WALK_CACHE_SLOTS].into_boxed_slice(),
        }
    }

    #[inline]
    fn get(&self, region: u64) -> Option<u32> {
        let i = (region as usize) & (WALK_CACHE_SLOTS - 1);
        (self.tags[i] == region).then(|| self.leaves[i])
    }

    #[inline]
    fn put(&mut self, region: u64, leaf: u32) {
        let i = (region as usize) & (WALK_CACHE_SLOTS - 1);
        self.tags[i] = region;
        self.leaves[i] = leaf;
    }

    fn invalidate(&mut self, region: u64) {
        let i = (region as usize) & (WALK_CACHE_SLOTS - 1);
        if self.tags[i] == region {
            self.tags[i] = WALK_TAG_EMPTY;
        }
    }

    fn flush(&mut self) {
        self.tags.fill(WALK_TAG_EMPTY);
    }
}

/// Reference held in an inner-node slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum Slot {
    /// Nothing mapped below this slot.
    #[default]
    Empty,
    /// A lower inner node (arena index).
    Node(u32),
    /// A leaf table (arena index) — only valid in level-1 nodes.
    Leaf(u32),
}

/// An inner page-table node (PGD, PUD or PMD).
#[derive(Clone, Debug)]
struct Node {
    slots: Box<[Slot]>,
}

impl Node {
    fn new() -> Node {
        Node {
            slots: vec![Slot::Empty; FANOUT].into_boxed_slice(),
        }
    }
}

/// A last-level page table holding 512 PTEs; shared across threads.
#[derive(Clone, Debug)]
struct Leaf {
    ptes: Box<[Pte]>,
    mapped: u32,
}

impl Leaf {
    fn new() -> Leaf {
        Leaf {
            ptes: vec![Pte::EMPTY; FANOUT].into_boxed_slice(),
            mapped: 0,
        }
    }
}

/// Outcome of a simulated memory touch through the page tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TouchOutcome {
    /// The PTE after the touch.
    pub pte: Pte,
    /// A per-thread upper-level path had to be created (costs a minor
    /// "replication fault" the first time a thread reaches a region).
    pub replication_fault: bool,
    /// The page transitioned from private to shared on this touch.
    pub became_shared: bool,
    /// The PTE was poisoned for hint-fault profiling; the poison has been
    /// cleared and the access owes a minor-fault latency.
    pub hint_fault: bool,
}

/// A process address space: process-wide table plus optional per-thread
/// replicas, with shared leaf tables.
///
/// ```
/// use vulcan_sim::{FrameId, TierKind};
/// use vulcan_vm::{AddressSpace, LocalTid, PageOwner, Vpn};
///
/// let mut space = AddressSpace::new(true); // per-thread replication on
/// let frame = FrameId { tier: TierKind::Slow, index: 7 };
/// space.map(Vpn(42), frame, LocalTid(0));
///
/// // First toucher owns the page; a second thread makes it shared.
/// space.touch(Vpn(42), LocalTid(0), false).unwrap();
/// assert_eq!(space.owner(Vpn(42)), Some(PageOwner::Private(LocalTid(0))));
/// space.touch(Vpn(42), LocalTid(1), true).unwrap();
/// assert_eq!(space.owner(Vpn(42)), Some(PageOwner::Shared));
/// assert!(space.pte(Vpn(42)).dirty());
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    nodes: Vec<Node>,
    leaves: Vec<Leaf>,
    process_root: u32,
    /// `thread_roots[tid]` = arena index of the thread's private PGD.
    thread_roots: Vec<Option<u32>>,
    /// Whether per-thread replication is maintained (ablation switch;
    /// §3.6 suggests enabling/disabling it adaptively).
    replication: bool,
    /// Oracle builds: the ordered set of mapped VPNs, kept by `map`,
    /// `unmap` and `set_pte` as the reference every `mapped_ptes` and
    /// `rss_pages` is checked against.
    #[cfg(feature = "oracle")]
    reference_mapped: BTreeSet<u64>,
    /// Mapped pages per chain tier (indexed by `TierKind::index`), so a
    /// tier's residency is read in O(1) rather than by scanning every
    /// mapped PTE. Only `map`, `unmap` and `set_pte` can change a PTE's
    /// frame (`touch` never does), and each adjusts the counts. Derived
    /// state: not serialized; restore recounts it from the leaf PTEs.
    resident: [u64; MAX_TIERS],
    /// Bases of ranges currently backed by transparent huge pages.
    huge_bases: BTreeSet<u64>,
    /// Walk cache over the process tree (region → leaf index).
    walk: WalkCache,
    /// Per-thread walk caches, parallel to `thread_roots`: a hit proves
    /// the thread's private upper levels already link the shared leaf,
    /// so the replication check skips its radix descent too.
    thread_walks: Vec<WalkCache>,
    /// Ablation/determinism switch: disable to force full radix walks.
    walk_enabled: bool,
}

impl AddressSpace {
    /// Create an address space; `replication` enables per-thread tables.
    pub fn new(replication: bool) -> AddressSpace {
        let root = Node::new();
        AddressSpace {
            nodes: vec![root],
            leaves: Vec::new(),
            process_root: 0,
            thread_roots: Vec::new(),
            replication,
            #[cfg(feature = "oracle")]
            reference_mapped: BTreeSet::new(),
            resident: [0; MAX_TIERS],
            huge_bases: BTreeSet::new(),
            walk: WalkCache::new(),
            thread_walks: Vec::new(),
            walk_enabled: true,
        }
    }

    /// Enable or disable the software walk caches (ablation switch for
    /// determinism tests). Disabling flushes them.
    pub fn set_walk_cache_enabled(&mut self, enabled: bool) {
        self.walk_enabled = enabled;
        if !enabled {
            self.flush_walk_caches();
        }
    }

    /// Whether the software walk caches are active.
    pub fn walk_cache_enabled(&self) -> bool {
        self.walk_enabled
    }

    /// Flush every walk cache — the software analogue of a full TLB
    /// shootdown of paging-structure caches. Subsequent touches re-walk
    /// the radix trees and re-fill.
    pub fn flush_walk_caches(&mut self) {
        self.walk.flush();
        for wc in &mut self.thread_walks {
            wc.flush();
        }
    }

    /// Drop any cached walk for the region covering `vpn` from the
    /// process cache and every thread cache. Called on unmap and on
    /// migration's unmap-equivalent PTE transitions so cached structure
    /// never outlives the mapping it translated.
    fn invalidate_walk(&mut self, vpn: Vpn) {
        let region = vpn.0 >> LEVEL_BITS;
        self.walk.invalidate(region);
        for wc in &mut self.thread_walks {
            wc.invalidate(region);
        }
    }

    /// Whether per-thread replication is enabled.
    pub fn replication_enabled(&self) -> bool {
        self.replication
    }

    /// Oracle builds: prove every live walk-cache entry still agrees
    /// with an uncached radix walk — the staleness detector the runtime
    /// runs once per quantum, catching invalidations that should have
    /// happened (unmap, THP split, shootdown, teardown) but didn't.
    #[cfg(feature = "oracle")]
    pub fn verify_walk_caches(&self) {
        let check_one = |cache: &WalkCache, root: u32, who: &dyn Fn() -> String| {
            for (i, &tag) in cache.tags.iter().enumerate() {
                if tag == WALK_TAG_EMPTY {
                    continue;
                }
                let vpn = Vpn(tag << LEVEL_BITS);
                let want = self.leaf_index_ro(root, vpn);
                vulcan_oracle::check(
                    vulcan_oracle::Structure::Walk,
                    want == Some(cache.leaves[i]),
                    Some(vpn.0),
                    || {
                        format!(
                            "{} slot {i}: cached leaf {} for region {tag:#x} != \
                             uncached walk {want:?}",
                            who(),
                            cache.leaves[i]
                        )
                    },
                );
            }
        };
        check_one(&self.walk, self.process_root, &|| {
            "process walk cache".to_string()
        });
        for (ti, wc) in self.thread_walks.iter().enumerate() {
            if let Some(Some(root)) = self.thread_roots.get(ti) {
                check_one(wc, *root, &|| format!("thread {ti} walk cache"));
            }
        }
    }

    /// Register a thread; allocates its private root when replication is on.
    pub fn register_thread(&mut self, tid: LocalTid) {
        let idx = tid.0 as usize;
        if idx >= self.thread_roots.len() {
            self.thread_roots.resize(idx + 1, None);
        }
        if self.replication {
            if idx >= self.thread_walks.len() {
                self.thread_walks.resize_with(idx + 1, WalkCache::new);
            }
            if self.thread_roots[idx].is_none() {
                let root = self.alloc_node();
                self.thread_roots[idx] = Some(root);
            }
        }
    }

    fn alloc_node(&mut self) -> u32 {
        self.nodes.push(Node::new());
        u32::try_from(self.nodes.len() - 1)
            .expect("u32::MAX inner nodes would need a 16 TiB page-table arena")
    }

    fn alloc_leaf(&mut self) -> u32 {
        self.leaves.push(Leaf::new());
        u32::try_from(self.leaves.len() - 1)
            .expect("u32::MAX leaf tables would map a 2^50-page address space")
    }

    /// Walk (and optionally build) the path from `root` to the leaf table
    /// covering `vpn`. When building and no shared leaf exists yet, one is
    /// allocated; when a shared leaf already exists (reachable from another
    /// tree), it is linked, not duplicated.
    fn leaf_index(&mut self, root: u32, vpn: Vpn, build: bool, share: Option<u32>) -> Option<u32> {
        let mut node = root;
        for level in [3usize, 2] {
            let idx = vpn.index(level);
            node = match self.nodes[node as usize].slots[idx] {
                Slot::Node(n) => n,
                Slot::Empty if build => {
                    let n = self.alloc_node();
                    self.nodes[node as usize].slots[idx] = Slot::Node(n);
                    n
                }
                Slot::Empty => return None,
                Slot::Leaf(_) => unreachable!("leaf above level 1"),
            };
        }
        let idx = vpn.index(1);
        match self.nodes[node as usize].slots[idx] {
            Slot::Leaf(l) => Some(l),
            Slot::Empty if build => {
                let l = share.unwrap_or_else(|| self.alloc_leaf());
                self.nodes[node as usize].slots[idx] = Slot::Leaf(l);
                Some(l)
            }
            Slot::Empty => None,
            Slot::Node(_) => unreachable!("node at leaf level"),
        }
    }

    /// Read-only walk from `root` to the leaf covering `vpn`.
    fn leaf_index_ro(&self, root: u32, vpn: Vpn) -> Option<u32> {
        let mut node = root;
        for level in [3usize, 2] {
            match self.nodes[node as usize].slots[vpn.index(level)] {
                Slot::Node(n) => node = n,
                _ => return None,
            }
        }
        match self.nodes[node as usize].slots[vpn.index(1)] {
            Slot::Leaf(l) => Some(l),
            _ => None,
        }
    }

    /// Map `vpn` to `frame`, first-touched by `owner`.
    ///
    /// Walk caches need no invalidation here: misses are never cached,
    /// and a region's leaf table is stable once created, so any cached
    /// entry for this region already points at the leaf being filled.
    ///
    /// # Panics
    /// Panics if `vpn` is already mapped (the simulator must unmap first),
    /// or if it is not below `1 << VPN_BITS`, where the radix indices
    /// would wrap onto a lower address.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId, owner: LocalTid) {
        assert!(
            vpn.0 >> VPN_BITS == 0,
            "{vpn:?} is beyond the {VPN_BITS}-bit page-table radix"
        );
        let leaf = self
            .leaf_index(self.process_root, vpn, true, None)
            .expect("building walk always yields a leaf");
        let slot = vpn.index(0);
        let l = &mut self.leaves[leaf as usize];
        assert!(!l.ptes[slot].present(), "{vpn:?} already mapped");
        l.ptes[slot] = Pte::new(frame, owner);
        l.mapped += 1;
        #[cfg(feature = "oracle")]
        self.reference_mapped.insert(vpn.0);
        self.resident[frame.tier.index()] += 1;
    }

    /// Unmap `vpn`, returning the old PTE (migration step ②).
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let leaf = self.leaf_index_ro(self.process_root, vpn)?;
        let slot = vpn.index(0);
        let l = &mut self.leaves[leaf as usize];
        if !l.ptes[slot].present() {
            return None;
        }
        let old = l.ptes[slot];
        l.ptes[slot] = Pte::EMPTY;
        l.mapped -= 1;
        #[cfg(feature = "oracle")]
        self.reference_mapped.remove(&vpn.0);
        if let Some(t) = old.tier() {
            self.resident[t.index()] -= 1;
        }
        self.invalidate_walk(vpn);
        Some(old)
    }

    /// The PTE for `vpn` (EMPTY if unmapped).
    pub fn pte(&self, vpn: Vpn) -> Pte {
        let cached = self
            .walk_enabled
            .then(|| self.walk.get(vpn.0 >> LEVEL_BITS))
            .flatten();
        #[cfg(feature = "oracle")]
        if let Some(l) = cached {
            vulcan_oracle::check(
                vulcan_oracle::Structure::Walk,
                self.leaf_index_ro(self.process_root, vpn) == Some(l),
                Some(vpn.0),
                || {
                    format!(
                        "pte: process walk-cache hit leaf {l} != uncached walk {:?}",
                        self.leaf_index_ro(self.process_root, vpn)
                    )
                },
            );
        }
        cached
            .or_else(|| self.leaf_index_ro(self.process_root, vpn))
            .map(|leaf| self.leaves[leaf as usize].ptes[vpn.index(0)])
            .unwrap_or(Pte::EMPTY)
    }

    /// Overwrite the PTE for a mapped `vpn` (remap step ⑤, A/D updates).
    ///
    /// # Panics
    /// Panics if `vpn` has no leaf table yet.
    pub fn set_pte(&mut self, vpn: Vpn, pte: Pte) {
        let leaf = self
            .leaf_index_ro(self.process_root, vpn)
            .expect("set_pte on unmapped region");
        let slot = vpn.index(0);
        let l = &mut self.leaves[leaf as usize];
        let old = l.ptes[slot];
        l.ptes[slot] = pte;
        if let Some(t) = old.tier() {
            self.resident[t.index()] -= 1;
        }
        if let Some(t) = pte.tier() {
            self.resident[t.index()] += 1;
        }
        match (old.present(), pte.present()) {
            (false, true) => {
                l.mapped += 1;
                #[cfg(feature = "oracle")]
                self.reference_mapped.insert(vpn.0);
            }
            (true, false) => {
                l.mapped -= 1;
                #[cfg(feature = "oracle")]
                self.reference_mapped.remove(&vpn.0);
                // Unmap-equivalent transition (migration step ②): cached
                // walks for the region must not outlive the mapping.
                self.invalidate_walk(vpn);
            }
            _ => {}
        }
    }

    /// Whether `vpn` is mapped.
    pub fn is_mapped(&self, vpn: Vpn) -> bool {
        self.pte(vpn).present()
    }

    /// Simulate thread `tid` touching `vpn`: ensures the thread's private
    /// path reaches the shared leaf, updates A/D bits and the ownership
    /// lattice, and reports hint faults.
    ///
    /// Returns `None` when the page is unmapped (a major fault the caller
    /// must handle by allocating + [`map`](Self::map)).
    pub fn touch(&mut self, vpn: Vpn, tid: LocalTid, write: bool) -> Option<TouchOutcome> {
        let region = vpn.0 >> LEVEL_BITS;
        // Process-tree translation, via the walk cache when possible.
        // Misses (including unmapped regions) are never cached, so a
        // later `map` needs no invalidation to become visible.
        let leaf = match self.walk_enabled.then(|| self.walk.get(region)).flatten() {
            Some(l) => {
                // The hit claims to reproduce the uncached descent; in
                // oracle builds, prove it on every hit.
                #[cfg(feature = "oracle")]
                vulcan_oracle::check(
                    vulcan_oracle::Structure::Walk,
                    self.leaf_index_ro(self.process_root, vpn) == Some(l),
                    Some(vpn.0),
                    || {
                        format!(
                            "touch: process walk-cache hit leaf {l} != uncached walk {:?}",
                            self.leaf_index_ro(self.process_root, vpn)
                        )
                    },
                );
                l
            }
            None => {
                let l = self.leaf_index_ro(self.process_root, vpn)?;
                if self.walk_enabled {
                    self.walk.put(region, l);
                }
                l
            }
        };
        let slot = vpn.index(0);
        if !self.leaves[leaf as usize].ptes[slot].present() {
            return None;
        }

        // Link the thread's private upper levels to the shared leaf. A
        // thread-walk-cache hit on the same leaf proves the link already
        // exists, skipping the private-tree descent entirely.
        let mut replication_fault = false;
        if self.replication {
            self.register_thread(tid);
            let ti = tid.0 as usize;
            let cached = self.walk_enabled && self.thread_walks[ti].get(region) == Some(leaf);
            #[cfg(feature = "oracle")]
            if cached {
                let troot = self.thread_roots[ti].expect("cached entry implies registration");
                vulcan_oracle::check(
                    vulcan_oracle::Structure::Walk,
                    self.leaf_index_ro(troot, vpn) == Some(leaf),
                    Some(vpn.0),
                    || {
                        format!(
                            "touch: thread {ti} walk-cache hit leaf {leaf} != \
                             uncached private walk {:?}",
                            self.leaf_index_ro(troot, vpn)
                        )
                    },
                );
            }
            if !cached {
                let troot = self.thread_roots[ti].expect("registered above");
                let linked = self.leaf_index_ro(troot, vpn);
                if linked != Some(leaf) {
                    debug_assert!(linked.is_none(), "thread tree must share process leaves");
                    self.leaf_index(troot, vpn, true, Some(leaf));
                    replication_fault = true;
                }
                if self.walk_enabled {
                    self.thread_walks[ti].put(region, leaf);
                }
            }
        }

        let l = &mut self.leaves[leaf as usize];
        let mut pte = l.ptes[slot];
        let hint_fault = pte.poisoned();
        if hint_fault {
            pte = pte.with_poisoned(false);
        }
        let old_owner = pte.owner();
        let new_owner = merge_owner(old_owner, tid);
        let became_shared = old_owner != new_owner && new_owner == PageOwner::Shared;
        pte = pte.touch(write).with_owner(new_owner);
        l.ptes[slot] = pte;

        Some(TouchOutcome {
            pte,
            replication_fault,
            became_shared,
            hint_fault,
        })
    }

    /// The owner of a mapped page.
    pub fn owner(&self, vpn: Vpn) -> Option<PageOwner> {
        let pte = self.pte(vpn);
        pte.present().then(|| pte.owner())
    }

    /// Every mapped page with its PTE, in address order, read straight
    /// from the leaf tables: no second index of mapped pages exists.
    pub fn mapped_ptes(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        #[cfg(feature = "oracle")]
        vulcan_oracle::check(
            vulcan_oracle::Structure::Mapped,
            self.walk_mapped()
                .map(|(v, _)| v.0)
                .eq(self.reference_mapped.iter().copied()),
            None,
            || {
                let walked: Vec<u64> = self.walk_mapped().map(|(v, _)| v.0).collect();
                let first = walked
                    .iter()
                    .zip(&self.reference_mapped)
                    .find(|(w, r)| w != r);
                format!(
                    "leaves list {} mapped pages, the reference set {}; first \
                     difference (leaf VPN, reference VPN): {first:?}",
                    walked.len(),
                    self.reference_mapped.len()
                )
            },
        );
        self.walk_mapped()
    }

    /// The process tree's present PTEs: its nodes in slot order (radix
    /// order is address order), then each leaf's present PTEs, skipping
    /// leaves with nothing mapped.
    fn walk_mapped(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        // Children of node `n` at `prefix`, with their extended prefix.
        let inner = move |n: u32, prefix: u64| {
            self.nodes[n as usize]
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| match *slot {
                    Slot::Node(c) => Some((c, prefix << LEVEL_BITS | i as u64)),
                    _ => None,
                })
        };
        inner(self.process_root, 0)
            .flat_map(move |(n, prefix)| inner(n, prefix))
            .flat_map(move |(n, prefix)| {
                self.nodes[n as usize]
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, slot)| match *slot {
                        Slot::Leaf(l) if self.leaves[l as usize].mapped > 0 => {
                            Some((l, prefix << LEVEL_BITS | i as u64))
                        }
                        _ => None,
                    })
            })
            .flat_map(move |(l, region)| {
                self.leaves[l as usize]
                    .ptes
                    .iter()
                    .enumerate()
                    .filter(|(_, pte)| pte.present())
                    .map(move |(i, &pte)| (Vpn(region << LEVEL_BITS | i as u64), pte))
            })
    }

    /// Iterate all mapped VPNs in address order.
    pub fn mapped_vpns(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.mapped_ptes().map(|(vpn, _)| vpn)
    }

    /// Number of mapped pages (the process's RSS in pages), in O(1): the
    /// sum of the per-tier resident counts.
    pub fn rss_pages(&self) -> u64 {
        let rss = self.resident.iter().sum();
        #[cfg(feature = "oracle")]
        vulcan_oracle::check(
            vulcan_oracle::Structure::Mapped,
            rss == self.reference_mapped.len() as u64,
            None,
            || {
                format!(
                    "resident counts sum to {rss}, the reference set holds {}",
                    self.reference_mapped.len()
                )
            },
        );
        rss
    }

    /// Number of mapped pages whose frame lives in `tier`, in O(1).
    pub fn resident(&self, tier: TierKind) -> u64 {
        self.resident[tier.index()]
    }

    // ---- transparent huge pages -------------------------------------------------

    /// Mark the 2 MiB range at `base` as THP-backed.
    pub fn mark_huge(&mut self, base: Vpn) {
        debug_assert_eq!(base.huge_offset(), 0, "huge base must be aligned");
        self.huge_bases.insert(base.0);
    }

    /// Whether `vpn` falls in a THP-backed range.
    #[inline]
    pub fn in_huge(&self, vpn: Vpn) -> bool {
        // Non-THP workloads ask this on every access; skip the hash when
        // no range was ever marked huge.
        !self.huge_bases.is_empty() && self.huge_bases.contains(&vpn.huge_base().0)
    }

    /// Split the huge page covering `vpn` into base pages (Memtis-style
    /// pre-promotion split, §3.4/§3.5). Returns true if a split occurred.
    pub fn split_huge(&mut self, vpn: Vpn) -> bool {
        self.huge_bases.remove(&vpn.huge_base().0)
    }

    /// Number of THP-backed ranges.
    pub fn huge_count(&self) -> usize {
        self.huge_bases.len()
    }

    // ---- replication overhead accounting (§3.6 limitation) ---------------------

    /// Total inner nodes across all trees.
    pub fn inner_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf tables (shared across trees; counted once).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Bytes of extra page-table memory attributable to per-thread
    /// replication: every node beyond what a single process-wide tree
    /// would need. Each node/leaf occupies 4 KiB like a real page table.
    pub fn replication_overhead_bytes(&self) -> u64 {
        // Count the nodes reachable from the process tree alone.
        let mut process_nodes = 1u64; // the root
        let mut stack = vec![self.process_root];
        while let Some(n) = stack.pop() {
            for slot in self.nodes[n as usize].slots.iter() {
                if let Slot::Node(c) = slot {
                    process_nodes += 1;
                    stack.push(*c);
                }
            }
        }
        let total = self.nodes.len() as u64;
        (total - process_nodes) * 4096
    }
}

/// Tagged slot encoding for checkpoints: `Empty` = 0, `Node(i)` = tag 1,
/// `Leaf(i)` = tag 2, with the arena index in the low 32 bits. Arena
/// indices are `u32`, so the tag never collides with an index.
const SLOT_TAG_NODE: u64 = 1 << 32;
const SLOT_TAG_LEAF: u64 = 2 << 32;

fn slot_code(s: Slot) -> u64 {
    match s {
        Slot::Empty => 0,
        Slot::Node(i) => SLOT_TAG_NODE | i as u64,
        Slot::Leaf(i) => SLOT_TAG_LEAF | i as u64,
    }
}

fn slot_decode(code: u64) -> Result<Slot, String> {
    let idx = (code & 0xFFFF_FFFF) as u32;
    match code & !0xFFFF_FFFF {
        0 if code == 0 => Ok(Slot::Empty),
        SLOT_TAG_NODE => Ok(Slot::Node(idx)),
        SLOT_TAG_LEAF => Ok(Slot::Leaf(idx)),
        _ => Err(format!("bad slot code {code:#x}")),
    }
}

/// Sentinel for an absent `thread_roots` entry in checkpoints.
const NO_ROOT: u64 = u64::MAX;

impl vulcan_json::Snapshot for AddressSpace {
    /// Serializes both arenas verbatim — slot graphs, leaf PTE words and
    /// per-leaf mapped counts — in arena order, so restored arena indices
    /// (and hence future arena allocations) are identical. The software
    /// walk caches are deliberately **not** serialized: they are
    /// memoization only (the `walk_cache_disabled_matches_enabled` test
    /// proves behavioral equivalence), so restore rebuilds them empty and
    /// they re-fill on first touch. Neither are the per-tier resident
    /// counts: restore recounts them while decoding the leaf PTEs.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .map(|n| {
                let codes: Vec<u64> = n.slots.iter().map(|&s| slot_code(s)).collect();
                snap::u64_array(&codes)
            })
            .collect();
        let leaves: Vec<Value> = self
            .leaves
            .iter()
            .map(|l| {
                let ptes: Vec<u64> = l.ptes.iter().map(|p| p.0).collect();
                snap::obj(vec![
                    ("ptes", snap::u64_array(&ptes)),
                    ("mapped", snap::u64_value(l.mapped as u64)),
                ])
            })
            .collect();
        let roots: Vec<u64> = self
            .thread_roots
            .iter()
            .map(|r| r.map_or(NO_ROOT, |i| i as u64))
            .collect();
        let mut mapped = Vec::with_capacity(self.rss_pages() as usize);
        mapped.extend(self.mapped_vpns().map(|v| v.0));
        let huge: Vec<u64> = self.huge_bases.iter().copied().collect();
        snap::obj(vec![
            ("nodes", Value::Array(nodes)),
            ("leaves", Value::Array(leaves)),
            ("process_root", snap::u64_value(self.process_root as u64)),
            ("thread_roots", snap::u64_array(&roots)),
            ("replication", Value::Bool(self.replication)),
            ("mapped", snap::u64_array(&mapped)),
            ("huge_bases", snap::u64_array(&huge)),
            ("walk_enabled", Value::Bool(self.walk_enabled)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let nodes: Vec<Node> = snap::field_array(v, "nodes")?
            .iter()
            .map(|nv| {
                let codes = snap::array_u64(nv)?;
                if codes.len() != FANOUT {
                    return Err(format!("node needs {FANOUT} slots, got {}", codes.len()));
                }
                let slots: Result<Vec<Slot>, String> = codes.into_iter().map(slot_decode).collect();
                Ok(Node {
                    slots: slots?.into_boxed_slice(),
                })
            })
            .collect::<Result<_, String>>()?;
        let mut resident = [0u64; MAX_TIERS];
        let leaves: Vec<Leaf> = snap::field_array(v, "leaves")?
            .iter()
            .enumerate()
            .map(|(i, lv)| {
                let ptes = snap::array_u64(snap::field(lv, "ptes")?)?;
                if ptes.len() != FANOUT {
                    return Err(format!("leaf needs {FANOUT} ptes, got {}", ptes.len()));
                }
                let mapped = u32::try_from(snap::field_u64(lv, "mapped")?)
                    .map_err(|_| "leaf mapped count out of u32 range".to_string())?;
                let mut present = 0u32;
                for (slot, &word) in ptes.iter().enumerate() {
                    match Pte(word).try_tier() {
                        Ok(Some(t)) => {
                            resident[t.index()] += 1;
                            present += 1;
                        }
                        Ok(None) => {}
                        Err(field) => {
                            return Err(format!(
                                "leaf {i} slot {slot}: PTE tier field {field} is not a valid \
                                 chain index"
                            ))
                        }
                    }
                }
                if present != mapped {
                    return Err(format!(
                        "leaf {i}: mapped count {mapped} != {present} present PTEs"
                    ));
                }
                Ok(Leaf {
                    ptes: ptes
                        .into_iter()
                        .map(Pte)
                        .collect::<Vec<_>>()
                        .into_boxed_slice(),
                    mapped,
                })
            })
            .collect::<Result<_, String>>()?;
        let process_root = u32::try_from(snap::field_u64(v, "process_root")?)
            .ok()
            .filter(|&r| (r as usize) < nodes.len())
            .ok_or_else(|| "process_root out of arena range".to_string())?;
        let thread_roots: Vec<Option<u32>> = snap::array_u64(snap::field(v, "thread_roots")?)?
            .into_iter()
            .map(|r| {
                if r == NO_ROOT {
                    Ok(None)
                } else {
                    u32::try_from(r)
                        .ok()
                        .filter(|&r| (r as usize) < nodes.len())
                        .map(Some)
                        .ok_or_else(|| format!("thread root {r} out of arena range"))
                }
            })
            .collect::<Result<_, String>>()?;
        let thread_walks = thread_roots.iter().map(|_| WalkCache::new()).collect();
        let listed = snap::array_u64(snap::field(v, "mapped")?)?;
        let space = AddressSpace {
            nodes,
            leaves,
            process_root,
            thread_roots,
            replication: snap::field_bool(v, "replication")?,
            #[cfg(feature = "oracle")]
            reference_mapped: listed.iter().copied().collect(),
            resident,
            huge_bases: snap::array_u64(snap::field(v, "huge_bases")?)?
                .into_iter()
                .collect(),
            walk: WalkCache::new(),
            thread_walks,
            walk_enabled: snap::field_bool(v, "walk_enabled")?,
        };
        space.validate_arena()?;
        space.validate_mapped(&listed)?;
        Ok(space)
    }
}

/// Restore-time validation of an untrusted arena. Every method returns a
/// typed error instead of reaching the walks' index panics and
/// `unreachable!` arms.
impl AddressSpace {
    /// Check every tree before anything walks it: each slot's index is
    /// inside its arena, inner nodes hold only nodes at levels 3 and 2
    /// and only leaf tables at level 1, no node is linked twice (which
    /// also rules out cycles and trees sharing upper levels), and each
    /// leaf a thread tree links is the process tree's leaf for that
    /// region. The process tree is checked first, so the thread trees'
    /// lookups into it are safe. The only scratch is one bit per
    /// decoded node.
    fn validate_arena(&self) -> Result<(), String> {
        let mut linked = vec![0u64; self.nodes.len().div_ceil(64)];
        let roots =
            std::iter::once(self.process_root).chain(self.thread_roots.iter().flatten().copied());
        for root in roots {
            self.link_node(root, &mut linked)
                .map_err(|e| format!("root {root}: {e}"))?;
            self.validate_node(root, 3, 0, root != self.process_root, &mut linked)?;
        }
        Ok(())
    }

    /// Mark node `n` as linked, failing if it is outside the arena or
    /// already linked from another slot or root.
    fn link_node(&self, n: u32, linked: &mut [u64]) -> Result<(), String> {
        let i = n as usize;
        if i >= self.nodes.len() {
            return Err(format!(
                "node {n} is past the node arena ({} nodes)",
                self.nodes.len()
            ));
        }
        let bit = 1u64 << (i % 64);
        if linked[i / 64] & bit != 0 {
            return Err(format!("node {n} is linked twice"));
        }
        linked[i / 64] |= bit;
        Ok(())
    }

    /// Check node `n` at radix `level` (3 = root) covering VPN prefix
    /// `prefix`, and everything below it.
    fn validate_node(
        &self,
        n: u32,
        level: usize,
        prefix: u64,
        thread_tree: bool,
        linked: &mut [u64],
    ) -> Result<(), String> {
        for (i, &slot) in self.nodes[n as usize].slots.iter().enumerate() {
            let at = prefix << LEVEL_BITS | i as u64;
            match slot {
                Slot::Empty => {}
                Slot::Node(c) if level > 1 => {
                    self.link_node(c, linked)
                        .map_err(|e| format!("node {n} slot {i}: {e}"))?;
                    self.validate_node(c, level - 1, at, thread_tree, linked)?;
                }
                Slot::Leaf(l) if level == 1 => {
                    if l as usize >= self.leaves.len() {
                        return Err(format!(
                            "node {n} slot {i}: leaf {l} is past the leaf arena ({} leaves)",
                            self.leaves.len()
                        ));
                    }
                    if thread_tree {
                        let shared = self.leaf_index_ro(self.process_root, Vpn(at << LEVEL_BITS));
                        if shared != Some(l) {
                            return Err(format!(
                                "a thread tree links leaf {l} for region {at:#x}, \
                                 where the process tree has {shared:?}"
                            ));
                        }
                    }
                }
                Slot::Node(c) => {
                    return Err(format!(
                        "level-1 node {n} slot {i} holds node {c}; only leaf tables belong there"
                    ))
                }
                Slot::Leaf(l) => {
                    return Err(format!(
                        "level-{level} node {n} slot {i} holds leaf {l}; \
                         leaf tables belong only in level-1 nodes"
                    ))
                }
            }
        }
        Ok(())
    }

    /// Require the serialized mapped list to be exactly the process
    /// tree's present PTEs, in address order, and their number to be
    /// every present PTE in the leaf arena: a leaf the process tree
    /// cannot reach, or reaches twice, breaks the second equality. The
    /// comparison stops at the first difference, so it never walks
    /// more than one entry past the list.
    fn validate_mapped(&self, listed: &[u64]) -> Result<(), String> {
        let mut walked = self.walk_mapped().map(|(v, _)| v.0);
        for (i, &want) in listed.iter().enumerate() {
            match walked.next() {
                Some(got) if got == want => {}
                Some(got) => {
                    return Err(format!(
                        "mapped list entry {i} is VPN {want:#x}, but the page tables map {got:#x} there"
                    ))
                }
                None => {
                    return Err(format!(
                        "mapped list entry {i} is VPN {want:#x}, but the page tables map only {i} pages"
                    ))
                }
            }
        }
        if let Some(extra) = walked.next() {
            return Err(format!(
                "the page tables map VPN {extra:#x} beyond the {} listed pages",
                listed.len()
            ));
        }
        let present: u64 = self.resident.iter().sum();
        if present != listed.len() as u64 {
            return Err(format!(
                "the process tree reaches {} present PTEs, but the leaf tables hold {present}",
                listed.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_sim::TierKind;

    fn frame(index: u32) -> FrameId {
        FrameId {
            tier: TierKind::Slow,
            index,
        }
    }

    fn space() -> AddressSpace {
        AddressSpace::new(true)
    }

    #[test]
    fn map_translate_unmap() {
        let mut s = space();
        let vpn = Vpn(0x12345);
        s.map(vpn, frame(7), LocalTid(0));
        assert!(s.is_mapped(vpn));
        assert_eq!(s.pte(vpn).frame(), Some(frame(7)));
        assert_eq!(s.rss_pages(), 1);
        let old = s.unmap(vpn).unwrap();
        assert_eq!(old.frame(), Some(frame(7)));
        assert!(!s.is_mapped(vpn));
        assert_eq!(s.pte(vpn), Pte::EMPTY);
    }

    #[test]
    fn unmap_unmapped_is_none() {
        let mut s = space();
        assert_eq!(s.unmap(Vpn(5)), None);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut s = space();
        s.map(Vpn(1), frame(1), LocalTid(0));
        s.map(Vpn(1), frame(2), LocalTid(0));
    }

    #[test]
    fn touch_unmapped_is_major_fault() {
        let mut s = space();
        assert_eq!(s.touch(Vpn(9), LocalTid(0), false), None);
    }

    #[test]
    fn first_touch_sets_private_owner() {
        let mut s = space();
        s.map(Vpn(1), frame(1), LocalTid(3));
        let out = s.touch(Vpn(1), LocalTid(3), false).unwrap();
        assert_eq!(out.pte.owner(), PageOwner::Private(LocalTid(3)));
        assert!(!out.became_shared);
    }

    #[test]
    fn second_thread_shares_page() {
        let mut s = space();
        s.map(Vpn(1), frame(1), LocalTid(0));
        s.touch(Vpn(1), LocalTid(0), false).unwrap();
        let out = s.touch(Vpn(1), LocalTid(1), false).unwrap();
        assert!(out.became_shared);
        assert_eq!(s.owner(Vpn(1)), Some(PageOwner::Shared));
        // Further touches keep it shared without re-reporting.
        let again = s.touch(Vpn(1), LocalTid(0), false).unwrap();
        assert!(!again.became_shared);
    }

    #[test]
    fn replication_fault_once_per_thread_region() {
        let mut s = space();
        s.map(Vpn(1), frame(1), LocalTid(0));
        let first = s.touch(Vpn(1), LocalTid(0), false).unwrap();
        assert!(first.replication_fault);
        let second = s.touch(Vpn(1), LocalTid(0), false).unwrap();
        assert!(!second.replication_fault);
        // A different thread pays its own replication fault.
        let other = s.touch(Vpn(1), LocalTid(1), false).unwrap();
        assert!(other.replication_fault);
    }

    #[test]
    fn no_replication_faults_when_disabled() {
        let mut s = AddressSpace::new(false);
        s.map(Vpn(1), frame(1), LocalTid(0));
        let out = s.touch(Vpn(1), LocalTid(0), false).unwrap();
        assert!(!out.replication_fault);
        assert_eq!(s.replication_overhead_bytes(), 0);
    }

    #[test]
    fn leaf_tables_are_shared_not_duplicated() {
        let mut s = space();
        // Two threads touching pages in the same 2 MiB region share a leaf.
        s.map(Vpn(0), frame(1), LocalTid(0));
        s.map(Vpn(1), frame(2), LocalTid(1));
        s.touch(Vpn(0), LocalTid(0), false).unwrap();
        s.touch(Vpn(1), LocalTid(1), false).unwrap();
        assert_eq!(s.leaf_count(), 1, "one shared leaf only");
        // Upper levels are replicated: process + 2 thread trees, 3 nodes
        // each (root, L3, L2).
        assert_eq!(s.inner_node_count(), 9);
        assert_eq!(s.replication_overhead_bytes(), 6 * 4096);
    }

    #[test]
    fn dirty_bit_via_write_touch() {
        let mut s = space();
        s.map(Vpn(4), frame(4), LocalTid(0));
        s.touch(Vpn(4), LocalTid(0), false).unwrap();
        assert!(!s.pte(Vpn(4)).dirty());
        s.touch(Vpn(4), LocalTid(0), true).unwrap();
        assert!(s.pte(Vpn(4)).dirty());
    }

    #[test]
    fn hint_fault_fires_once() {
        let mut s = space();
        s.map(Vpn(2), frame(2), LocalTid(0));
        let pte = s.pte(Vpn(2)).with_poisoned(true);
        s.set_pte(Vpn(2), pte);
        let out = s.touch(Vpn(2), LocalTid(0), false).unwrap();
        assert!(out.hint_fault);
        let out2 = s.touch(Vpn(2), LocalTid(0), false).unwrap();
        assert!(!out2.hint_fault, "poison cleared by first fault");
    }

    #[test]
    fn set_pte_maintains_mapped_set() {
        let mut s = space();
        s.map(Vpn(3), frame(3), LocalTid(0));
        let pte = s.pte(Vpn(3));
        s.set_pte(Vpn(3), Pte::EMPTY);
        assert!(!s.is_mapped(Vpn(3)));
        s.set_pte(Vpn(3), pte);
        assert!(s.is_mapped(Vpn(3)));
        assert_eq!(s.rss_pages(), 1);
    }

    #[test]
    fn mapped_vpns_in_order() {
        let mut s = space();
        for v in [5u64, 1, 3] {
            s.map(Vpn(v), frame(v as u32), LocalTid(0));
        }
        let got: Vec<_> = s.mapped_vpns().map(|v| v.0).collect();
        assert_eq!(got, vec![1, 3, 5]);
    }

    #[test]
    fn huge_page_bookkeeping() {
        let mut s = space();
        s.mark_huge(Vpn(512));
        assert!(s.in_huge(Vpn(512 + 100)));
        assert!(!s.in_huge(Vpn(100)));
        assert_eq!(s.huge_count(), 1);
        assert!(s.split_huge(Vpn(700)));
        assert!(!s.in_huge(Vpn(700)));
        assert!(!s.split_huge(Vpn(700)), "second split is a no-op");
    }

    #[test]
    fn distant_vpns_use_distinct_leaves() {
        let mut s = space();
        s.map(Vpn(0), frame(1), LocalTid(0));
        s.map(Vpn(1 << 20), frame(2), LocalTid(0));
        assert_eq!(s.leaf_count(), 2);
    }

    #[test]
    fn walk_cache_hit_returns_same_translation() {
        let mut s = space();
        s.map(Vpn(10), frame(1), LocalTid(0));
        let cold = s.touch(Vpn(10), LocalTid(0), false).unwrap();
        // Second touch is a process- and thread-cache hit.
        let warm = s.touch(Vpn(10), LocalTid(0), false).unwrap();
        assert_eq!(cold.pte.frame(), warm.pte.frame());
        assert!(!warm.replication_fault, "cached link, no fault");
        // Same region, different page: still served by the cached leaf.
        s.map(Vpn(11), frame(2), LocalTid(0));
        let sibling = s.touch(Vpn(11), LocalTid(0), false).unwrap();
        assert_eq!(sibling.pte.frame(), Some(frame(2)));
    }

    #[test]
    fn walk_cache_sees_new_pte_after_unmap() {
        let mut s = space();
        s.map(Vpn(7), frame(1), LocalTid(0));
        s.touch(Vpn(7), LocalTid(0), false).unwrap(); // cache the region
        s.unmap(Vpn(7)).unwrap();
        assert_eq!(s.touch(Vpn(7), LocalTid(0), false), None, "major fault");
        assert_eq!(s.pte(Vpn(7)), Pte::EMPTY);
        // Remap to a different frame: the touch must see the new PTE.
        s.map(Vpn(7), frame(9), LocalTid(0));
        let out = s.touch(Vpn(7), LocalTid(0), false).unwrap();
        assert_eq!(out.pte.frame(), Some(frame(9)));
    }

    #[test]
    fn walk_cache_sees_new_pte_after_migration_remap() {
        // Migration's unmap-equivalent transition goes through set_pte:
        // present → EMPTY (step ②), then EMPTY → new frame (step ⑤).
        let mut s = space();
        s.map(Vpn(20), frame(3), LocalTid(0));
        s.touch(Vpn(20), LocalTid(0), true).unwrap(); // cache + dirty
        let old = s.pte(Vpn(20));
        s.set_pte(Vpn(20), Pte::EMPTY);
        assert_eq!(s.touch(Vpn(20), LocalTid(0), false), None);
        let new_frame = FrameId {
            tier: TierKind::Fast,
            index: 77,
        };
        s.set_pte(Vpn(20), old.with_frame(new_frame).clear_dirty());
        let out = s.touch(Vpn(20), LocalTid(0), false).unwrap();
        assert_eq!(
            out.pte.frame(),
            Some(new_frame),
            "stale walk would miss this"
        );
        assert_eq!(s.pte(Vpn(20)).frame(), Some(new_frame));
    }

    #[test]
    fn walk_cache_flush_is_transparent() {
        let mut s = space();
        s.map(Vpn(30), frame(4), LocalTid(1));
        s.touch(Vpn(30), LocalTid(1), false).unwrap();
        s.flush_walk_caches(); // software shootdown
        let out = s.touch(Vpn(30), LocalTid(1), true).unwrap();
        assert_eq!(out.pte.frame(), Some(frame(4)));
        assert!(out.pte.dirty());
        assert!(
            !out.replication_fault,
            "private path still linked after flush"
        );
    }

    #[test]
    fn walk_cache_disabled_matches_enabled() {
        // The cache is a wall-clock optimization only: a cached and an
        // uncached space driven by the same op sequence must agree on
        // every outcome and every PTE.
        let mut cached = space();
        let mut plain = space();
        plain.set_walk_cache_enabled(false);
        assert!(!plain.walk_cache_enabled());
        let ops: Vec<(u64, u8, bool)> = (0..600)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2_654_435_761) >> 7;
                (x % 1_500, (x % 3) as u8, x.is_multiple_of(5))
            })
            .collect();
        for &(v, t, w) in &ops {
            if !cached.is_mapped(Vpn(v)) {
                cached.map(Vpn(v), frame(v as u32), LocalTid(t));
                plain.map(Vpn(v), frame(v as u32), LocalTid(t));
            }
            let a = cached.touch(Vpn(v), LocalTid(t), w);
            let b = plain.touch(Vpn(v), LocalTid(t), w);
            assert_eq!(a, b, "vpn {v} tid {t} write {w}");
        }
        for &(v, _, _) in &ops {
            assert_eq!(cached.pte(Vpn(v)), plain.pte(Vpn(v)));
        }
    }

    #[test]
    fn walk_cache_collision_eviction_is_safe() {
        // Two regions that collide in the direct-mapped cache (same slot
        // modulo WALK_CACHE_SLOTS) keep evicting each other; translations
        // must stay exact throughout.
        let mut s = space();
        let a = Vpn(5);
        let b = Vpn(5 + (WALK_CACHE_SLOTS as u64) * FANOUT as u64);
        s.map(a, frame(1), LocalTid(0));
        s.map(b, frame(2), LocalTid(0));
        for _ in 0..4 {
            assert_eq!(
                s.touch(a, LocalTid(0), false).unwrap().pte.frame(),
                Some(frame(1))
            );
            assert_eq!(
                s.touch(b, LocalTid(0), false).unwrap().pte.frame(),
                Some(frame(2))
            );
        }
    }

    #[test]
    fn remap_preserves_owner_and_flags() {
        let mut s = space();
        s.map(Vpn(8), frame(9), LocalTid(2));
        s.touch(Vpn(8), LocalTid(2), true).unwrap();
        let new_frame = FrameId {
            tier: TierKind::Fast,
            index: 42,
        };
        let pte = s.pte(Vpn(8)).with_frame(new_frame);
        s.set_pte(Vpn(8), pte);
        let after = s.pte(Vpn(8));
        assert_eq!(after.frame(), Some(new_frame));
        assert_eq!(after.owner(), PageOwner::Private(LocalTid(2)));
        assert!(after.dirty());
    }

    /// ISSUE 10 satellite (walk-cache audit): a restored space starts
    /// with **empty** walk caches, yet must behave identically to the
    /// original whose caches are warm — and continue allocating arena
    /// indices identically, so later snapshots still match.
    #[test]
    fn snapshot_roundtrip_with_cold_walk_caches_matches_warm_original() {
        use vulcan_json::Snapshot;
        let mut orig = space();
        let ops: Vec<(u64, u8, bool)> = (0..600)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2_654_435_761) >> 7;
                (x % 1_500, (x % 3) as u8, x.is_multiple_of(5))
            })
            .collect();
        for &(v, t, w) in &ops[..400] {
            if !orig.is_mapped(Vpn(v)) {
                orig.map(Vpn(v), frame(v as u32), LocalTid(t));
            }
            orig.touch(Vpn(v), LocalTid(t), w);
        }
        orig.mark_huge(Vpn(512 * 9));
        let snap = orig.snapshot();
        let mut back = AddressSpace::restore(&snap).expect("restore");
        // Idempotency: re-snapshotting the restored space is bit-identical.
        assert_eq!(back.snapshot(), snap);
        // Continue both with the tail ops (cold caches vs warm).
        for &(v, t, w) in &ops[400..] {
            if !orig.is_mapped(Vpn(v)) {
                orig.map(Vpn(v), frame(v as u32), LocalTid(t));
                back.map(Vpn(v), frame(v as u32), LocalTid(t));
            }
            assert_eq!(
                orig.touch(Vpn(v), LocalTid(t), w),
                back.touch(Vpn(v), LocalTid(t), w),
                "vpn {v} tid {t} write {w}"
            );
        }
        for &(v, _, _) in &ops {
            assert_eq!(orig.pte(Vpn(v)), back.pte(Vpn(v)));
        }
        assert_eq!(orig.inner_node_count(), back.inner_node_count());
        assert_eq!(orig.leaf_count(), back.leaf_count());
        assert_eq!(back.snapshot(), orig.snapshot(), "states stay in lockstep");
    }

    #[test]
    fn resident_counts_follow_map_unmap_and_remap() {
        let mut s = space();
        let fast = |index| FrameId {
            tier: TierKind::Fast,
            index,
        };
        s.map(Vpn(1), fast(1), LocalTid(0));
        s.map(Vpn(2), frame(2), LocalTid(0));
        s.map(Vpn(3), frame(3), LocalTid(0));
        assert_eq!(
            (s.resident(TierKind::Fast), s.resident(TierKind::Slow)),
            (1, 2)
        );
        // Remap slow → fast in place, and a flag-only rewrite.
        let pte = s.pte(Vpn(2));
        s.set_pte(Vpn(2), pte.with_frame(fast(9)));
        s.set_pte(Vpn(3), s.pte(Vpn(3)).with_poisoned(true));
        assert_eq!(
            (s.resident(TierKind::Fast), s.resident(TierKind::Slow)),
            (2, 1)
        );
        // Migration's present → EMPTY → present pair, and a plain unmap.
        s.set_pte(Vpn(1), Pte::EMPTY);
        assert_eq!(s.resident(TierKind::Fast), 1);
        s.unmap(Vpn(3)).unwrap();
        assert_eq!(
            (s.resident(TierKind::Fast), s.resident(TierKind::Slow)),
            (1, 0)
        );
        s.touch(Vpn(2), LocalTid(1), true).unwrap();
        assert_eq!(s.resident(TierKind::Fast), 1, "touch never moves a frame");
        assert_eq!(s.resident(TierKind::Nvm), 0);
    }

    /// Replace leaf 0's PTE words in a snapshot.
    fn with_leaf_ptes(
        v: &vulcan_json::Value,
        edit: impl FnOnce(&mut Vec<u64>),
    ) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let mut v = v.clone();
        let Value::Object(m) = &mut v else {
            panic!("snapshot is an object")
        };
        let Some(Value::Array(leaves)) = m.get("leaves").cloned() else {
            panic!("leaves is an array")
        };
        let mut leaves = leaves;
        let Value::Object(l0) = &mut leaves[0] else {
            panic!("leaf is an object")
        };
        let mut ptes = snap::array_u64(l0.get("ptes").expect("ptes")).expect("u64 words");
        edit(&mut ptes);
        l0.insert("ptes", snap::u64_array(&ptes));
        m.insert("leaves", Value::Array(leaves));
        v
    }

    #[test]
    fn restore_rejects_an_invalid_tier_field_instead_of_panicking() {
        use vulcan_json::Snapshot;
        let mut s = space();
        s.map(Vpn(5), frame(5), LocalTid(0));
        let v = with_leaf_ptes(&s.snapshot(), |ptes| ptes[5] |= 0b11 << 9);
        let err = AddressSpace::restore(&v).unwrap_err();
        assert!(
            err.contains("slot 5: PTE tier field 3 is not a valid chain index"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_leaves_that_disagree_with_their_counts() {
        use vulcan_json::Snapshot;
        let mut s = space();
        s.map(Vpn(5), frame(5), LocalTid(0));
        // A present PTE the leaf's mapped count does not cover.
        let v = with_leaf_ptes(&s.snapshot(), |ptes| ptes[6] = ptes[5]);
        let err = AddressSpace::restore(&v).unwrap_err();
        assert!(err.contains("mapped count 1 != 2 present PTEs"), "{err}");
    }

    #[test]
    #[should_panic(expected = "beyond the 36-bit page-table radix")]
    fn map_beyond_the_radix_panics() {
        // Without the check the top index wraps: VPN 2^36 would land in
        // VPN 0's PTE while `is_mapped(Vpn(0))` stayed false.
        space().map(Vpn(1 << 36), frame(1), LocalTid(0));
    }

    /// Replace the field `key` of a snapshot object.
    fn with_field(
        v: &vulcan_json::Value,
        key: &str,
        edit: impl FnOnce(&mut vulcan_json::Value),
    ) -> vulcan_json::Value {
        let mut v = v.clone();
        let vulcan_json::Value::Object(m) = &mut v else {
            panic!("snapshot is an object")
        };
        let mut field = m.get(key).expect("field present").clone();
        edit(&mut field);
        m.insert(key, field);
        v
    }

    /// Overwrite slot `slot` of arena node `node` with the slot `code`.
    fn with_slot(
        v: &vulcan_json::Value,
        node: usize,
        slot: usize,
        code: u64,
    ) -> vulcan_json::Value {
        with_field(v, "nodes", |nodes| {
            let vulcan_json::Value::Array(nodes) = nodes else {
                panic!("nodes is an array")
            };
            let mut codes = vulcan_json::snap::array_u64(&nodes[node]).expect("slot codes");
            codes[slot] = code;
            nodes[node] = vulcan_json::snap::u64_array(&codes);
        })
    }

    fn with_mapped(v: &vulcan_json::Value, vpns: &[u64]) -> vulcan_json::Value {
        with_field(v, "mapped", |m| *m = vulcan_json::snap::u64_array(vpns))
    }

    /// VPN 5 mapped and touched by thread 0. Arena: process root 0 →
    /// node 1 → node 2 → leaf 0; thread 0's root 3 → node 4 → node 5 →
    /// the same leaf 0.
    fn one_page_snapshot() -> vulcan_json::Value {
        use vulcan_json::Snapshot;
        let mut s = space();
        s.map(Vpn(5), frame(5), LocalTid(0));
        s.touch(Vpn(5), LocalTid(0), false).unwrap();
        assert_eq!((s.inner_node_count(), s.leaf_count()), (6, 1));
        s.snapshot()
    }

    fn restore_err(v: &vulcan_json::Value) -> String {
        use vulcan_json::Snapshot;
        match AddressSpace::restore(v) {
            Ok(_) => panic!("a corrupt arena must not restore"),
            Err(e) => e,
        }
    }

    /// Without the check this restored, and the first touch of the
    /// region indexed past the node arena.
    #[test]
    fn restore_rejects_a_slot_past_the_node_arena() {
        let err = restore_err(&with_slot(&one_page_snapshot(), 1, 0, SLOT_TAG_NODE | 99));
        assert!(
            err.contains("node 99 is past the node arena (6 nodes)"),
            "{err}"
        );
    }

    /// Without the check this restored, and the next map through the
    /// slot reached `unreachable!("leaf above level 1")`.
    #[test]
    fn restore_rejects_a_leaf_above_level_one() {
        let err = restore_err(&with_slot(&one_page_snapshot(), 0, 1, SLOT_TAG_LEAF));
        assert!(
            err.contains("level-3 node 0 slot 1 holds leaf 0; leaf tables belong only in level-1"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_node_at_level_one() {
        let err = restore_err(&with_slot(&one_page_snapshot(), 2, 1, SLOT_TAG_NODE | 4));
        assert!(
            err.contains("level-1 node 2 slot 1 holds node 4; only leaf tables belong there"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_leaf_past_the_leaf_arena() {
        let err = restore_err(&with_slot(&one_page_snapshot(), 2, 1, SLOT_TAG_LEAF | 7));
        assert!(
            err.contains("leaf 7 is past the leaf arena (1 leaves)"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_node_linked_twice() {
        let v = one_page_snapshot();
        // A second parent slot for node 1 (also a cycle-free alias).
        let err = restore_err(&with_slot(&v, 0, 1, SLOT_TAG_NODE | 1));
        assert!(err.contains("node 1 is linked twice"), "{err}");
        // A thread sharing the process tree's root.
        let shared_root = with_field(&v, "thread_roots", |r| {
            *r = vulcan_json::snap::u64_array(&[0])
        });
        let err = restore_err(&shared_root);
        assert!(err.contains("root 0: node 0 is linked twice"), "{err}");
    }

    #[test]
    fn restore_rejects_a_thread_tree_linking_a_foreign_leaf() {
        use vulcan_json::Snapshot;
        let mut s = space();
        s.map(Vpn(5), frame(5), LocalTid(0));
        s.touch(Vpn(5), LocalTid(0), false).unwrap();
        s.map(Vpn(1 << 20), frame(6), LocalTid(0));
        // Thread 0's level-1 node 5 now points region 0 at leaf 1.
        let err = restore_err(&with_slot(&s.snapshot(), 5, 0, SLOT_TAG_LEAF | 1));
        assert!(
            err.contains(
                "a thread tree links leaf 1 for region 0x0, where the process tree has Some(0)"
            ),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_mapped_list_that_differs_from_the_leaves() {
        let v = one_page_snapshot();
        let err = restore_err(&with_mapped(&v, &[6]));
        assert!(
            err.contains("mapped list entry 0 is VPN 0x6, but the page tables map 0x5 there"),
            "{err}"
        );
        let err = restore_err(&with_mapped(&v, &[5, 9]));
        assert!(
            err.contains("entry 1 is VPN 0x9, but the page tables map only 1 pages"),
            "{err}"
        );
        let err = restore_err(&with_mapped(&v, &[]));
        assert!(
            err.contains("map VPN 0x5 beyond the 0 listed pages"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_leaf_the_process_tree_cannot_reach() {
        use vulcan_json::Snapshot;
        let mut s = space();
        s.map(Vpn(5), frame(5), LocalTid(0));
        s.map(Vpn(1 << 20), frame(6), LocalTid(0));
        // Unlink leaf 1 (process node 3, slot 0) and drop its page from
        // the list, so the list still matches the walk.
        let v = with_mapped(&with_slot(&s.snapshot(), 3, 0, 0), &[5]);
        let err = restore_err(&v);
        assert!(
            err.contains("the process tree reaches 1 present PTEs, but the leaf tables hold 2"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_leaf_the_process_tree_reaches_twice() {
        // Leaf 0 linked for region 1 too, with the list matching the walk.
        let v = with_slot(&one_page_snapshot(), 2, 1, SLOT_TAG_LEAF);
        let err = restore_err(&with_mapped(&v, &[5, 512 + 5]));
        assert!(
            err.contains("the process tree reaches 2 present PTEs, but the leaf tables hold 1"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_dangling_root() {
        use vulcan_json::Snapshot;
        let s = space();
        let mut v = s.snapshot();
        if let vulcan_json::Value::Object(m) = &mut v {
            m.insert("process_root".to_string(), vulcan_json::snap::u64_value(99));
        }
        assert!(AddressSpace::restore(&v)
            .unwrap_err()
            .contains("process_root"));
    }
}
