//! Property-based tests for the virtual-memory substrate.

use proptest::prelude::*;
use vulcan_sim::{CoreId, FrameId, SimThreadId, TierKind, Topology};
use vulcan_vm::{
    shootdown, AddressSpace, Asid, LocalTid, PageOwner, Process, Pte, ShootdownScope, Tlb,
    TlbArray, Vpn,
};

fn arb_frame() -> impl Strategy<Value = FrameId> {
    (any::<bool>(), 0u32..1_000_000).prop_map(|(slow, index)| FrameId {
        tier: if slow { TierKind::Slow } else { TierKind::Fast },
        index,
    })
}

/// Per-tier residency by the obviously-correct route: walk every mapped
/// VPN and decode its PTE.
fn resident_scan(s: &AddressSpace) -> [u64; 3] {
    let mut counts = [0u64; 3];
    for v in s.mapped_vpns() {
        counts[s.pte(v).tier().expect("mapped page has a tier").index()] += 1;
    }
    counts
}

fn resident_counts(s: &AddressSpace) -> [u64; 3] {
    TierKind::ALL.map(|t| s.resident(t))
}

proptest! {
    /// The O(1) per-tier resident counts track a full scan through every
    /// PTE writer: `map`, `unmap`, and `set_pte` moving a page across
    /// chain tiers or between present and absent. A snapshot → restore
    /// rebuilds the same counts from the leaf PTEs.
    #[test]
    fn resident_counts_match_a_scan(
        ops in proptest::collection::vec((0u8..4, 0u64..600, 0usize..3, any::<bool>()), 1..160),
    ) {
        use vulcan_json::Snapshot;
        let mut s = AddressSpace::new(true);
        for (i, &(op, v, t, flag)) in ops.iter().enumerate() {
            let vpn = Vpn(v);
            let frame = FrameId { tier: TierKind::ALL[t], index: i as u32 };
            match op {
                0 => {
                    if !s.is_mapped(vpn) {
                        s.map(vpn, frame, LocalTid(0));
                    }
                }
                1 => {
                    s.unmap(vpn);
                }
                2 => {
                    // Remap in place across tiers (migration step ⑤), or
                    // a flag-only rewrite that keeps the frame.
                    let pte = s.pte(vpn);
                    if pte.present() {
                        let next = if flag { pte.with_frame(frame) } else { pte.touch(true) };
                        s.set_pte(vpn, next);
                    }
                }
                _ => {
                    // present ⇄ absent through set_pte (migration steps ②/⑤);
                    // only regions with a leaf table accept set_pte.
                    let pte = s.pte(vpn);
                    if pte.present() {
                        s.set_pte(vpn, Pte::EMPTY);
                    } else if s.mapped_vpns().any(|m| m.0 >> 9 == v >> 9) {
                        s.set_pte(vpn, Pte::new(frame, LocalTid(1)));
                    }
                }
            }
            prop_assert_eq!(resident_counts(&s), resident_scan(&s), "after op {}", i);
        }
        prop_assert_eq!(resident_counts(&s).iter().sum::<u64>(), s.rss_pages());
        let back = AddressSpace::restore(&s.snapshot()).expect("restore");
        prop_assert_eq!(resident_counts(&back), resident_scan(&s));
    }

    /// The mapped list the leaf tables yield is exactly the ordered set
    /// of mapped VPNs it replaced, under `map`, `unmap`, `touch` and
    /// `set_pte` flips between present and absent, with VPNs on both
    /// sides of every radix boundary (2^9, 2^18, 2^27) and at the top of
    /// the 2^36 range; a snapshot → restore yields the same list.
    #[test]
    fn mapped_ptes_match_an_ordered_set_model(
        replication in any::<bool>(),
        ops in proptest::collection::vec((0u8..5, 0usize..16, 0usize..3, 0u8..3), 1..200),
    ) {
        use std::collections::BTreeSet;
        use vulcan_json::Snapshot;
        const UNIVERSE: [u64; 16] = [
            0, 1, 511, 512, 513,
            (1 << 18) - 1, 1 << 18, (1 << 18) + 1,
            (1 << 27) - 1, 1 << 27, (1 << 27) + 512, (3 << 27) + (1 << 18),
            (1 << 35) + 7, (1 << 36) - 512, (1 << 36) - 2, (1 << 36) - 1,
        ];
        let mut s = AddressSpace::new(replication);
        // The reference: the ordered set of mapped VPNs, and the regions
        // that have a leaf table (only those accept `set_pte`).
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut regions: BTreeSet<u64> = BTreeSet::new();
        for (i, &(op, u, t, tid)) in ops.iter().enumerate() {
            let v = UNIVERSE[u];
            let vpn = Vpn(v);
            let frame = FrameId { tier: TierKind::ALL[t], index: i as u32 };
            match op {
                0 => {
                    if model.insert(v) {
                        s.map(vpn, frame, LocalTid(tid));
                        regions.insert(v >> 9);
                    }
                }
                1 => {
                    prop_assert_eq!(s.unmap(vpn).is_some(), model.remove(&v));
                }
                2 => {
                    prop_assert_eq!(s.touch(vpn, LocalTid(tid), tid == 0).is_some(), model.contains(&v));
                }
                _ => {
                    // present ⇄ absent through set_pte (migration ② and ⑤).
                    if model.remove(&v) {
                        s.set_pte(vpn, Pte::EMPTY);
                    } else if regions.contains(&(v >> 9)) {
                        s.set_pte(vpn, Pte::new(frame, LocalTid(tid)));
                        model.insert(v);
                    }
                }
            }
            let listed: Vec<(Vpn, Pte)> = s.mapped_ptes().collect();
            let want: Vec<(Vpn, Pte)> = model.iter().map(|&m| (Vpn(m), s.pte(Vpn(m)))).collect();
            prop_assert_eq!(&listed, &want, "after op {}", i);
            prop_assert_eq!(s.rss_pages(), model.len() as u64);
            for &m in &UNIVERSE {
                prop_assert_eq!(s.is_mapped(Vpn(m)), model.contains(&m), "vpn {:#x}", m);
            }
        }
        let snap = s.snapshot();
        let back = AddressSpace::restore(&snap).expect("restore");
        prop_assert!(back.mapped_ptes().eq(s.mapped_ptes()));
        prop_assert!(back.mapped_vpns().map(|v| v.0).eq(model.iter().copied()));
        prop_assert_eq!(back.rss_pages(), model.len() as u64);
        prop_assert_eq!(back.snapshot(), snap);
    }

    /// PTE bit packing is lossless for every frame/owner/flag combination.
    #[test]
    fn pte_roundtrip(frame in arb_frame(), tid in 0u8..=0x7E, a in any::<bool>(), d in any::<bool>(), p in any::<bool>()) {
        let mut pte = Pte::new(frame, LocalTid(tid));
        if a { pte = pte.touch(false); }
        if d { pte = pte.touch(true); }
        pte = pte.with_poisoned(p);
        prop_assert!(pte.present());
        prop_assert_eq!(pte.frame(), Some(frame));
        prop_assert_eq!(pte.owner(), PageOwner::Private(LocalTid(tid)));
        prop_assert_eq!(pte.accessed(), a || d);
        prop_assert_eq!(pte.dirty(), d);
        prop_assert_eq!(pte.poisoned(), p);
    }

    /// map → pte → unmap roundtrips for arbitrary sparse vpn sets.
    #[test]
    fn map_unmap_roundtrip(entries in proptest::collection::btree_map(0u64..(1<<30), arb_frame(), 1..64)) {
        let mut s = AddressSpace::new(true);
        for (&v, &f) in &entries {
            s.map(Vpn(v), f, LocalTid(0));
        }
        prop_assert_eq!(s.rss_pages(), entries.len() as u64);
        for (&v, &f) in &entries {
            prop_assert_eq!(s.pte(Vpn(v)).frame(), Some(f));
        }
        // mapped_vpns agrees with the inserted key set.
        let listed: Vec<u64> = s.mapped_vpns().map(|v| v.0).collect();
        let keys: Vec<u64> = entries.keys().copied().collect();
        prop_assert_eq!(listed, keys);
        for (&v, &f) in &entries {
            let old = s.unmap(Vpn(v)).unwrap();
            prop_assert_eq!(old.frame(), Some(f));
        }
        prop_assert_eq!(s.rss_pages(), 0);
    }

    /// Ownership only moves up the lattice: unowned → private → shared,
    /// and the final state is private iff exactly one thread touched.
    #[test]
    fn ownership_lattice_monotone(touches in proptest::collection::vec(0u8..4, 1..32)) {
        let mut s = AddressSpace::new(true);
        s.map(Vpn(7), FrameId { tier: TierKind::Slow, index: 1 }, LocalTid(touches[0]));
        let mut seen_shared = false;
        for &t in &touches {
            let out = s.touch(Vpn(7), LocalTid(t), false).unwrap();
            if seen_shared {
                prop_assert_eq!(out.pte.owner(), PageOwner::Shared, "shared is absorbing");
            }
            if out.pte.owner() == PageOwner::Shared {
                seen_shared = true;
            }
        }
        let distinct: std::collections::BTreeSet<u8> = touches.iter().copied().collect();
        match s.owner(Vpn(7)).unwrap() {
            PageOwner::Private(t) => {
                prop_assert_eq!(distinct.len(), 1);
                prop_assert_eq!(t, LocalTid(touches[0]));
            }
            PageOwner::Shared => prop_assert!(distinct.len() >= 2),
        }
    }

    /// A TLB never returns a translation that was invalidated and never
    /// exceeds its capacity.
    #[test]
    fn tlb_coherence(ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..200)) {
        let mut tlb = Tlb::new(4, 2); // tiny: forces eviction
        let asid = Asid(1);
        let mut shadow: std::collections::HashMap<u64, u32> = Default::default();
        for (i, &(v, invalidate)) in ops.iter().enumerate() {
            if invalidate {
                tlb.invalidate(asid, Vpn(v));
                shadow.remove(&v);
            } else {
                let f = FrameId { tier: TierKind::Fast, index: i as u32 };
                tlb.insert(asid, Vpn(v), f);
                shadow.insert(v, i as u32);
            }
            prop_assert!(tlb.occupancy() <= 8);
        }
        // Lookups may miss (capacity evictions) but a hit must match the
        // last inserted frame — stale frames are a coherence violation.
        for (&v, &idx) in &shadow {
            if let Some(f) = tlb.lookup(asid, Vpn(v)) {
                prop_assert_eq!(f.index, idx);
            }
        }
    }

    /// The walk-cached address space agrees with a flat shadow model
    /// under arbitrary map/unmap/touch interleavings whose VPNs share
    /// and cross leaf regions (a leaf covers 512 pages) — the access
    /// pattern that would expose a stale cached leaf after unmap/remap.
    #[test]
    fn walk_cache_agrees_with_shadow_model(
        replication in any::<bool>(),
        ops in proptest::collection::vec(
            (0usize..12, 0u8..3, 0u8..4, any::<bool>()),
            1..250,
        ),
    ) {
        // Three leaf regions: two adjacent, one far (distinct L1/L2/L3
        // paths), with VPNs inside each sharing a leaf.
        let universe: [u64; 12] = [
            0, 1, 7, 511,            // region 0
            512, 513, 1023,          // region 1
            1 << 30, (1 << 30) + 1,  // far region
            (1 << 30) + 511, 2 << 30, (2 << 30) + 256,
        ];
        let mut s = AddressSpace::new(replication);
        for t in 0..4 {
            s.register_thread(LocalTid(t));
        }
        // Shadow: vpn -> (frame, owner-model, dirty).
        let mut shadow: std::collections::HashMap<u64, (FrameId, PageOwner, bool)> =
            Default::default();
        for (i, &(vi, kind, tid, write)) in ops.iter().enumerate() {
            let v = universe[vi];
            let tid = LocalTid(tid);
            match kind {
                // map (fresh vpns only: remapping a live page is not a
                // supported transition)
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = shadow.entry(v) {
                        let f = FrameId { tier: TierKind::Fast, index: i as u32 };
                        s.map(Vpn(v), f, tid);
                        e.insert((f, PageOwner::Private(tid), false));
                    }
                }
                // unmap
                1 => {
                    let got = s.unmap(Vpn(v));
                    let want = shadow.remove(&v);
                    prop_assert_eq!(got.map(|p| p.frame()), want.map(|(f, _, _)| Some(f)));
                }
                // touch
                _ => {
                    let got = s.touch(Vpn(v), tid, write);
                    match shadow.get_mut(&v) {
                        None => prop_assert!(got.is_none(), "touch of unmapped {v:#x} hit"),
                        Some(entry) => {
                            let out = got.unwrap();
                            prop_assert_eq!(out.pte.frame(), Some(entry.0));
                            if entry.1 != PageOwner::Private(tid) {
                                entry.1 = PageOwner::Shared;
                            }
                            entry.2 |= write;
                            prop_assert_eq!(out.pte.owner(), entry.1);
                        }
                    }
                }
            }
            // Every probe goes through the caches; any stale leaf shows
            // up as a wrong frame or a phantom mapping.
            prop_assert_eq!(s.rss_pages(), shadow.len() as u64);
            for &u in &universe {
                let pte = s.pte(Vpn(u));
                match shadow.get(&u) {
                    Some(&(f, _, dirty)) => {
                        prop_assert_eq!(pte.frame(), Some(f), "vpn {:#x}", u);
                        prop_assert_eq!(pte.dirty(), dirty, "vpn {:#x}", u);
                    }
                    None => prop_assert_eq!(pte.frame(), None, "vpn {:#x}", u),
                }
            }
        }
    }

    /// Targeted shootdown targets are always a subset of process-wide
    /// targets, and shared pages force all-thread coverage.
    #[test]
    fn targeted_subset_of_process_wide(
        n_threads in 1usize..8,
        page_owners in proptest::collection::vec(0u8..8, 1..16),
    ) {
        let mut p = Process::new(Asid(1), true);
        let mut topo = Topology::new(32);
        for i in 0..n_threads {
            let tid = p.spawn_thread(SimThreadId(i as u32));
            topo.pin(SimThreadId(i as u32), CoreId(i as u16));
            let _ = tid;
        }
        let mut pages = Vec::new();
        for (i, &o) in page_owners.iter().enumerate() {
            let vpn = Vpn(i as u64);
            let owner = LocalTid(o % n_threads as u8);
            p.space.map(vpn, FrameId { tier: TierKind::Slow, index: i as u32 }, owner);
            p.space.touch(vpn, owner, false).unwrap();
            pages.push(vpn);
        }
        let wide = shootdown::plan(&p, &topo, &pages, ShootdownScope::ProcessWide);
        let narrow = shootdown::plan(&p, &topo, &pages, ShootdownScope::Targeted);
        prop_assert!(narrow.targets.is_subset(&wide.targets));
        prop_assert!(!narrow.targets.is_empty());
    }

    /// After executing a shootdown, no target core holds any of the pages.
    #[test]
    fn shootdown_clears_targets(pages in proptest::collection::btree_set(0u64..64, 1..16)) {
        let mut p = Process::new(Asid(3), true);
        let mut topo = Topology::new(8);
        for i in 0..4u32 {
            p.spawn_thread(SimThreadId(i));
            topo.pin(SimThreadId(i), CoreId(i as u16));
        }
        let mut tlbs = TlbArray::new(8);
        let vpns: Vec<Vpn> = pages.iter().map(|&v| Vpn(v)).collect();
        for (i, &vpn) in vpns.iter().enumerate() {
            let owner = LocalTid((i % 4) as u8);
            p.space.map(vpn, FrameId { tier: TierKind::Slow, index: i as u32 }, owner);
            p.space.touch(vpn, owner, false).unwrap();
            // Seed every core's TLB with the page.
            for c in 0..8u16 {
                tlbs.core(CoreId(c)).insert(p.asid, vpn, p.space.pte(vpn).frame().unwrap());
            }
        }
        let plan = shootdown::plan(&p, &topo, &vpns, ShootdownScope::ProcessWide);
        shootdown::execute(&plan, &p, &mut tlbs, &vulcan_sim::MigrationCosts::default(),
                           vulcan_vm::ShootdownMode::Batched);
        for core in plan.targets.iter() {
            for &vpn in &vpns {
                prop_assert_eq!(tlbs.core(core).lookup(p.asid, vpn), None);
            }
        }
    }
}
