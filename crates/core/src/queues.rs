//! The biased page-migration policy: four priority queues plus MLFQ
//! aging (§3.5, Table 1).
//!
//! | Page type | R/W pattern      | Priority | Strategy   |
//! |-----------|------------------|----------|------------|
//! | Private   | Read-intensive   | ★★★★     | Async copy |
//! | Shared    | Read-intensive   | ★★★      | Async copy |
//! | Private   | Write-intensive  | ★★       | Sync copy  |
//! | Shared    | Write-intensive  | ★        | Sync copy  |
//!
//! Private pages need a single-core TLB shootdown; read-intensive pages
//! migrate safely with cheap asynchronous copies. Within a queue, pages
//! drain in heat order; an MLFQ mechanism bumps pages whose heat keeps
//! rising into higher-priority queues so nothing stagnates.

use std::cmp::Reverse;
use std::collections::HashMap;
use vulcan_profile::PageStats;
use vulcan_vm::{PageOwner, Vpn};

/// Write-intensity threshold: at or above this write ratio a page is
/// write-intensive (Table 1's R/W pattern split).
pub const WRITE_INTENSIVE_RATIO: f64 = 0.25;

/// The four classes of Table 1, ordered by descending priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageClass {
    /// Private + read-intensive: ★★★★, async copy.
    PrivateRead,
    /// Shared + read-intensive: ★★★, async copy.
    SharedRead,
    /// Private + write-intensive: ★★, sync copy.
    PrivateWrite,
    /// Shared + write-intensive: ★, sync copy.
    SharedWrite,
}

impl PageClass {
    /// All classes, highest priority first.
    pub const ALL: [PageClass; 4] = [
        PageClass::PrivateRead,
        PageClass::SharedRead,
        PageClass::PrivateWrite,
        PageClass::SharedWrite,
    ];

    /// Star rating from Table 1 (4 = highest).
    pub fn stars(self) -> u8 {
        match self {
            PageClass::PrivateRead => 4,
            PageClass::SharedRead => 3,
            PageClass::PrivateWrite => 2,
            PageClass::SharedWrite => 1,
        }
    }

    /// Table 1's migration strategy: async for read-intensive classes.
    pub fn use_async(self) -> bool {
        matches!(self, PageClass::PrivateRead | PageClass::SharedRead)
    }

    /// Queue index (0 = highest priority).
    pub fn index(self) -> usize {
        4 - self.stars() as usize
    }
}

/// Classify a page from its ownership and sampled access pattern.
pub fn classify(owner: PageOwner, stats: &PageStats) -> PageClass {
    let write = stats.write_intensive(WRITE_INTENSIVE_RATIO);
    match (owner, write) {
        (PageOwner::Private(_), false) => PageClass::PrivateRead,
        (PageOwner::Shared, false) => PageClass::SharedRead,
        (PageOwner::Private(_), true) => PageClass::PrivateWrite,
        (PageOwner::Shared, true) => PageClass::SharedWrite,
    }
}

/// A heat as an integer sort key. Heat is a decayed EMA of sample
/// counts — finite and non-negative, never `-0.0` — and the IEEE bits of
/// such values order exactly like the values, so a comparison on the key
/// equals `partial_cmp` on the heat.
pub(crate) fn heat_key(heat: f64) -> u64 {
    assert!(
        heat.is_finite() && heat.is_sign_positive(),
        "heat {heat} is not a non-negative finite EMA"
    );
    heat.to_bits()
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    vpn: Vpn,
    heat: f64,
    age: u32,
    class: PageClass,
}

/// Drain order within a level: hottest first, ties by ascending VPN. A
/// level never holds a VPN twice (`refill` takes distinct candidates,
/// `note_failed` dedups), so the order is total and an unstable sort
/// equals a stable one.
fn sort_level(level: &mut [Entry]) {
    level.sort_unstable_by_key(|e| (Reverse(heat_key(e.heat)), e.vpn.0));
}

/// VPNs below this index the age table directly; the rare VPN above it
/// spills into a map. The bound (the heat table's dense limit) keeps a
/// VPN — say, one read from a checkpointed queue — from sizing the table.
const AGE_DENSE_LIMIT: u64 = 1 << 21;

/// The MLFQ ages `refill` carries from the old queues to the new ones,
/// keyed by VPN: a dense epoch-stamped table, so a refill neither hashes
/// nor clears it. A slot holds `epoch << 32 | age` and is live only while
/// its epoch is current. Working state only, never serialized (a restored
/// queue restamps its ages at the next refill).
#[derive(Clone, Debug, Default)]
struct AgeTable {
    slots: Vec<u64>,
    /// Ages of this epoch for VPNs at or above [`AGE_DENSE_LIMIT`].
    spill: HashMap<u64, u32>,
    epoch: u32,
}

impl AgeTable {
    /// Retire every stored age and cover VPNs below `span` (capped at
    /// [`AGE_DENSE_LIMIT`]); the table only grows.
    fn next_epoch(&mut self, span: u64) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2^32 epochs ago would look current.
            self.slots.fill(0);
            self.epoch = 1;
        }
        let span = span.min(AGE_DENSE_LIMIT) as usize;
        if self.slots.len() < span {
            self.slots.resize(span, 0);
        }
        self.spill.clear();
    }

    /// Record `vpn`'s age for this epoch; a later `set` of the same VPN
    /// wins. A dense VPN beyond the covered span cannot be asked for this
    /// epoch, so it is not stored.
    fn set(&mut self, vpn: u64, age: u32) {
        if vpn >= AGE_DENSE_LIMIT {
            self.spill.insert(vpn, age);
        } else if let Some(slot) = self.slots.get_mut(vpn as usize) {
            *slot = u64::from(self.epoch) << 32 | u64::from(age);
        }
    }

    /// `vpn`'s age recorded this epoch, if any.
    fn get(&self, vpn: u64) -> Option<u32> {
        if vpn >= AGE_DENSE_LIMIT {
            return self.spill.get(&vpn).copied();
        }
        let slot = *self.slots.get(vpn as usize)?;
        (slot >> 32 == u64::from(self.epoch)).then_some(slot as u32)
    }
}

/// The four promotion queues with MLFQ aging.
#[derive(Clone, Debug, Default)]
pub struct PromotionQueues {
    queues: [Vec<Entry>; 4],
    /// Quanta a page must wait before being bumped one queue up.
    aging_quanta: u32,
    ages: AgeTable,
}

/// Pages drained from the queues, ready to migrate.
#[derive(Clone, Debug, Default)]
pub struct DrainPlan {
    /// Pages to migrate asynchronously (read-intensive classes).
    pub async_pages: Vec<Vpn>,
    /// Pages to migrate synchronously (write-intensive classes).
    pub sync_pages: Vec<Vpn>,
}

impl DrainPlan {
    /// Total pages drained.
    pub fn len(&self) -> usize {
        self.async_pages.len() + self.sync_pages.len()
    }

    /// Whether nothing was drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PromotionQueues {
    /// Queues with the default aging interval (2 quanta per bump).
    pub fn new() -> Self {
        PromotionQueues {
            queues: Default::default(),
            aging_quanta: 2,
            ages: AgeTable::default(),
        }
    }

    /// Re-enqueue this quantum's candidates, which carry distinct VPNs.
    /// Ages carried over from pages already queued are preserved (the
    /// MLFQ memory); pages that disappeared from the candidate set are
    /// dropped.
    pub fn refill(&mut self, candidates: impl IntoIterator<Item = (Vpn, PageClass, f64)>) {
        let candidates: Vec<(Vpn, PageClass, f64)> = candidates.into_iter().collect();
        let span = candidates
            .iter()
            .map(|(vpn, _, _)| vpn.0.saturating_add(1))
            .max()
            .unwrap_or(0);
        let PromotionQueues {
            queues,
            aging_quanta,
            ages,
        } = self;
        ages.next_epoch(span);
        // Level order, so a VPN that `note_failed` left in two levels
        // carries the age of its entry in the later one.
        for q in queues.iter_mut() {
            for e in q.drain(..) {
                ages.set(e.vpn.0, e.age);
            }
        }
        for (vpn, class, heat) in candidates {
            let age = ages.get(vpn.0).map_or(0, |a| a + 1);
            // MLFQ: waiting promotes a page `age / aging_quanta` levels.
            let boost = (age / (*aging_quanta).max(1)) as usize;
            let level = class.index().saturating_sub(boost);
            queues[level].push(Entry {
                vpn,
                heat,
                age,
                class,
            });
        }
        for q in queues.iter_mut() {
            sort_level(q);
        }
    }

    /// Pages currently queued at `level` (0 = ★★★★), hottest first.
    pub fn level(&self, level: usize) -> Vec<Vpn> {
        self.queues[level].iter().map(|e| e.vpn).collect()
    }

    /// Total queued pages.
    pub fn len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-enqueue pages whose migration failed transiently (destination
    /// full, injected copy fault), with an MLFQ age bump: a page that
    /// already earned a migration slot should not start over at the
    /// bottom when the mechanism — not the page — failed. The bump is
    /// one full aging interval, so the page sits one level above its
    /// class until it drains, and the carried age keeps the boost across
    /// subsequent refills.
    pub fn note_failed(&mut self, pages: impl IntoIterator<Item = (Vpn, PageClass, f64)>) {
        let mut touched = [false; 4];
        for (vpn, class, heat) in pages {
            let age = self.aging_quanta.max(1);
            let level = class.index().saturating_sub(1);
            // Drop a duplicate still queued at this level (refill dedups
            // naturally; a mid-quantum requeue must not).
            self.queues[level].retain(|e| e.vpn != vpn);
            self.queues[level].push(Entry {
                vpn,
                heat,
                age,
                class,
            });
            touched[level] = true;
        }
        for (level, q) in self.queues.iter_mut().enumerate() {
            if touched[level] {
                sort_level(q);
            }
        }
    }

    /// Drain up to `budget` pages in strict priority order, splitting
    /// them by Table 1's strategy. Drained pages leave the queues.
    pub fn drain(&mut self, budget: usize) -> DrainPlan {
        let mut plan = DrainPlan::default();
        let mut left = budget;
        for q in self.queues.iter_mut() {
            if left == 0 {
                break;
            }
            let take = left.min(q.len());
            for e in q.drain(..take) {
                // MLFQ aging raises a page's *priority*, never its copy
                // strategy: Table 1's async/sync split is about copy
                // safety, which follows the page's original class.
                if e.class.use_async() {
                    plan.async_pages.push(e.vpn);
                } else {
                    plan.sync_pages.push(e.vpn);
                }
            }
            left -= take;
        }
        plan
    }
}

impl vulcan_json::Snapshot for PromotionQueues {
    /// Each queue level serializes as parallel arrays in queue order
    /// (order is behavioral: `drain` takes from the front). Carried ages
    /// are the MLFQ memory; the original class travels with each entry
    /// because an aged page's *level* no longer encodes its copy strategy.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let levels: Vec<Value> = self
            .queues
            .iter()
            .map(|q| {
                let vpns: Vec<u64> = q.iter().map(|e| e.vpn.0).collect();
                let heats: Vec<f64> = q.iter().map(|e| e.heat).collect();
                let ages: Vec<u64> = q.iter().map(|e| u64::from(e.age)).collect();
                let classes: Vec<u64> = q.iter().map(|e| e.class.index() as u64).collect();
                snap::obj(vec![
                    ("vpns", snap::u64_array(&vpns)),
                    ("heats", snap::f64_array(&heats)),
                    ("ages", snap::u64_array(&ages)),
                    ("classes", snap::u64_array(&classes)),
                ])
            })
            .collect();
        snap::obj(vec![
            ("levels", Value::Array(levels)),
            (
                "aging_quanta",
                snap::u64_value(u64::from(self.aging_quanta)),
            ),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let levels = snap::field_array(v, "levels")?;
        if levels.len() != 4 {
            return Err(format!(
                "expected 4 promotion queues, found {}",
                levels.len()
            ));
        }
        let mut queues: [Vec<Entry>; 4] = Default::default();
        for (level, lv) in levels.iter().enumerate() {
            let vpns = snap::array_u64(snap::field(lv, "vpns")?)?;
            let heats = snap::array_f64(snap::field(lv, "heats")?)?;
            let ages = snap::array_u64(snap::field(lv, "ages")?)?;
            let classes = snap::array_u64(snap::field(lv, "classes")?)?;
            if heats.len() != vpns.len() || ages.len() != vpns.len() || classes.len() != vpns.len()
            {
                return Err(format!("queue {level} arrays have mismatched lengths"));
            }
            for i in 0..vpns.len() {
                let class = *PageClass::ALL
                    .get(classes[i] as usize)
                    .ok_or_else(|| format!("queue {level}: bad class code {}", classes[i]))?;
                if !(heats[i].is_finite() && heats[i].is_sign_positive()) {
                    return Err(format!(
                        "queue {level}: heat {} is not a non-negative finite EMA",
                        heats[i]
                    ));
                }
                queues[level].push(Entry {
                    vpn: Vpn(vpns[i]),
                    heat: heats[i],
                    age: u32::try_from(ages[i])
                        .map_err(|_| format!("queue {level}: age {} out of range", ages[i]))?,
                    class,
                });
            }
        }
        Ok(PromotionQueues {
            queues,
            aging_quanta: u32::try_from(snap::field_u64(v, "aging_quanta")?)
                .map_err(|_| "aging_quanta out of range".to_string())?,
            ages: AgeTable::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_vm::LocalTid;

    fn stats(reads: f64, writes: f64) -> PageStats {
        PageStats {
            heat: reads + writes,
            reads,
            writes,
        }
    }

    #[test]
    fn table1_classification() {
        let private = PageOwner::Private(LocalTid(1));
        let shared = PageOwner::Shared;
        assert_eq!(classify(private, &stats(9.0, 1.0)), PageClass::PrivateRead);
        assert_eq!(classify(shared, &stats(9.0, 1.0)), PageClass::SharedRead);
        assert_eq!(classify(private, &stats(1.0, 9.0)), PageClass::PrivateWrite);
        assert_eq!(classify(shared, &stats(1.0, 9.0)), PageClass::SharedWrite);
    }

    #[test]
    fn table1_priorities_and_strategies() {
        assert_eq!(PageClass::PrivateRead.stars(), 4);
        assert_eq!(PageClass::SharedRead.stars(), 3);
        assert_eq!(PageClass::PrivateWrite.stars(), 2);
        assert_eq!(PageClass::SharedWrite.stars(), 1);
        assert!(PageClass::PrivateRead.use_async());
        assert!(PageClass::SharedRead.use_async());
        assert!(!PageClass::PrivateWrite.use_async());
        assert!(!PageClass::SharedWrite.use_async());
        // Read-intensive shared outranks write-intensive private: "the
        // overhead of page copying is lower than that of TLB shootdowns".
        assert!(PageClass::SharedRead.stars() > PageClass::PrivateWrite.stars());
    }

    #[test]
    fn drain_respects_priority_order() {
        let mut q = PromotionQueues::new();
        q.refill([
            (Vpn(1), PageClass::SharedWrite, 100.0),
            (Vpn(2), PageClass::PrivateRead, 1.0),
            (Vpn(3), PageClass::SharedRead, 50.0),
        ]);
        let plan = q.drain(2);
        // Highest-priority queue first even though its page is coldest.
        assert_eq!(plan.async_pages, vec![Vpn(2), Vpn(3)]);
        assert!(plan.sync_pages.is_empty());
        assert_eq!(q.len(), 1, "shared-write page remains queued");
    }

    #[test]
    fn within_queue_heat_order() {
        let mut q = PromotionQueues::new();
        q.refill([
            (Vpn(1), PageClass::PrivateRead, 1.0),
            (Vpn(2), PageClass::PrivateRead, 9.0),
            (Vpn(3), PageClass::PrivateRead, 5.0),
        ]);
        assert_eq!(q.level(0), vec![Vpn(2), Vpn(3), Vpn(1)]);
    }

    #[test]
    fn write_intensive_pages_drain_to_sync() {
        let mut q = PromotionQueues::new();
        q.refill([
            (Vpn(1), PageClass::PrivateWrite, 5.0),
            (Vpn(2), PageClass::SharedWrite, 5.0),
        ]);
        let plan = q.drain(10);
        assert!(plan.async_pages.is_empty());
        assert_eq!(plan.sync_pages, vec![Vpn(1), Vpn(2)]);
    }

    #[test]
    fn mlfq_aging_bumps_stagnant_pages() {
        let mut q = PromotionQueues::new();
        // A shared-write page never drained keeps aging; after enough
        // quanta it reaches the top queue.
        for _ in 0..10 {
            q.refill([(Vpn(7), PageClass::SharedWrite, 1.0)]);
        }
        assert_eq!(q.level(0), vec![Vpn(7)], "aged to the top");
        // But its copy strategy remains sync (write-intensive).
        let plan = q.drain(1);
        assert_eq!(plan.sync_pages, vec![Vpn(7)]);
        assert!(plan.async_pages.is_empty());
    }

    #[test]
    fn refill_drops_stale_candidates() {
        let mut q = PromotionQueues::new();
        q.refill([(Vpn(1), PageClass::PrivateRead, 1.0)]);
        q.refill([(Vpn(2), PageClass::PrivateRead, 1.0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.level(0), vec![Vpn(2)]);
    }

    #[test]
    fn note_failed_requeues_with_age_bump() {
        let mut q = PromotionQueues::new();
        q.refill([(Vpn(1), PageClass::SharedWrite, 5.0)]);
        let plan = q.drain(1);
        assert_eq!(plan.sync_pages, vec![Vpn(1)]);
        assert!(q.is_empty());
        // Transient failure: the page returns one level above its class.
        q.note_failed([(Vpn(1), PageClass::SharedWrite, 5.0)]);
        assert_eq!(q.level(PageClass::SharedWrite.index() - 1), vec![Vpn(1)]);
        // The bump persists across the next refill (carried age ≥ one
        // aging interval) instead of resetting to the bottom queue.
        q.refill([(Vpn(1), PageClass::SharedWrite, 5.0)]);
        assert!(
            q.level(PageClass::SharedWrite.index()).is_empty(),
            "failed page does not start over at the bottom"
        );
        // Requeueing a page already queued does not duplicate it.
        q.note_failed([(Vpn(1), PageClass::SharedWrite, 5.0)]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_mlfq_ages() {
        use vulcan_json::Snapshot;
        let mut q = PromotionQueues::new();
        // Age a shared-write page partway up the ladder, keep a fresh
        // read page in its home queue, and requeue a transient failure —
        // three distinct (age, level, class) shapes in one snapshot.
        for _ in 0..4 {
            q.refill([
                (Vpn(7), PageClass::SharedWrite, 1.0),
                (Vpn(2), PageClass::PrivateRead, 9.0),
            ]);
        }
        q.note_failed([(Vpn(5), PageClass::PrivateWrite, 3.0)]);
        let snap_v = q.snapshot();
        let mut back = PromotionQueues::restore(&snap_v).unwrap();
        assert_eq!(back.snapshot(), snap_v, "idempotent round trip");
        // Continuation: the carried ages drive the next refill's levels
        // and the original classes drive the async/sync split.
        let cands = [
            (Vpn(7), PageClass::SharedWrite, 1.0),
            (Vpn(2), PageClass::PrivateRead, 9.0),
            (Vpn(5), PageClass::PrivateWrite, 3.0),
        ];
        q.refill(cands);
        back.refill(cands);
        for level in 0..4 {
            assert_eq!(back.level(level), q.level(level), "level {level}");
        }
        let (p1, p2) = (q.drain(8), back.drain(8));
        assert_eq!(p1.async_pages, p2.async_pages);
        assert_eq!(p1.sync_pages, p2.sync_pages);
    }

    #[test]
    fn restore_rejects_bad_class_code() {
        use vulcan_json::{Snapshot, Value};
        let mut q = PromotionQueues::new();
        q.refill([(Vpn(1), PageClass::PrivateRead, 1.0)]);
        let Value::Object(mut o) = q.snapshot() else {
            panic!("snapshot is an object")
        };
        let Some(Value::Array(levels)) = o.get("levels").cloned() else {
            panic!("levels is an array")
        };
        let mut levels = levels;
        let Value::Object(l0) = &mut levels[0] else {
            panic!("level is an object")
        };
        l0.insert("classes", vulcan_json::snap::u64_array(&[9]));
        o.insert("levels", Value::Array(levels));
        let err = PromotionQueues::restore(&Value::Object(o)).unwrap_err();
        assert!(err.contains("bad class code"), "{err}");
    }

    /// The refill this crate shipped before the epoch-stamped age table:
    /// a SipHash map of every queued page's age (last insert wins) and a
    /// stable sort per level. Kept as the reference `refill` must match.
    fn refill_reference(
        q: &mut PromotionQueues,
        candidates: impl IntoIterator<Item = (Vpn, PageClass, f64)>,
    ) {
        let mut ages: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for level in &q.queues {
            for e in level {
                ages.insert(e.vpn.0, e.age);
            }
        }
        for level in &mut q.queues {
            level.clear();
        }
        for (vpn, class, heat) in candidates {
            let age = ages.get(&vpn.0).map_or(0, |&a| a + 1);
            let boost = (age / q.aging_quanta.max(1)) as usize;
            let level = class.index().saturating_sub(boost);
            q.queues[level].push(Entry {
                vpn,
                heat,
                age,
                class,
            });
        }
        for level in &mut q.queues {
            stable_sort_reference(level);
        }
    }

    /// The matching reference `note_failed`: the same dedup and requeue,
    /// with the stable sort.
    fn note_failed_reference(q: &mut PromotionQueues, pages: &[(Vpn, PageClass, f64)]) {
        let mut touched = [false; 4];
        for &(vpn, class, heat) in pages {
            let age = q.aging_quanta.max(1);
            let level = class.index().saturating_sub(1);
            q.queues[level].retain(|e| e.vpn != vpn);
            q.queues[level].push(Entry {
                vpn,
                heat,
                age,
                class,
            });
            touched[level] = true;
        }
        for (level, entries) in q.queues.iter_mut().enumerate() {
            if touched[level] {
                stable_sort_reference(entries);
            }
        }
    }

    fn stable_sort_reference(level: &mut [Entry]) {
        level.sort_by(|a, b| {
            b.heat
                .partial_cmp(&a.heat)
                .unwrap()
                .then(a.vpn.0.cmp(&b.vpn.0))
        });
    }

    /// Every queued entry as (level, VPN, heat bits, age, class), in
    /// queue order.
    fn entries(q: &PromotionQueues) -> Vec<(usize, u64, u64, u32, PageClass)> {
        q.queues
            .iter()
            .enumerate()
            .flat_map(|(l, level)| {
                level
                    .iter()
                    .map(move |e| (l, e.vpn.0, e.heat.to_bits(), e.age, e.class))
            })
            .collect()
    }

    /// Heats with ties, and a VPN space that wraps past the dense age
    /// table into its spill.
    const HEATS: [f64; 6] = [0.0, 0.1, 0.5, 1.0, 3.25, 7.0];

    fn page((v, c, h): (u64, usize, usize)) -> (Vpn, PageClass, f64) {
        let vpn = if v < 40 { v } else { AGE_DENSE_LIMIT + v };
        (Vpn(vpn), PageClass::ALL[c], HEATS[h])
    }

    proptest::proptest! {
        /// `refill` (and `note_failed`) reproduce the reference exactly —
        /// level, order, age and class of every entry, and every drain —
        /// across refills, transient-failure requeues that leave a VPN at
        /// two levels, drains, and a snapshot → restore that empties the
        /// age table mid-sequence.
        #[test]
        fn refill_matches_the_siphash_reference(
            ops in proptest::collection::vec(
                (
                    0u8..4,
                    proptest::collection::vec((0u64..48, 0usize..4, 0usize..6), 0..24),
                    0usize..12,
                ),
                1..40,
            ),
        ) {
            use vulcan_json::Snapshot;
            let mut fast = PromotionQueues::new();
            let mut reference = PromotionQueues::new();
            for (i, (kind, raw, budget)) in ops.into_iter().enumerate() {
                let pages: Vec<(Vpn, PageClass, f64)> = raw.into_iter().map(page).collect();
                match kind {
                    0 => {
                        // Candidates come from the heat table: distinct VPNs.
                        let mut seen = std::collections::BTreeSet::new();
                        let cands: Vec<_> =
                            pages.into_iter().filter(|p| seen.insert(p.0)).collect();
                        fast.refill(cands.clone());
                        refill_reference(&mut reference, cands);
                    }
                    1 => {
                        fast.note_failed(pages.clone());
                        note_failed_reference(&mut reference, &pages);
                    }
                    2 => {
                        let (a, b) = (fast.drain(budget), reference.drain(budget));
                        proptest::prop_assert_eq!(a.async_pages, b.async_pages);
                        proptest::prop_assert_eq!(a.sync_pages, b.sync_pages);
                    }
                    _ => {
                        let snap_v = fast.snapshot();
                        proptest::prop_assert_eq!(&snap_v, &reference.snapshot());
                        fast = PromotionQueues::restore(&snap_v).expect("restore");
                    }
                }
                proptest::prop_assert_eq!(entries(&fast), entries(&reference), "after op {}", i);
            }
        }
    }

    #[test]
    fn refill_keeps_the_last_age_of_a_page_queued_at_two_levels() {
        let mut q = PromotionQueues::new();
        // Age a shared-write page up one level (age 3 → level 2)...
        for _ in 0..4 {
            q.refill([(Vpn(3), PageClass::SharedWrite, 1.0)]);
        }
        assert_eq!(q.level(2), vec![Vpn(3)]);
        // ...then a transient failure requeues it as a private-read page
        // at level 0 (age 2) without touching level 2: it is queued twice.
        q.note_failed([(Vpn(3), PageClass::PrivateRead, 1.0)]);
        assert_eq!(q.len(), 2);
        // The later level's entry (age 3) wins, as with the map's last
        // insert: age 4 lifts the page two levels, to level 1. The
        // level-0 entry's age would have left it at level 2.
        q.refill([(Vpn(3), PageClass::SharedWrite, 1.0)]);
        assert_eq!(
            entries(&q),
            vec![(1, 3, 1.0f64.to_bits(), 4, PageClass::SharedWrite)]
        );
    }

    #[test]
    fn age_table_spills_large_vpns_and_retires_old_epochs() {
        let mut t = AgeTable::default();
        t.next_epoch(8);
        t.set(3, 5);
        t.set(100, 1); // beyond the span: never asked for this epoch
        t.set(AGE_DENSE_LIMIT + 7, 9);
        assert_eq!(t.get(3), Some(5));
        assert_eq!(t.get(100), None);
        assert_eq!(t.get(AGE_DENSE_LIMIT + 7), Some(9));
        assert_eq!(
            t.slots.len(),
            8,
            "sized by the span, not by the VPNs stored"
        );
        t.next_epoch(u64::MAX);
        assert_eq!(t.get(3), None, "a new epoch retires every age");
        assert_eq!(t.get(AGE_DENSE_LIMIT + 7), None);
        assert_eq!(t.slots.len() as u64, AGE_DENSE_LIMIT, "the span is capped");
    }

    #[test]
    fn restore_rejects_a_heat_that_is_no_ema() {
        use vulcan_json::{Snapshot, Value};
        for bad in [-1.0, -0.0, f64::NAN, f64::INFINITY] {
            let mut q = PromotionQueues::new();
            q.refill([(Vpn(1), PageClass::PrivateRead, 1.0)]);
            let Value::Object(mut o) = q.snapshot() else {
                panic!("snapshot is an object")
            };
            let Some(Value::Array(mut levels)) = o.get("levels").cloned() else {
                panic!("levels is an array")
            };
            let Value::Object(l0) = &mut levels[0] else {
                panic!("level is an object")
            };
            l0.insert("heats", vulcan_json::snap::f64_array(&[bad]));
            o.insert("levels", Value::Array(levels));
            let err = PromotionQueues::restore(&Value::Object(o)).unwrap_err();
            assert!(
                err.contains("not a non-negative finite EMA"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn budget_limits_drain() {
        let mut q = PromotionQueues::new();
        q.refill((0..10).map(|i| (Vpn(i), PageClass::PrivateRead, i as f64)));
        let plan = q.drain(3);
        assert_eq!(plan.len(), 3);
        assert_eq!(q.len(), 7);
        let empty = PromotionQueues::new().drain(5);
        assert!(empty.is_empty());
    }
}
