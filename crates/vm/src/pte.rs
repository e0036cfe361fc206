//! Page-table entries with Vulcan's thread-ownership bits.
//!
//! The paper's implementation (§4) adds a 7-bit `thread_id` field to PTEs
//! using the architecturally ignored bits 52–58 of x86-64 leaf entries,
//! encoding either the owning thread's id or the all-ones pattern (0x7F)
//! for shared pages. We pack the same layout into a `u64`:
//!
//! ```text
//! bit  0      present
//! bit  1      writable
//! bit  5      accessed      (hardware A bit, used by table scanning)
//! bit  6      dirty         (hardware D bit, used by migration copy)
//! bit  8      hint-poisoned (reserved-bit NUMA hinting fault, §2.1)
//! bits 9–10   frame tier    (chain index: 00 = fast, 01 = slow, 10 = nvm)
//! bits 12–51  frame index
//! bits 52–58  thread owner  (0x7F = shared)
//! ```

use vulcan_sim::{FrameId, TierKind};

/// A thread id local to one process, fitting in the PTE's 7-bit field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalTid(pub u8);

/// Owner encoding stored in PTE bits 52–58.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageOwner {
    /// Exactly one thread has ever touched the page.
    Private(LocalTid),
    /// Two or more threads share the page (encoded 0x7F).
    Shared,
}

/// The all-ones owner pattern marking a shared page.
pub const SHARED_TID: u8 = 0x7F;

/// Maximum usable per-process thread id (0x7E; 0x7F is reserved).
pub const MAX_LOCAL_TID: u8 = SHARED_TID - 1;

const PRESENT: u64 = 1 << 0;
const WRITABLE: u64 = 1 << 1;
const ACCESSED: u64 = 1 << 5;
const DIRTY: u64 = 1 << 6;
const POISONED: u64 = 1 << 8;
// Two-bit tier field holding the frame's chain index. Fast (00) and
// Slow (01) keep the layout of the original single TIER_SLOW bit; Nvm
// (10) extends into previously-unused bit 10.
const TIER_SHIFT: u32 = 9;
const TIER_MASK: u64 = 0b11 << TIER_SHIFT;
const FRAME_SHIFT: u32 = 12;
const FRAME_MASK: u64 = ((1u64 << 40) - 1) << FRAME_SHIFT;
const OWNER_SHIFT: u32 = 52;
const OWNER_MASK: u64 = 0x7F << OWNER_SHIFT;

/// A packed page-table entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pte(pub u64);

impl Pte {
    /// The canonical not-present entry.
    pub const EMPTY: Pte = Pte(0);

    /// Build a present, writable entry mapping `frame` owned by `owner`.
    pub fn new(frame: FrameId, owner: LocalTid) -> Pte {
        assert!(
            owner.0 <= MAX_LOCAL_TID,
            "tid {owner:?} exceeds 7-bit field"
        );
        let mut bits = PRESENT | WRITABLE;
        bits |= (frame.index as u64) << FRAME_SHIFT;
        bits |= (frame.tier.index() as u64) << TIER_SHIFT;
        bits |= (owner.0 as u64) << OWNER_SHIFT;
        Pte(bits)
    }

    /// Whether the entry maps a frame.
    pub fn present(self) -> bool {
        self.0 & PRESENT != 0
    }

    /// The tier of the mapped frame without panicking on a corrupt
    /// entry: `Ok(None)` when not present, `Err(field)` when the two-bit
    /// tier field holds `0b11`, which no chain tier encodes. Checkpoint
    /// restore validates untrusted PTE words through this.
    pub(crate) fn try_tier(self) -> Result<Option<TierKind>, usize> {
        if !self.present() {
            return Ok(None);
        }
        TierKind::try_from(((self.0 & TIER_MASK) >> TIER_SHIFT) as usize).map(Some)
    }

    /// The mapped frame, if present.
    pub fn frame(self) -> Option<FrameId> {
        let tier = self
            .try_tier()
            .unwrap_or_else(|i| panic!("PTE tier field {i} is not a valid chain index"))?;
        Some(FrameId {
            tier,
            index: ((self.0 & FRAME_MASK) >> FRAME_SHIFT) as u32,
        })
    }

    /// Replace the mapped frame, keeping flags and owner (remap step ⑤).
    pub fn with_frame(self, frame: FrameId) -> Pte {
        let mut bits = self.0 & !(FRAME_MASK | TIER_MASK);
        bits |= (frame.index as u64) << FRAME_SHIFT;
        bits |= (frame.tier.index() as u64) << TIER_SHIFT;
        Pte(bits)
    }

    /// The owner field.
    pub fn owner(self) -> PageOwner {
        let raw = ((self.0 & OWNER_MASK) >> OWNER_SHIFT) as u8;
        if raw == SHARED_TID {
            PageOwner::Shared
        } else {
            PageOwner::Private(LocalTid(raw))
        }
    }

    /// Set the owner field.
    pub fn with_owner(self, owner: PageOwner) -> Pte {
        let raw = match owner {
            PageOwner::Private(t) => {
                assert!(t.0 <= MAX_LOCAL_TID);
                t.0
            }
            PageOwner::Shared => SHARED_TID,
        };
        Pte((self.0 & !OWNER_MASK) | ((raw as u64) << OWNER_SHIFT))
    }

    /// Hardware accessed bit.
    pub fn accessed(self) -> bool {
        self.0 & ACCESSED != 0
    }

    /// Hardware dirty bit.
    pub fn dirty(self) -> bool {
        self.0 & DIRTY != 0
    }

    /// Record an access (sets A, and D when `write`).
    pub fn touch(self, write: bool) -> Pte {
        let mut bits = self.0 | ACCESSED;
        if write {
            bits |= DIRTY;
        }
        Pte(bits)
    }

    /// Clear the accessed bit (page-table scanning profiler).
    pub fn clear_accessed(self) -> Pte {
        Pte(self.0 & !ACCESSED)
    }

    /// Clear the dirty bit (after a successful copy).
    pub fn clear_dirty(self) -> Pte {
        Pte(self.0 & !DIRTY)
    }

    /// Whether the entry is poisoned for NUMA-hinting faults.
    pub fn poisoned(self) -> bool {
        self.0 & POISONED != 0
    }

    /// Poison / unpoison for hint-fault profiling (§2.1).
    pub fn with_poisoned(self, p: bool) -> Pte {
        if p {
            Pte(self.0 | POISONED)
        } else {
            Pte(self.0 & !POISONED)
        }
    }

    /// The tier the mapped frame lives in, if present.
    pub fn tier(self) -> Option<TierKind> {
        self.frame().map(|f| f.tier)
    }
}

/// Ownership-lattice transition applied when `tid` touches a page:
/// unowned → private(tid) → shared. Returns the new owner.
pub fn merge_owner(current: PageOwner, tid: LocalTid) -> PageOwner {
    match current {
        PageOwner::Private(t) if t == tid => current,
        PageOwner::Private(_) => PageOwner::Shared,
        PageOwner::Shared => PageOwner::Shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tier: TierKind, index: u32) -> FrameId {
        FrameId { tier, index }
    }

    #[test]
    fn roundtrip_fast_frame() {
        let f = frame(TierKind::Fast, 0xABCDE);
        let pte = Pte::new(f, LocalTid(5));
        assert!(pte.present());
        assert_eq!(pte.frame(), Some(f));
        assert_eq!(pte.owner(), PageOwner::Private(LocalTid(5)));
        assert_eq!(pte.tier(), Some(TierKind::Fast));
    }

    #[test]
    fn roundtrip_slow_frame() {
        let f = frame(TierKind::Slow, 7);
        let pte = Pte::new(f, LocalTid(0));
        assert_eq!(pte.frame(), Some(f));
        assert_eq!(pte.tier(), Some(TierKind::Slow));
    }

    #[test]
    fn roundtrip_nvm_frame() {
        let f = frame(TierKind::Nvm, 42);
        let pte = Pte::new(f, LocalTid(2)).touch(true);
        assert_eq!(pte.frame(), Some(f));
        assert_eq!(pte.tier(), Some(TierKind::Nvm));
        // Two-tier encodings are unchanged: the Nvm bit never appears in
        // fast/slow entries, and remapping down-chain clears it.
        let back = pte.with_frame(frame(TierKind::Slow, 7));
        assert_eq!(back.tier(), Some(TierKind::Slow));
        assert!(back.dirty(), "flags survive the remap");
    }

    #[test]
    fn try_tier_reports_the_invalid_field_instead_of_panicking() {
        let pte = Pte::new(frame(TierKind::Nvm, 3), LocalTid(0));
        assert_eq!(pte.try_tier(), Ok(Some(TierKind::Nvm)));
        assert_eq!(Pte::EMPTY.try_tier(), Ok(None));
        let corrupt = Pte(pte.0 | TIER_MASK);
        assert_eq!(corrupt.try_tier(), Err(3));
        // A not-present word is never decoded, whatever its tier bits say.
        assert_eq!(Pte(TIER_MASK).try_tier(), Ok(None));
    }

    #[test]
    fn empty_is_not_present() {
        assert!(!Pte::EMPTY.present());
        assert_eq!(Pte::EMPTY.frame(), None);
        assert_eq!(Pte::EMPTY.tier(), None);
    }

    #[test]
    fn with_frame_preserves_flags_and_owner() {
        let pte = Pte::new(frame(TierKind::Slow, 3), LocalTid(9)).touch(true);
        let moved = pte.with_frame(frame(TierKind::Fast, 100));
        assert_eq!(moved.frame(), Some(frame(TierKind::Fast, 100)));
        assert_eq!(moved.owner(), PageOwner::Private(LocalTid(9)));
        assert!(moved.accessed() && moved.dirty());
    }

    #[test]
    fn accessed_and_dirty_bits() {
        let pte = Pte::new(frame(TierKind::Fast, 1), LocalTid(0));
        assert!(!pte.accessed() && !pte.dirty());
        let read = pte.touch(false);
        assert!(read.accessed() && !read.dirty());
        let written = read.touch(true);
        assert!(written.accessed() && written.dirty());
        assert!(!written.clear_accessed().accessed());
        assert!(!written.clear_dirty().dirty());
        // Clearing one bit leaves the other.
        assert!(written.clear_accessed().dirty());
    }

    #[test]
    fn owner_encoding_boundaries() {
        let pte = Pte::new(frame(TierKind::Fast, 1), LocalTid(MAX_LOCAL_TID));
        assert_eq!(pte.owner(), PageOwner::Private(LocalTid(0x7E)));
        let shared = pte.with_owner(PageOwner::Shared);
        assert_eq!(shared.owner(), PageOwner::Shared);
        // Frame untouched by owner update.
        assert_eq!(shared.frame(), pte.frame());
    }

    #[test]
    #[should_panic(expected = "7-bit field")]
    fn tid_0x7f_is_reserved() {
        Pte::new(frame(TierKind::Fast, 0), LocalTid(SHARED_TID));
    }

    #[test]
    fn poison_bit() {
        let pte = Pte::new(frame(TierKind::Slow, 2), LocalTid(1));
        assert!(!pte.poisoned());
        let p = pte.with_poisoned(true);
        assert!(p.poisoned());
        assert!(p.present(), "poisoning must not unmap");
        assert!(!p.with_poisoned(false).poisoned());
    }

    #[test]
    fn owner_lattice() {
        let a = LocalTid(1);
        let b = LocalTid(2);
        assert_eq!(merge_owner(PageOwner::Private(a), a), PageOwner::Private(a));
        assert_eq!(merge_owner(PageOwner::Private(a), b), PageOwner::Shared);
        assert_eq!(merge_owner(PageOwner::Shared, a), PageOwner::Shared);
    }

    #[test]
    fn large_frame_index_survives() {
        let f = frame(TierKind::Fast, u32::MAX);
        let pte = Pte::new(f, LocalTid(3));
        assert_eq!(pte.frame(), Some(f));
        assert_eq!(pte.owner(), PageOwner::Private(LocalTid(3)));
    }
}
