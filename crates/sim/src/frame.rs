//! Physical frame allocation within one tier.
//!
//! A simple stack-based free list with an allocation bitmap, plus the
//! low/high watermark logic that policies like TPP use to trigger
//! proactive demotion (§2.1 "Migration policy").

use crate::tier::TierKind;

/// A physical frame: tier plus index within the tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId {
    /// The tier the frame belongs to.
    pub tier: TierKind,
    /// Frame number within the tier.
    pub index: u32,
}

/// Error returned when a tier has no free frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfFrames {
    /// The exhausted tier.
    pub tier: TierKind,
}

impl std::fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "out of frames in {:?} tier", self.tier)
    }
}

impl std::error::Error for OutOfFrames {}

/// Frame allocator for a single tier.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    tier: TierKind,
    capacity: u32,
    free: Vec<u32>,
    allocated: Vec<bool>,
}

impl FrameAllocator {
    /// Create an allocator managing `capacity` frames of `tier`.
    pub fn new(tier: TierKind, capacity: u64) -> Self {
        let capacity = u32::try_from(capacity).expect("tier capacity fits in u32 frames");
        FrameAllocator {
            tier,
            capacity,
            // Pop from the end => allocate low frame numbers first.
            free: (0..capacity).rev().collect(),
            allocated: vec![false; capacity as usize],
        }
    }

    /// The tier this allocator manages.
    pub fn tier(&self) -> TierKind {
        self.tier
    }

    /// Total frames managed.
    pub fn capacity(&self) -> u64 {
        self.capacity as u64
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free.len() as u64
    }

    /// Frames currently allocated.
    pub fn used_frames(&self) -> u64 {
        self.capacity as u64 - self.free_frames()
    }

    /// Fraction of frames in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.used_frames() as f64 / self.capacity as f64
    }

    /// Allocate one frame, lowest-numbered free frame first.
    pub fn alloc(&mut self) -> Result<FrameId, OutOfFrames> {
        match self.free.pop() {
            Some(index) => {
                debug_assert!(!self.allocated[index as usize]);
                self.allocated[index as usize] = true;
                Ok(FrameId {
                    tier: self.tier,
                    index,
                })
            }
            None => Err(OutOfFrames { tier: self.tier }),
        }
    }

    /// Return a frame to the free list.
    ///
    /// # Panics
    /// Panics on double-free or a frame from another tier — both are
    /// simulator bugs, never workload-dependent conditions.
    pub fn free(&mut self, frame: FrameId) {
        assert_eq!(frame.tier, self.tier, "frame from wrong tier");
        let i = frame.index as usize;
        assert!(i < self.capacity as usize, "frame index out of range");
        assert!(self.allocated[i], "double free of {frame:?}");
        self.allocated[i] = false;
        self.free.push(frame.index);
    }

    /// Whether a frame index is currently allocated.
    pub fn is_allocated(&self, index: u32) -> bool {
        (index as usize) < self.allocated.len() && self.allocated[index as usize]
    }

    /// Whether free capacity has fallen below `fraction` of the total
    /// (watermark check used by TPP-style proactive reclaim).
    pub fn below_watermark(&self, fraction: f64) -> bool {
        (self.free_frames() as f64) < fraction * self.capacity as f64
    }
}

impl vulcan_json::Snapshot for FrameAllocator {
    /// The free list is serialized *in stack order*: which frame the next
    /// `alloc` hands out is behavioral, so the order must survive the
    /// round trip verbatim. The allocation bitmap is its complement and
    /// is rebuilt rather than stored.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let free: Vec<u64> = self.free.iter().map(|&i| i as u64).collect();
        snap::obj(vec![
            ("tier", Value::Str(self.tier.name().to_string())),
            ("capacity", snap::u64_value(self.capacity as u64)),
            ("free", snap::u64_array(&free)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let name = snap::field_str(v, "tier")?;
        let tier = TierKind::from_name(name).ok_or_else(|| format!("unknown tier {name:?}"))?;
        let capacity = u32::try_from(snap::field_u64(v, "capacity")?)
            .map_err(|_| "allocator capacity out of u32 range".to_string())?;
        let mut allocated = vec![true; capacity as usize];
        let mut free = Vec::new();
        for x in snap::array_u64(snap::field(v, "free")?)? {
            let i = u32::try_from(x)
                .ok()
                .filter(|&i| i < capacity)
                .ok_or_else(|| format!("free frame {x} out of range 0..{capacity}"))?;
            if !std::mem::replace(&mut allocated[i as usize], false) {
                return Err(format!("free frame {i} listed twice"));
            }
            free.push(i);
        }
        Ok(FrameAllocator {
            tier,
            capacity,
            free,
            allocated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = FrameAllocator::new(TierKind::Fast, 4);
        let f = a.alloc().unwrap();
        assert_eq!(f.tier, TierKind::Fast);
        assert!(a.is_allocated(f.index));
        assert_eq!(a.used_frames(), 1);
        a.free(f);
        assert_eq!(a.used_frames(), 0);
        assert!(!a.is_allocated(f.index));
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut a = FrameAllocator::new(TierKind::Slow, 2);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(
            a.alloc(),
            Err(OutOfFrames {
                tier: TierKind::Slow
            })
        );
    }

    #[test]
    fn distinct_frames() {
        let mut a = FrameAllocator::new(TierKind::Fast, 100);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.alloc().unwrap().index));
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(TierKind::Fast, 2);
        let f = a.alloc().unwrap();
        a.free(f);
        a.free(f);
    }

    #[test]
    #[should_panic(expected = "wrong tier")]
    fn cross_tier_free_panics() {
        let mut a = FrameAllocator::new(TierKind::Fast, 2);
        a.free(FrameId {
            tier: TierKind::Slow,
            index: 0,
        });
    }

    #[test]
    fn watermark() {
        let mut a = FrameAllocator::new(TierKind::Fast, 10);
        assert!(!a.below_watermark(0.2));
        for _ in 0..9 {
            a.alloc().unwrap();
        }
        assert!(a.below_watermark(0.2)); // 1 free < 2
        assert!((a.utilization() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn freed_frames_are_reusable() {
        let mut a = FrameAllocator::new(TierKind::Fast, 1);
        let f = a.alloc().unwrap();
        a.free(f);
        let g = a.alloc().unwrap();
        assert_eq!(f, g);
    }
}
