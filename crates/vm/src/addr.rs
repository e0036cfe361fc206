//! Virtual addresses and page numbers.
//!
//! The simulator works at page granularity: workloads emit virtual page
//! numbers (VPNs). A VPN decomposes into four 9-bit radix indices exactly
//! like an x86-64 4-level page table (PGD → PUD → PMD → PTE).

/// A virtual page number (address >> 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

/// Bits of radix index per page-table level.
pub const LEVEL_BITS: u32 = 9;

/// Entries per page-table node (512 on x86-64).
pub const FANOUT: usize = 1 << LEVEL_BITS;

/// Number of levels in the radix tree (PGD, PUD, PMD, PT).
pub const LEVELS: usize = 4;

/// Bits of a VPN the four radix levels translate: every mapped VPN is
/// below `1 << VPN_BITS`. Above it the top-level index would wrap and
/// alias a low address.
pub const VPN_BITS: u32 = LEVEL_BITS * LEVELS as u32;

impl Vpn {
    /// Radix index at `level`, where level 3 = top (PGD) and level 0 =
    /// leaf (PT).
    pub fn index(self, level: usize) -> usize {
        debug_assert!(level < LEVELS);
        ((self.0 >> (LEVEL_BITS as usize * level)) & (FANOUT as u64 - 1)) as usize
    }

    /// The VPN of the 2 MiB-aligned huge page containing this page.
    pub fn huge_base(self) -> Vpn {
        Vpn(self.0 & !(vulcan_sim::HUGE_PAGE_PAGES as u64 - 1))
    }

    /// Offset of this base page within its huge page.
    pub fn huge_offset(self) -> usize {
        (self.0 & (vulcan_sim::HUGE_PAGE_PAGES as u64 - 1)) as usize
    }

    /// The byte address of the start of this page.
    pub fn byte_addr(self) -> u64 {
        self.0 << 12
    }
}

impl From<u64> for Vpn {
    fn from(v: u64) -> Self {
        Vpn(v)
    }
}

/// A contiguous virtual page range `[start, start + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VpnRange {
    /// First page of the range.
    pub start: Vpn,
    /// Number of pages.
    pub len: u64,
}

impl VpnRange {
    /// Construct a range of `len` pages starting at `start`.
    pub fn new(start: Vpn, len: u64) -> Self {
        VpnRange { start, len }
    }

    /// Iterate every VPN in the range.
    pub fn iter(self) -> impl Iterator<Item = Vpn> {
        (self.start.0..self.start.0 + self.len).map(Vpn)
    }

    /// Whether `vpn` falls in the range.
    pub fn contains(self, vpn: Vpn) -> bool {
        vpn.0 >= self.start.0 && vpn.0 < self.start.0 + self.len
    }

    /// The page at `offset` within the range.
    pub fn at(self, offset: u64) -> Vpn {
        debug_assert!(offset < self.len);
        Vpn(self.start.0 + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_indices() {
        // vpn = 1·512³ + 2·512² + 3·512 + 4
        let vpn = Vpn((1 << 27) + (2 << 18) + (3 << 9) + 4);
        assert_eq!(vpn.index(3), 1);
        assert_eq!(vpn.index(2), 2);
        assert_eq!(vpn.index(1), 3);
        assert_eq!(vpn.index(0), 4);
    }

    #[test]
    fn index_masks_to_nine_bits() {
        let vpn = Vpn(u64::MAX >> 16);
        for level in 0..LEVELS {
            assert!(vpn.index(level) < FANOUT);
        }
    }

    #[test]
    fn huge_page_decomposition() {
        let vpn = Vpn(512 * 3 + 17);
        assert_eq!(vpn.huge_base(), Vpn(512 * 3));
        assert_eq!(vpn.huge_offset(), 17);
        assert_eq!(vpn.huge_base().huge_offset(), 0);
    }

    #[test]
    fn byte_addr() {
        assert_eq!(Vpn(2).byte_addr(), 8192);
    }

    #[test]
    fn range_iteration_and_membership() {
        let r = VpnRange::new(Vpn(10), 5);
        let all: Vec<_> = r.iter().collect();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], Vpn(10));
        assert_eq!(all[4], Vpn(14));
        assert!(r.contains(Vpn(10)));
        assert!(r.contains(Vpn(14)));
        assert!(!r.contains(Vpn(15)));
        assert!(!r.contains(Vpn(9)));
        assert_eq!(r.at(3), Vpn(13));
    }
}
