//! Cache geometry of the KSR-1 memory hierarchy and address decomposition.
//!
//! From §2 of the paper, per processing cell:
//!
//! * **sub-cache** (first level): 0.25 MB data, 2-way set associative,
//!   *allocated* in 2 KB blocks, *filled* in 64 B sub-blocks from the
//!   local cache, random replacement;
//! * **local cache** (second level): 32 MB, 16-way set associative,
//!   *allocated* in 16 KB pages, *transferred* over the ring in 128 B
//!   sub-pages (the coherence unit), random replacement.
//!
//! The `scaled()` preset shrinks both capacities by a constant factor while
//! keeping every transfer/allocation unit intact, so kernel experiments can
//! run scaled-down problem sizes and still hit the paper's capacity
//! crossovers at the same processor counts (see DESIGN.md §1).

use ksr_core::{Error, Result};

/// Size of a coherence/transfer sub-page on the ring: 128 bytes.
pub const SUBPAGE_BYTES: u64 = 128;
/// Local-cache allocation unit: 16 KB pages.
pub const PAGE_BYTES: u64 = 16 * 1024;
/// Sub-cache fill unit: 64 B sub-blocks.
pub const SUBBLOCK_BYTES: u64 = 64;
/// Sub-cache allocation unit: 2 KB blocks.
pub const BLOCK_BYTES: u64 = 2 * 1024;

/// Sub-pages per local-cache page.
pub const SUBPAGES_PER_PAGE: usize = (PAGE_BYTES / SUBPAGE_BYTES) as usize;
/// Sub-blocks per sub-cache block.
pub const SUBBLOCKS_PER_BLOCK: usize = (BLOCK_BYTES / SUBBLOCK_BYTES) as usize;

/// Capacity/associativity description of the two cache levels in one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGeometry {
    /// Sub-cache data capacity in bytes (KSR-1: 256 KB).
    pub subcache_bytes: u64,
    /// Sub-cache associativity (KSR-1: 2).
    pub subcache_ways: usize,
    /// Local-cache capacity in bytes (KSR-1: 32 MB).
    pub localcache_bytes: u64,
    /// Local-cache associativity (KSR-1: 16).
    pub localcache_ways: usize,
}

impl MemGeometry {
    /// The real KSR-1 geometry.
    #[must_use]
    pub fn ksr1() -> Self {
        Self {
            subcache_bytes: 256 * 1024,
            subcache_ways: 2,
            localcache_bytes: 32 * 1024 * 1024,
            localcache_ways: 16,
        }
    }

    /// Geometry with both capacities divided by `factor` (transfer units
    /// unchanged). Used together with problem sizes scaled by the same
    /// factor so that *data-per-processor vs. cache-capacity* ratios — the
    /// quantity the paper's CG and IS analyses revolve around — are
    /// preserved.
    ///
    /// # Panics
    /// Panics if the scaled geometry fails validation (factor too large).
    #[must_use]
    pub fn scaled(factor: u64) -> Self {
        let g = Self {
            subcache_bytes: 256 * 1024 / factor,
            subcache_ways: 2,
            localcache_bytes: 32 * 1024 * 1024 / factor,
            localcache_ways: 16,
        };
        g.validate().expect("scale factor too aggressive");
        g
    }

    /// Number of sets in the sub-cache.
    #[must_use]
    pub fn subcache_sets(&self) -> usize {
        (self.subcache_bytes / BLOCK_BYTES) as usize / self.subcache_ways
    }

    /// Number of sets in the local cache.
    #[must_use]
    pub fn localcache_sets(&self) -> usize {
        (self.localcache_bytes / PAGE_BYTES) as usize / self.localcache_ways
    }

    /// Validate the geometry.
    ///
    /// # Errors
    /// [`Error::Config`] when an associativity is zero, a capacity is not
    /// a whole number of sets, or a cache's set count is not a power of
    /// two (zero included).
    pub fn validate(&self) -> Result<()> {
        if self.subcache_ways == 0 || self.localcache_ways == 0 {
            return Err(Error::Config("associativity must be non-zero".into()));
        }
        if !self.subcache_bytes.is_multiple_of(BLOCK_BYTES)
            || !((self.subcache_bytes / BLOCK_BYTES) as usize).is_multiple_of(self.subcache_ways)
        {
            return Err(Error::Config(format!(
                "sub-cache size {} must be a multiple of {} x {} bytes",
                self.subcache_bytes, self.subcache_ways, BLOCK_BYTES
            )));
        }
        if !self.localcache_bytes.is_multiple_of(PAGE_BYTES)
            || !((self.localcache_bytes / PAGE_BYTES) as usize).is_multiple_of(self.localcache_ways)
        {
            return Err(Error::Config(format!(
                "local-cache size {} must be a multiple of {} x {} bytes",
                self.localcache_bytes, self.localcache_ways, PAGE_BYTES
            )));
        }
        // The caches pick a set with `index & (sets - 1)`; this also
        // rejects a cache with no sets.
        for (cache, sets) in [
            ("sub-cache", self.subcache_sets()),
            ("local-cache", self.localcache_sets()),
        ] {
            if !sets.is_power_of_two() {
                return Err(Error::Config(format!(
                    "{cache} set count {sets} is not a power of two"
                )));
            }
        }
        Ok(())
    }
}

/// Index of the 128 B sub-page containing `addr` (global, across all of
/// SVA space). This is also the ring interleave key and the hot-spot
/// serialization unit.
#[must_use]
pub fn subpage_of(addr: u64) -> u64 {
    addr / SUBPAGE_BYTES
}

/// Index of the 16 KB page containing `addr`.
#[must_use]
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_BYTES
}

/// Index of the 2 KB sub-cache block containing `addr`.
#[must_use]
pub fn block_of(addr: u64) -> u64 {
    addr / BLOCK_BYTES
}

/// Index of the 64 B sub-block containing `addr`.
#[must_use]
pub fn subblock_of(addr: u64) -> u64 {
    addr / SUBBLOCK_BYTES
}

/// Sub-block slot (0..31) of `addr` within its block.
#[must_use]
pub fn subblock_slot_in_block(addr: u64) -> usize {
    ((addr % BLOCK_BYTES) / SUBBLOCK_BYTES) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ksr1_geometry_matches_the_paper() {
        let g = MemGeometry::ksr1();
        g.validate().unwrap();
        // 256 KB / (2 KB blocks x 2 ways) = 64 sets.
        assert_eq!(g.subcache_sets(), 64);
        // 32 MB / (16 KB pages x 16 ways) = 128 sets.
        assert_eq!(g.localcache_sets(), 128);
    }

    #[test]
    fn units_are_the_papers() {
        assert_eq!(SUBPAGE_BYTES, 128);
        assert_eq!(PAGE_BYTES, 16 * 1024);
        assert_eq!(SUBBLOCK_BYTES, 64);
        assert_eq!(BLOCK_BYTES, 2 * 1024);
        assert_eq!(SUBPAGES_PER_PAGE, 128);
        assert_eq!(SUBBLOCKS_PER_BLOCK, 32);
    }

    #[test]
    fn scaled_preserves_structure() {
        let g = MemGeometry::scaled(64);
        g.validate().unwrap();
        assert_eq!(g.subcache_bytes, 4 * 1024);
        assert_eq!(g.localcache_bytes, 512 * 1024);
        assert_eq!(g.subcache_ways, 2);
        assert_eq!(g.localcache_ways, 16);
        assert!(g.subcache_sets() >= 1);
        assert!(g.localcache_sets() >= 1);
    }

    #[test]
    fn set_counts_must_be_powers_of_two() {
        // 12 KB / (2 KB blocks x 2 ways) = 3 sets.
        let g = MemGeometry {
            subcache_bytes: 12 * 1024,
            ..MemGeometry::ksr1()
        };
        assert_eq!(
            g.validate(),
            Err(Error::Config(
                "sub-cache set count 3 is not a power of two".into()
            ))
        );
        // 48 KB / (16 KB pages x 1 way) = 3 sets.
        let g = MemGeometry {
            localcache_bytes: 48 * 1024,
            localcache_ways: 1,
            ..MemGeometry::ksr1()
        };
        assert_eq!(
            g.validate(),
            Err(Error::Config(
                "local-cache set count 3 is not a power of two".into()
            ))
        );
        let g = MemGeometry {
            subcache_bytes: 0,
            ..MemGeometry::ksr1()
        };
        assert_eq!(
            g.validate(),
            Err(Error::Config(
                "sub-cache set count 0 is not a power of two".into()
            ))
        );
        // Every shipped geometry passes: 64/128 sets and 1/2 sets.
        MemGeometry::ksr1().validate().unwrap();
        let g = MemGeometry::scaled(64);
        assert_eq!((g.subcache_sets(), g.localcache_sets()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn absurd_scale_rejected() {
        let _ = MemGeometry::scaled(1 << 20);
    }

    #[test]
    fn address_decomposition() {
        let addr = 3 * PAGE_BYTES + 5 * SUBPAGE_BYTES + 17;
        assert_eq!(page_of(addr), 3);
        assert_eq!(subpage_of(addr), 3 * 128 + 5);
        let addr = 7 * BLOCK_BYTES + 2 * SUBBLOCK_BYTES + 1;
        assert_eq!(block_of(addr), 7);
        assert_eq!(subblock_of(addr), 7 * 32 + 2);
        assert_eq!(subblock_slot_in_block(addr), 2);
    }

    #[test]
    fn adjacent_subpages_alternate_interleave_parity() {
        let a = subpage_of(0);
        let b = subpage_of(SUBPAGE_BYTES);
        assert_eq!(a % 2, 0);
        assert_eq!(b % 2, 1);
    }
}
