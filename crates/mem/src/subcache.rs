//! The per-cell first-level cache ("sub-cache").
//!
//! 2-way set associative, allocated in 2 KB blocks, filled on demand in
//! 64 B sub-blocks from the local cache, random replacement (§2). The
//! sub-cache holds no coherence state of its own — permissions live at the
//! local-cache/directory level — but its presence bits determine whether an
//! access costs 2 cycles or ~18, and the 2 KB *allocation* unit is what
//! produces the "+50% access time at block-allocating strides" measurement
//! of §3.1.

use ksr_core::XorShift64;

use crate::geometry::{block_of, subblock_slot_in_block, MemGeometry, BLOCK_BYTES, SUBPAGE_BYTES};

const EMPTY_TAG: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct BlockWay {
    /// Block index (`addr / 2 KB`), or `EMPTY_TAG`.
    tag: u64,
    /// Presence bitmask over the 32 sub-blocks of the block.
    present: u32,
}

/// Result of touching an address in the sub-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubCacheFill {
    /// Sub-block already present: a sub-cache hit.
    Hit,
    /// Block descriptor present, sub-block fetched from the local cache.
    FilledSubBlock,
    /// A new 2 KB block was allocated (and possibly a victim evicted)
    /// before the sub-block was fetched.
    AllocatedBlock {
        /// Block index of the evicted victim, if a non-empty way was chosen.
        evicted: Option<u64>,
    },
}

/// One cell's sub-cache (data side; the instruction side is not modelled —
/// the paper's experiments are data-access bound).
#[derive(Debug, Clone)]
pub struct SubCache {
    /// `sets - 1`: the set count is a power of two (see
    /// [`MemGeometry::validate`]), so `block & set_mask` picks the set.
    set_mask: u64,
    ways: usize,
    entries: Vec<BlockWay>,
    rng: XorShift64,
}

impl SubCache {
    /// Build an empty sub-cache for the given geometry; `rng` drives the
    /// random replacement policy.
    ///
    /// # Panics
    /// Panics unless the geometry's sub-cache set count is a power of
    /// two, which [`MemGeometry::validate`] guarantees.
    #[must_use]
    pub fn new(geom: &MemGeometry, rng: XorShift64) -> Self {
        let sets = geom.subcache_sets();
        assert!(
            sets.is_power_of_two(),
            "sub-cache set count {sets} is not a power of two"
        );
        let ways = geom.subcache_ways;
        Self {
            set_mask: sets as u64 - 1,
            ways,
            entries: vec![
                BlockWay {
                    tag: EMPTY_TAG,
                    present: 0
                };
                sets * ways
            ],
            rng,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    fn ways_of(&mut self, set: usize) -> &mut [BlockWay] {
        &mut self.entries[set * self.ways..(set + 1) * self.ways]
    }

    /// Whether the sub-block containing `addr` is present (a 2-cycle hit).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let block = block_of(addr);
        let set = self.set_of(block);
        let slot = subblock_slot_in_block(addr);
        self.entries[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|w| w.tag == block && w.present & (1 << slot) != 0)
    }

    /// Bring the sub-block containing `addr` in (if absent), allocating the
    /// block if needed. Returns what had to happen — the caller translates
    /// that into cycles.
    pub fn touch(&mut self, addr: u64) -> SubCacheFill {
        let block = block_of(addr);
        let set = self.set_of(block);
        let slot = subblock_slot_in_block(addr);
        let ways = self.ways;
        // Hit or sub-block fill in an existing way?
        let lane = set * ways;
        for i in 0..ways {
            let w = &mut self.entries[lane + i];
            if w.tag == block {
                return if w.present & (1 << slot) != 0 {
                    SubCacheFill::Hit
                } else {
                    w.present |= 1 << slot;
                    SubCacheFill::FilledSubBlock
                };
            }
        }
        // Allocate: prefer an empty way, else evict a random victim.
        let victim_way = {
            let lane_ways = self.ways_of(set);
            match lane_ways.iter().position(|w| w.tag == EMPTY_TAG) {
                Some(i) => i,
                None => self.rng.next_index(ways),
            }
        };
        let w = &mut self.entries[lane + victim_way];
        let evicted = (w.tag != EMPTY_TAG).then_some(w.tag);
        *w = BlockWay {
            tag: block,
            present: 1 << slot,
        };
        SubCacheFill::AllocatedBlock { evicted }
    }

    /// Drop the two sub-blocks covering a 128 B sub-page (called when the
    /// coherence protocol invalidates that sub-page in this cell).
    pub fn invalidate_subpage(&mut self, subpage: u64) {
        let addr = subpage * SUBPAGE_BYTES;
        let block = block_of(addr);
        let set = self.set_of(block);
        let first_slot = subblock_slot_in_block(addr);
        let mask: u32 = 0b11 << first_slot;
        for w in self.ways_of(set) {
            if w.tag == block {
                w.present &= !mask;
            }
        }
    }

    /// Drop every sub-block belonging to a 16 KB local-cache page (called
    /// when that page is evicted from the local cache — the hierarchy is
    /// inclusive: a sub-cache copy must be backed by a local-cache copy).
    pub fn invalidate_page(&mut self, page: u64) {
        let first_block = page * (crate::geometry::PAGE_BYTES / BLOCK_BYTES);
        let blocks = crate::geometry::PAGE_BYTES / BLOCK_BYTES;
        for block in first_block..first_block + blocks {
            let set = self.set_of(block);
            for w in self.ways_of(set) {
                if w.tag == block {
                    w.tag = EMPTY_TAG;
                    w.present = 0;
                }
            }
        }
    }

    /// Drop everything (used by the latency experiment's "fill the
    /// sub-cache with B" methodology only in tests; the measured code path
    /// flushes by re-reading, exactly like the paper).
    pub fn flush(&mut self) {
        for w in &mut self.entries {
            *w = BlockWay {
                tag: EMPTY_TAG,
                present: 0,
            };
        }
    }

    /// Number of resident blocks (diagnostics).
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.entries.iter().filter(|w| w.tag != EMPTY_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SubCache {
        SubCache::new(&MemGeometry::ksr1(), XorShift64::new(1))
    }

    #[test]
    fn cold_access_allocates_then_hits() {
        let mut c = cache();
        assert!(!c.contains(0x1234));
        assert_eq!(
            c.touch(0x1234),
            SubCacheFill::AllocatedBlock { evicted: None }
        );
        assert!(c.contains(0x1234));
        assert_eq!(c.touch(0x1234), SubCacheFill::Hit);
    }

    #[test]
    fn same_block_different_subblock_fills_without_alloc() {
        let mut c = cache();
        c.touch(0);
        assert_eq!(c.touch(64), SubCacheFill::FilledSubBlock);
        assert_eq!(c.touch(65), SubCacheFill::Hit, "same sub-block");
    }

    #[test]
    fn block_allocating_stride_always_allocates() {
        // The §3.1 stride experiment: every access to a new 2 KB block.
        let mut c = cache();
        for i in 0..10u64 {
            match c.touch(i * BLOCK_BYTES) {
                SubCacheFill::AllocatedBlock { .. } => {}
                other => panic!("expected allocation, got {other:?}"),
            }
        }
    }

    #[test]
    fn eviction_after_ways_exhausted() {
        let mut c = cache();
        let sets = MemGeometry::ksr1().subcache_sets() as u64;
        // Three blocks mapping to the same set of a 2-way cache.
        let b0 = 0;
        let b1 = sets * BLOCK_BYTES;
        let b2 = 2 * sets * BLOCK_BYTES;
        c.touch(b0);
        c.touch(b1);
        match c.touch(b2) {
            SubCacheFill::AllocatedBlock {
                evicted: Some(victim),
            } => {
                assert!(victim == block_of(b0) || victim == block_of(b1));
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // Exactly one of b0/b1 survived.
        let survivors = [b0, b1].iter().filter(|&&a| c.contains(a)).count();
        assert_eq!(survivors, 1);
        assert!(c.contains(b2));
    }

    #[test]
    fn random_replacement_is_seed_deterministic() {
        let sets = MemGeometry::ksr1().subcache_sets() as u64;
        let run = |seed: u64| {
            let mut c = SubCache::new(&MemGeometry::ksr1(), XorShift64::new(seed));
            for k in 0..64u64 {
                c.touch(k * sets * BLOCK_BYTES);
            }
            (0..64u64)
                .filter(|&k| c.contains(k * sets * BLOCK_BYTES))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn invalidate_subpage_clears_both_subblocks() {
        let mut c = cache();
        c.touch(0); // sub-block 0 of sub-page 0
        c.touch(64); // sub-block 1 of sub-page 0
        c.touch(128); // sub-page 1
        c.invalidate_subpage(0);
        assert!(!c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(128), "neighbouring sub-page untouched");
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = cache();
        c.touch(0);
        c.touch(4096);
        assert_eq!(c.resident_blocks(), 2);
        c.flush();
        assert_eq!(c.resident_blocks(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn invalidate_page_clears_all_its_blocks() {
        let mut c = cache();
        // Touch all 8 blocks of page 0 and one block of page 1.
        for b in 0..8u64 {
            c.touch(b * BLOCK_BYTES);
        }
        c.touch(8 * BLOCK_BYTES); // first block of page 1
        c.invalidate_page(0);
        for b in 0..8u64 {
            assert!(!c.contains(b * BLOCK_BYTES), "block {b} should be gone");
        }
        assert!(c.contains(8 * BLOCK_BYTES), "page 1 untouched");
    }

    #[test]
    fn capacity_bounded_by_geometry() {
        let mut c = cache();
        // Touch far more distinct blocks than capacity (128 blocks total).
        for i in 0..1000u64 {
            c.touch(i * BLOCK_BYTES);
        }
        assert_eq!(c.resident_blocks(), 128);
    }
}
