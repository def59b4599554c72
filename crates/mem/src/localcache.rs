//! The per-cell second-level cache ("local cache") — page-frame side.
//!
//! 32 MB, 16-way set associative, allocated in 16 KB pages, random
//! replacement (§2). Sub-page *coherence states* live in the global
//! [`crate::directory`]; this structure tracks which page frames are
//! resident in each cell, because residency is what gates place-holders
//! (snarfing/poststore refill eligibility) and what a page eviction
//! destroys.

use ksr_core::{Error, Result, XorShift64};

use crate::geometry::{page_of, MemGeometry};

const EMPTY_TAG: u64 = u64::MAX;

/// Result of ensuring a page frame is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageAlloc {
    /// The page was already resident.
    AlreadyPresent,
    /// A frame was allocated; if a victim page had to be evicted, its page
    /// index is reported so the protocol can purge its sub-pages.
    Allocated {
        /// Evicted page index, if any.
        evicted: Option<u64>,
    },
}

/// One cell's local-cache page-frame directory.
#[derive(Debug, Clone)]
pub struct LocalCache {
    /// `sets - 1`: the set count is a power of two (see
    /// [`MemGeometry::validate`]), so `page & set_mask` picks the set.
    set_mask: u64,
    ways: usize,
    tags: Vec<u64>,
    rng: XorShift64,
}

impl LocalCache {
    /// Build an empty local cache; `rng` drives random replacement.
    ///
    /// # Panics
    /// Panics unless the geometry's local-cache set count is a power of
    /// two, which [`MemGeometry::validate`] guarantees.
    #[must_use]
    pub fn new(geom: &MemGeometry, rng: XorShift64) -> Self {
        let sets = geom.localcache_sets();
        assert!(
            sets.is_power_of_two(),
            "local-cache set count {sets} is not a power of two"
        );
        let ways = geom.localcache_ways;
        Self {
            set_mask: sets as u64 - 1,
            ways,
            tags: vec![EMPTY_TAG; sets * ways],
            rng,
        }
    }

    fn set_of(&self, page: u64) -> usize {
        (page & self.set_mask) as usize
    }

    /// Whether the page containing `addr` is resident.
    #[must_use]
    pub fn page_present(&self, addr: u64) -> bool {
        let page = page_of(addr);
        let set = self.set_of(page);
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&page)
    }

    /// Allocate a frame for the page containing `addr` if needed.
    pub fn ensure_page(&mut self, addr: u64) -> PageAlloc {
        self.ensure_page_with(addr, |_| true)
    }

    /// Like [`Self::ensure_page`], but a resident victim page is only
    /// evicted if `evictable(page)` allows it — the protocol uses this to
    /// keep pages holding an `Atomic` sub-page pinned (a locked sub-page
    /// cannot be silently dropped).
    ///
    /// # Panics
    /// Panics where [`Self::try_ensure_page_with`] reports an error: the
    /// set is full and *no* way is evictable, meaning the simulated
    /// program holds more sub-page locks than the hardware could.
    pub fn ensure_page_with(&mut self, addr: u64, evictable: impl Fn(u64) -> bool) -> PageAlloc {
        self.try_ensure_page_with(addr, evictable)
            .unwrap_or_else(|e| {
                panic!("replacement invariant (every full set keeps one evictable way) broken: {e}")
            })
    }

    /// Fallible form of [`Self::ensure_page_with`]: returns a typed
    /// [`Error::Protocol`] instead of panicking when every way of the
    /// target set is pinned by an atomic sub-page.
    pub fn try_ensure_page_with(
        &mut self,
        addr: u64,
        evictable: impl Fn(u64) -> bool,
    ) -> Result<PageAlloc> {
        let page = page_of(addr);
        let set = self.set_of(page);
        let lane = set * self.ways;
        if self.tags[lane..lane + self.ways].contains(&page) {
            return Ok(PageAlloc::AlreadyPresent);
        }
        let way = match self.tags[lane..lane + self.ways]
            .iter()
            .position(|&t| t == EMPTY_TAG)
        {
            Some(i) => i,
            None => {
                // Random replacement over the evictable ways.
                let candidates: Vec<usize> = (0..self.ways)
                    .filter(|&i| evictable(self.tags[lane + i]))
                    .collect();
                if candidates.is_empty() {
                    return Err(Error::Protocol(format!(
                        "all {} ways of local-cache set {set} are pinned by \
                         atomic sub-pages",
                        self.ways
                    )));
                }
                candidates[self.rng.next_index(candidates.len())]
            }
        };
        let ways = &mut self.tags[lane..lane + self.ways];
        let evicted = (ways[way] != EMPTY_TAG).then_some(ways[way]);
        ways[way] = page;
        Ok(PageAlloc::Allocated { evicted })
    }

    /// Drop a page frame (used when the protocol migrates the last copy
    /// away or a test wants a cold cache).
    pub fn drop_page(&mut self, page: u64) {
        let set = self.set_of(page);
        let lane = set * self.ways;
        for t in &mut self.tags[lane..lane + self.ways] {
            if *t == page {
                *t = EMPTY_TAG;
            }
        }
    }

    /// Number of resident pages (diagnostics).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PAGE_BYTES;

    fn cache() -> LocalCache {
        LocalCache::new(&MemGeometry::ksr1(), XorShift64::new(2))
    }

    #[test]
    fn allocate_then_present() {
        let mut c = cache();
        assert!(!c.page_present(0));
        assert_eq!(c.ensure_page(0), PageAlloc::Allocated { evicted: None });
        assert!(c.page_present(0));
        assert_eq!(c.ensure_page(100), PageAlloc::AlreadyPresent, "same page");
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut c = cache();
        c.ensure_page(0);
        c.ensure_page(PAGE_BYTES);
        assert_eq!(c.resident_pages(), 2);
    }

    #[test]
    fn eviction_when_set_full() {
        let mut c = cache();
        let sets = MemGeometry::ksr1().localcache_sets() as u64;
        // 16 ways + 1 conflicting page.
        for i in 0..16u64 {
            assert_eq!(
                c.ensure_page(i * sets * PAGE_BYTES),
                PageAlloc::Allocated { evicted: None }
            );
        }
        match c.ensure_page(16 * sets * PAGE_BYTES) {
            PageAlloc::Allocated { evicted: Some(_) } => {}
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.resident_pages(), 16);
    }

    #[test]
    fn drop_page_frees_frame() {
        let mut c = cache();
        c.ensure_page(0);
        c.drop_page(0);
        assert!(!c.page_present(0));
        assert_eq!(c.resident_pages(), 0);
    }

    #[test]
    fn replacement_is_seed_deterministic() {
        let sets = MemGeometry::ksr1().localcache_sets() as u64;
        let run = |seed| {
            let mut c = LocalCache::new(&MemGeometry::ksr1(), XorShift64::new(seed));
            for i in 0..40u64 {
                c.ensure_page(i * sets * PAGE_BYTES);
            }
            (0..40u64)
                .filter(|&i| c.page_present(i * sets * PAGE_BYTES))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let mut c = cache();
        let sets = MemGeometry::ksr1().localcache_sets() as u64;
        for i in 0..16u64 {
            c.ensure_page(i * sets * PAGE_BYTES);
        }
        // Pin page 0; the conflicting allocation must evict someone else.
        match c.ensure_page_with(16 * sets * PAGE_BYTES, |p| p != 0) {
            PageAlloc::Allocated {
                evicted: Some(victim),
            } => assert_ne!(victim, 0),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.page_present(0));
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn all_ways_pinned_panics() {
        let mut c = cache();
        let sets = MemGeometry::ksr1().localcache_sets() as u64;
        for i in 0..16u64 {
            c.ensure_page(i * sets * PAGE_BYTES);
        }
        let _ = c.ensure_page_with(16 * sets * PAGE_BYTES, |_| false);
    }

    #[test]
    fn all_ways_pinned_is_a_typed_error() {
        let mut c = cache();
        let sets = MemGeometry::ksr1().localcache_sets() as u64;
        for i in 0..16u64 {
            c.ensure_page(i * sets * PAGE_BYTES);
        }
        let err = c
            .try_ensure_page_with(16 * sets * PAGE_BYTES, |_| false)
            .unwrap_err();
        assert!(matches!(err, Error::Protocol(_)), "{err:?}");
        // An evictable way keeps the fallible path identical to the
        // panicking one.
        assert!(c
            .try_ensure_page_with(16 * sets * PAGE_BYTES, |_| true)
            .is_ok());
    }

    #[test]
    fn capacity_bounded() {
        let mut c = LocalCache::new(&MemGeometry::scaled(64), XorShift64::new(4));
        let total_frames = (512 * 1024 / PAGE_BYTES) as usize;
        for i in 0..10_000u64 {
            c.ensure_page(i * PAGE_BYTES);
        }
        assert_eq!(c.resident_pages(), total_frames);
    }
}
