//! The per-cell hardware performance monitor.
//!
//! §2: "Each node in the KSR-1 has a hardware performance monitor that
//! gives useful information such as the number of sub-cache and local-cache
//! misses and the time spent in ring accesses. We used this piece of
//! hardware quite extensively in our measurements." The experiment harness
//! uses this structure exactly the way the authors used the monitor: to
//! attribute slowdowns to cache capacity vs. ring saturation (e.g. the IS
//! analysis in §3.3.2).

/// Counter block for one cell. All counters are cumulative from machine
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfMon {
    /// Accesses satisfied by the sub-cache.
    pub subcache_hits: u64,
    /// Accesses that missed the sub-cache.
    pub subcache_misses: u64,
    /// Sub-cache misses satisfied by the local cache.
    pub localcache_hits: u64,
    /// Accesses that left the cell (ring transactions for data).
    pub localcache_misses: u64,
    /// Ring transactions issued by this cell (all kinds).
    pub ring_transactions: u64,
    /// Cycles spent waiting for ring slots.
    pub ring_wait_cycles: u64,
    /// Total cycles of remote-access latency endured by this cell.
    pub ring_latency_cycles: u64,
    /// 16 KB page frames allocated in the local cache.
    pub page_allocations: u64,
    /// 2 KB blocks allocated in the sub-cache.
    pub block_allocations: u64,
    /// Sub-page invalidations received from other cells.
    pub invalidations_received: u64,
    /// Place-holder refills obtained via read-snarfing.
    pub snarfs: u64,
    /// Poststore packets issued.
    pub poststores: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// `get_sub_page` attempts that lost to an existing atomic holder.
    pub atomic_rejections: u64,
    /// Ring transactions that crossed at least one level boundary —
    /// the requester's leaf ring could not satisfy the request, so the
    /// packet climbed through an ARD. This is Golab's remote memory
    /// reference (RMR) count for the DSM/NUMA cost model: dividing it
    /// by lock acquisitions gives the per-acquire RMR complexity the
    /// LCK experiment reports.
    pub remote_references: u64,
}

impl PerfMon {
    /// Total processor-issued accesses observed.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.subcache_hits + self.subcache_misses
    }

    /// Mean latency of this cell's remote (ring) accesses in cycles.
    #[must_use]
    pub fn mean_ring_latency(&self) -> f64 {
        if self.ring_transactions == 0 {
            0.0
        } else {
            self.ring_latency_cycles as f64 / self.ring_transactions as f64
        }
    }

    /// Element-wise difference since an `earlier` reading — the counters
    /// attributable to whatever ran between the two snapshots (the
    /// counters are cumulative and monotonic, so a plain subtraction;
    /// saturating guards against comparing unrelated machines).
    #[must_use]
    pub fn delta(self, earlier: Self) -> Self {
        Self {
            subcache_hits: self.subcache_hits.saturating_sub(earlier.subcache_hits),
            subcache_misses: self.subcache_misses.saturating_sub(earlier.subcache_misses),
            localcache_hits: self.localcache_hits.saturating_sub(earlier.localcache_hits),
            localcache_misses: self
                .localcache_misses
                .saturating_sub(earlier.localcache_misses),
            ring_transactions: self
                .ring_transactions
                .saturating_sub(earlier.ring_transactions),
            ring_wait_cycles: self
                .ring_wait_cycles
                .saturating_sub(earlier.ring_wait_cycles),
            ring_latency_cycles: self
                .ring_latency_cycles
                .saturating_sub(earlier.ring_latency_cycles),
            page_allocations: self
                .page_allocations
                .saturating_sub(earlier.page_allocations),
            block_allocations: self
                .block_allocations
                .saturating_sub(earlier.block_allocations),
            invalidations_received: self
                .invalidations_received
                .saturating_sub(earlier.invalidations_received),
            snarfs: self.snarfs.saturating_sub(earlier.snarfs),
            poststores: self.poststores.saturating_sub(earlier.poststores),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
            atomic_rejections: self
                .atomic_rejections
                .saturating_sub(earlier.atomic_rejections),
            remote_references: self
                .remote_references
                .saturating_sub(earlier.remote_references),
        }
    }

    /// Element-wise sum, for machine-wide aggregation. Saturating, to
    /// match `delta`'s policy: folding cumulative cycle counters over a
    /// 1024-cell machine must degrade to a pinned maximum, not panic in
    /// debug or wrap in release.
    #[must_use]
    pub fn merged(self, o: Self) -> Self {
        Self {
            subcache_hits: self.subcache_hits.saturating_add(o.subcache_hits),
            subcache_misses: self.subcache_misses.saturating_add(o.subcache_misses),
            localcache_hits: self.localcache_hits.saturating_add(o.localcache_hits),
            localcache_misses: self.localcache_misses.saturating_add(o.localcache_misses),
            ring_transactions: self.ring_transactions.saturating_add(o.ring_transactions),
            ring_wait_cycles: self.ring_wait_cycles.saturating_add(o.ring_wait_cycles),
            ring_latency_cycles: self
                .ring_latency_cycles
                .saturating_add(o.ring_latency_cycles),
            page_allocations: self.page_allocations.saturating_add(o.page_allocations),
            block_allocations: self.block_allocations.saturating_add(o.block_allocations),
            invalidations_received: self
                .invalidations_received
                .saturating_add(o.invalidations_received),
            snarfs: self.snarfs.saturating_add(o.snarfs),
            poststores: self.poststores.saturating_add(o.poststores),
            prefetches: self.prefetches.saturating_add(o.prefetches),
            atomic_rejections: self.atomic_rejections.saturating_add(o.atomic_rejections),
            remote_references: self.remote_references.saturating_add(o.remote_references),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let p = PerfMon::default();
        assert_eq!(p.mean_ring_latency(), 0.0);
    }

    #[test]
    fn miss_ratio() {
        let p = PerfMon {
            subcache_hits: 3,
            subcache_misses: 1,
            ..Default::default()
        };
        assert_eq!(p.total_accesses(), 4);
    }

    #[test]
    fn mean_ring_latency() {
        let p = PerfMon {
            ring_transactions: 4,
            ring_latency_cycles: 700,
            ..Default::default()
        };
        assert!((p.mean_ring_latency() - 175.0).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_fields() {
        let earlier = PerfMon {
            snarfs: 3,
            ring_transactions: 10,
            ..Default::default()
        };
        let later = PerfMon {
            snarfs: 8,
            ring_transactions: 25,
            ..Default::default()
        };
        let d = later.delta(earlier);
        assert_eq!(d.snarfs, 5);
        assert_eq!(d.ring_transactions, 15);
        // Mismatched snapshots saturate instead of wrapping.
        assert_eq!(earlier.delta(later).snarfs, 0);
    }

    #[test]
    fn merged_adds_fields() {
        let a = PerfMon {
            subcache_hits: 1,
            poststores: 2,
            ..Default::default()
        };
        let b = PerfMon {
            subcache_hits: 10,
            snarfs: 5,
            ..Default::default()
        };
        let m = a.merged(b);
        assert_eq!(m.subcache_hits, 11);
        assert_eq!(m.poststores, 2);
        assert_eq!(m.snarfs, 5);
    }

    /// Regression: aggregating near-full cumulative counters (a
    /// 1024-cell fold of cycle counters can plausibly reach 2^64) must
    /// saturate like `delta`, not overflow.
    #[test]
    fn merged_saturates_instead_of_overflowing() {
        let near_full = PerfMon {
            ring_latency_cycles: u64::MAX - 5,
            ring_wait_cycles: u64::MAX,
            remote_references: u64::MAX - 1,
            ..Default::default()
        };
        let more = PerfMon {
            ring_latency_cycles: 100,
            ring_wait_cycles: 1,
            remote_references: 7,
            subcache_hits: 3,
            ..Default::default()
        };
        let m = near_full.merged(more);
        assert_eq!(m.ring_latency_cycles, u64::MAX);
        assert_eq!(m.ring_wait_cycles, u64::MAX);
        assert_eq!(m.remote_references, u64::MAX);
        assert_eq!(m.subcache_hits, 3);
    }
}
