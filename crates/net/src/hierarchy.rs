//! The multi-level ring hierarchy of larger KSR systems.
//!
//! Up to 34 leaf rings (32 cells each) connect through ARD routing units
//! to a higher-bandwidth level-1 ring, for a maximum of 1088 processors
//! (§2) — and the same construction repeats upward: level-1 rings can
//! themselves be joined by a level-2 ring, and so on. The 64-node KSR-2
//! used for the paper's Figure 5 is two fully-populated leaf rings joined
//! by Ring:1. A transaction that must leave its leaf ring crosses: *leaf
//! rotation → ARD → upper-ring rotation(s) → ARD → remote leaf rotation*,
//! and the response rides the remaining arcs home — which is why the
//! paper reports "a sudden jump in the execution time when the number of
//! processors is increased beyond 32". Each additional level a request
//! must climb adds two ARD crossings and two ring rotations to the
//! round trip, so the jump repeats at every ring boundary.
//!
//! ## Routing
//!
//! Leaves are numbered left to right; the ancestor of leaf `l` at level
//! `k` is `l / (leaves per level-k ring)`. Both that quotient and each
//! cell's leaf are tabled when the hierarchy is built, so routing a
//! packet divides nothing. A request from `src` to `dst`
//! climbs to their **lowest common ancestor** ring and descends: with
//! the LCA at level `k` it books `2k + 1` rings (source-side rings going
//! up, the LCA ring, destination-side rings coming down) and pays the
//! per-level ARD latency for each of the `2k` inter-ring crossings.
//!
//! ## In-network combining (extension)
//!
//! With [`RingHierarchyConfig::combining`] set, each source-side ARD
//! merges concurrent combinable requests (the `get_sub_page` /
//! `ReadData` packets of a synthesised fetch-and-add hammering one hot
//! sub-page, à la the NYU Ultracomputer's fetch-and-Φ combining
//! switches): a request reaching its ARD while a previous request from
//! the same leaf to the same sub-page is still in flight upstream never
//! climbs — it waits at the ARD and shares the earlier response. The
//! model is timing-only and fully deterministic.

use ksr_core::time::Cycles;
use ksr_core::trace::Tracer;
use ksr_core::{Error, FxHashMap, Result};

use crate::msg::{PacketKind, Transit};
use crate::ring::{RingConfig, RingStats, RingTiming, SlottedRing};

/// One upper level of the ring tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingLevel {
    /// Geometry of every ring at this level.
    pub ring: RingConfig,
    /// Rings of the level below joined by each ring of this level.
    pub fanout: usize,
    /// Latency through one ARD routing unit between this level and the
    /// level below, each direction.
    pub ard_cycles: Cycles,
}

/// Configuration of a ring hierarchy: the leaf-ring geometry plus zero
/// or more upper levels, bottom-up ([`RingLevel`]s). An empty level list
/// is the plain single-ring KSR-1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingHierarchyConfig {
    /// Geometry of every leaf ring.
    pub leaf: RingConfig,
    /// Processor cells per leaf ring (the remaining stations are routers).
    pub cells_per_leaf: usize,
    /// Upper levels, bottom-up: `levels[0]` describes the Ring:1 layer
    /// joining leaf rings, `levels[1]` the Ring:2 layer joining Ring:1
    /// rings, and so on. The topmost layer always has exactly one ring.
    pub levels: Vec<RingLevel>,
    /// **Extension**: ARD routers combine concurrent fetch-and-add /
    /// read traffic to one sub-page in-network (off for every paper
    /// preset).
    pub combining: bool,
}

/// The ARD port budget: at most this many rings of one level connect to
/// a ring of the level above (§2's "up to 34 Ring:0's" rule, applied at
/// every level).
pub const MAX_FANOUT: usize = 34;

/// The most processor cells any machine may hold: 64x the largest
/// machine any experiment or benchmark builds (1024 cells).
/// [`RingHierarchyConfig::validate`] rejects bigger ring trees, so a
/// spec such as `[32; 12]` (2^60 cells) fails instead of allocating its
/// leaf rings; `ButterflyConfig::validate` caps its ports, and
/// `Topology::validate_for` caps the bus, too.
pub const MAX_CELLS: usize = 65_536;

impl RingHierarchyConfig {
    /// Single-level 32-cell KSR-1 ring.
    #[must_use]
    pub fn ksr1_32() -> Self {
        Self {
            leaf: RingConfig::ksr1_leaf(),
            cells_per_leaf: 32,
            levels: Vec::new(),
            combining: false,
        }
    }

    /// Two-level 64-cell system (the KSR-2 of §3.2.4; clock differences
    /// are applied by the topology preset, not the fabric).
    #[must_use]
    pub fn ksr_64() -> Self {
        Self {
            leaf: RingConfig::ksr1_leaf(),
            cells_per_leaf: 32,
            levels: vec![RingLevel {
                ring: RingConfig::ksr1_top(2),
                fanout: 2,
                ard_cycles: 130,
            }],
            combining: false,
        }
    }

    /// An N-level KSR-style tree from a shape spec: `spec[0]` is cells
    /// per leaf ring, each further entry the fanout of the next level up.
    /// `&[32]` is the 32-cell single ring, `&[32, 8]` a 256-cell
    /// two-level system, `&[32, 8, 4]` a 1024-cell three-level system.
    /// Upper rings use the 4 GB/s Ring:1 geometry; every ARD costs the
    /// standard 130 cycles per direction.
    ///
    /// Bad shapes are reported by [`RingHierarchyConfig::validate`], not
    /// here: an empty spec gives zero cells per leaf, and zero, oversized
    /// or overflowing entries fail validation too.
    #[must_use]
    pub fn ring_levels(spec: &[usize]) -> Self {
        Self {
            leaf: RingConfig::ksr1_leaf(),
            cells_per_leaf: spec.first().copied().unwrap_or(0),
            levels: spec
                .iter()
                .skip(1)
                .map(|&fanout| RingLevel {
                    ring: RingConfig::ksr1_top(fanout),
                    fanout,
                    ard_cycles: 130,
                })
                .collect(),
            combining: false,
        }
    }

    /// Multiply every hop and ARD latency by `factor` — how the KSR-2
    /// preset models a ring that keeps its absolute speed while the
    /// cells clock twice as fast.
    #[must_use]
    pub fn scale_cycles(mut self, factor: Cycles) -> Self {
        self.leaf.hop_cycles *= factor;
        for lvl in &mut self.levels {
            lvl.ring.hop_cycles *= factor;
            lvl.ard_cycles *= factor;
        }
        self
    }

    /// Number of ring levels (1 = a single leaf ring).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len() + 1
    }

    /// Number of leaf rings (saturating at `usize::MAX`; see
    /// [`MAX_CELLS`]).
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.levels
            .iter()
            .fold(1, |n: usize, l| n.saturating_mul(l.fanout))
    }

    /// Total processor cells (saturating at `usize::MAX`;
    /// [`RingHierarchyConfig::validate`] rejects anything above
    /// [`MAX_CELLS`]).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.n_leaves().saturating_mul(self.cells_per_leaf)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        self.leaf.validate()?;
        if self.cells_per_leaf == 0 || self.cells_per_leaf > self.leaf.stations {
            return Err(Error::Config(format!(
                "cells_per_leaf {} must be in 1..={}",
                self.cells_per_leaf, self.leaf.stations
            )));
        }
        for (i, lvl) in self.levels.iter().enumerate() {
            lvl.ring.validate()?;
            if lvl.fanout < 2 {
                return Err(Error::Config(format!(
                    "Ring:{} fanout {} is degenerate: a level must join at \
                     least 2 Ring:{} rings (drop the level instead)",
                    i + 1,
                    lvl.fanout,
                    i
                )));
            }
            if lvl.fanout > MAX_FANOUT {
                return Err(Error::Config(format!(
                    "at most {MAX_FANOUT} Ring:{} rings connect to one Ring:{} \
                     (fanout {} exceeds the ARD port budget at level {})",
                    i,
                    i + 1,
                    lvl.fanout,
                    i + 1
                )));
            }
            if lvl.ard_cycles == 0 {
                return Err(Error::Config(format!(
                    "Ring:{} ARD latency must be non-zero",
                    i + 1
                )));
            }
        }
        if self.total_cells() > MAX_CELLS {
            return Err(Error::Config(format!(
                "a {}-level ring tree with {} cells per leaf holds more than \
                 {MAX_CELLS} cells",
                self.depth(),
                self.cells_per_leaf,
            )));
        }
        Ok(())
    }
}

/// A KSR ring hierarchy of any depth.
#[derive(Debug, Clone)]
pub struct RingHierarchy {
    cfg: RingHierarchyConfig,
    leaves: Vec<SlottedRing>,
    /// `uppers[k]` holds the rings at level `k + 1`, left to right.
    uppers: Vec<Vec<SlottedRing>>,
    /// `cell_leaf[c]`: the leaf ring of cell `c`, `c / cells_per_leaf`.
    cell_leaf: Vec<u32>,
    /// `ancestor[k][l]`: the index, within `uppers[k]`, of leaf `l`'s
    /// ancestor ring at level `k + 1`: `l` over the leaves under each
    /// ring of that level.
    ancestor: Vec<Vec<u32>>,
    /// In-flight combinable responses per (source leaf, sub-page key):
    /// the virtual time the combined response reaches that leaf again.
    combine_window: FxHashMap<(usize, u64), Cycles>,
    combined: u64,
}

impl RingHierarchy {
    /// Build a hierarchy from a validated configuration.
    pub fn new(cfg: RingHierarchyConfig) -> Result<Self> {
        cfg.validate()?;
        let n_leaves = cfg.n_leaves();
        let leaves = (0..n_leaves)
            .map(|_| SlottedRing::new(cfg.leaf))
            .collect::<Result<Vec<_>>>()?;
        // `validate` caps the tree at MAX_CELLS, so indices fit in u32.
        let index = |i: usize| u32::try_from(i).expect("ring index fits in u32");
        let mut ancestor = Vec::with_capacity(cfg.levels.len());
        let mut uppers = Vec::with_capacity(cfg.levels.len());
        let mut leaves_per_ring = 1usize;
        for lvl in &cfg.levels {
            leaves_per_ring *= lvl.fanout;
            ancestor.push((0..n_leaves).map(|l| index(l / leaves_per_ring)).collect());
            uppers.push(
                (0..n_leaves / leaves_per_ring)
                    .map(|_| SlottedRing::new(lvl.ring))
                    .collect::<Result<Vec<_>>>()?,
            );
        }
        let cell_leaf = (0..cfg.total_cells())
            .map(|c| index(c / cfg.cells_per_leaf))
            .collect();
        Ok(Self {
            cfg,
            leaves,
            uppers,
            cell_leaf,
            ancestor,
            combine_window: FxHashMap::default(),
            combined: 0,
        })
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> &RingHierarchyConfig {
        &self.cfg
    }

    /// Which leaf ring a cell lives on.
    #[must_use]
    pub fn leaf_of(&self, cell: usize) -> usize {
        match self.cell_leaf.get(cell) {
            Some(&leaf) => leaf as usize,
            None => panic!("cell index out of range"),
        }
    }

    /// Sub-ring an address-interleave key maps to (uniform across rings).
    #[must_use]
    pub fn subring_of(&self, interleave_key: u64) -> usize {
        self.leaves[0].subring_of(interleave_key)
    }

    /// The level of `src` and `dst`'s lowest common ancestor ring
    /// (0 = same leaf).
    fn lca_level(&self, src_leaf: usize, dst_leaf: usize) -> usize {
        if src_leaf == dst_leaf {
            return 0;
        }
        1 + self
            .ancestor
            .iter()
            .position(|a| a[src_leaf] == a[dst_leaf])
            .expect("the top ring joins every leaf")
    }

    /// Whether ARD routers may merge this packet with an in-flight
    /// request to the same sub-page (the fetch-and-Φ / read-combining
    /// traffic of the Ultracomputer extension).
    fn combinable(kind: PacketKind) -> bool {
        matches!(kind, PacketKind::GetSubPage | PacketKind::ReadData)
    }

    /// Book a transaction from `src_cell` at `now`.
    ///
    /// `transit` says how far the coherence engine determined the request
    /// must travel. A [`Transit::CrossRing`] transaction books a slot on
    /// every ring of the up-over-down path through the lowest common
    /// ancestor, paying one ARD latency per inter-ring crossing, and
    /// emits one slot event per ring it books.
    pub fn transact(
        &mut self,
        now: Cycles,
        src_cell: usize,
        transit: Transit,
        interleave_key: u64,
        kind: PacketKind,
        tracer: &mut Tracer,
    ) -> RingTiming {
        let src_leaf = self.leaf_of(src_cell);
        let subring = self.subring_of(interleave_key);
        match transit {
            Transit::Local => self.leaves[src_leaf].transact(now, subring, kind, tracer),
            Transit::CrossRing { dst_leaf } => {
                assert!(
                    dst_leaf < self.leaves.len(),
                    "destination leaf out of range"
                );
                let lca = self.lca_level(src_leaf, dst_leaf);
                if lca == 0 {
                    return self.leaves[src_leaf].transact(now, subring, kind, tracer);
                }
                let first = self.leaves[src_leaf].transact(now, subring, kind, tracer);
                if self.cfg.combining && Self::combinable(kind) {
                    let key = (src_leaf, interleave_key);
                    let at_ard = first.response_at + self.cfg.levels[0].ard_cycles;
                    if let Some(&home_at) = self.combine_window.get(&key) {
                        if at_ard <= home_at {
                            // Merged at the ARD: never climbs, shares the
                            // in-flight response on its way back down.
                            // Emission contract for merged grants: the
                            // follower's response is the head's (one copy
                            // of the sub-page rides down once), so it can
                            // never land before the follower's own leaf
                            // rotation reached the ARD — the coherence
                            // engine may therefore stamp the follower's
                            // events at `response_at` exactly as it does
                            // for an uncombined grant.
                            assert!(
                                home_at >= first.response_at,
                                "combined response precedes the follower's leaf rotation"
                            );
                            self.combined += 1;
                            return RingTiming {
                                injected_at: first.injected_at,
                                response_at: home_at,
                                slot_wait: first.slot_wait,
                            };
                        }
                    }
                    let t = self.climb(first, src_leaf, dst_leaf, lca, subring, kind, tracer);
                    self.combine_window.insert(key, t.response_at);
                    return t;
                }
                self.climb(first, src_leaf, dst_leaf, lca, subring, kind, tracer)
            }
        }
    }

    /// Book the up-over-down path above an already-booked source-leaf
    /// rotation: source-side rings to the LCA at `lca`, then
    /// destination-side rings back down to `dst_leaf`.
    #[allow(clippy::too_many_arguments)] // the booked path plus the tracer
    fn climb(
        &mut self,
        first: RingTiming,
        src_leaf: usize,
        dst_leaf: usize,
        lca: usize,
        subring: usize,
        kind: PacketKind,
        tracer: &mut Tracer,
    ) -> RingTiming {
        let mut cur = first;
        let mut slot_wait = first.slot_wait;
        for lvl in 1..=lca {
            let up = self.ancestor[lvl - 1][src_leaf] as usize;
            let ring = &mut self.uppers[lvl - 1][up];
            cur = ring.transact(
                cur.response_at + self.cfg.levels[lvl - 1].ard_cycles,
                subring,
                kind,
                tracer,
            );
            slot_wait += cur.slot_wait;
        }
        for lvl in (1..lca).rev() {
            let down = self.ancestor[lvl - 1][dst_leaf] as usize;
            let ring = &mut self.uppers[lvl - 1][down];
            cur = ring.transact(
                cur.response_at + self.cfg.levels[lvl].ard_cycles,
                subring,
                kind,
                tracer,
            );
            slot_wait += cur.slot_wait;
        }
        let down = self.leaves[dst_leaf].transact(
            cur.response_at + self.cfg.levels[0].ard_cycles,
            subring,
            kind,
            tracer,
        );
        RingTiming {
            injected_at: first.injected_at,
            response_at: down.response_at,
            slot_wait: slot_wait + down.slot_wait,
        }
    }

    /// Counters for one leaf ring.
    #[must_use]
    pub fn leaf_stats(&self, leaf: usize) -> RingStats {
        self.leaves[leaf].stats()
    }

    /// Summed counters for all rings at one level (0 = the leaf rings).
    #[must_use]
    pub fn level_stats(&self, level: usize) -> RingStats {
        let rings: &[SlottedRing] = if level == 0 {
            &self.leaves
        } else {
            &self.uppers[level - 1]
        };
        let mut acc = RingStats::default();
        for r in rings {
            acc.accumulate(r.stats());
        }
        acc
    }

    /// Counters for the topmost ring layer (zeros on a single-level
    /// hierarchy, which has no upper ring).
    #[must_use]
    pub fn top_stats(&self) -> RingStats {
        self.uppers
            .last()
            .map(|level| {
                let mut acc = RingStats::default();
                for r in level {
                    acc.accumulate(r.stats());
                }
                acc
            })
            .unwrap_or_default()
    }

    /// Sum of all packet counters across every ring of every level.
    #[must_use]
    pub fn total_stats(&self) -> RingStats {
        let mut acc = RingStats::default();
        for l in &self.leaves {
            acc.accumulate(l.stats());
        }
        for level in &self.uppers {
            for r in level {
                acc.accumulate(r.stats());
            }
        }
        acc
    }

    /// Cross-ring requests merged in-network by ARD combining.
    #[must_use]
    pub fn combined_packets(&self) -> u64 {
        self.combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with no sink: these tests book transactions untraced.
    fn untraced() -> Tracer {
        Tracer::disabled()
    }

    #[test]
    fn ksr1_32_validates() {
        RingHierarchyConfig::ksr1_32().validate().unwrap();
        assert_eq!(RingHierarchyConfig::ksr1_32().total_cells(), 32);
        assert_eq!(RingHierarchyConfig::ksr1_32().depth(), 1);
    }

    #[test]
    fn ksr_64_validates() {
        RingHierarchyConfig::ksr_64().validate().unwrap();
        assert_eq!(RingHierarchyConfig::ksr_64().total_cells(), 64);
        assert_eq!(RingHierarchyConfig::ksr_64().n_leaves(), 2);
    }

    #[test]
    fn ring_levels_builds_deep_trees() {
        let cfg = RingHierarchyConfig::ring_levels(&[32, 8, 4]);
        cfg.validate().unwrap();
        assert_eq!(cfg.depth(), 3);
        assert_eq!(cfg.n_leaves(), 32);
        assert_eq!(cfg.total_cells(), 1024);
    }

    #[test]
    fn rejects_degenerate_and_oversized_levels() {
        let mut cfg = RingHierarchyConfig::ring_levels(&[32, 2]);
        cfg.levels[0].fanout = 1;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("degenerate"), "got: {err}");

        let mut cfg = RingHierarchyConfig::ring_levels(&[32, 2, 2]);
        cfg.levels[1].fanout = 35;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(
            err.contains("Ring:2") && err.contains("level 2"),
            "the cap must name the level it constrains: {err}"
        );

        let mut cfg = RingHierarchyConfig::ksr1_32();
        cfg.cells_per_leaf = 40;
        assert!(cfg.validate().is_err());

        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.levels[0].ard_cycles = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn leaf_of_partitions_cells() {
        let h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        assert_eq!(h.leaf_of(0), 0);
        assert_eq!(h.leaf_of(31), 0);
        assert_eq!(h.leaf_of(32), 1);
        assert_eq!(h.leaf_of(63), 1);
    }

    #[test]
    fn lca_levels_on_a_three_level_tree() {
        let h = RingHierarchy::new(RingHierarchyConfig::ring_levels(&[32, 4, 2])).unwrap();
        assert_eq!(h.lca_level(0, 0), 0, "same leaf");
        assert_eq!(h.lca_level(0, 3), 1, "same Ring:1 group");
        assert_eq!(h.lca_level(0, 4), 2, "crosses the Ring:2 spine");
        assert_eq!(h.lca_level(7, 3), 2);
    }

    #[test]
    fn local_transit_matches_single_ring() {
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let mut solo = SlottedRing::new(RingConfig::ksr1_leaf()).unwrap();
        let a = h.transact(
            100,
            5,
            Transit::Local,
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        let b = solo.transact(100, 0, PacketKind::ReadData, &mut untraced());
        assert_eq!(a, b);
    }

    #[test]
    fn cross_ring_costs_much_more_than_local() {
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let local = h.transact(
            0,
            0,
            Transit::Local,
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        let cross = h.transact(
            0,
            0,
            Transit::CrossRing { dst_leaf: 1 },
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        let ll = local.latency(0);
        let cl = cross.latency(0);
        assert!(
            cl > 2 * ll,
            "cross-ring latency {cl} should dwarf local {ll} (the 'sudden jump' of §4)"
        );
    }

    #[test]
    fn two_level_crossing_charges_the_known_arcs() {
        // Uncontended: leaf rotation (34 st × 4 cyc + injection hop),
        // ARD, top rotation (2 st × 1 cyc + hop), ARD, leaf rotation.
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let t = h.transact(
            0,
            0,
            Transit::CrossRing { dst_leaf: 1 },
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        // Each uncontended SlottedRing books injection-wait + rotation;
        // reproduce the exact figure from its own arithmetic.
        let mut leaf = SlottedRing::new(RingConfig::ksr1_leaf()).unwrap();
        let first = leaf.transact(0, 0, PacketKind::ReadData, &mut untraced());
        let mut top = SlottedRing::new(RingConfig::ksr1_top(2)).unwrap();
        let up = top.transact(
            first.response_at + 130,
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        let mut dst = SlottedRing::new(RingConfig::ksr1_leaf()).unwrap();
        let down = dst.transact(
            up.response_at + 130,
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        assert_eq!(t.response_at, down.response_at);
        assert_eq!(t.latency(0), down.response_at);
    }

    #[test]
    fn deeper_crossings_cost_strictly_more() {
        // On a 3-level tree, a 2-level crossing books two extra rings and
        // two extra ARD hops over a 1-level crossing, which in turn
        // dwarfs a local access.
        let fresh = || RingHierarchy::new(RingHierarchyConfig::ring_levels(&[32, 4, 2])).unwrap();
        let local = fresh()
            .transact(
                0,
                0,
                Transit::Local,
                0,
                PacketKind::ReadData,
                &mut untraced(),
            )
            .latency(0);
        let one = fresh()
            .transact(
                0,
                0,
                Transit::CrossRing { dst_leaf: 1 },
                0,
                PacketKind::ReadData,
                &mut untraced(),
            )
            .latency(0);
        let two = fresh()
            .transact(
                0,
                0,
                Transit::CrossRing { dst_leaf: 4 },
                0,
                PacketKind::ReadData,
                &mut untraced(),
            )
            .latency(0);
        assert!(local < one && one < two, "{local} < {one} < {two} violated");
        // The extra distance is exactly two ARDs + two Ring:1 rotations'
        // worth of uncontended time: at least 2 × 130.
        assert!(two - one >= 260, "2-level hop adds ≥2 ARD crossings");
    }

    #[test]
    fn three_level_crossing_books_every_ring_on_the_path() {
        let mut h = RingHierarchy::new(RingHierarchyConfig::ring_levels(&[32, 4, 2])).unwrap();
        // Leaf 0 (cell 0) to leaf 4 (cell 128): LCA at level 2.
        h.transact(
            0,
            0,
            Transit::CrossRing { dst_leaf: 4 },
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        assert_eq!(h.leaf_stats(0).packets, 1, "source leaf");
        assert_eq!(h.leaf_stats(4).packets, 1, "destination leaf");
        assert_eq!(h.level_stats(1).packets, 2, "both Ring:1 sides");
        assert_eq!(h.level_stats(2).packets, 1, "the Ring:2 spine");
        assert_eq!(h.total_stats().packets, 5, "2k+1 rings at k=2");
    }

    #[test]
    fn cross_ring_to_own_leaf_degrades_to_local() {
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let a = h.transact(
            0,
            0,
            Transit::CrossRing { dst_leaf: 0 },
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        let mut h2 = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let b = h2.transact(
            0,
            0,
            Transit::Local,
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn cross_ring_books_all_three_rings() {
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        h.transact(
            0,
            0,
            Transit::CrossRing { dst_leaf: 1 },
            0,
            PacketKind::ReadData,
            &mut untraced(),
        );
        assert_eq!(h.leaf_stats(0).packets, 1);
        assert_eq!(h.top_stats().packets, 1);
        assert_eq!(h.leaf_stats(1).packets, 1);
        assert_eq!(h.total_stats().packets, 3);
    }

    #[test]
    fn single_level_treats_cross_as_local() {
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr1_32()).unwrap();
        let t = h.transact(
            0,
            3,
            Transit::CrossRing { dst_leaf: 0 },
            1,
            PacketKind::ReadData,
            &mut untraced(),
        );
        assert_eq!(t.latency(0), 141);
    }

    #[test]
    fn combining_merges_concurrent_hot_spot_requests() {
        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.combining = true;
        let mut h = RingHierarchy::new(cfg).unwrap();
        let cross = Transit::CrossRing { dst_leaf: 1 };
        let a = h.transact(0, 0, cross, 7, PacketKind::GetSubPage, &mut untraced());
        // Issued while a's response is still in flight, same leaf, same
        // sub-page: merged at the ARD, completes with a.
        let b = h.transact(10, 1, cross, 7, PacketKind::GetSubPage, &mut untraced());
        assert_eq!(b.response_at, a.response_at, "shares the combined response");
        assert_eq!(h.combined_packets(), 1);
        assert_eq!(h.top_stats().packets, 1, "the merged request never climbed");
        // Long after the window closes, the same key climbs again.
        let c = h.transact(
            a.response_at + 10_000,
            2,
            cross,
            7,
            PacketKind::GetSubPage,
            &mut untraced(),
        );
        assert!(c.response_at > a.response_at);
        assert_eq!(h.top_stats().packets, 2);
        assert_eq!(h.combined_packets(), 1);
    }

    #[test]
    fn combining_ignores_non_combinable_and_other_subpages() {
        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.combining = true;
        let mut h = RingHierarchy::new(cfg).unwrap();
        let cross = Transit::CrossRing { dst_leaf: 1 };
        let _ = h.transact(0, 0, cross, 7, PacketKind::GetSubPage, &mut untraced());
        // A different sub-page cannot merge.
        let _ = h.transact(10, 1, cross, 8, PacketKind::GetSubPage, &mut untraced());
        // An invalidation is never combinable.
        let _ = h.transact(12, 2, cross, 7, PacketKind::Invalidate, &mut untraced());
        assert_eq!(h.combined_packets(), 0);
        assert_eq!(h.top_stats().packets, 3);
    }

    #[test]
    fn read_rides_a_get_sub_page_response_in_the_same_window() {
        // The window keys on (leaf, sub-page), not kind: a ReadData for
        // the hot sub-page rides a GetSubPage head's data home — the
        // read-combining half of the fetch-and-Φ story.
        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.combining = true;
        let mut h = RingHierarchy::new(cfg).unwrap();
        let cross = Transit::CrossRing { dst_leaf: 1 };
        let head = h.transact(0, 0, cross, 7, PacketKind::GetSubPage, &mut untraced());
        let follower = h.transact(5, 1, cross, 7, PacketKind::ReadData, &mut untraced());
        assert_eq!(follower.response_at, head.response_at);
        assert_eq!(h.combined_packets(), 1);
    }

    #[test]
    fn merged_responses_never_precede_the_followers_leaf_rotation() {
        // The emission contract the coherence engine relies on: a
        // combined grant arrives no earlier than the follower's own
        // rotation to the ARD, so stamping the follower's coherence
        // events at `response_at` keeps the trace causally ordered.
        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.combining = true;
        let mut h = RingHierarchy::new(cfg).unwrap();
        let cross = Transit::CrossRing { dst_leaf: 1 };
        let head = h.transact(0, 0, cross, 7, PacketKind::GetSubPage, &mut untraced());
        for (i, cell) in [(1u64, 1usize), (2, 2), (3, 3)] {
            let t = h.transact(
                10 * i,
                cell,
                cross,
                7,
                PacketKind::GetSubPage,
                &mut untraced(),
            );
            if t.response_at == head.response_at {
                assert!(
                    t.response_at >= t.injected_at,
                    "merged response precedes injection"
                );
            }
        }
        assert!(h.combined_packets() > 0, "the window must have merged some");
    }

    #[test]
    fn combining_off_is_byte_identical_to_the_base_model() {
        let mut plain = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let mut h = RingHierarchy::new(RingHierarchyConfig::ksr_64()).unwrap();
        let cross = Transit::CrossRing { dst_leaf: 1 };
        for i in 0..20 {
            let a = plain.transact(
                i * 3,
                (i % 32) as usize,
                cross,
                7,
                PacketKind::GetSubPage,
                &mut untraced(),
            );
            let b = h.transact(
                i * 3,
                (i % 32) as usize,
                cross,
                7,
                PacketKind::GetSubPage,
                &mut untraced(),
            );
            assert_eq!(a, b);
        }
    }

    /// The routing tables against the division formulas they replace,
    /// on every cell and every leaf pair of four shapes: one with no
    /// power-of-two entry, and one deep enough that a crossing climbs
    /// through a ring below its LCA on each side. Checked: each cell's
    /// leaf, each pair's LCA level, and exactly which ring a crossing
    /// books at every level.
    #[test]
    fn routing_tables_match_the_division_formulas() {
        for spec in [&[32, 8, 4][..], &[4, 2, 2], &[3, 5, 2], &[2, 3, 2, 2]] {
            let h = RingHierarchy::new(RingHierarchyConfig::ring_levels(spec)).unwrap();
            let cells_per_leaf = spec[0];
            // `group[k]`: leaves under each ring at level k + 1.
            let group: Vec<usize> = spec[1..]
                .iter()
                .scan(1, |n, &f| {
                    *n *= f;
                    Some(*n)
                })
                .collect();
            let n_leaves = h.config().n_leaves();
            for cell in 0..h.config().total_cells() {
                assert_eq!(
                    h.leaf_of(cell),
                    cell / cells_per_leaf,
                    "{spec:?} cell {cell}"
                );
            }
            for src in 0..n_leaves {
                for dst in 0..n_leaves {
                    let lca = if src == dst {
                        0
                    } else {
                        1 + group.iter().position(|&g| src / g == dst / g).unwrap()
                    };
                    assert_eq!(h.lca_level(src, dst), lca, "{spec:?} {src}->{dst}");
                    let mut booked = h.clone();
                    booked.transact(
                        0,
                        src * cells_per_leaf,
                        Transit::CrossRing { dst_leaf: dst },
                        0,
                        PacketKind::ReadData,
                        &mut untraced(),
                    );
                    for (k, &g) in group.iter().enumerate() {
                        let level = k + 1;
                        for ring in 0..n_leaves / g {
                            let up = level <= lca && ring == src / g;
                            let down = level < lca && ring == dst / g;
                            assert_eq!(
                                booked.uppers[k][ring].stats().packets,
                                u64::from(up) + u64::from(down),
                                "{spec:?} {src}->{dst}: level {level} ring {ring}"
                            );
                        }
                    }
                    for leaf in 0..n_leaves {
                        let want = u64::from(leaf == src) + u64::from(lca > 0 && leaf == dst);
                        assert_eq!(booked.leaf_stats(leaf).packets, want, "{spec:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_cell_panics() {
        let h = RingHierarchy::new(RingHierarchyConfig::ksr1_32()).unwrap();
        let _ = h.leaf_of(32);
    }
}
