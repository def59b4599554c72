//! The unified interconnect-topology API.
//!
//! A [`Topology`] is a *value* describing which interconnect a machine
//! has and how it is shaped — the KSR ring tree at any depth, the
//! Symmetry bus, or the Butterfly MIN. `MachineConfig` carries one in
//! place of the old machine-kind enum and per-config ring-override
//! pair, so a 1024-cell
//! three-level system is expressed the same way as the paper's 32-cell
//! single ring:
//!
//! ```
//! use ksr_net::Topology;
//!
//! let t = Topology::ring_levels(&[32, 8, 4]); // 3 levels, 1024 cells
//! assert_eq!(t.capacity(), Some(1024));
//! t.build(1024).unwrap();
//! ```
//!
//! Validation — including every capacity error string — lives here, the
//! single source of truth. Machine presets are constructors on this type.

use ksr_core::{Error, Result};

use crate::bus::{Bus, BusConfig};
use crate::butterfly::{Butterfly, ButterflyConfig};
use crate::fabric::Fabric;
use crate::hierarchy::{RingHierarchy, RingHierarchyConfig, MAX_CELLS};

/// Shape of a machine's interconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// KSR slotted ring hierarchy (any depth).
    Ring(RingHierarchyConfig),
    /// Sequent Symmetry-style shared snooping bus.
    Bus(BusConfig),
    /// BBN Butterfly-style dance-hall MIN.
    Butterfly(ButterflyConfig),
}

impl Topology {
    /// The paper's single-level 32-cell KSR-1 ring.
    #[must_use]
    pub fn ksr1_32() -> Self {
        Self::Ring(RingHierarchyConfig::ksr1_32())
    }

    /// Two-level 64-cell KSR ring system, in KSR-1 cell cycles.
    #[must_use]
    pub fn ksr_64() -> Self {
        Self::Ring(RingHierarchyConfig::ksr_64())
    }

    /// The 64-cell KSR-2 of §3.2.4: the same two-level ring in absolute
    /// time, but the 40 MHz cell sees every hop and ARD crossing cost
    /// twice the processor cycles.
    #[must_use]
    pub fn ksr2_64() -> Self {
        Self::Ring(RingHierarchyConfig::ksr_64().scale_cycles(2))
    }

    /// A ring hierarchy with explicit geometry.
    #[must_use]
    pub fn ring(cfg: RingHierarchyConfig) -> Self {
        Self::Ring(cfg)
    }

    /// A KSR-style ring tree from a shape spec: `spec[0]` cells per leaf
    /// ring, each further entry the fanout of the next level up (see
    /// [`RingHierarchyConfig::ring_levels`]). `&[32, 8, 4]` is a
    /// 1024-cell three-level system.
    #[must_use]
    pub fn ring_levels(spec: &[usize]) -> Self {
        Self::Ring(RingHierarchyConfig::ring_levels(spec))
    }

    /// The Symmetry snooping bus (capacity limited by contention, not
    /// ports — any cell count shares the one bus).
    #[must_use]
    pub fn bus() -> Self {
        Self::Bus(BusConfig::symmetry())
    }

    /// A Butterfly MIN with `ports` processor/memory ports.
    #[must_use]
    pub fn butterfly(ports: usize) -> Self {
        Self::Butterfly(ButterflyConfig::bbn(ports))
    }

    /// Maximum processor cells this topology can host, or `None` when the
    /// shape itself imposes no port limit (the bus, which
    /// [`Topology::validate_for`] still caps at [`MAX_CELLS`]).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        match self {
            Self::Ring(cfg) => Some(cfg.total_cells()),
            Self::Bus(_) => None,
            Self::Butterfly(cfg) => Some(cfg.ports),
        }
    }

    /// Ring depth (levels), if this is a ring topology.
    #[must_use]
    pub fn ring_depth(&self) -> Option<usize> {
        match self {
            Self::Ring(cfg) => Some(cfg.depth()),
            _ => None,
        }
    }

    /// Validate the shape (geometry only; [`Topology::validate_for`] also
    /// checks a cell count against capacity).
    pub fn validate(&self) -> Result<()> {
        match self {
            Self::Ring(cfg) => cfg.validate(),
            Self::Bus(cfg) => cfg.validate(),
            Self::Butterfly(cfg) => cfg.validate(),
        }
    }

    /// A short human-readable shape description for reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Ring(cfg) => {
                let mut s = format!("ring[{}", cfg.cells_per_leaf);
                for lvl in &cfg.levels {
                    s.push_str(&format!("x{}", lvl.fanout));
                }
                s.push(']');
                if cfg.combining {
                    s.push_str("+combining");
                }
                s
            }
            Self::Bus(_) => "bus".into(),
            Self::Butterfly(cfg) => format!("butterfly[{}]", cfg.ports),
        }
    }

    /// Validate the shape and check that it holds `cells` processors,
    /// without building anything. Every capacity error originates here;
    /// [`Topology::build`] and `MachineConfig::validate` both call it.
    /// No topology holds more than [`MAX_CELLS`] cells, the bus
    /// included, so a machine never allocates caches for more.
    pub fn validate_for(&self, cells: usize) -> Result<()> {
        self.validate()?;
        // `validate` already caps ring trees and Butterfly ports.
        let cap = self.capacity().unwrap_or(MAX_CELLS);
        if cells > cap {
            return Err(Error::Config(format!(
                "topology {} holds {cap} cells, machine asks for {cells}",
                self.describe()
            )));
        }
        Ok(())
    }

    /// Validate and build the interconnect for a machine with `cells`
    /// processors.
    pub fn build(&self, cells: usize) -> Result<Fabric> {
        self.validate_for(cells)?;
        Ok(match self {
            Self::Ring(cfg) => Fabric::Ring(RingHierarchy::new(cfg.clone())?),
            Self::Bus(cfg) => Fabric::Bus(Bus::new(*cfg)?),
            Self::Butterfly(cfg) => Fabric::Butterfly(Butterfly::new(*cfg)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::MAX_SLOTS;

    #[test]
    fn presets_build_at_capacity() {
        Topology::ksr1_32().build(32).unwrap();
        Topology::ksr_64().build(64).unwrap();
        Topology::ksr2_64().build(64).unwrap();
        Topology::bus().build(16).unwrap();
        Topology::butterfly(256).build(256).unwrap();
        Topology::ring_levels(&[32, 8, 4]).build(1024).unwrap();
    }

    #[test]
    fn capacities() {
        assert_eq!(Topology::ksr1_32().capacity(), Some(32));
        assert_eq!(Topology::ksr_64().capacity(), Some(64));
        assert_eq!(Topology::bus().capacity(), None);
        assert_eq!(Topology::butterfly(64).capacity(), Some(64));
        assert_eq!(Topology::ring_levels(&[32, 8, 2]).capacity(), Some(512));
    }

    #[test]
    fn oversized_cell_counts_name_the_topology() {
        let err = Topology::ksr1_32().build(33).unwrap_err().to_string();
        assert!(err.contains("ring[32]") && err.contains("33"), "got: {err}");
        let err = Topology::butterfly(16).build(17).unwrap_err().to_string();
        assert!(err.contains("butterfly[16]"), "got: {err}");
        // The bus has no port limit below the cell cap.
        Topology::bus().build(1000).unwrap();
    }

    /// Every topology stops at [`MAX_CELLS`], checked without building
    /// anything above it.
    #[test]
    fn no_topology_validates_beyond_the_cell_cap() {
        for t in [Topology::bus(), Topology::butterfly(MAX_CELLS)] {
            t.validate_for(MAX_CELLS).unwrap();
            let err = t.validate_for(MAX_CELLS + 1).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
            assert!(err.to_string().contains(&t.describe()), "{err}");
        }
        for ports in [MAX_CELLS + 1, 1 << 40] {
            let err = Topology::butterfly(ports).validate().unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
    }

    /// A ring with more than [`MAX_SLOTS`] slots, or one whose rotation
    /// time overflows `Cycles`, fails validation at every level of the
    /// tree. Nothing is built: building such a ring would allocate its
    /// slot tables or overflow.
    #[test]
    fn oversized_rings_fail_validation() {
        let mut at_cap = RingHierarchyConfig::ksr1_32();
        at_cap.leaf.slots = MAX_SLOTS;
        Topology::ring(at_cap).validate_for(32).unwrap();
        let mut bad = Vec::new();
        for slots in [MAX_SLOTS + 2, 1 << 40] {
            let mut cfg = RingHierarchyConfig::ksr1_32();
            cfg.leaf.slots = slots;
            bad.push((cfg, "slots"));
        }
        let mut cfg = RingHierarchyConfig::ksr1_32();
        cfg.leaf.stations = usize::MAX / 2;
        bad.push((cfg, "overflow"));
        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.levels[0].ring.slots = 1 << 40;
        bad.push((cfg, "slots"));
        let mut cfg = RingHierarchyConfig::ksr_64();
        cfg.levels[0].ring.hop_cycles = u64::MAX;
        bad.push((cfg, "overflow"));
        for (cfg, what) in bad {
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains(what), "{cfg:?}: {err}");
            let err = Topology::ring(cfg).validate_for(32).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
    }

    #[test]
    fn ksr2_doubles_ring_cycles() {
        let (Topology::Ring(one), Topology::Ring(two)) = (Topology::ksr_64(), Topology::ksr2_64())
        else {
            panic!("ring presets");
        };
        assert_eq!(two.leaf.hop_cycles, one.leaf.hop_cycles * 2);
        assert_eq!(two.levels[0].ard_cycles, one.levels[0].ard_cycles * 2);
        assert_eq!(
            two.levels[0].ring.hop_cycles,
            one.levels[0].ring.hop_cycles * 2
        );
    }

    #[test]
    fn describe_shapes() {
        assert_eq!(Topology::ksr1_32().describe(), "ring[32]");
        assert_eq!(
            Topology::ring_levels(&[32, 8, 4]).describe(),
            "ring[32x8x4]"
        );
        assert_eq!(Topology::bus().describe(), "bus");
        assert_eq!(Topology::butterfly(8).describe(), "butterfly[8]");
    }

    /// Seeded fuzz of the shape builder: no spec may panic in
    /// `validate()` or `capacity()`, and a spec that validates holds
    /// exactly the product of its entries, at most [`MAX_CELLS`]. Nothing
    /// is built.
    #[test]
    fn ring_shape_specs_validate_without_panicking() {
        let mut rng = ksr_core::XorShift64::new(0x5EC);
        let mut valid = 0;
        for _ in 0..4096 {
            let len = rng.next_index(17);
            let spec: Vec<usize> = (0..len).map(|_| rng.next_index(41)).collect();
            let t = Topology::ring_levels(&spec);
            let capacity = t.capacity();
            let product = spec.iter().try_fold(1usize, |n, &e| n.checked_mul(e));
            if t.validate().is_ok() {
                valid += 1;
                assert_eq!(capacity, product, "{spec:?}");
                assert!(product.is_some_and(|p| p <= MAX_CELLS), "{spec:?}");
            }
        }
        assert!(valid > 0, "the fuzz must reach valid shapes too");
        let overflowing = Topology::ring_levels(&[32; 16]);
        assert!(overflowing.validate().is_err());
        assert_eq!(overflowing.capacity(), Some(usize::MAX));
        assert!(Topology::ring_levels(&[]).validate().is_err());
    }

    #[test]
    fn invalid_shapes_rejected_before_build() {
        let mut cfg = RingHierarchyConfig::ring_levels(&[32, 2]);
        cfg.levels[0].fanout = 99;
        assert!(Topology::ring(cfg).build(32).is_err());
    }
}
