//! A uniform front door over the three interconnect models.
//!
//! The machine layer talks to a [`Fabric`]; which concrete network sits
//! behind it (KSR ring hierarchy, Symmetry bus, or Butterfly MIN) is the
//! [`Topology`](crate::Topology) it was built from. An enum rather than a
//! trait object keeps dispatch static-friendly and the whole simulator
//! `Clone`-able and deterministic.

use ksr_core::time::Cycles;
use ksr_core::trace::Tracer;

use crate::bus::Bus;
use crate::butterfly::Butterfly;
use crate::hierarchy::RingHierarchy;
use crate::msg::{PacketKind, Transit};
use crate::ring::RingTiming;

/// Fabric-independent counters, normalized from whichever model is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets / transactions / requests carried.
    pub packets: u64,
    /// Total cycles requesters spent waiting to get onto the fabric
    /// (slot wait, bus wait, or module-queue wait).
    pub wait_cycles: u64,
}

impl FabricStats {
    /// Counters accumulated since an `earlier` reading (saturating, for
    /// per-phase attribution).
    #[must_use]
    pub fn delta(self, earlier: Self) -> Self {
        Self {
            packets: self.packets.saturating_sub(earlier.packets),
            wait_cycles: self.wait_cycles.saturating_sub(earlier.wait_cycles),
        }
    }
}

/// One of the three interconnects of the study.
#[derive(Debug, Clone)]
pub enum Fabric {
    /// KSR-1/KSR-2 slotted pipelined ring hierarchy.
    Ring(RingHierarchy),
    /// Sequent Symmetry shared snooping bus.
    Bus(Bus),
    /// BBN Butterfly dance-hall MIN (no coherent caches).
    Butterfly(Butterfly),
}

impl Fabric {
    /// Whether this machine has hardware-coherent caches. `false` only for
    /// the Butterfly — the fact §3.2.3 hinges on (no global wakeup flag
    /// possible; every spin is a network transaction).
    #[must_use]
    pub fn has_coherent_caches(&self) -> bool {
        !matches!(self, Self::Butterfly(_))
    }

    /// Book a transaction.
    ///
    /// * `src_cell` — issuing processor.
    /// * `transit` — how far the coherence layer says it travels (rings
    ///   only).
    /// * `interleave_key` — sub-page index, selects the sub-ring on rings
    ///   and the memory module (`key % ports`) on the Butterfly.
    /// * `tracer` — the machine's trace buffer; every admission grant
    ///   emits a `RingSlot` event into it.
    pub fn transact(
        &mut self,
        now: Cycles,
        src_cell: usize,
        transit: Transit,
        interleave_key: u64,
        kind: PacketKind,
        tracer: &mut Tracer,
    ) -> RingTiming {
        match self {
            Self::Ring(h) => h.transact(now, src_cell, transit, interleave_key, kind, tracer),
            Self::Bus(b) => b.transact(now, kind, tracer),
            Self::Butterfly(n) => {
                let module = (interleave_key % n.config().ports as u64) as usize;
                n.transact(now, module, kind, tracer)
            }
        }
    }

    /// Packets absorbed by in-network ARD combining (always 0 on the
    /// bus and the Butterfly, and on rings with combining disabled).
    #[must_use]
    pub fn combined_packets(&self) -> u64 {
        match self {
            Self::Ring(h) => h.combined_packets(),
            Self::Bus(_) | Self::Butterfly(_) => 0,
        }
    }

    /// Normalized counters.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        match self {
            Self::Ring(h) => {
                let s = h.total_stats();
                FabricStats {
                    packets: s.packets,
                    wait_cycles: s.slot_wait_cycles,
                }
            }
            Self::Bus(b) => {
                let s = b.stats();
                FabricStats {
                    packets: s.transactions,
                    wait_cycles: s.wait_cycles,
                }
            }
            Self::Butterfly(n) => {
                let s = n.stats();
                FabricStats {
                    packets: s.requests,
                    wait_cycles: s.module_wait_cycles,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with no sink: these tests book transactions untraced.
    fn untraced() -> Tracer {
        Tracer::disabled()
    }
    use crate::Topology;

    #[test]
    fn presets_construct() {
        assert!(Topology::ksr1_32().build(32).is_ok());
        assert!(Topology::ksr_64().build(64).is_ok());
        assert!(Topology::bus().build(32).is_ok());
        assert!(Topology::butterfly(32).build(32).is_ok());
    }

    #[test]
    fn coherence_and_path_flags() {
        let ring = Topology::ksr1_32().build(32).unwrap();
        let bus = Topology::bus().build(16).unwrap();
        let butterfly = Topology::butterfly(16).build(16).unwrap();
        assert!(ring.has_coherent_caches());
        assert!(bus.has_coherent_caches());
        assert!(!butterfly.has_coherent_caches());
    }

    #[test]
    fn ring_vs_bus_concurrency_contrast() {
        // Twelve simultaneous distinct transactions: roughly equal finish
        // times on the ring, strictly staircased on the bus.
        let mut ring = Topology::ksr1_32().build(32).unwrap();
        let ring_t: Vec<_> = (0..12)
            .map(|i| {
                ring.transact(
                    0,
                    i,
                    Transit::Local,
                    0,
                    PacketKind::ReadData,
                    &mut untraced(),
                )
                .response_at
            })
            .collect();
        let spread = ring_t.iter().max().unwrap() - ring_t.iter().min().unwrap();
        assert!(
            spread < 136,
            "ring transactions overlap within one rotation: spread {spread}"
        );

        let mut bus = Topology::bus().build(32).unwrap();
        let bus_t: Vec<_> = (0..12)
            .map(|i| {
                bus.transact(
                    0,
                    i,
                    Transit::Local,
                    0,
                    PacketKind::ReadData,
                    &mut untraced(),
                )
                .response_at
            })
            .collect();
        assert!(bus_t.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn stats_normalize() {
        let mut f = Topology::butterfly(8).build(8).unwrap();
        f.transact(
            0,
            0,
            Transit::Local,
            3,
            PacketKind::ReadData,
            &mut untraced(),
        );
        f.transact(
            0,
            1,
            Transit::Local,
            3,
            PacketKind::ReadData,
            &mut untraced(),
        );
        let s = f.stats();
        assert_eq!(s.packets, 2);
        assert!(s.wait_cycles > 0, "second request queued at module 3");
    }
}
