//! Machine configuration and presets.

use ksr_core::time::{Hz, KSR1_CLOCK_HZ, KSR2_CLOCK_HZ};
use ksr_core::{Error, Result};
use ksr_mem::{CacheTiming, MemGeometry, ProtocolOptions};
use ksr_net::{Fabric, Topology};

/// Unsynchronized per-processor timer interrupts — the OS effect the
/// authors cite (via personal communication with Steve Frank) to explain
/// why their software queue lock beats the hardware lock even with
/// writers only (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptConfig {
    /// Start-to-start interval between interrupts on one processor.
    pub quantum_cycles: u64,
    /// Processor cycles consumed by each interrupt.
    pub duration_cycles: u64,
}

impl InterruptConfig {
    /// A 100 Hz scheduler tick on a 20 MHz cell costing ~50 µs of handler
    /// time — coarse, but the *unsynchronized phase* across processors is
    /// what matters for the lock experiment.
    #[must_use]
    pub fn ksr_os() -> Self {
        Self {
            quantum_cycles: 200_000,
            duration_cycles: 1_000,
        }
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Interconnect topology (the fabric always has its full complement
    /// of stations; experiments may run fewer programs than `cells`).
    pub topology: Topology,
    /// Number of processor cells physically present.
    pub cells: usize,
    /// Cache geometry per cell.
    pub geometry: MemGeometry,
    /// Cache/controller timing constants.
    pub timing: CacheTiming,
    /// Cell clock rate.
    pub clock_hz: Hz,
    /// Peak floating-point operations per cycle (KSR-1: 2, i.e. 40 MFLOPS
    /// at 20 MHz).
    pub flops_per_cycle: u64,
    /// Master seed for replacement policies and workloads.
    pub seed: u64,
    /// Timer-interrupt model, if enabled.
    pub interrupts: Option<InterruptConfig>,
    /// Whether the processor has a native fetch-and-Φ instruction. The
    /// KSR-1 does not (fetch-and-add is synthesised from `get_sub_page`,
    /// §3.2.2); the Symmetry and Butterfly do, which matters for the
    /// §3.2.3 barrier comparison.
    pub native_fetch_op: bool,
    /// Coherence-protocol feature toggles (ablations).
    pub protocol: ProtocolOptions,
}

impl MachineConfig {
    /// The paper's 32-cell KSR-1 with full-size caches.
    #[must_use]
    pub fn ksr1(seed: u64) -> Self {
        Self {
            topology: Topology::ksr1_32(),
            cells: 32,
            geometry: MemGeometry::ksr1(),
            timing: CacheTiming::ksr1(),
            clock_hz: KSR1_CLOCK_HZ,
            flops_per_cycle: 2,
            seed,
            interrupts: None,
            native_fetch_op: false,
            protocol: ProtocolOptions::default(),
        }
    }

    /// KSR-1 with caches scaled down by `factor` (used with problem sizes
    /// scaled by the same factor; see DESIGN.md).
    #[must_use]
    pub fn ksr1_scaled(seed: u64, factor: u64) -> Self {
        Self {
            geometry: MemGeometry::scaled(factor),
            ..Self::ksr1(seed)
        }
    }

    /// The 64-cell two-level KSR-2 of §3.2.4: same ring in absolute time,
    /// 40 MHz cells, so every hop and ARD crossing costs twice the cycles.
    #[must_use]
    pub fn ksr2(seed: u64) -> Self {
        Self {
            topology: Topology::ksr2_64(),
            cells: 64,
            clock_hz: KSR2_CLOCK_HZ,
            ..Self::ksr1(seed)
        }
    }

    /// A deeper KSR-1-style ring system from a shape spec (`spec[0]`
    /// cells per leaf ring, further entries per-level fanout — see
    /// [`Topology::ring_levels`]): KSR-1 clock, caches and timing, with
    /// as many cells as the tree holds. `&[32, 8, 4]` is the 1024-cell
    /// three-level machine of the scaling experiments.
    #[must_use]
    pub fn ksr_ring(seed: u64, spec: &[usize]) -> Self {
        let topology = Topology::ring_levels(spec);
        let cells = topology.capacity().unwrap_or(0);
        Self {
            topology,
            cells,
            ..Self::ksr1(seed)
        }
    }

    /// Sequent Symmetry-style bus machine with `cells` processors.
    #[must_use]
    pub fn symmetry(cells: usize, seed: u64) -> Self {
        Self {
            topology: Topology::bus(),
            cells,
            geometry: MemGeometry::ksr1(),
            timing: CacheTiming::symmetry(),
            clock_hz: 16_000_000,
            flops_per_cycle: 1,
            seed,
            interrupts: None,
            native_fetch_op: true,
            protocol: ProtocolOptions::default(),
        }
    }

    /// BBN Butterfly-style MIN machine with `cells` processors.
    #[must_use]
    pub fn butterfly(cells: usize, seed: u64) -> Self {
        Self {
            topology: Topology::butterfly(cells),
            timing: CacheTiming::butterfly(),
            ..Self::symmetry(cells, seed)
        }
    }

    /// Enable the timer-interrupt model.
    #[must_use]
    pub fn with_interrupts(mut self, ints: InterruptConfig) -> Self {
        self.interrupts = Some(ints);
        self
    }

    /// Build the interconnect for this configuration. Capacity and shape
    /// errors come from the topology's own validation.
    pub fn build_fabric(&self) -> Result<Fabric> {
        self.topology.build(self.cells)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        self.geometry.validate()?;
        if self.cells == 0 {
            return Err(Error::Config("need at least one cell".into()));
        }
        if self.flops_per_cycle == 0 {
            return Err(Error::Config("flops_per_cycle must be non-zero".into()));
        }
        if self.clock_hz == 0 {
            return Err(Error::Config("clock must be non-zero".into()));
        }
        if let Some(i) = &self.interrupts {
            if i.quantum_cycles == 0 || i.duration_cycles >= i.quantum_cycles {
                return Err(Error::Config(
                    "interrupt duration must be well below quantum".into(),
                ));
            }
        }
        self.topology.validate_for(self.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineConfig::ksr1(1).validate().unwrap();
        MachineConfig::ksr1_scaled(1, 64).validate().unwrap();
        MachineConfig::ksr2(1).validate().unwrap();
        MachineConfig::symmetry(16, 1).validate().unwrap();
        MachineConfig::butterfly(32, 1).validate().unwrap();
        MachineConfig::ksr_ring(1, &[32, 8, 4]).validate().unwrap();
    }

    #[test]
    fn ksr1_is_the_papers_machine() {
        let c = MachineConfig::ksr1(0);
        assert_eq!(c.cells, 32);
        assert_eq!(c.clock_hz, 20_000_000);
        assert_eq!(c.flops_per_cycle, 2, "40 MFLOPS peak at 20 MHz");
    }

    #[test]
    fn ksr2_doubles_clock_and_ring_cycle_cost() {
        let c = MachineConfig::ksr2(0);
        assert_eq!(c.clock_hz, 40_000_000);
        match c.build_fabric().unwrap() {
            Fabric::Ring(h) => {
                assert_eq!(
                    h.config().leaf.hop_cycles,
                    8,
                    "ring absolute speed unchanged"
                );
                assert_eq!(h.config().n_leaves(), 2);
            }
            _ => panic!("KSR-2 is a ring machine"),
        }
    }

    #[test]
    fn ksr_ring_spans_1024_cells() {
        let c = MachineConfig::ksr_ring(0, &[32, 8, 4]);
        assert_eq!(c.cells, 1024);
        assert_eq!(c.topology.ring_depth(), Some(3));
        assert_eq!(c.clock_hz, 20_000_000, "KSR-1 cells throughout");
    }

    #[test]
    fn oversized_configs_rejected_by_the_topology() {
        let mut c = MachineConfig::ksr1(0);
        c.cells = 33;
        let err = c.validate().unwrap_err().to_string();
        assert!(
            err.contains("ring[32]") && err.contains("33"),
            "capacity errors come from the topology: {err}"
        );
        let mut c = MachineConfig::ksr2(0);
        c.cells = 65;
        assert!(c.validate().is_err());
        // 2^60 cells: far above the ring tree's cell cap, rejected
        // before a single leaf ring is allocated.
        let c = MachineConfig::ksr_ring(0, &[32; 12]);
        assert!(matches!(c.validate(), Err(Error::Config(_))));
    }

    #[test]
    fn bus_and_butterfly_machines_stop_at_the_cell_cap() {
        use ksr_net::hierarchy::MAX_CELLS;
        // Validation only: nothing of this size is ever built.
        for c in [
            MachineConfig::symmetry(MAX_CELLS + 1, 0),
            MachineConfig::butterfly(MAX_CELLS + 1, 0),
        ] {
            assert!(matches!(c.validate(), Err(Error::Config(_))), "{c:?}");
        }
    }

    #[test]
    fn bad_interrupts_rejected() {
        let c = MachineConfig::ksr1(0).with_interrupts(InterruptConfig {
            quantum_cycles: 100,
            duration_cycles: 100,
        });
        assert!(c.validate().is_err());
    }
}
