//! A BBN Butterfly-style dance-hall multistage interconnection network.
//!
//! §3.2.3: "On the BBN Butterfly, we do have parallel communication paths.
//! However, since there are no (hardware) coherent caches the global wakeup
//! flag method cannot be used on this machine." Every shared reference
//! crosses the MIN to a memory module; spinning is remote polling.
//!
//! The model routes a request through `log_arity(ports)` switch stages to
//! the target memory module, serializes at the module (hot-spot contention
//! — the phenomenon that makes a shared counter or flag expensive on this
//! machine), and returns through the network. Switch-stage contention is
//! secondary to module contention for the paper's workloads and is folded
//! into the per-hop constant.

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, Tracer};
use ksr_core::{Error, Result};

use crate::hierarchy::MAX_CELLS;
use crate::msg::PacketKind;
use crate::ring::RingTiming;

/// Butterfly network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ButterflyConfig {
    /// Processor ports (== memory modules in a dance-hall organisation).
    pub ports: usize,
    /// Radix of each switch (the BBN Butterfly used 4×4 switches).
    pub switch_arity: usize,
    /// Cycles per switch stage, each direction.
    pub hop_cycles: Cycles,
    /// Memory-module service time per request.
    pub memory_cycles: Cycles,
}

impl ButterflyConfig {
    /// A BBN Butterfly-flavoured default for `ports` processors.
    #[must_use]
    pub fn bbn(ports: usize) -> Self {
        Self {
            ports,
            switch_arity: 4,
            hop_cycles: 4,
            memory_cycles: 10,
        }
    }

    /// Number of switch stages between a processor and a memory module.
    #[must_use]
    pub fn stages(&self) -> u32 {
        let mut n = 1usize;
        let mut stages = 0u32;
        while n < self.ports {
            n *= self.switch_arity;
            stages += 1;
        }
        stages.max(1)
    }

    /// One-way network transit time.
    #[must_use]
    pub fn transit(&self) -> Cycles {
        Cycles::from(self.stages()) * self.hop_cycles
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.ports == 0 {
            return Err(Error::Config("butterfly needs at least one port".into()));
        }
        if self.ports > MAX_CELLS {
            return Err(Error::Config(format!(
                "butterfly with {} ports exceeds the {MAX_CELLS}-cell cap",
                self.ports
            )));
        }
        if self.switch_arity < 2 {
            return Err(Error::Config("switch arity must be at least 2".into()));
        }
        if self.hop_cycles == 0 || self.memory_cycles == 0 {
            return Err(Error::Config("butterfly timings must be non-zero".into()));
        }
        Ok(())
    }
}

/// Aggregate network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ButterflyStats {
    /// Requests carried.
    pub requests: u64,
    /// Total cycles requests queued at memory modules.
    pub module_wait_cycles: u64,
}

/// A dance-hall butterfly MIN with per-module FIFO queueing.
#[derive(Debug, Clone)]
pub struct Butterfly {
    cfg: ButterflyConfig,
    module_free_at: Vec<Cycles>,
    stats: ButterflyStats,
    tracer: Tracer,
}

impl Butterfly {
    /// Build a network from a validated configuration.
    pub fn new(cfg: ButterflyConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self {
            module_free_at: vec![0; cfg.ports],
            cfg,
            stats: ButterflyStats::default(),
            tracer: Tracer::disabled(),
        })
    }

    /// Attach a tracer; every module grant emits a
    /// [`TraceEvent::RingSlot`] whose wait is the module-queue wait.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The network configuration.
    #[must_use]
    pub fn config(&self) -> &ButterflyConfig {
        &self.cfg
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> ButterflyStats {
        self.stats
    }

    /// Book a request from a processor to memory module `module` at `now`.
    /// `_kind` participates only in accounting today; all requests are one
    /// word on the Butterfly (no cache lines — there are no caches).
    pub fn transact(&mut self, now: Cycles, module: usize, _kind: PacketKind) -> RingTiming {
        assert!(module < self.cfg.ports, "memory module out of range");
        let transit = self.cfg.transit();
        let arrive = now + transit;
        let start = self.module_free_at[module].max(arrive);
        let done = start + self.cfg.memory_cycles;
        self.module_free_at[module] = done;
        self.stats.requests += 1;
        self.stats.module_wait_cycles += start - arrive;
        self.tracer.emit_with(|| TraceEvent::RingSlot {
            at: start,
            wait: start - arrive,
            blocked: start > arrive,
        });
        RingTiming {
            injected_at: now,
            response_at: done + transit,
            slot_wait: start - arrive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_count_grows_logarithmically() {
        assert_eq!(ButterflyConfig::bbn(4).stages(), 1);
        assert_eq!(ButterflyConfig::bbn(16).stages(), 2);
        assert_eq!(ButterflyConfig::bbn(64).stages(), 3);
        assert_eq!(ButterflyConfig::bbn(17).stages(), 3);
    }

    #[test]
    fn uncontended_latency_is_two_transits_plus_service() {
        let mut n = Butterfly::new(ButterflyConfig::bbn(16)).unwrap();
        let t = n.transact(0, 3, PacketKind::ReadData);
        assert_eq!(t.response_at, 2 * 8 + 10);
        assert_eq!(t.slot_wait, 0);
    }

    #[test]
    fn distinct_modules_proceed_in_parallel() {
        let mut n = Butterfly::new(ButterflyConfig::bbn(16)).unwrap();
        let a = n.transact(0, 0, PacketKind::ReadData);
        let b = n.transact(0, 1, PacketKind::ReadData);
        assert_eq!(a.response_at, b.response_at, "parallel paths exist");
    }

    #[test]
    fn hot_module_serializes() {
        let mut n = Butterfly::new(ButterflyConfig::bbn(16)).unwrap();
        let t: Vec<_> = (0..8)
            .map(|_| n.transact(0, 5, PacketKind::ReadData))
            .collect();
        for w in t.windows(2) {
            assert_eq!(
                w[1].response_at - w[0].response_at,
                10,
                "module service serializes"
            );
        }
        assert!(n.stats().module_wait_cycles > 0);
    }

    #[test]
    fn module_frees_after_service() {
        let mut n = Butterfly::new(ButterflyConfig::bbn(16)).unwrap();
        n.transact(0, 5, PacketKind::ReadData);
        let t = n.transact(1_000, 5, PacketKind::ReadData);
        assert_eq!(t.slot_wait, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ButterflyConfig {
            ports: 0,
            ..ButterflyConfig::bbn(4)
        }
        .validate()
        .is_err());
        assert!(ButterflyConfig {
            switch_arity: 1,
            ..ButterflyConfig::bbn(4)
        }
        .validate()
        .is_err());
        assert!(ButterflyConfig {
            memory_cycles: 0,
            ..ButterflyConfig::bbn(4)
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_module_panics() {
        let mut n = Butterfly::new(ButterflyConfig::bbn(4)).unwrap();
        let _ = n.transact(0, 4, PacketKind::ReadData);
    }
}
