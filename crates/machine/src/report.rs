//! Results of one simulated run.

use ksr_core::time::{cycles_to_seconds, Cycles, Hz};

/// Timing and accounting for one call to
/// [`crate::machine::Machine::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time at which all processors started.
    pub started_at: Cycles,
    /// Virtual time at which the last processor finished.
    pub finished_at: Cycles,
    /// Cell clock rate (for conversions).
    pub clock_hz: Hz,
    /// Per-processor finish times.
    pub proc_end: Vec<Cycles>,
    /// Per-processor floating-point operation counts.
    pub proc_flops: Vec<u64>,
}

impl RunReport {
    /// Makespan in cycles (start of run to last finisher).
    #[must_use]
    pub fn duration_cycles(&self) -> Cycles {
        self.finished_at - self.started_at
    }

    /// Makespan in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        cycles_to_seconds(self.duration_cycles(), self.clock_hz)
    }

    /// Total floating-point operations across all processors.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.proc_flops.iter().sum()
    }

    /// Aggregate MFLOPS over the makespan (the paper quotes ~11 MFLOPS
    /// sustained per processor for EP against a 40 MFLOPS peak).
    #[must_use]
    pub fn mflops(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.total_flops() as f64 / s / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            started_at: 1_000,
            finished_at: 21_000,
            clock_hz: 20_000_000,
            proc_end: vec![11_000, 21_000],
            proc_flops: vec![4_000, 6_000],
        }
    }

    #[test]
    fn durations() {
        let r = report();
        assert_eq!(r.duration_cycles(), 20_000);
        assert!((r.seconds() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn flops_aggregate() {
        let r = report();
        assert_eq!(r.total_flops(), 10_000);
        assert!((r.mflops() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_mflops_is_zero() {
        let mut r = report();
        r.finished_at = r.started_at;
        assert_eq!(r.mflops(), 0.0);
    }
}
