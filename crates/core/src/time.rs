//! Virtual time.
//!
//! Everything in the simulator is accounted in **processor clock cycles**.
//! The KSR-1 cell is clocked at 20 MHz (50 ns cycle); the KSR-2 is the same
//! machine clocked at 40 MHz. The paper reports some results in seconds and
//! some in cycles; [`cycles_to_seconds`] converts at a machine's clock rate
//! (`MachineConfig::clock_hz`), so the two machines' cycles never mix.

/// A duration or instant measured in processor clock cycles.
pub type Cycles = u64;

/// A clock rate in Hertz.
pub type Hz = u64;

/// KSR-1 cell clock: 20 MHz (50 ns per cycle).
pub const KSR1_CLOCK_HZ: Hz = 20_000_000;

/// KSR-2 cell clock: 40 MHz. The paper (§3.2.4) states the processor clock
/// is the *only* architectural difference from the KSR-1; the ring and the
/// memory hierarchy are identical.
pub const KSR2_CLOCK_HZ: Hz = 40_000_000;

/// Convert a cycle count to seconds at a given clock rate.
///
/// ```
/// use ksr_core::time::{cycles_to_seconds, KSR1_CLOCK_HZ};
/// assert_eq!(cycles_to_seconds(20_000_000, KSR1_CLOCK_HZ), 1.0);
/// ```
#[must_use]
pub fn cycles_to_seconds(cycles: Cycles, clock_hz: Hz) -> f64 {
    cycles as f64 / clock_hz as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_time_is_zero_seconds() {
        assert_eq!(cycles_to_seconds(0, KSR1_CLOCK_HZ), 0.0);
    }

    #[test]
    fn ksr1_cycle_is_50ns() {
        assert!((cycles_to_seconds(1, KSR1_CLOCK_HZ) - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn ksr2_cycle_is_half_a_ksr1_cycle() {
        let one = cycles_to_seconds(1, KSR1_CLOCK_HZ);
        let two = cycles_to_seconds(1, KSR2_CLOCK_HZ);
        assert!((one - 2.0 * two).abs() < 1e-15);
    }
}
