//! A fixed clock-speed probe, independent of the simulator.
//!
//! The host this benchmark runs on is shared, and its neighbours' load
//! moves the core clock: for minutes at a time every instruction runs up
//! to a quarter slower, with no steal time to show for it. Within one run
//! the fastest rep of each part is steady, but whole runs shift with the
//! clock. The probe is a chain of dependent ALU operations that touches
//! no memory, so its time moves with the clock and nothing else: not
//! with cache contention, and not with the simulator's code. Scaling a
//! run's times by its median probe time takes the clock drift out.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one probe run takes on the reference host, a 2-vCPU Intel
/// Xeon (Sapphire Rapids, 2.0 GHz nominal) at its usual clock: the
/// speed every reported time is scaled to.
pub const REFERENCE_S: f64 = 0.040;

/// Dependent multiply-rotate-xor steps in one probe run.
const STEPS: u64 = 20_000_000;

/// Host seconds one probe run takes now.
pub fn seconds() -> f64 {
    let t0 = Instant::now();
    let mut h = black_box(1u64);
    for i in 0..STEPS {
        h = (h ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13);
    }
    black_box(h);
    t0.elapsed().as_secs_f64()
}
