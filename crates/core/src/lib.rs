//! # ksr-core
//!
//! Foundation crate for the reproduction of *"Scalability Study of the
//! KSR-1"* (Ramachandran, Shah, Muthukumarasamy, Ravikumar; ICPP 1993 /
//! Parallel Computing 22, 1996).
//!
//! This crate holds everything the rest of the workspace shares but that is
//! independent of any particular machine model:
//!
//! * [`time`] — virtual time in processor clock cycles, and conversion to
//!   wall-clock seconds at a configurable clock rate (the KSR-1 runs at
//!   20 MHz, the KSR-2 at 40 MHz).
//! * [`rng`] — a small, fully deterministic xorshift PRNG used for cache
//!   replacement decisions and workload generation, so that every simulation
//!   is reproducible from a single seed.
//! * [`stats`] — summary statistics (mean, stddev, min/max, percentiles) and
//!   a least-squares linear fit used by the experiment harness.
//! * [`metrics`] — the scalability metrics the paper reports: speedup,
//!   efficiency, and the Karp–Flatt experimentally determined serial
//!   fraction.
//! * [`table`] — plain-text table and series rendering so each experiment
//!   binary can print the same rows/columns the paper's tables and figures
//!   contain.
//! * [`trace`] — cycle-stamped event tracing: the [`trace::TraceEvent`]
//!   vocabulary (ring slots, coherence transitions, snarfs,
//!   invalidations, atomic rejections, barrier episodes, lock handoffs),
//!   the [`trace::TraceSink`] consumer trait, and the zero-cost-when-off
//!   [`trace::Tracer`]: one machine's event buffer, delivered to the sink
//!   in batches, that every instrumented layer emits into.
//! * [`json`] — a dependency-free JSON value/writer for the
//!   machine-readable results pipeline (`results/<id>.json`,
//!   `results/summary.json`). Pure value → text rendering: no global
//!   state anywhere in this crate, so concurrent jobs can trace and
//!   serialize independently.
//! * [`progress`] — progress reporting: each worker writes its own
//!   status lines to stderr, and stdout stays reserved for results.
//! * [`hash`] — a deterministic FxHash-style hasher and the
//!   [`hash::FxHashMap`]/[`hash::FxHashSet`] aliases used by every
//!   integer-keyed table on the simulator's memory-access hot path.
//! * [`fingerprint`](mod@fingerprint) — stable 128-bit content
//!   fingerprints (two salted FxHash lanes) keying the sweep harness's
//!   results cache.
//! * [`error`] — the shared error type.

#![warn(missing_docs)]

pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;

pub use error::{Error, Result};
pub use fingerprint::{fingerprint, Fingerprint, FingerprintBuilder};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::Json;
pub use metrics::{efficiency, karp_flatt, speedup, ScalingRow, ScalingTable};
pub use progress::Progress;
pub use rng::XorShift64;
pub use stats::{linear_fit, Summary};
pub use table::{Series, TextTable};
pub use time::{Cycles, Hz, KSR1_CLOCK_HZ, KSR2_CLOCK_HZ};
pub use trace::{
    CountingSink, NullSink, RingBufferSink, TraceEvent, TraceKind, TraceSink, TraceState, Tracer,
};
