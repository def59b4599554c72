//! # ksr-machine
//!
//! The deterministic machine simulator for the KSR-1 scalability-study
//! reproduction. A [`Machine`] combines the ALLCACHE memory system
//! (`ksr-mem`) and an interconnect (`ksr-net`) with a set of processor
//! cells; experiments hand it one [`Program`] per processor and get back a
//! [`RunReport`] with virtual-time measurements.
//!
//! * [`config`] — machine presets: the 32-cell KSR-1, the 64-cell KSR-2
//!   (two-level ring, doubled clock), deeper `ksr_ring` trees up to 1024
//!   cells, and the Symmetry/Butterfly comparison machines of §3.2.3,
//!   plus the timer-interrupt model used by the lock experiment. The
//!   interconnect shape is a `ksr_net::Topology` value.
//! * [`cpu`] — the processor handle: timed reads/writes,
//!   `get_sub_page`/`release_sub_page`, `prefetch`, `poststore`, private
//!   compute, FLOP accounting, and fast-forwarded spin loops.
//! * [`program`](mod@program) — the resumable-state-machine contract
//!   ([`Program`], [`Step`]) that simulated programs compile down to,
//!   written as ordinary `async` closures.
//! * [`machine`] — the coordinator that serializes all shared-memory
//!   operations in global virtual-time order (fully deterministic runs):
//!   the single-threaded event core, and scoped per-thread machine
//!   observers ([`ObserverScope`]) for verification harnesses.
//! * [`schedule`] — [`ScheduleOracle`]: controlled resolution of the
//!   coordinator's equal-timestamp ties, the hook the small-scope
//!   schedule explorer (`ksr_verify::explore`) enumerates interleavings
//!   through. No oracle installed ⇒ the historical deterministic order.
//! * [`arrays`] — typed shared-vector handles for kernel code.
//! * [`probe`] — [`read_stream`], the remote-read stream every
//!   saturation measurement runs: per-processor mean cycles per read
//!   with all streams in flight at once.
//! * [`heap`] — the SVA bump allocator with the paper's
//!   false-sharing-avoiding sub-page alignment discipline.
//! * [`report`] — run timing and FLOP reports.
//! * [`snapshot`] — point-in-time [`PerfSnapshot`]s of every hardware
//!   counter, with delta arithmetic for per-phase attribution (the way
//!   the paper's authors used the hardware monitor).

#![warn(missing_docs)]

pub mod arrays;
pub mod config;
pub mod cpu;
pub mod heap;
pub mod machine;
pub mod probe;
pub mod program;
pub mod report;
pub mod schedule;
pub mod snapshot;

pub use arrays::{SharedF64, SharedU64};
pub use config::{InterruptConfig, MachineConfig};
pub use cpu::{AccessOp, Cpu, Reply};
pub use heap::Heap;
pub use machine::{Machine, MachineObserver, ObserverScope};
pub use probe::read_stream;
pub use program::{program, Program, Step};
pub use report::RunReport;
pub use schedule::{ReplayOracle, ScheduleOracle, ScheduleTrace};
pub use snapshot::PerfSnapshot;
