//! # ksr1-repro
//!
//! Umbrella crate for the reproduction of *"Scalability Study of the
//! KSR-1"* (ICPP 1993 / Parallel Computing 22, 1996). It re-exports the
//! workspace crates so examples and integration tests can reach the whole
//! system through one dependency:
//!
//! * [`core`] — virtual time, deterministic RNG, statistics, scalability
//!   metrics, table rendering.
//! * [`net`] — the slotted pipelined unidirectional ring (and the Symmetry
//!   bus / BBN Butterfly comparison fabrics).
//! * [`mem`] — the ALLCACHE two-level cache hierarchy and sub-page
//!   coherence protocol.
//! * [`machine`] — the deterministic event-driven machine simulator and its
//!   processor-program API.
//! * [`sync`] — locks and the nine barrier algorithms of §3.2.
//! * [`nas`] — the EP, CG, IS kernels and the SP application of §3.3.
//! * [`verify`] — trace-driven coherence checking, happens-before race
//!   detection, predictive lockset/lock-order analysis, small-scope
//!   schedule exploration, and static schedule lints (`run_all --check`).
//! * [`bench`](mod@bench) — the experiment registry, executor, and
//!   `--check` harness behind every `results/` artifact, driven by the
//!   `run_all` binary.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment
//! index.

#![warn(missing_docs)]

pub use ksr_bench as bench;
pub use ksr_core as core;
pub use ksr_machine as machine;
pub use ksr_mem as mem;
pub use ksr_nas as nas;
pub use ksr_net as net;
pub use ksr_sync as sync;
pub use ksr_verify as verify;
