//! # ksr-verify
//!
//! Analysis passes over the `ksr_core::trace` event stream. Everything
//! in this crate *consumes* events and never feeds back into the
//! simulator, so attaching any of these checkers cannot perturb virtual
//! time — a checked run produces bit-identical results to an unchecked
//! one (asserted by the `trace_determinism` suite).
//!
//! Four passes:
//!
//! * [`checker`] — a [`checker::CheckingSink`] that shadows every
//!   sub-page's global coherence state from the event stream and asserts
//!   the ALLCACHE protocol invariants (single writable copy, no `Shared`
//!   beside `Exclusive`, invalidations acknowledged before writes
//!   commit, `release_sub_page` only from `Atomic`, transition-table
//!   legality). Violations carry the offending cycle, processor, and a
//!   short event-window replay from an internal
//!   [`ksr_core::trace::RingBufferSink`].
//! * [`race`] — a FastTrack-style vector-clock happens-before race
//!   detector over per-processor data accesses, with synchronization
//!   edges derived from `get_sub_page`/`release_sub_page`, native atomic
//!   RMWs, and flag handoffs (write → poststore/snarf → spin).
//! * [`predict`] — predictive passes over one observed trace: an
//!   Eraser-style lockset detector ([`predict::lockset_analysis`])
//!   catching locking-discipline violations even when this run's vector
//!   clocks ordered the accesses, and a lock-order graph
//!   ([`predict::LockOrderGraph`]) reporting potential-deadlock cycles
//!   and lock/barrier hazards that never manifested.
//! * [`explore`] — a small-scope exhaustive schedule explorer
//!   ([`explore::explore`]): enumerate every resolution of the
//!   coordinator's equal-time ties (via `ksr_machine::ScheduleOracle`),
//!   re-running the checkers on each interleaving within a bounded
//!   budget.
//!
//! The bench harness wires the first three into `run_all --check`,
//! which writes a machine-readable `violations.json`; the explorer
//! drives the `EXPLORE` experiment.

pub mod checker;
pub mod explore;
#[cfg(test)]
mod offline_oracle;
pub mod predict;
pub mod race;
pub mod report;

pub use checker::{CheckerConfig, CheckingSink, Rule, Violation};
pub use explore::{ExploreConfig, ExploreReport, RunOutcome, WitnessedViolation};
pub use predict::{lockset_analysis, LockOrderGraph, PredictFinding, PredictRule, PredictiveSink};
pub use race::{Access, CollectingSink, RaceDetector, RaceReport};
