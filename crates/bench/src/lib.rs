//! # ksr-bench
//!
//! The experiment harness: one module per table/figure of *"Scalability
//! Study of the KSR-1"*, each regenerating the same rows or curves the
//! paper reports (see the per-experiment index in `DESIGN.md`).
//!
//! Experiments are [`Experiment`]s: look them up in [`REGISTRY`]. Each
//! experiment describes itself as an [`exec::ExperimentPlan`]: pure
//! jobs plus a reduce. A job is a label, which names it in progress
//! lines and `timings.json`, and a closure over config and seed that
//! builds its own machines and returns a typed value (`f64`, a tuple, a
//! report); queuing it yields an [`exec::Out`] handle, and the reduce
//! reads every value through the handles its planner kept.
//! [`exec::execute`] schedules the jobs of many plans over a pool of
//! worker threads (`--jobs N`). Because every job is pure and a handle
//! reads the same value whichever worker ran it, `results/*.json` and
//! `summary.json` are byte-identical at any worker count.
//!
//! Each reduce fills an [`ExperimentOutput`] carrying rendered text,
//! figure series, and typed [`MetricRow`]s; `write_to` persists
//! `<id>.txt` / `<id>.csv` / `<id>.json`, and [`common::write_summary`]
//! indexes a whole run in `summary.json`. The `run_all` binary is the
//! one CLI front end (`--list`, `--only FIG4,TAB1`, `--quick`, `--jobs`;
//! see [`cli`]): `run_all --only ID` regenerates a single artifact.
//! Its flags are the only way to set the [`RunOpts`].

#![warn(missing_docs)]

pub mod ablations;
pub mod check;
pub mod cli;
pub mod cmb_combining;
pub mod common;
pub mod ep_scaling;
pub mod exec;
pub mod explore_exp;
pub mod ext_wishlist;
pub mod fig2_latency;
pub mod fig3_locks;
pub mod fig4_barriers;
pub mod fig8_speedup;
pub mod lad_latency;
pub mod lck_locks;
pub mod registry;
pub mod scb_scaling;
pub mod table1_cg;
pub mod table2_is;
pub mod table3_sp;

pub use common::{ExperimentOutput, MetricRow, RunOpts};
pub use exec::{execute, ExecReport, ExperimentPlan, ExperimentResult, Out, PlanTimings, Results};
pub use registry::{Experiment, REGISTRY};
