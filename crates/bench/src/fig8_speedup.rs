//! FIG8 — CG and IS speedup curves (§3.3, Figure 8).
//!
//! The figure plots the speedup columns of Tables 1 and 2; this module
//! re-measures both kernels on a common sweep and emits the two curves.

use ksr_core::table::Series;

use crate::common::RunOpts;
use crate::exec::{ExperimentPlan, Out};
use crate::table1_cg::{cg_time, paper_config as cg_config};
use crate::table2_is::{is_time, paper_config as is_config};

/// Registry id.
pub const ID: &str = "FIG8";
/// Registry title.
pub const TITLE: &str = "Speedup for CG and IS (Figure 8)";

/// Plan the Figure 8 sweep: one job per (kernel, procs) point.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let procs: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16, 24, 32]
    };
    let cg_cfg = cg_config(quick);
    let is_cfg = is_config(quick);
    let cg_seed = opts.machine_seed(900);
    let is_seed = opts.machine_seed(901);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let cg: Vec<(usize, Out<f64>)> = procs
        .iter()
        .map(|&p| {
            (
                p,
                plan.job(format!("FIG8 cg p={p}"), move || {
                    cg_time(cg_cfg, p, cg_seed)
                }),
            )
        })
        .collect();
    let is: Vec<(usize, Out<f64>)> = procs
        .iter()
        .map(|&p| {
            let h = plan.job(format!("FIG8 is p={p}"), move || {
                is_time(is_cfg, p, is_seed).0
            });
            (p, h)
        })
        .collect();
    plan.reduce(move |res, out| {
        // Speedup over the sweep's first (one-processor) point.
        let speedup = |label: &str, runs: &[(usize, Out<f64>)]| {
            let mut s = Series::new(label);
            let t1 = res[runs[0].1];
            for &(p, h) in runs {
                s.push(p as f64, t1 / res[h]);
            }
            s
        };
        let (cg, is) = (speedup("CG", &cg), speedup("IS", &is));
        if let (Some(&(_, cg_max)), Some(&(_, is_max))) = (cg.points.last(), is.points.last()) {
            out.line(format_args!(
                "speedup at max procs: CG {cg_max:.1} vs IS {is_max:.1} \
                 (paper at 32: CG 22.8, IS 18.9 — CG above IS)"
            ));
        }
        out.series = vec![cg, is];
        out.rows_from_series("speedup", "procs", "x");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_curves_rise_in_quick_mode() {
        let out = plan(&RunOpts::quick()).run_serial();
        for s in &out.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(
                last > first,
                "{} speedup should grow: {first} -> {last}",
                s.label
            );
        }
    }
}
