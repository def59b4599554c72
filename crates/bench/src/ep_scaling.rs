//! EP — Embarrassingly Parallel scaling (§3.3 text).
//!
//! The paper reports linear speedup for EP and ~11 MFLOPS sustained per
//! processor (against the 40 MFLOPS peak). This experiment regenerates
//! both numbers.

use ksr_core::metrics::ScalingTable;
use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::Machine;
use ksr_nas::{EpConfig, EpSetup};

use crate::common::RunOpts;
use crate::exec::{ExperimentPlan, Out};

/// Registry id.
pub const ID: &str = "EP";
/// Registry title.
pub const TITLE: &str = "Embarrassingly Parallel kernel (§3.3)";

/// `(seconds, aggregate MFLOPS)` for one EP run.
#[must_use]
pub fn ep_time(cfg: EpConfig, procs: usize, seed: u64) -> (f64, f64) {
    let mut m = Machine::ksr1(seed).expect("machine");
    let setup = EpSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    (
        cycles_to_seconds(r.duration_cycles(), m.config().clock_hz),
        r.mflops(),
    )
}

/// Plan the EP scaling experiment: one job per processor count; each
/// job reports both the run time and the aggregate MFLOPS.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let cfg = EpConfig {
        pairs: if quick { 1 << 14 } else { 1 << 18 },
        ..EpConfig::default()
    };
    let procs: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    let seed = opts.machine_seed(800);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let runs: Vec<(usize, Out<(f64, f64)>)> = procs
        .iter()
        .map(|&p| {
            (
                p,
                plan.job(format!("EP p={p}"), move || ep_time(cfg, p, seed)),
            )
        })
        .collect();
    plan.reduce(move |res, out| {
        let times: Vec<(usize, f64)> = runs.iter().map(|&(p, h)| (p, res[h].0)).collect();
        let table = ScalingTable::from_times(&times);
        out.push_text(&table.render(&format!(
            "EP, 2^{} random pairs",
            cfg.pairs.trailing_zeros()
        )));
        let t1 = times[0].1;
        for &(p, t) in &times {
            out.row("ep_run_seconds", &[("procs", Json::from(p))], t, "s");
            out.row("speedup", &[("procs", Json::from(p))], t1 / t, "x");
        }
        for (p, h) in runs {
            let mf = res[h].1;
            out.line(format_args!(
                "  {p:>2} procs: {:6.1} MFLOPS/proc (paper: ~11 sustained, 40 peak)",
                mf / p as f64
            ));
            out.row(
                "mflops_per_proc",
                &[("procs", Json::from(p))],
                mf / p as f64,
                "MFLOPS",
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_is_nearly_linear() {
        let cfg = EpConfig {
            pairs: 1 << 13,
            ..EpConfig::default()
        };
        let (t1, _) = ep_time(cfg, 1, 1);
        let (t4, _) = ep_time(cfg, 4, 1);
        assert!(t1 / t4 > 3.5, "EP speedup at 4 = {:.2}", t1 / t4);
    }
}
