//! TAB2 — Integer Sort scalability (§3.3.2, Table 2).
//!
//! Runs the scaled IS problem (2^16 keys against the paper's 2^23, with
//! the caches scaled by the same factor so the key/rank arrays still
//! overflow one local cache at low processor counts) for the paper's
//! processor counts including the 30-vs-32 pair that exposes ring
//! saturation.

use ksr_core::metrics::ScalingTable;
use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::Machine;
use ksr_nas::{IsConfig, IsSetup};

use crate::common::RunOpts;
use crate::exec::{ExperimentPlan, Out};
use crate::table1_cg::SCALE;

/// Registry id.
pub const ID: &str = "TAB2";
/// Registry title.
pub const TITLE: &str = "Integer Sort (Table 2, Figure 8)";

/// Seconds for one IS run at `procs` processors. Also returns the mean
/// remote-access latency observed by the performance monitor — the
/// counter the authors used to attribute the 30→32 jump to the ring.
#[must_use]
pub fn is_time(cfg: IsConfig, procs: usize, seed: u64) -> (f64, f64) {
    let mut m = Machine::ksr1_scaled(seed, SCALE).expect("machine");
    let setup = IsSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    let lat = m.perfmon_total().mean_ring_latency();
    (
        cycles_to_seconds(r.duration_cycles(), m.config().clock_hz),
        lat,
    )
}

/// The scaled Table-2 configuration.
#[must_use]
pub fn paper_config(quick: bool) -> IsConfig {
    IsConfig {
        keys: if quick { 1 << 13 } else { 1 << 16 },
        max_key: if quick { 1 << 9 } else { 1 << 11 },
        seed: 1 << 23,
        chunk: 128,
    }
}

/// Plan Table 2: one job per processor count; each job reports both the
/// run time and the perfmon ring latency.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let cfg = paper_config(quick);
    let procs: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16, 30, 32]
    };
    let seed = opts.machine_seed(600);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let runs: Vec<(usize, Out<(f64, f64)>)> = procs
        .iter()
        .map(|&p| {
            (
                p,
                plan.job(format!("TAB2 is p={p}"), move || is_time(cfg, p, seed)),
            )
        })
        .collect();
    plan.reduce(move |res, out| {
        let times: Vec<(usize, f64)> = runs.iter().map(|&(p, h)| (p, res[h].0)).collect();
        let table = ScalingTable::from_times(&times);
        out.push_text(&table.render(&format!(
            "Integer Sort, number of input keys = 2^{} (scaled 1/{SCALE})",
            cfg.keys.trailing_zeros()
        )));
        out.line(format_args!(
            "serial fraction monotonically increasing: {} (paper: yes — the algorithm, \
             not the architecture)",
            table.serial_fraction_monotonic_up()
        ));
        let t1 = times[0].1;
        for &(p, t) in &times {
            out.row("is_run_seconds", &[("procs", Json::from(p))], t, "s");
            out.row("speedup", &[("procs", Json::from(p))], t1 / t, "x");
        }
        out.push_text("perfmon mean remote latency (cycles) — the 30→32 rise is the ring:");
        for (p, h) in runs {
            let lat = res[h].1;
            out.line(format_args!("  {p:>2} procs: {lat:8.1}"));
            out.row(
                "mean_ring_latency_cycles",
                &[("procs", Json::from(p))],
                lat,
                "cycles",
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_scales_through_4_procs() {
        let cfg = paper_config(true);
        let (t1, _) = is_time(cfg, 1, 1);
        let (t4, _) = is_time(cfg, 4, 1);
        let s = t1 / t4;
        assert!(s > 2.0, "IS speedup at 4 procs = {s:.2}");
    }

    #[test]
    fn serial_fraction_rises_in_quick_table() {
        let out = plan(&RunOpts::quick()).run_serial();
        assert!(out.text.contains("Serial Fraction"));
        assert!(out
            .rows
            .iter()
            .any(|r| r.metric == "mean_ring_latency_cycles"));
    }
}
