//! TAB1 — Conjugate Gradient scalability (§3.3.1, Table 1).
//!
//! Runs the scaled CG problem (n = 1400, ~15 entries/row — the paper's
//! n = 14000 / 2.03M non-zeros divided by the cache scale factor) on the
//! cache-scaled KSR-1 for the paper's processor counts, reporting time,
//! speedup, efficiency, and the Karp–Flatt serial fraction, plus the
//! poststore comparison the paper uses to pin the 32-processor drop on
//! serial-section remote references.

use ksr_core::metrics::ScalingTable;
use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::Machine;
use ksr_nas::{CgConfig, CgSetup};

use crate::common::RunOpts;
use crate::exec::{ExperimentPlan, Out};

/// Registry id.
pub const ID: &str = "TAB1";
/// Registry title.
pub const TITLE: &str = "Conjugate Gradient (Table 1, Figure 8)";

/// Cache scale factor used for the kernel experiments.
pub const SCALE: u64 = 64;

/// Seconds for one CG run at `procs` processors.
#[must_use]
pub fn cg_time(cfg: CgConfig, procs: usize, seed: u64) -> f64 {
    let mut m = Machine::ksr1_scaled(seed, SCALE).expect("machine");
    let setup = CgSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    cycles_to_seconds(r.duration_cycles(), m.config().clock_hz)
}

/// The scaled Table-1 configuration. The off-diagonal density matches the
/// paper's matrix (2.03M non-zeros over n = 14000 rows ≈ 145 per row):
/// that ratio is what keeps the serial vector operations at a percent of
/// the mat-vec and the Karp–Flatt serial fraction near the paper's
/// 0.013–0.14 band.
#[must_use]
pub fn paper_config(quick: bool) -> CgConfig {
    CgConfig {
        n: if quick { 280 } else { 1400 },
        offdiag_per_row: if quick { 36 } else { 144 },
        iterations: if quick { 2 } else { 5 },
        seed: 14_000,
        poststore: false,
        uncache_matrix: false,
    }
}

/// Plan Table 1 (and the poststore note): one job per processor count,
/// plus the poststore points in full mode.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let cfg = paper_config(quick);
    let procs: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    let seed = opts.machine_seed(500);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let runs: Vec<(usize, Out<f64>)> = procs
        .iter()
        .map(|&p| {
            (
                p,
                plan.job(format!("TAB1 cg p={p}"), move || cg_time(cfg, p, seed)),
            )
        })
        .collect();
    // Poststore comparison (paper: ~+3% at 16 procs, less at 32 where the
    // ring nears saturation).
    let ps_procs: Vec<usize> = if quick { vec![] } else { vec![8, 16, 32] };
    let poststore: Vec<(usize, Out<f64>)> = ps_procs
        .iter()
        .map(|&p| {
            let h = plan.job(format!("TAB1 cg poststore p={p}"), move || {
                cg_time(
                    CgConfig {
                        poststore: true,
                        ..cfg
                    },
                    p,
                    seed,
                )
            });
            (p, h)
        })
        .collect();
    plan.reduce(move |res, out| {
        let times: Vec<(usize, f64)> = runs.iter().map(|&(p, h)| (p, res[h])).collect();
        let table = ScalingTable::from_times(&times);
        out.push_text(&table.render(&format!(
            "Conjugate Gradient, datasize n = {}, nonzeros ~ {} (scaled 1/{SCALE})",
            cfg.n,
            cfg.n * (cfg.offdiag_per_row + 1)
        )));
        let t1 = times[0].1;
        for &(p, t) in &times {
            out.row("cg_run_seconds", &[("procs", Json::from(p))], t, "s");
            out.row("speedup", &[("procs", Json::from(p))], t1 / t, "x");
        }
        for (p, h) in poststore {
            let plain = times.iter().find(|&&(q, _)| q == p).unwrap().1;
            let ps = res[h];
            out.line(format_args!(
                "poststore at {p:>2} procs: {:+.1}% (paper: +3% at 16, less at 32)",
                (plain / ps - 1.0) * 100.0
            ));
            out.row(
                "cg_run_seconds",
                &[("procs", Json::from(p)), ("poststore", Json::from(true))],
                ps,
                "s",
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_scales_through_8_procs() {
        let cfg = paper_config(true);
        let t1 = cg_time(cfg, 1, 1);
        let t8 = cg_time(cfg, 8, 1);
        let s = t1 / t8;
        assert!(s > 3.0, "CG speedup at 8 procs = {s:.2}");
    }

    #[test]
    fn quick_table_is_well_formed() {
        let out = plan(&RunOpts::quick()).run_serial();
        assert!(out.text.contains("Speedup"));
        assert!(out.text.lines().count() >= 5);
        assert!(out.rows.iter().any(|r| r.metric == "cg_run_seconds"));
    }
}
