//! TAB3 + TAB4 — the SP application (§3.3.3, Tables 3 and 4).
//!
//! Table 3: per-iteration time and speedup of the optimised SP
//! (padding + prefetch) across processor counts, including the paper's
//! 31-processor best case. Table 4: the optimisation ladder at 30
//! processors — base version, + data padding/alignment, + prefetch — plus
//! the poststore experiment that *slowed SP down*.

use ksr_core::table::TextTable;
use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::Machine;
use ksr_nas::{SpConfig, SpLayout, SpSetup};

use crate::common::RunOpts;
use crate::exec::{ExperimentPlan, Out};

/// Registry id of the Table 3 scaling run.
pub const ID_TAB3: &str = "TAB3";
/// Registry title of the Table 3 scaling run.
pub const TITLE_TAB3: &str =
    "Scalar Pentadiagonal performance (Table 3), data-size 32x32x32 (scaled from 64^3)";
/// Registry id of the Table 4 optimisation ladder.
pub const ID_TAB4: &str = "TAB4";
/// Registry title of the Table 4 optimisation ladder.
pub const TITLE_TAB4: &str = "Scalar Pentadiagonal optimisation ladder (Table 4), 30 processors";

/// Seconds **per iteration** for one SP run.
#[must_use]
pub fn sp_time_per_iter(cfg: SpConfig, procs: usize, seed: u64) -> f64 {
    let mut m = Machine::ksr1(seed).expect("machine");
    let setup = SpSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    cycles_to_seconds(r.duration_cycles(), m.config().clock_hz) / cfg.iterations as f64
}

/// The scaled SP configuration (grid 32³ against the paper's 64³ — large
/// enough that 31 processors still get whole planes, like the paper's
/// machine did).
#[must_use]
pub fn paper_config(quick: bool) -> SpConfig {
    SpConfig {
        n: if quick { 8 } else { 32 },
        iterations: 2,
        seed: 646_464,
        layout: SpLayout::Padded,
        prefetch: true,
        poststore: false,
    }
}

/// Plan Table 3 (scaling of the optimised version): one job per
/// processor count.
#[must_use]
pub fn plan_table3(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let cfg = paper_config(quick);
    let procs: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16, 31]
    };
    let seed = opts.machine_seed(700);
    let mut plan = ExperimentPlan::new(ID_TAB3, TITLE_TAB3);
    let runs: Vec<(usize, Out<f64>)> = procs
        .iter()
        .map(|&p| {
            let h = plan.job(format!("TAB3 sp p={p}"), move || {
                sp_time_per_iter(cfg, p, seed)
            });
            (p, h)
        })
        .collect();
    plan.reduce(move |res, out| {
        let t1 = res[runs[0].1];
        let mut table = TextTable::new(&["Processors", "Time per iteration (s)", "Speedup"]);
        for (p, h) in runs {
            let t = res[h];
            table.row(&[p.to_string(), format!("{t:.5}"), format!("{:.1}", t1 / t)]);
            out.row(
                "sp_seconds_per_iteration",
                &[("procs", Json::from(p))],
                t,
                "s",
            );
            out.row("speedup", &[("procs", Json::from(p))], t1 / t, "x");
        }
        out.push_text(&table.render());
        out.push_text("paper speedups: 2.0 / 3.9 / 7.7 / 15.3 / 27.8 at 2/4/8/16/31 procs.");
    })
}

/// Plan Table 4 (the optimisation ladder at 30 processors): one job per
/// rung.
#[must_use]
pub fn plan_table4(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let procs = if quick { 4 } else { 30 };
    let base_cfg = SpConfig {
        layout: SpLayout::Base,
        prefetch: false,
        poststore: false,
        ..paper_config(quick)
    };
    let padded_cfg = SpConfig {
        layout: SpLayout::Padded,
        ..base_cfg
    };
    let prefetch_cfg = SpConfig {
        prefetch: true,
        ..padded_cfg
    };
    let poststore_cfg = SpConfig {
        poststore: true,
        ..prefetch_cfg
    };
    let seed = opts.machine_seed(701);
    let rungs: [(&str, SpConfig); 4] = [
        ("Base version", base_cfg),
        ("Data padding and alignment", padded_cfg),
        ("Prefetching appropriate data", prefetch_cfg),
        ("(anti-opt) adding poststore", poststore_cfg),
    ];
    let mut plan = ExperimentPlan::new(ID_TAB4, TITLE_TAB4);
    let ladder = rungs.map(|(label, cfg)| {
        let h = plan.job(format!("TAB4 sp {label}"), move || {
            sp_time_per_iter(cfg, procs, seed)
        });
        (label, h)
    });
    plan.reduce(move |res, out| {
        let base = res[ladder[0].1];
        let mut table = TextTable::new(&["Optimizations", "Time per iteration (s)", "vs base"]);
        for (label, h) in ladder {
            let t = res[h];
            table.row(&[
                label.to_string(),
                format!("{t:.5}"),
                format!("{:+.1}%", (t / base - 1.0) * 100.0),
            ]);
            out.row(
                "sp_seconds_per_iteration",
                &[("variant", Json::from(label)), ("procs", Json::from(procs))],
                t,
                "s",
            );
        }
        out.push_text(&table.render());
        out.push_text(
            "paper ladder: 2.54 -> 2.14 (-15%) -> 1.89 (-11%) s/iteration; poststore caused \
             slowdown because the next phase's writers pay the invalidation for shared copies.",
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_scales_through_4_procs() {
        let cfg = paper_config(true);
        let t1 = sp_time_per_iter(cfg, 1, 1);
        let t4 = sp_time_per_iter(cfg, 4, 1);
        let s = t1 / t4;
        // The 8^3 quick grid false-shares z-sweep rows across processors
        // (64 B rows, 128 B sub-pages), capping its scaling; the full
        // 32^3 bench grid reproduces the paper's near-linear curve.
        assert!(s > 2.0, "SP speedup at 4 procs = {s:.2}");
    }

    #[test]
    fn padding_helps_at_multiple_procs() {
        let quick = true;
        let base_cfg = SpConfig {
            layout: SpLayout::Base,
            prefetch: false,
            poststore: false,
            ..paper_config(quick)
        };
        let padded_cfg = SpConfig {
            layout: SpLayout::Padded,
            ..base_cfg
        };
        let base = sp_time_per_iter(base_cfg, 4, 2);
        let padded = sp_time_per_iter(padded_cfg, 4, 2);
        assert!(
            padded < base,
            "padding must help: base {base:.5} padded {padded:.5}"
        );
    }

    #[test]
    fn prefetch_helps_and_poststore_hurts() {
        let quick = true;
        let padded_cfg = SpConfig {
            layout: SpLayout::Padded,
            prefetch: false,
            poststore: false,
            ..paper_config(quick)
        };
        let prefetch_cfg = SpConfig {
            prefetch: true,
            ..padded_cfg
        };
        let poststore_cfg = SpConfig {
            poststore: true,
            ..prefetch_cfg
        };
        let padded = sp_time_per_iter(padded_cfg, 4, 3);
        let prefetch = sp_time_per_iter(prefetch_cfg, 4, 3);
        let poststore = sp_time_per_iter(poststore_cfg, 4, 3);
        assert!(
            prefetch < padded,
            "prefetch must help: {padded:.5} -> {prefetch:.5}"
        );
        assert!(
            poststore > prefetch,
            "poststore must hurt: {prefetch:.5} -> {poststore:.5}"
        );
    }
}
