//! EXT — the §4 "wish list" experiments the paper could not run.
//!
//! The concluding remarks ask KSR for two features and leave two open
//! hypotheses:
//!
//! 1. *"The ability to selectively turn off sub-caching would help in a
//!    better use of the sub-cache depending on the access pattern of an
//!    application"* — and §3.3.1 adds, for CG specifically, that "there
//!    is no language level support for this mechanism which prevented us
//!    from exploring this hypothesis." The simulator has the mechanism
//!    (`Machine::set_uncached`), so the hypothesis gets its experiment:
//!    CG with sub-caching disabled for the streamed matrix arrays.
//! 2. *"It would be beneficial to have some prefetching mechanism from
//!    the local-cache to the sub-cache, given that there is roughly an
//!    order of magnitude difference in the access times of the two"* —
//!    `Cpu::prefetch_subcache` implements it; the experiment measures a
//!    local-cache-resident sweep with and without it.

use ksr_core::Json;
use ksr_machine::{program, Machine};
use ksr_nas::CgConfig;

use crate::common::RunOpts;
use crate::exec::ExperimentPlan;
use crate::table1_cg::cg_time;

/// Registry id.
pub const ID: &str = "EXT";
/// Registry title.
pub const TITLE: &str = "The §4 wish-list features, implemented and measured";

/// CG run time with/without matrix sub-cache bypass.
fn cg_seconds(uncache_matrix: bool, procs: usize, quick: bool, machine_seed: u64) -> f64 {
    let cfg = CgConfig {
        n: if quick { 280 } else { 1400 },
        offdiag_per_row: if quick { 36 } else { 144 },
        iterations: if quick { 2 } else { 4 },
        seed: 4_040,
        poststore: false,
        uncache_matrix,
    };
    cg_time(cfg, procs, machine_seed)
}

/// Sweep a local-cache-resident array, optionally sub-cache-prefetching
/// one sub-page ahead. Returns mean cycles per access.
fn sweep_cycles(prefetch: bool, machine_seed: u64) -> f64 {
    let mut m = Machine::ksr1(machine_seed).expect("machine");
    let len: u64 = 512 * 1024; // fits the local cache, dwarfs the sub-cache
    let a = m.alloc(len, 16384).expect("alloc");
    m.warm(0, a, len);
    let samples = 4_096u64;
    let r = m
        .run(vec![program(move |mut cpu| async move {
            for i in 0..samples {
                let off = (i * 64) % len;
                if prefetch {
                    // Software-pipelined: pull the next sub-page up while
                    // consuming this one.
                    if off.is_multiple_of(128) {
                        cpu.prefetch_subcache(a + (off + 128) % len).await;
                    }
                }
                let _ = cpu.read_u64(a + off).await;
                cpu.compute(20); // consumer work that the prefetch hides behind
            }
        })])
        .expect("run");
    r.duration_cycles() as f64 / samples as f64
}

/// Plan both wish-list experiments: one job per measured point.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let procs = if quick { 2 } else { 4 };
    let cg_seed = opts.machine_seed(900);
    let sweep_seed = opts.machine_seed(901);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let cg = [false, true].map(|uncache| {
        plan.job(format!("EXT cg uncached={uncache}"), move || {
            cg_seconds(uncache, procs, quick, cg_seed)
        })
    });
    let sweep = [false, true].map(|prefetch| {
        plan.job(format!("EXT sweep prefetch={prefetch}"), move || {
            sweep_cycles(prefetch, sweep_seed)
        })
    });
    plan.reduce(move |res, out| {
        let [base, bypass] = cg.map(|h| res[h]);
        out.line(format_args!(
            "CG @{procs}p, matrix streams sub-cached:   {base:.4} s"
        ));
        out.line(format_args!(
            "CG @{procs}p, matrix streams UNcached:     {bypass:.4} s  ({:+.1}%)",
            (bypass / base - 1.0) * 100.0
        ));
        out.push_text(
            "(§3.3.1: 'it is conceivable that this mechanism may have been useful to reduce \
             the overall data access latency' — the experiment the authors could not run.)",
        );
        for (uncached, v) in [(false, base), (true, bypass)] {
            out.row(
                "cg_run_seconds",
                &[
                    ("matrix_uncached", Json::from(uncached)),
                    ("procs", Json::from(procs)),
                ],
                v,
                "s",
            );
        }
        let [plain, pf] = sweep.map(|h| res[h]);
        out.line(format_args!(
            "local-cache sweep, no sub-cache prefetch: {plain:.1} cycles/access"
        ));
        out.line(format_args!(
            "local-cache sweep, with prefetch_subcache: {pf:.1} cycles/access ({:+.1}%)",
            (pf / plain - 1.0) * 100.0
        ));
        out.push_text(
            "(§4: 'it would be beneficial to have some prefetching mechanism from the \
             local-cache to the sub-cache'.)",
        );
        for (prefetch, v) in [(false, plain), (true, pf)] {
            out.row(
                "sweep_cycles_per_access",
                &[("subcache_prefetch", Json::from(prefetch))],
                v,
                "cycles",
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcache_prefetch_speeds_up_resident_sweeps() {
        let plain = sweep_cycles(false, 901);
        let pf = sweep_cycles(true, 901);
        assert!(
            pf < plain,
            "the wished-for prefetch must help: {plain:.1} vs {pf:.1} cycles/access"
        );
    }

    #[test]
    fn cg_bypass_experiment_runs() {
        let base = cg_seconds(false, 2, true, 900);
        let bypass = cg_seconds(true, 2, true, 900);
        assert!(base > 0.0 && bypass > 0.0);
        // Either direction is a legitimate finding; it must stay within a
        // plausible band rather than explode.
        let ratio = bypass / base;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio:.2}");
    }
}
