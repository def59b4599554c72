//! FIG3 — §3.2.1 lock performance.
//!
//! "We have experimented with a synthetic workload of read and write lock
//! requests... Each processor repeatedly accesses data in read or write
//! mode, with a delay of 10000 local operations between successive lock
//! requests. The lock is held for 3000 local operations." Figure 3 plots
//! the time for 500 operations against the number of processors for the
//! hardware exclusive lock and for the software read/write lock at
//! 0/20/40/60/80/100% read share.
//!
//! The timer-interrupt model is enabled, reproducing the OS effect the
//! authors cite (unsynchronized per-processor timer interrupts) when
//! explaining why the software queue can match or beat the hardware lock
//! even with writers only.

use ksr_core::table::Series;
use ksr_core::time::cycles_to_seconds;
use ksr_core::XorShift64;
use ksr_machine::{program, InterruptConfig, Machine, MachineConfig, Program};
use ksr_sync::{HwLock, LockMode, SwRwLock};

use crate::common::{proc_sweep_32, RunOpts};
use crate::exec::ExperimentPlan;

/// Registry id.
pub const ID: &str = "FIG3";
/// Registry title.
pub const TITLE: &str = "Read/Write and Exclusive locks on the KSR (Figure 3)";

const HOLD: u64 = 3_000;
const DELAY: u64 = 10_000;
/// Lock operations *per processor* ("for 500 operations"): with the
/// serialized critical-section work growing with the processor count,
/// the exclusive-lock curve rises linearly exactly as the paper reports.
const OPS_PER_PROC: usize = 500;

/// The figure's lock/read-mix series, in legend order. `None` means the
/// hardware exclusive lock.
const MIXES: [(Option<u32>, &str); 7] = [
    (None, "exclusive lock"),
    (Some(0), "read shared lock with writers only"),
    (Some(20), "read shared lock with 20% sharing"),
    (Some(40), "read shared lock with 40% sharing"),
    (Some(60), "read shared lock with 60% sharing"),
    (Some(80), "read shared lock with 80% sharing"),
    (Some(100), "read shared lock with readers only"),
];

/// Which lock and read-mix a run uses. `read_pct == None` means the
/// hardware exclusive lock.
pub(crate) fn run_workload(read_pct: Option<u32>, procs: usize, seed: u64) -> f64 {
    let cfg = MachineConfig::ksr1(seed).with_interrupts(InterruptConfig::ksr_os());
    let mut m = Machine::new(cfg).expect("machine");
    let hw = HwLock::alloc(&mut m).expect("alloc");
    let sw = SwRwLock::alloc(&mut m).expect("alloc");
    let ops_per_proc = OPS_PER_PROC;
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|p| {
            program(move |mut cpu| async move {
                let mut rng = XorShift64::new(seed ^ (p as u64) << 32 | 0xF1);
                for _ in 0..ops_per_proc {
                    match read_pct {
                        None => {
                            hw.acquire(&mut cpu).await;
                            cpu.compute(HOLD);
                            hw.release(&mut cpu).await;
                        }
                        Some(pct) => {
                            let mode = if rng.next_below(100) < u64::from(pct) {
                                LockMode::Read
                            } else {
                                LockMode::Write
                            };
                            let t = sw.acquire(&mut cpu, mode).await;
                            cpu.compute(HOLD);
                            sw.release(&mut cpu, t).await;
                        }
                    }
                    cpu.compute(DELAY);
                }
            })
        })
        .collect();
    let r = m.run(programs).expect("run");
    cycles_to_seconds(r.duration_cycles(), m.config().clock_hz)
}

/// Plan the Figure 3 sweep: one pure job per (mix, procs) point that
/// quick mode keeps.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let sweep = {
        let mut s = vec![1usize];
        s.extend(proc_sweep_32(quick));
        if !quick {
            s.retain(|&p| p <= 30); // the paper's x-axis stops at 30
        }
        s
    };
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let mut points = Vec::new(); // (series index, procs, job)
    for &p in &sweep {
        for (si, &(mix, label)) in MIXES.iter().enumerate() {
            if quick && !(matches!(mix, None | Some(0) | Some(100))) {
                continue;
            }
            let seed = opts.machine_seed(300 + si as u64);
            let h = plan.job(format!("FIG3 {label} p={p}"), move || {
                run_workload(mix, p, seed)
            });
            points.push((si, p, h));
        }
    }
    plan.reduce(move |res, out| {
        let mut series: Vec<Series> = MIXES.iter().map(|&(_, l)| Series::new(l)).collect();
        for (si, p, h) in points {
            series[si].push(p as f64, res[h]);
        }
        // Analysis rows the paper draws from this figure.
        let excl = &series[0];
        if excl.points.len() >= 3 {
            let xs: Vec<f64> = excl.points.iter().map(|&(x, _)| x).collect();
            let ys: Vec<f64> = excl.points.iter().map(|&(_, y)| y).collect();
            let (slope, _, r2) = ksr_core::stats::linear_fit(&xs, &ys);
            out.line(format_args!(
                "exclusive-lock time vs procs: slope {slope:.4} s/proc, r^2 = {r2:.3} \
                 (paper: 'increases linearly')"
            ));
        }
        let last = |s: &Series| s.points.last().map_or(f64::NAN, |&(_, y)| y);
        out.line(format_args!(
            "at max procs: exclusive {:.2} s, writers-only SW {:.2} s, readers-only SW {:.2} s",
            last(&series[0]),
            last(&series[1]),
            last(&series[6]),
        ));
        out.push_text(
            "expected ordering (paper): readers-only fastest; more read sharing => faster; \
             SW writers-only <= HW exclusive (unsynchronized timer interrupts).",
        );
        out.series = series;
        out.rows_from_series("run_seconds", "procs", "s");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_share_and_writers_serialize() {
        // The 10000-cycle inter-request delay bounds how far readers can
        // pull ahead at 8 processors (they are near their delay-limited
        // floor); the decisive separation is visible but not unbounded.
        let writers = run_workload(Some(0), 8, 1);
        let readers = run_workload(Some(100), 8, 1);
        assert!(
            readers < writers * 0.75,
            "readers-only {readers:.3}s must beat writers-only {writers:.3}s"
        );
        // At the delay-limited floor, readers-only time barely grows with
        // the processor count while writers-only keeps climbing.
        let writers16 = run_workload(Some(0), 16, 1);
        let readers16 = run_workload(Some(100), 16, 1);
        assert!(
            readers16 < writers16 * 0.65,
            "{readers16:.3} vs {writers16:.3}"
        );
    }

    #[test]
    fn exclusive_lock_time_grows_with_procs() {
        let t4 = run_workload(None, 4, 2);
        let t16 = run_workload(None, 16, 2);
        assert!(t16 > t4, "contention must cost: {t4:.3} vs {t16:.3}");
    }

    #[test]
    fn more_sharing_is_never_much_slower() {
        let p40 = run_workload(Some(40), 8, 3);
        let p80 = run_workload(Some(80), 8, 3);
        assert!(p80 < p40 * 1.15, "80% sharing {p80:.3}s vs 40% {p40:.3}s");
    }
}
