//! FIG2 + SEC31A — §3.1 latency measurements.
//!
//! Reproduces Figure 2 (read/write latency of the local cache and of
//! remote/network access as the number of simultaneously active
//! processors grows) and the stride experiments quoted in the text
//! (+50% at 2 KB-block-allocating strides, +60% at 16 KB-page-allocating
//! remote strides).
//!
//! Methodology mirrors the paper:
//!
//! * each processor owns two private 1 MB arrays `A` and `B`; it first
//!   fills the sub-cache by repeatedly reading `B` (random replacement
//!   means one pass is not enough), then times accesses to `A`, which are
//!   then guaranteed local-cache accesses;
//! * for the network series, each processor times accesses to the array
//!   owned by its ring neighbour (unidirectional ring: any remote
//!   distance costs the same);
//! * accesses stride one 64 B sub-block (local) or one 128 B sub-page
//!   (remote), so every sample is a genuine miss at the level being
//!   measured.

use ksr_core::table::Series;
use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::{program, Machine, Program, SharedU64};

use crate::common::{proc_sweep_32, RunOpts};
use crate::exec::{ExperimentPlan, Out};

/// Registry id of the Figure 2 sweep.
pub const ID_FIG2: &str = "FIG2";
/// Registry title of the Figure 2 sweep.
pub const TITLE_FIG2: &str = "Read/Write Latencies on the KSR (Figure 2)";
/// Registry id of the §3.1 stride experiments.
pub const ID_SEC31A: &str = "SEC31A";
/// Registry title of the §3.1 stride experiments.
pub const TITLE_SEC31A: &str = "Block/page allocation overheads at allocating strides (§3.1 text)";

const MB: u64 = 1024 * 1024;

/// Instruction overhead of the measurement loop itself (index update,
/// stride arithmetic, loop branch on the 20 MHz dual-issue cell). The
/// paper reports pure access latencies, so [`measure`] charges this per
/// iteration and subtracts it from the reported figure; its real effect
/// is on *duty cycle* — it is why the fully-populated ring sits just at
/// the saturation knee (+~8%) rather than deep inside it.
const LOOP_OVERHEAD: u64 = 60;

/// What one latency run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    LocalRead,
    LocalWrite,
    RemoteRead,
    RemoteWrite,
}

/// Average per-access seconds across `procs` simultaneously active
/// processors, with a configurable stride.
pub(crate) fn measure(target: Target, procs: usize, stride: u64, samples: u64, seed: u64) -> f64 {
    let mut m = Machine::ksr1(seed).expect("machine");
    // One private 1 MB array per processor; for remote targets the
    // "owner" is the next cell around the ring (warmed there even if that
    // cell runs no program, exactly like data placed by an earlier phase).
    let arrays: Vec<u64> = (0..procs)
        .map(|_| m.alloc(MB, 16384).expect("alloc"))
        .collect();
    let fill: Vec<u64> = (0..procs)
        .map(|_| m.alloc(MB, 16384).expect("alloc"))
        .collect();
    let results = SharedU64::alloc(&mut m, procs).expect("alloc");
    let remote = matches!(target, Target::RemoteRead | Target::RemoteWrite);
    for (p, &a) in arrays.iter().enumerate() {
        let owner = if remote { (p + 1) % 32 } else { p };
        m.warm(owner, a, MB);
        m.warm(p, fill[p], MB);
    }
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|p| {
            let a = arrays[p];
            let b = fill[p];
            program(move |mut cpu| async move {
                // Fill the sub-cache with B ("we read B repeatedly to
                // improve the chance of the sub-cache being filled").
                for pass in 0..2 {
                    let _ = pass;
                    let mut off = 0;
                    while off < MB {
                        let _ = cpu.read_u64(b + off).await;
                        off += 64;
                    }
                }
                let t0 = cpu.now();
                let mut off = 0;
                for _ in 0..samples {
                    match target {
                        Target::LocalRead | Target::RemoteRead => {
                            let _ = cpu.read_u64(a + off).await;
                        }
                        Target::LocalWrite | Target::RemoteWrite => {
                            cpu.write_u64(a + off, off).await;
                        }
                    }
                    cpu.compute(LOOP_OVERHEAD);
                    off = (off + stride) % MB;
                }
                let per = (cpu.now() - t0) / samples - LOOP_OVERHEAD;
                results.set(&mut cpu, p, per).await;
            })
        })
        .collect();
    m.run(programs).expect("run");
    let total: u64 = (0..procs).map(|p| results.peek(&mut m, p)).sum();
    cycles_to_seconds(total / procs as u64, m.config().clock_hz)
}

/// Plan the Figure 2 sweep: one pure job per (target, procs) point.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let samples = if quick { 256 } else { 1024 };
    let sweep = {
        let mut s = vec![1usize];
        s.extend(proc_sweep_32(quick));
        s
    };
    let grid: [(&str, Target, u64, u64); 4] = [
        ("network read", Target::RemoteRead, 128, 100),
        ("network write", Target::RemoteWrite, 128, 101),
        ("local read", Target::LocalRead, 64, 102),
        ("local write", Target::LocalWrite, 64, 103),
    ];
    let mut plan = ExperimentPlan::new(ID_FIG2, TITLE_FIG2);
    let points: Vec<(usize, [Out<f64>; 4])> = sweep
        .iter()
        .map(|&p| {
            let by_target = grid.map(|(name, target, stride, base)| {
                let seed = opts.machine_seed(base);
                plan.job(format!("FIG2 {name} p={p}"), move || {
                    measure(target, p, stride, samples, seed)
                })
            });
            (p, by_target)
        })
        .collect();
    plan.reduce(move |res, out| {
        // One series per grid target, in grid order.
        let mut series = [
            "Network Read",
            "Network Write",
            "Local Cache Read",
            "Local Cache Write",
        ]
        .map(Series::new);
        for (p, by_target) in points {
            for (s, h) in series.iter_mut().zip(by_target) {
                s.push(p as f64, res[h]);
            }
        }
        // Headline checks the paper makes on this figure.
        let lr1 = series[2].points[0].1;
        let nr1 = series[0].points[0].1;
        let nr_last = series[0].points.last().unwrap().1;
        out.line(format_args!(
            "local-cache read @1 proc: {:.3} us  ({:.1} cycles; published 18)",
            lr1 * 1e6,
            lr1 * 20e6
        ));
        out.line(format_args!(
            "network read    @1 proc: {:.3} us  ({:.1} cycles; published 175)",
            nr1 * 1e6,
            nr1 * 20e6
        ));
        out.line(format_args!(
            "network read rise at {} procs: {:+.1}% (paper: about +8% at 32)",
            sweep.last().unwrap(),
            (nr_last / nr1 - 1.0) * 100.0
        ));
        out.line(format_args!(
            "writes dearer than reads: local {:+.1}%, network {:+.1}%",
            (series[3].points[0].1 / lr1 - 1.0) * 100.0,
            (series[1].points[0].1 / nr1 - 1.0) * 100.0
        ));
        out.series = series.into();
        out.rows_from_series("mean_access_seconds", "procs", "s");
    })
}

/// Plan the §3.1 stride experiments (SEC31A): one job per stride point.
#[must_use]
pub fn plan_strides(opts: &RunOpts) -> ExperimentPlan {
    let samples = if opts.quick { 128 } else { 512 };
    let grid: [(&str, Target, u64, u64, u64); 4] = [
        ("local", Target::LocalRead, 64, samples, 110),
        ("local", Target::LocalRead, 2048, samples, 111),
        ("remote", Target::RemoteRead, 128, samples, 112),
        ("remote", Target::RemoteRead, 16384, samples.min(60), 113),
    ];
    let mut plan = ExperimentPlan::new(ID_SEC31A, TITLE_SEC31A);
    let points = grid.map(|(name, target, stride, n, base)| {
        let seed = opts.machine_seed(base);
        let h = plan.job(format!("SEC31A {name} stride={stride}"), move || {
            measure(target, 1, stride, n, seed)
        });
        (name, stride, h)
    });
    plan.reduce(move |res, out| {
        for (target, stride, h) in points {
            out.row(
                "mean_access_seconds",
                &[
                    ("target", Json::from(target)),
                    ("stride_bytes", Json::from(stride)),
                ],
                res[h],
                "s",
            );
        }
        let [local_subblock, local_block, remote_subpage, remote_page] =
            points.map(|(_, _, h)| res[h]);
        out.line(format_args!(
            "local-cache read, 64 B stride:   {:.3} us",
            local_subblock * 1e6
        ));
        out.line(format_args!(
            "local-cache read, 2 KB stride:   {:.3} us  ({:+.0}%; paper: +50%)",
            local_block * 1e6,
            (local_block / local_subblock - 1.0) * 100.0
        ));
        out.line(format_args!(
            "remote read, 128 B stride:       {:.3} us",
            remote_subpage * 1e6
        ));
        out.line(format_args!(
            "remote read, 16 KB stride:       {:.3} us  ({:+.0}%; paper: +60%)",
            remote_page * 1e6,
            (remote_page / remote_subpage - 1.0) * 100.0
        ));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_read_is_about_18_cycles() {
        let s = measure(Target::LocalRead, 1, 64, 256, 1);
        let cycles = s * 20e6;
        assert!(
            (17.0..22.0).contains(&cycles),
            "local read {cycles:.1} cycles"
        );
    }

    #[test]
    fn remote_read_is_about_175_cycles() {
        let s = measure(Target::RemoteRead, 1, 128, 256, 2);
        let cycles = s * 20e6;
        assert!(
            (170.0..190.0).contains(&cycles),
            "remote read {cycles:.1} cycles"
        );
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let r = measure(Target::LocalRead, 1, 64, 256, 3);
        let w = measure(Target::LocalWrite, 1, 64, 256, 3);
        assert!(w > r, "write {w} vs read {r}");
    }

    #[test]
    fn block_allocating_stride_adds_about_half() {
        let fine = measure(Target::LocalRead, 1, 64, 256, 4);
        let coarse = measure(Target::LocalRead, 1, 2048, 256, 4);
        let ratio = coarse / fine;
        assert!(
            (1.3..1.7).contains(&ratio),
            "block-alloc ratio {ratio:.2} (paper 1.5)"
        );
    }

    #[test]
    fn page_allocating_remote_stride_adds_about_sixty_percent() {
        let fine = measure(Target::RemoteRead, 1, 128, 256, 5);
        let coarse = measure(Target::RemoteRead, 1, 16384, 60, 5);
        let ratio = coarse / fine;
        assert!(
            (1.4..1.9).contains(&ratio),
            "page-alloc ratio {ratio:.2} (paper 1.6)"
        );
    }

    #[test]
    fn contention_rise_is_modest_but_positive_at_32() {
        let one = measure(Target::RemoteRead, 1, 128, 256, 6);
        let thirty_two = measure(Target::RemoteRead, 32, 128, 256, 6);
        let rise = thirty_two / one - 1.0;
        assert!(
            (0.0..0.35).contains(&rise),
            "remote latency should rise mildly at 32 procs, got {:+.1}%",
            rise * 100.0
        );
    }
}
