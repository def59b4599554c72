//! CMB — hot-spot fetch-and-add with in-network ARD combining.
//!
//! §4 of the paper wishes for "hardware support for synchronization".
//! The classic proposal is combining: when two requests for the same
//! hot sub-page from the same leaf ring meet at the ring interface
//! (ARD), the second rides the first's response instead of climbing
//! the hierarchy (NYU Ultracomputer fetch-and-add combining, adapted
//! to the KSR's ring ARDs). The Topology API exposes it as a per-ring
//! flag, so this ablation runs the same hot-spot fetch-add workload on
//! identical machines with combining off and on and reports the time
//! per operation and the fraction of packets the ARDs absorbed.

use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::{program, Machine, MachineConfig, Program};
use ksr_net::{RingHierarchyConfig, Topology};

use crate::common::RunOpts;
use crate::exec::ExperimentPlan;

/// Registry id.
pub const ID: &str = "CMB";
/// Registry title.
pub const TITLE: &str = "Hot-spot fetch-and-add with ARD combining (ablation)";

/// One hot-spot run: every cell performs `ops` fetch-adds on one shared
/// counter. Returns `(seconds per op, fraction of packets combined)`.
#[must_use]
pub fn hot_spot(spec: &[usize], combining: bool, ops: usize, seed: u64) -> (f64, f64) {
    let mut cfg = MachineConfig::ksr_ring(seed, spec);
    if combining {
        let mut ring = RingHierarchyConfig::ring_levels(spec);
        ring.combining = true;
        cfg.topology = Topology::ring(ring);
    }
    let mut m = Machine::new(cfg).expect("machine");
    let procs = m.config().cells;
    let a = m.alloc_subpage(8).expect("alloc");
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|p| {
            program(move |mut cpu| async move {
                for i in 0..ops {
                    // Small skew so arrivals cluster but don't lock-step.
                    cpu.compute(((p * 13 + i * 7) % 50) as u64 + 5);
                    cpu.fetch_add(a, 1).await;
                }
            })
        })
        .collect();
    let r = m.run(programs).expect("run");
    assert_eq!(
        m.peek_u64(a).expect("counter"),
        (procs * ops) as u64,
        "combining must not drop increments"
    );
    let stats = m.fabric_stats();
    let carried = stats.packets + m.combined_packets();
    let frac = if carried == 0 {
        0.0
    } else {
        m.combined_packets() as f64 / carried as f64
    };
    let per_op = cycles_to_seconds(
        r.duration_cycles() / (procs * ops) as u64,
        m.config().clock_hz,
    );
    (per_op, frac)
}

/// Plan CMB: for each machine size, one job with combining off and one
/// with it on.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let sizes: Vec<(usize, &'static [usize])> = if quick {
        vec![(64, &[32, 2])]
    } else {
        vec![(256, &[32, 8]), (1024, &[32, 8, 4])]
    };
    let ops = if quick { 6 } else { 16 };
    let seed = opts.machine_seed(4300);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let runs: Vec<_> = sizes
        .iter()
        .map(|&(cells, spec)| {
            let off_on = [false, true].map(|combining| {
                let tag = if combining { "on" } else { "off" };
                plan.job(format!("CMB p={cells} combining={tag}"), move || {
                    hot_spot(spec, combining, ops, seed + cells as u64)
                })
            });
            (cells, off_on)
        })
        .collect();
    plan.reduce(move |res, out| {
        out.line(format_args!(
            "hot-spot fetch-add, every cell incrementing one counter ({ops} ops each):"
        ));
        for (cells, [off, on]) in runs {
            let ((off, off_frac), (on, frac)) = (res[off], res[on]);
            out.line(format_args!(
                "  p={cells:<5} off {:8.2} us/op   on {:8.2} us/op   speedup {:4.2}x   \
                 {:4.1}% of packets combined",
                off * 1e6,
                on * 1e6,
                off / on,
                frac * 100.0
            ));
            for (combining, value, cf) in [(false, off, off_frac), (true, on, frac)] {
                let params = [
                    ("cells", Json::from(cells)),
                    ("combining", Json::from(combining)),
                ];
                out.row("hot_spot_op_seconds", &params, value, "s");
                out.row("combined_fraction", &params, cf, "ratio");
            }
        }
        out.push_text(
            "combining absorbs same-leaf requests at the ARD while the first response is \
             still in flight, so the benefit grows with cells per leaf and with machine \
             size; with it off every increment serializes through the hot sub-page's home \
             leaf — the \u{a7}4 wish-list case for hardware synchronization support.",
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combining_helps_the_hot_spot_and_counts_merges() {
        let (off, off_frac) = hot_spot(&[8, 2], false, 4, 11);
        let (on, on_frac) = hot_spot(&[8, 2], true, 4, 11);
        assert_eq!(off_frac, 0.0, "combining off must not merge packets");
        assert!(on_frac > 0.0, "hot spot must trigger some combining");
        assert!(
            on <= off,
            "combining must not slow the hot spot: off {off:.2e} on {on:.2e}"
        );
    }
}
