//! SCB — barrier-episode scaling from 32 to 1024 cells.
//!
//! Figures 4 and 5 stop at the machines the authors could rent time on
//! (32 and 64 cells). The Topology API lets the same episode
//! methodology run on every configuration the KSR-1 design allows, up
//! to a three-level 1024-cell system. Each sweep point uses the
//! smallest ring tree that holds its processor count, so the curve
//! reflects the machine a buyer would actually configure:
//!
//! | cells | topology        | levels |
//! |-------|-----------------|--------|
//! | 32    | `ring[32]`      | 1      |
//! | 64    | `ring[32x2]`    | 2      |
//! | 128   | `ring[32x4]`    | 2      |
//! | 256   | `ring[32x8]`    | 2      |
//! | 512   | `ring[32x8x2]`  | 3      |
//! | 1024  | `ring[32x8x4]`  | 3      |
//!
//! Log-depth barriers (tournament, tree, MCS) pay O(log p) rounds, but
//! on a ring hierarchy the later rounds span wider LCA crossings — the
//! same effect recent multi-level-interconnect studies report for
//! fractal/tree topologies (Bertuletti et al., 2023).

use ksr_machine::{Machine, MachineConfig};
use ksr_sync::{episode_seconds, AnyBarrier, BarrierKind};

use crate::common::RunOpts;
use crate::exec::ExperimentPlan;
use crate::fig4_barriers::{curves, Sweep};

/// Registry id.
pub const ID: &str = "SCB";
/// Registry title.
pub const TITLE: &str = "Barrier-episode scaling from 32 to 1024 cells on ring trees";

/// The full sweep: `(cells, ring spec)` per point.
pub const POINTS: &[(usize, &[usize])] = &[
    (32, &[32]),
    (64, &[32, 2]),
    (128, &[32, 4]),
    (256, &[32, 8]),
    (512, &[32, 8, 2]),
    (1024, &[32, 8, 4]),
];

/// Mean seconds per barrier episode with every cell of the `spec`
/// machine participating, after two warm-up episodes — FIG4's episode
/// measurement ([`episode_seconds`]) on a deeper tree.
#[must_use]
pub fn episode_time(spec: &[usize], kind: BarrierKind, episodes: usize, seed: u64) -> f64 {
    let mut m = Machine::new(MachineConfig::ksr_ring(seed, spec)).expect("machine");
    let procs = m.config().cells;
    let b = AnyBarrier::alloc(kind, &mut m, procs).expect("barrier alloc");
    episode_seconds(&mut m, b, episodes, 2).expect("run")
}

/// Plan SCB: one job per (barrier kind, machine size), kind-major.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let points: Vec<(usize, &'static [usize])> = if quick {
        vec![(32, &[32]), (128, &[32, 4]), (256, &[32, 8])]
    } else {
        POINTS.to_vec()
    };
    let kinds: Vec<BarrierKind> = if quick {
        vec![BarrierKind::Mcs, BarrierKind::Tournament]
    } else {
        vec![BarrierKind::Mcs, BarrierKind::Tournament, BarrierKind::Tree]
    };
    let episodes = if quick { 4 } else { 10 };
    let seed = opts.machine_seed(4200);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let runs: Sweep = kinds
        .iter()
        .map(|&kind| {
            let by_cells = points
                .iter()
                .map(|&(cells, spec)| {
                    let point_seed = seed + cells as u64;
                    let h = plan.job(format!("SCB {} p={cells}", kind.label()), move || {
                        episode_time(spec, kind, episodes, point_seed)
                    });
                    (cells, h)
                })
                .collect();
            (kind, by_cells)
        })
        .collect();
    let (p0, pmax) = (points[0].0, points[points.len() - 1].0);
    plan.reduce(move |res, out| {
        let series = curves(res, &runs);
        out.line(format_args!(
            "episode time growth {p0}→{pmax} cells (machine grows with the processor set):"
        ));
        for s in &series {
            if let (Some(&(_, first)), Some(&(_, last))) = (s.points.first(), s.points.last()) {
                let doublings = ((pmax / p0) as f64).log2();
                out.line(format_args!(
                    "  {:<12} {:6.1}x total, {:4.2}x per doubling of p",
                    s.label,
                    last / first,
                    (last / first).powf(1.0 / doublings)
                ));
            }
        }
        out.push_text(
            "log-depth barriers grow by a near-constant factor per doubling, but the factor \
             exceeds the ideal log2 slope because each added ring level widens the LCA \
             crossing of the final rounds — the multi-level-interconnect effect reported for \
             hierarchical clusters (cf. Bertuletti et al. 2023); a counter barrier would grow \
             linearly and is omitted as it already loses at 32 cells (Figure 4).",
        );
        out.series = series;
        out.rows_from_series("barrier_episode_seconds", "cells", "s");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_slow_down_as_the_tree_deepens() {
        let small = episode_time(&[32], BarrierKind::Mcs, 4, 9);
        let mid = episode_time(&[32, 4], BarrierKind::Mcs, 4, 9);
        assert!(
            mid > small,
            "two-level 128-cell episodes must cost more: {small:.2e} vs {mid:.2e}"
        );
    }

    #[test]
    fn full_point_table_spans_one_to_three_levels() {
        let levels: Vec<usize> = POINTS.iter().map(|&(_, s)| s.len()).collect();
        assert_eq!(levels, [1, 2, 2, 2, 3, 3]);
        for &(cells, spec) in POINTS {
            assert_eq!(cells, spec.iter().product::<usize>());
        }
    }
}
