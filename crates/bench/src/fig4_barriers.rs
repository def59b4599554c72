//! FIG4 / FIG5 / SEC323 — barrier performance (§3.2.2–§3.2.4).
//!
//! [`episode_time`] measures the mean completion time of repeated barrier
//! episodes for any of the nine algorithms on any machine preset, through
//! the one episode driver [`ksr_sync::episode_seconds`]; three entry
//! points reproduce:
//!
//! * Figure 4 — all nine barriers on the 32-cell KSR-1;
//! * Figure 5 — the same on the 64-cell two-level KSR-2 (plus the
//!   §3.2.4 tournament-vs-MCS analysis rows);
//! * §3.2.3 — the Symmetry and Butterfly comparison (the global-flag
//!   variants are excluded on the Butterfly, which has no coherent
//!   caches to broadcast through).

use ksr_core::table::Series;
use ksr_core::Json;
use ksr_machine::Machine;
use ksr_sync::{episode_seconds, AnyBarrier, BarrierKind};

use crate::common::{proc_sweep_32, RunOpts};
use crate::exec::{ExperimentPlan, Out, Results};

/// Registry id of the Figure 4 sweep.
pub const ID_FIG4: &str = "FIG4";
/// Registry title of the Figure 4 sweep.
pub const TITLE_FIG4: &str = "Performance of the barriers on 32-node KSR-1 (Figure 4)";
/// Registry id of the Figure 5 sweep.
pub const ID_FIG5: &str = "FIG5";
/// Registry title of the Figure 5 sweep.
pub const TITLE_FIG5: &str = "Performance of the barriers on 64-node KSR-2 (Figure 5)";
/// Registry id of the §3.2.3 comparison.
pub const ID_SEC323: &str = "SEC323";
/// Registry title of the §3.2.3 comparison.
pub const TITLE_SEC323: &str =
    "Barrier comparison with the Sequent Symmetry and the BBN Butterfly (§3.2.3)";

/// Machines a barrier sweep can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMachine {
    /// 32-cell KSR-1.
    Ksr1,
    /// 64-cell KSR-2.
    Ksr2,
    /// Bus machine (§3.2.3).
    Symmetry,
    /// MIN machine without coherent caches (§3.2.3).
    Butterfly,
}

impl BarrierMachine {
    fn build(self, procs: usize, seed: u64) -> Machine {
        match self {
            Self::Ksr1 => Machine::ksr1(seed),
            Self::Ksr2 => Machine::ksr2(seed),
            Self::Symmetry => Machine::symmetry(procs.max(2), seed),
            Self::Butterfly => Machine::butterfly(procs.max(2), seed),
        }
        .expect("machine")
    }

    /// Short machine name, as job labels print it.
    fn tag(self) -> &'static str {
        match self {
            Self::Ksr1 => "ksr1",
            Self::Ksr2 => "ksr2",
            Self::Symmetry => "symmetry",
            Self::Butterfly => "butterfly",
        }
    }
}

/// Mean seconds per barrier episode for `kind` at `procs` processors,
/// after two warm-up episodes (see [`episode_seconds`]).
#[must_use]
pub fn episode_time(
    machine: BarrierMachine,
    kind: BarrierKind,
    procs: usize,
    episodes: usize,
    seed: u64,
) -> f64 {
    let mut m = machine.build(procs, seed);
    let b = AnyBarrier::alloc(kind, &mut m, procs).expect("barrier alloc");
    episode_seconds(&mut m, b, episodes, 2).expect("run")
}

/// Each barrier kind's `(procs, job)` points, as a sweep queued them.
pub(crate) type Sweep = Vec<(BarrierKind, Vec<(usize, Out<f64>)>)>;

/// Queue one job per (kind, procs) point, kind-major.
fn sweep(
    plan: &mut ExperimentPlan,
    experiment: &str,
    machine: BarrierMachine,
    kinds: &[BarrierKind],
    procs: &[usize],
    episodes: usize,
    base_seed: u64,
) -> Sweep {
    kinds
        .iter()
        .map(|&kind| {
            let points = procs
                .iter()
                .map(|&p| {
                    let seed = base_seed + p as u64;
                    let label = format!("{experiment} {} p={p}", kind.label());
                    (
                        p,
                        plan.job(label, move || {
                            episode_time(machine, kind, p, episodes, seed)
                        }),
                    )
                })
                .collect();
            (kind, points)
        })
        .collect()
}

/// One series per kind of `sweep`, labelled with the kind.
pub(crate) fn curves(res: &Results, sweep: &Sweep) -> Vec<Series> {
    sweep
        .iter()
        .map(|(kind, points)| {
            let mut s = Series::new(kind.label());
            for &(x, h) in points {
                s.push(x as f64, res[h]);
            }
            s
        })
        .collect()
}

/// Plan Figure 4: the nine barriers on the 32-node KSR-1.
#[must_use]
pub fn plan_fig4(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let procs = proc_sweep_32(quick);
    let episodes = if quick { 6 } else { 16 };
    let kinds: Vec<BarrierKind> = if quick {
        vec![
            BarrierKind::Counter,
            BarrierKind::TournamentFlag,
            BarrierKind::Mcs,
        ]
    } else {
        BarrierKind::ALL.to_vec()
    };
    let mut plan = ExperimentPlan::new(ID_FIG4, TITLE_FIG4);
    let runs = sweep(
        &mut plan,
        ID_FIG4,
        BarrierMachine::Ksr1,
        &kinds,
        &procs,
        episodes,
        opts.machine_seed(1000),
    );
    plan.reduce(move |res, out| {
        let series = curves(res, &runs);
        let at_max = |label: &str| {
            series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.points.last())
                .map_or(f64::NAN, |&(_, y)| y)
        };
        let pmax = *procs.last().unwrap();
        out.line(format_args!("per-episode times at {pmax} procs (us):"));
        for s in &series {
            out.line(format_args!(
                "  {:<14} {:8.1}",
                s.label,
                at_max(&s.label) * 1e6
            ));
        }
        out.push_text(
            "paper's ordering at 32 procs: counter slowest; dissemination and tree mid-pack; \
             tournament ~ MCS; global-flag variants fastest with tournament(M) best.",
        );
        out.series = series;
        out.rows_from_series("barrier_episode_seconds", "procs", "s");
    })
}

/// Plan Figure 5: the nine barriers on the 64-node KSR-2 (two-level
/// ring).
#[must_use]
pub fn plan_fig5(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let procs: Vec<usize> = if quick {
        vec![16, 32, 40]
    } else {
        vec![16, 24, 32, 36, 40, 48, 56, 64]
    };
    let episodes = if quick { 4 } else { 12 };
    let kinds: Vec<BarrierKind> = if quick {
        vec![
            BarrierKind::TournamentFlag,
            BarrierKind::Mcs,
            BarrierKind::Tournament,
        ]
    } else {
        BarrierKind::ALL.to_vec()
    };
    let mut plan = ExperimentPlan::new(ID_FIG5, TITLE_FIG5);
    let runs = sweep(
        &mut plan,
        ID_FIG5,
        BarrierMachine::Ksr2,
        &kinds,
        &procs,
        episodes,
        opts.machine_seed(1000),
    );
    plan.reduce(move |res, out| {
        let series = curves(res, &runs);
        // §3.2.4 analysis: the jump past one ring, and tournament vs MCS.
        for s in &series {
            let y32 = s.y_at(32.0);
            let y36 = s.y_at(36.0);
            if let (Some(a), Some(b)) = (y32, y36) {
                out.line(format_args!(
                    "  {:<14} 32→36 procs: {:+.0}% (crossing the ring boundary)",
                    s.label,
                    (b / a - 1.0) * 100.0
                ));
            }
        }
        let find = |label: &str| series.iter().find(|s| s.label == label);
        if let (Some(t), Some(m_)) = (find("Tournament"), find("MCS")) {
            if let (Some(&(_, ty)), Some(&(_, my))) = (t.points.last(), m_.points.last()) {
                out.line(format_args!(
                    "tournament vs MCS at max procs: {:+.1}% (paper §3.2.4: tournament 10-15% worse \
                     on KSR-2)",
                    (ty / my - 1.0) * 100.0
                ));
            }
        }
        out.push_text(
            "paper: trends carry over from the 32-node system; execution time jumps once the \
             processor set spans both leaf rings; tournament(M) remains best.",
        );
        out.series = series;
        out.rows_from_series("barrier_episode_seconds", "procs", "s");
    })
}

/// Plan §3.2.3: the same barrier code on the Symmetry and the
/// Butterfly.
#[must_use]
pub fn plan_sec323(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let episodes = if quick { 4 } else { 12 };
    let procs = if quick { 8 } else { 16 };
    let mut plan = ExperimentPlan::new(ID_SEC323, TITLE_SEC323);
    let machines = [
        (
            BarrierMachine::Symmetry,
            opts.machine_seed(77),
            "Sequent Symmetry",
            "paper: the counter algorithm performs the best on the Symmetry.",
        ),
        (
            BarrierMachine::Butterfly,
            opts.machine_seed(78),
            "BBN Butterfly",
            "paper: on the Butterfly dissemination does best, then tournament, then MCS \
             (no coherent caches, so the winner is the number of communication rounds).",
        ),
    ]
    .map(|(machine, seed, name, note)| {
        // The Symmetry runs all nine; the Butterfly has no coherent
        // caches, so no global-flag variants.
        let runs: Vec<(&'static str, Out<f64>)> = BarrierKind::ALL
            .iter()
            .filter(|k| machine != BarrierMachine::Butterfly || !k.needs_coherent_caches())
            .map(|&k| {
                let label = format!("SEC323 {} {}", machine.tag(), k.label());
                let h = plan.job(label, move || {
                    episode_time(machine, k, procs, episodes, seed)
                });
                (k.label(), h)
            })
            .collect();
        (machine.tag(), name, note, runs)
    });
    plan.reduce(move |res, out| {
        for (tag, name, note, runs) in machines {
            out.line(format_args!("{name}, {procs} procs, us/episode:"));
            let mut ranked: Vec<(f64, &str)> = runs.iter().map(|&(l, h)| (res[h], l)).collect();
            ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for (t, l) in ranked {
                out.line(format_args!("  {:<14} {:8.1}", l, t * 1e6));
                out.row(
                    "barrier_episode_seconds",
                    &[
                        ("machine", Json::from(tag)),
                        ("barrier", Json::from(l)),
                        ("procs", Json::from(procs)),
                    ],
                    t,
                    "s",
                );
            }
            out.push_text(note);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_much_slower_than_tournament_flag_at_scale() {
        let c = episode_time(BarrierMachine::Ksr1, BarrierKind::Counter, 16, 6, 1);
        let t = episode_time(BarrierMachine::Ksr1, BarrierKind::TournamentFlag, 16, 6, 1);
        assert!(c > 2.0 * t, "counter {c:.2e} vs tournament(M) {t:.2e}");
    }

    #[test]
    fn flag_wakeup_beats_tree_wakeup_for_tournament() {
        let plain = episode_time(BarrierMachine::Ksr1, BarrierKind::Tournament, 16, 6, 2);
        let flag = episode_time(BarrierMachine::Ksr1, BarrierKind::TournamentFlag, 16, 6, 2);
        assert!(
            flag < plain,
            "flag {flag:.2e} must beat tree wake-up {plain:.2e}"
        );
    }

    #[test]
    fn counter_wins_on_the_bus() {
        let counter = episode_time(BarrierMachine::Symmetry, BarrierKind::Counter, 8, 6, 3);
        for kind in [
            BarrierKind::Dissemination,
            BarrierKind::Tournament,
            BarrierKind::Mcs,
        ] {
            let other = episode_time(BarrierMachine::Symmetry, kind, 8, 6, 3);
            assert!(
                counter < other * 1.1,
                "bus: counter {counter:.2e} should be at or near the best; {} was {other:.2e}",
                kind.label()
            );
        }
    }

    #[test]
    fn dissemination_wins_on_the_butterfly() {
        let d = episode_time(
            BarrierMachine::Butterfly,
            BarrierKind::Dissemination,
            16,
            6,
            4,
        );
        let t = episode_time(BarrierMachine::Butterfly, BarrierKind::Tournament, 16, 6, 4);
        let m = episode_time(BarrierMachine::Butterfly, BarrierKind::Mcs, 16, 6, 4);
        assert!(
            d < t && t < m * 1.2,
            "butterfly ordering: diss {d:.2e} tour {t:.2e} mcs {m:.2e}"
        );
    }

    #[test]
    fn ksr2_jump_past_one_ring() {
        // Algorithms whose critical path includes cross-ring traffic show
        // the §3.2.4 jump clearly; tournament(M) hides most of it.
        let inside = episode_time(BarrierMachine::Ksr2, BarrierKind::Dissemination, 32, 6, 5);
        let across = episode_time(BarrierMachine::Ksr2, BarrierKind::Dissemination, 40, 6, 5);
        assert!(
            across > inside * 1.25,
            "crossing the ring boundary must jump: {inside:.2e} vs {across:.2e}"
        );
        let inside = episode_time(BarrierMachine::Ksr2, BarrierKind::Mcs, 32, 6, 5);
        let across = episode_time(BarrierMachine::Ksr2, BarrierKind::Mcs, 40, 6, 5);
        assert!(
            across > inside * 1.1,
            "MCS must also feel the boundary: {inside:.2e} vs {across:.2e}"
        );
    }
}
