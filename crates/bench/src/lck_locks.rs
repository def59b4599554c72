//! LCK — lock-contention crossover from 1 to 1024 cells.
//!
//! Figure 3 compares the hardware `get_sub_page` lock with the flat
//! FCFS ticket lock on the 32-cell machine the authors had. On the
//! deeper ring trees (ROADMAP item 2's 256/512/1024-cell systems) a
//! flat lock's handoff hops leaf rings on nearly every grant, so each
//! critical section drags the lock word and the protected data through
//! one or more ARDs. The cohort lock (`ksr_sync::cohort`) keeps up to
//! `budget` consecutive handoffs inside one leaf ring; this experiment
//! measures where that locality wins as the machine grows.
//!
//! Each job runs every cell of the smallest ring tree that holds its
//! processor count (the SCB machine table) through an
//! acquire/increment/release loop and reports two metrics per point:
//!
//! * **time_per_acquire_us** — wall time per completed critical
//!   section (the throughput axis of the crossover table);
//! * **rmr_per_acquire** — `PerfMon::remote_references` per
//!   acquisition: Golab's remote-memory-reference complexity in the
//!   DSM/NUMA cost model, counted by the coherence protocol as ring
//!   transactions whose LCA lies above the leaf ring.
//!
//! Contention is swept by varying the delay between lock requests at a
//! fixed hold time, like Figure 3's 3000-in-10000 duty cycle.

use ksr_core::table::Series;
use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::{program, Machine, MachineConfig, Program};
use ksr_sync::{CohortLock, HwLock, LockMode, SwRwLock};

use crate::common::RunOpts;
use crate::exec::ExperimentPlan;

/// Registry id.
pub const ID: &str = "LCK";
/// Registry title.
pub const TITLE: &str = "Lock-contention crossover on ring trees, 1 to 1024 cells";

/// Cycles the lock is held per critical section.
const HOLD: u64 = 1_000;
/// Cohort local-handoff budget used by every cohort job.
const BUDGET: u64 = 8;

/// The contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    /// `get_sub_page` spinning (Figure 3's exclusive lock).
    Hw,
    /// The paper's FCFS ticket lock, writers only (flat queue).
    Ticket,
    /// The topology-aware cohort MCS lock.
    Cohort,
}

impl LockKind {
    const ALL: [LockKind; 3] = [LockKind::Hw, LockKind::Ticket, LockKind::Cohort];

    fn label(self) -> &'static str {
        match self {
            LockKind::Hw => "hw_lock",
            LockKind::Ticket => "ticket_lock",
            LockKind::Cohort => "cohort_mcs",
        }
    }
}

/// `(cells, ring spec)` sweep: the SCB machine table plus the
/// single-processor baseline on the paper's machine.
const POINTS: &[(usize, &[usize])] = &[
    (1, &[32]),
    (32, &[32]),
    (64, &[32, 2]),
    (128, &[32, 4]),
    (256, &[32, 8]),
    (512, &[32, 8, 2]),
    (1024, &[32, 8, 4]),
];

/// Quick mode stays ≤ 64 processors, so a debug build runs it fast,
/// while still contrasting one- and two-level trees.
const QUICK_POINTS: &[(usize, &[usize])] = &[(32, &[32]), (64, &[32, 2])];

/// Inter-request delays (contention levels) at the fixed hold time.
const LEVELS: &[(&str, u64)] = &[("high", 500), ("mid", 4_000), ("low", 16_000)];
const QUICK_LEVELS: &[(&str, u64)] = &[("high", 500)];

/// Acquisitions per processor: scaled down as the machine grows so the
/// serialized total stays tractable, never below 2.
fn ops_per_proc(procs: usize, quick: bool) -> usize {
    if quick {
        4
    } else if procs <= 32 {
        64
    } else {
        (2_048 / procs).max(2)
    }
}

/// One sweep point: every processor of the `spec` machine loops
/// acquire → increment shared word → release → delay. Returns
/// `(time_per_acquire_us, rmr_per_acquire)`.
#[must_use]
pub fn run_workload(
    lock_label: &str,
    spec: &[usize],
    procs: usize,
    delay: u64,
    ops: usize,
    seed: u64,
) -> (f64, f64) {
    let kind = LockKind::ALL
        .into_iter()
        .find(|k| k.label() == lock_label)
        .expect("known lock kind");
    let mut m = Machine::new(MachineConfig::ksr_ring(seed, spec)).expect("machine");
    let shared = m.alloc_subpage(8).unwrap();
    enum AnyLock {
        Hw(HwLock),
        Ticket(SwRwLock),
        Cohort(CohortLock),
    }
    let lock = match kind {
        LockKind::Hw => AnyLock::Hw(HwLock::alloc(&mut m).expect("alloc")),
        LockKind::Ticket => AnyLock::Ticket(SwRwLock::alloc(&mut m).expect("alloc")),
        LockKind::Cohort => {
            AnyLock::Cohort(CohortLock::with_budget(&mut m, BUDGET).expect("alloc"))
        }
    };
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|_| match &lock {
            AnyLock::Hw(l) => {
                let l = *l;
                program(move |mut cpu| async move {
                    for _ in 0..ops {
                        l.acquire(&mut cpu).await;
                        let v = cpu.read_u64(shared).await;
                        cpu.compute(HOLD);
                        cpu.write_u64(shared, v + 1).await;
                        l.release(&mut cpu).await;
                        cpu.compute(delay);
                    }
                })
            }
            AnyLock::Ticket(l) => {
                let l = *l;
                program(move |mut cpu| async move {
                    for _ in 0..ops {
                        let t = l.acquire(&mut cpu, LockMode::Write).await;
                        let v = cpu.read_u64(shared).await;
                        cpu.compute(HOLD);
                        cpu.write_u64(shared, v + 1).await;
                        l.release(&mut cpu, t).await;
                        cpu.compute(delay);
                    }
                })
            }
            AnyLock::Cohort(l) => {
                let l = *l;
                program(move |mut cpu| async move {
                    for _ in 0..ops {
                        l.acquire(&mut cpu).await;
                        let v = cpu.read_u64(shared).await;
                        cpu.compute(HOLD);
                        cpu.write_u64(shared, v + 1).await;
                        l.release(&mut cpu).await;
                        cpu.compute(delay);
                    }
                })
            }
        })
        .collect();
    let r = m.run(programs).expect("run");
    let total_ops = (procs * ops) as u64;
    assert_eq!(
        m.peek_u64(shared).unwrap(),
        total_ops,
        "mutual exclusion lost an increment"
    );
    let secs = cycles_to_seconds(r.duration_cycles(), m.config().clock_hz);
    let rmr = m.perfmon_total().remote_references as f64 / total_ops as f64;
    (secs * 1e6 / total_ops as f64, rmr)
}

/// Plan LCK: one job per (contention level, lock, machine), each
/// returning `(time_per_acquire_us, rmr_per_acquire)`.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let points: &[(usize, &'static [usize])] = if quick { QUICK_POINTS } else { POINTS };
    let levels: &[(&'static str, u64)] = if quick { QUICK_LEVELS } else { LEVELS };
    let seed = opts.machine_seed(5600);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    // Per contention level, each lock kind's `(cells, job)` points.
    let grid: Vec<_> = levels
        .iter()
        .map(|&(level, delay)| {
            let by_kind = LockKind::ALL.map(|kind| {
                points
                    .iter()
                    .map(|&(cells, spec)| {
                        let procs = cells;
                        let ops = ops_per_proc(procs, quick);
                        let point_seed = seed + cells as u64;
                        let label = kind.label();
                        let h = plan.job(format!("LCK {label} {level} p={cells}"), move || {
                            run_workload(label, spec, procs, delay, ops, point_seed)
                        });
                        (cells, h)
                    })
                    .collect::<Vec<_>>()
            });
            (level, delay, by_kind)
        })
        .collect();
    plan.reduce(move |res, out| {
        // Crossover table: per contention level, the smallest machine
        // where the cohort lock beats the flat ticket lock.
        out.push_text(
            "time per acquisition (us) and the cohort-vs-ticket crossover; \
             RMR = remote references (cross-leaf ring transactions) per acquisition.",
        );
        for (level, delay, [hw, ticket, cohort]) in &grid {
            out.line(format_args!(
                "contention {level} (hold {HOLD}, delay {delay}):"
            ));
            out.line(format_args!(
                "  {:>5}  {:>10} {:>10} {:>10}  {:>8} {:>8} {:>8}",
                "cells", "hw us", "ticket us", "cohort us", "hw RMR", "tkt RMR", "coh RMR"
            ));
            for ((&(cells, hw), &(_, tkt)), &(_, coh)) in hw.iter().zip(ticket).zip(cohort) {
                let [(hw_us, hw_rmr), (tkt_us, tkt_rmr), (coh_us, coh_rmr)] =
                    [res[hw], res[tkt], res[coh]];
                out.line(format_args!(
                    "  {cells:>5}  {hw_us:>10.2} {tkt_us:>10.2} {coh_us:>10.2}  \
                     {hw_rmr:>8.2} {tkt_rmr:>8.2} {coh_rmr:>8.2}"
                ));
            }
            let crossover = ticket
                .iter()
                .zip(cohort)
                .find(|&(&(_, tkt), &(_, coh))| res[coh].0 < res[tkt].0)
                .map(|(&(cells, _), _)| cells);
            match crossover {
                Some(cells) => out.line(format_args!(
                    "  cohort beats the flat ticket lock from {cells} cells on"
                )),
                None => out.line(format_args!(
                    "  no crossover: the flat ticket lock wins at every size"
                )),
            }
        }
        out.push_text(
            "expected shape: on one leaf ring the cohort lock pays its two-level protocol \
             for nothing; as leaf rings multiply, the flat locks' handoffs and spins go \
             cross-ring (RMR per acquire grows with the cell count) while the cohort lock \
             amortizes one global handoff over its local budget — topology-awareness wins \
             from the first multi-leaf machines and the margin widens with ring depth.",
        );
        for (level, _, by_kind) in &grid {
            for (kind, runs) in LockKind::ALL.iter().zip(by_kind) {
                let mut s = Series::new(format!("{} {level}", kind.label()));
                for &(cells, h) in runs {
                    s.push(cells as f64, res[h].0);
                }
                out.series.push(s);
            }
        }
        out.rows_from_series("time_per_acquire_us", "cells", "us");
        for (level, _, by_kind) in &grid {
            for (kind, runs) in LockKind::ALL.iter().zip(by_kind) {
                for &(cells, h) in runs {
                    out.row(
                        "rmr_per_acquire",
                        &[
                            ("lock", Json::from(kind.label())),
                            ("level", Json::from(*level)),
                            ("cells", Json::from(cells)),
                        ],
                        res[h].1,
                        "refs",
                    );
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_wins_past_one_leaf_under_high_contention() {
        // 64 cells, two leaf rings, everyone hammering the lock: the
        // cohort lock must already beat the flat ticket queue, and its
        // RMR per acquire must be far lower.
        let ops = 4;
        let (ticket_us, ticket_rmr) = run_workload("ticket_lock", &[32, 2], 64, 500, ops, 7);
        let (cohort_us, cohort_rmr) = run_workload("cohort_mcs", &[32, 2], 64, 500, ops, 7);
        assert!(
            cohort_us < ticket_us,
            "cohort {cohort_us:.2}us must beat ticket {ticket_us:.2}us at 64 cells"
        );
        assert!(
            cohort_rmr < ticket_rmr / 2.0,
            "cohort RMR {cohort_rmr:.2} vs ticket {ticket_rmr:.2}"
        );
    }

    #[test]
    fn single_leaf_has_no_remote_references() {
        let (_, rmr) = run_workload("hw_lock", &[32], 8, 500, 4, 11);
        assert_eq!(rmr, 0.0, "one leaf ring cannot cross a level boundary");
    }

    #[test]
    fn quick_plan_point_table_is_debug_safe() {
        for &(cells, spec) in QUICK_POINTS {
            assert!(cells <= 64, "quick mode stays small for debug builds");
            assert_eq!(cells, spec.iter().product::<usize>());
        }
        for &(cells, spec) in POINTS {
            assert_eq!(
                cells.max(32),
                spec.iter().product::<usize>().max(32),
                "machine must hold the processor count"
            );
            assert!(cells <= spec.iter().product::<usize>());
        }
    }
}
