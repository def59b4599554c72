//! EXPLORE — small-scope schedule model check over the seeded mutants.
//!
//! The event core is deterministic: the only schedule nondeterminism is
//! how the coordinator breaks *equal-time ties* in its ready queue, and
//! every such tie funnels through `ksr_machine::ScheduleOracle`. This
//! experiment drives `ksr_verify::explore` over the seeded
//! concurrency-bug workloads of `ksr_sync::mutants` on a 4-cell ring:
//! each schedule (a vector of tie-break decisions) is replayed with a
//! [`ksr_machine::ReplayOracle`], the full trace is collected, and every
//! verification pass — coherence checker, vector-clock race detector,
//! Eraser-style lockset pass, lock-order graph — plus a per-scenario
//! end-state invariant runs over it.
//!
//! The point the table makes: the **default** schedule of each mutant is
//! clean (so a single checked run misses the bug — except for the
//! predictive lock-order pass, which flags the potential deadlock from
//! the clean trace alone), while exhaustive tie-break enumeration finds
//! a witness schedule for every seeded bug. The two `clean_*` control
//! scenarios stay violation-free across their entire schedule space.

use std::hash::Hasher;

use ksr_core::hash::FxHasher;
use ksr_core::trace::{TraceSink, Tracer};
use ksr_core::Json;
use ksr_machine::{Machine, MachineConfig, Program, ReplayOracle};
use ksr_mem::ProtocolFault;
use ksr_sync::mutants::{
    LockOrderMutant, MissedInvalidationProbe, RacyHandoff, HANDOFF_SENTINEL, HANDOFF_VALUE,
};
use ksr_verify::explore::explore;
use ksr_verify::{
    lockset_analysis, CheckerConfig, CheckingSink, CollectingSink, ExploreConfig, ExploreReport,
    LockOrderGraph, RaceDetector, RunOutcome,
};

use crate::common::{ExperimentOutput, MetricRow, RunOpts};
use crate::exec::{ExperimentPlan, Job, JobDesc};

/// Registry id.
pub const ID: &str = "EXPLORE";
/// Registry title.
pub const TITLE: &str = "Small-scope schedule exploration of seeded concurrency mutants";
/// Cache schema version of the EXPLORE jobs — bump when [`run_one`], any
/// verification pass, or the row layout changes meaning, so stale cache
/// entries miss.
const SCHEMA: u32 = 1;

/// The workloads the explorer sweeps: two clean controls and the three
/// seeded mutants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Correctly nested lock pair around a counter (control).
    CleanCounter,
    /// Data-before-flag handoff with a spinning consumer (control).
    CleanHandoff,
    /// Dormant `MissedInvalidation` protocol fault, exposed by a second
    /// writer under a flipped tie.
    MissedInvalidation,
    /// Opposite-order lock nesting behind a racing guard.
    LockOrder,
    /// Flag-before-data handoff with a one-shot polling consumer.
    RacyHandoff,
}

impl Scenario {
    /// Every scenario, in report order.
    pub const ALL: [Self; 5] = [
        Self::CleanCounter,
        Self::CleanHandoff,
        Self::MissedInvalidation,
        Self::LockOrder,
        Self::RacyHandoff,
    ];

    /// Stable label used in rows and result files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::CleanCounter => "clean_counter",
            Self::CleanHandoff => "clean_handoff",
            Self::MissedInvalidation => "mut_missed_inval",
            Self::LockOrder => "mut_lock_order",
            Self::RacyHandoff => "mut_racy_handoff",
        }
    }
}

/// End-state verdict: scenario-level violations plus the memory words
/// that distinguish terminal states for hashing.
type Verdict = Box<dyn FnOnce(&mut Machine) -> (Vec<(String, String)>, Vec<u64>)>;

/// Run `scenario` once under the tie-break decisions in `prefix` and
/// re-run every verification pass over the collected trace. Returns the
/// outcome `ksr_verify::explore` consumes: the schedule actually taken,
/// a deterministic terminal-state hash, and all violations as stable
/// `(kind, what)` descriptors.
#[must_use]
pub fn run_one(scenario: Scenario, seed: u64, prefix: &[usize]) -> RunOutcome {
    let mut cfg = MachineConfig::ksr_ring(seed, &[4]);
    if scenario == Scenario::MissedInvalidation {
        cfg.protocol.fault = Some(ProtocolFault::MissedInvalidation);
    }
    let mut m = Machine::new(cfg).expect("machine");
    let (oracle, trace) = ReplayOracle::with_trace(prefix.to_vec());
    m.set_schedule_oracle(Box::new(oracle));
    let (tracer, sink) = Tracer::attach(CollectingSink::new());
    m.set_tracer(tracer);

    let (programs, verdict): (Vec<Box<dyn Program>>, Verdict) = match scenario {
        Scenario::CleanCounter => {
            let w = LockOrderMutant::alloc(&mut m).expect("alloc");
            (
                w.clean_programs(),
                Box::new(move |m| {
                    let c = w.counter_value(m).expect("peek");
                    let mut v = Vec::new();
                    if c != 4 {
                        v.push(("invariant".to_string(), format!("lost update: counter {c}")));
                    }
                    (v, vec![c])
                }),
            )
        }
        Scenario::CleanHandoff => {
            let w = RacyHandoff::alloc(&mut m).expect("alloc");
            (
                w.clean_programs(),
                Box::new(move |m| {
                    let r = w.result_value(m).expect("peek");
                    let mut v = Vec::new();
                    if r != HANDOFF_VALUE {
                        v.push(("invariant".to_string(), format!("lost handoff: result {r}")));
                    }
                    (v, vec![r])
                }),
            )
        }
        Scenario::MissedInvalidation => {
            let w = MissedInvalidationProbe::alloc(&mut m).expect("alloc");
            (
                w.programs(),
                Box::new(move |m| {
                    // No program-level invariant: exposing the seeded
                    // protocol fault is the coherence checker's job.
                    let (x, y) = w.final_values(m).expect("peek");
                    (Vec::new(), vec![x, y])
                }),
            )
        }
        Scenario::LockOrder => {
            let w = LockOrderMutant::alloc(&mut m).expect("alloc");
            (
                w.programs(),
                Box::new(move |m| {
                    let (f0, f1) = w.fail_counts(m).expect("peek");
                    let mut v = Vec::new();
                    if f0 > 0 && f1 > 0 {
                        v.push((
                            "invariant".to_string(),
                            "mutual blocking: each cell stuck on the other's lock".to_string(),
                        ));
                    }
                    (v, vec![f0, f1])
                }),
            )
        }
        Scenario::RacyHandoff => {
            let w = RacyHandoff::alloc(&mut m).expect("alloc");
            (
                w.programs(),
                Box::new(move |m| {
                    let r = w.result_value(m).expect("peek");
                    let mut v = Vec::new();
                    if r != HANDOFF_SENTINEL && r != HANDOFF_VALUE {
                        v.push((
                            "invariant".to_string(),
                            format!("stale handoff: result {r}"),
                        ));
                    }
                    (v, vec![r])
                }),
            )
        }
    };

    let nprocs = programs.len();
    let report = m.run(programs).expect("run");
    let events = sink.lock().expect("trace sink").take();
    let (mut violations, words) = verdict(&mut m);

    let mut checker = CheckingSink::new(CheckerConfig::default());
    for ev in &events {
        checker.record(ev);
    }
    for v in checker.violations() {
        violations.push((
            "coherence".to_string(),
            format!("{} @ sub-page {}", v.rule.label(), v.subpage),
        ));
    }
    for r in RaceDetector::new(nprocs).analyze(&events) {
        violations.push(("race".to_string(), format!("data race @ addr {}", r.addr)));
    }
    let mut graph = LockOrderGraph::new();
    graph.ingest(&events);
    for f in lockset_analysis(&events)
        .into_iter()
        .chain(graph.findings())
    {
        violations.push((
            "predict".to_string(),
            format!("{} @ {}", f.rule.label(), f.addr),
        ));
    }
    violations.sort();
    violations.dedup();

    // Deterministic terminal-state fingerprint: completion times,
    // scenario memory words, and the violation set. FxHasher is stable
    // across processes and platforms, so -j1/-j8 and reruns agree.
    let mut h = FxHasher::default();
    for &c in &report.proc_end {
        h.write_u64(c);
    }
    for &w in &words {
        h.write_u64(w);
    }
    for (kind, what) in &violations {
        h.write(kind.as_bytes());
        h.write(what.as_bytes());
    }
    let t = trace.lock().expect("schedule trace");
    RunOutcome {
        fanouts: t.fanouts.clone(),
        decisions: t.decisions.clone(),
        state_hash: h.finish(),
        violations,
    }
}

/// Exhaustively enumerate `scenario`'s schedule space under `cfg`.
#[must_use]
pub fn explore_scenario(scenario: Scenario, seed: u64, cfg: ExploreConfig) -> ExploreReport {
    explore(cfg, |prefix| run_one(scenario, seed, prefix))
}

/// The exploration budget the registry entry uses.
#[must_use]
pub fn budget(quick: bool) -> ExploreConfig {
    ExploreConfig {
        max_runs: if quick { 64 } else { 512 },
        max_choice_points: if quick { 12 } else { 24 },
    }
}

/// Plan EXPLORE: one job per scenario, each running the full bounded
/// DFS over tie-break decisions.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let seed = opts.machine_seed(4600);
    let mut jobs = Vec::new();
    for s in Scenario::ALL {
        let b = budget(quick);
        let desc = JobDesc::new(ID, SCHEMA, format!("EXPLORE {}", s.label()), opts)
            .seed(seed)
            .param("scenario", s.label())
            .param("max_runs", b.max_runs)
            .param("max_choice_points", b.max_choice_points);
        jobs.push(Job::new(desc, move || {
            let rep = explore_scenario(s, seed, budget(quick));
            let base = [("scenario", Json::from(s.label()))];
            let mut rows = vec![
                MetricRow::new("schedules_explored", &base, rep.runs as f64, "runs"),
                MetricRow::new(
                    "distinct_states",
                    &base,
                    rep.distinct_states as f64,
                    "states",
                ),
                MetricRow::new(
                    "truncated",
                    &base,
                    f64::from(u8::from(rep.truncated)),
                    "flag",
                ),
                MetricRow::new("violations", &base, rep.violations.len() as f64, "findings"),
            ];
            for w in &rep.violations {
                rows.push(MetricRow::new(
                    "witness",
                    &[
                        ("scenario", Json::from(s.label())),
                        ("kind", Json::from(w.kind.as_str())),
                        ("what", Json::from(w.what.as_str())),
                        (
                            "schedule",
                            Json::arr(w.schedule.iter().map(|&d| Json::from(d))),
                        ),
                    ],
                    1.0,
                    "finding",
                ));
            }
            rows
        }));
    }
    ExperimentPlan::new(ID, TITLE, jobs, move |res| {
        let mut out = ExperimentOutput::new(ID, TITLE);
        out.line(format_args!(
            "bounded DFS over coordinator tie-breaks, all verification passes per schedule \
             (budget {} schedules):",
            budget(quick).max_runs
        ));
        for (i, s) in Scenario::ALL.iter().enumerate() {
            let rows = res.rows(i);
            let truncated = rows[2].value > 0.0;
            out.line(format_args!(
                "  {:<17} {:>4} schedules  {:>3} distinct states  {:>2} violation(s){}",
                s.label(),
                rows[0].value,
                rows[1].value,
                rows[3].value,
                if truncated { "  [budget hit]" } else { "" }
            ));
            for w in &rows[4..] {
                let get = |key: &str| {
                    w.params
                        .iter()
                        .find(|(k, _)| k == key)
                        .map_or_else(String::new, |(_, v)| match v {
                            Json::Str(s) => s.clone(),
                            other => other.render(),
                        })
                };
                out.line(format_args!(
                    "      {} {} — witness schedule {}",
                    get("kind"),
                    get("what"),
                    get("schedule")
                ));
            }
            for w in rows {
                out.rows.push(w.clone());
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExploreConfig {
        budget(true)
    }

    #[test]
    fn default_schedules_hide_the_scheduled_bugs() {
        // The armed protocol fault is dormant: x has one writer.
        let out = run_one(Scenario::MissedInvalidation, 7, &[]);
        assert!(
            out.violations.is_empty(),
            "mut_missed_inval: default schedule should be clean, got {:?}",
            out.violations
        );
        // The handoff's *flag* race is visible to the happens-before
        // detector on any schedule (that is the predictive pitch), but
        // the stale delivery itself never happens by default.
        let out = run_one(Scenario::RacyHandoff, 7, &[]);
        assert!(
            !out.violations.iter().any(|(k, _)| k == "invariant"),
            "mut_racy_handoff: the default poll must lose the race: {:?}",
            out.violations
        );
        assert!(
            out.violations.iter().any(|(k, _)| k == "race"),
            "the unsynchronized flag is racy on every schedule"
        );
    }

    #[test]
    fn lock_order_potential_deadlock_is_predicted_from_the_clean_run() {
        let out = run_one(Scenario::LockOrder, 7, &[]);
        assert!(
            out.violations
                .iter()
                .any(|(k, w)| k == "predict" && w.starts_with("potential_deadlock")),
            "the lock-order graph must flag the inversion from the default trace: {:?}",
            out.violations
        );
        assert!(
            !out.violations.iter().any(|(k, _)| k == "invariant"),
            "but nobody blocks under the default schedule"
        );
    }

    #[test]
    fn exploration_exposes_the_racy_handoff() {
        let rep = explore_scenario(Scenario::RacyHandoff, 7, quick_cfg());
        assert!(
            rep.violations
                .iter()
                .any(|v| v.kind == "race" || v.kind == "invariant"),
            "exploration must find the handoff bug: {:?}",
            rep.violations
        );
        let witness = rep
            .violations
            .iter()
            .find(|v| v.kind == "invariant")
            .expect("stale handoff witness");
        // The witness schedule must reproduce the violation on replay.
        let again = run_one(Scenario::RacyHandoff, 7, &witness.schedule);
        assert!(
            again
                .violations
                .iter()
                .any(|(k, w)| k == "invariant" && w == &witness.what),
            "witness replay lost the violation: {:?}",
            again.violations
        );
    }

    #[test]
    fn exploration_exposes_the_lock_order_blocking() {
        let rep = explore_scenario(Scenario::LockOrder, 7, quick_cfg());
        assert!(
            rep.violations
                .iter()
                .any(|v| v.kind == "invariant" && v.what.starts_with("mutual blocking")),
            "a flipped guard tie must overlap the critical sections: {:?}",
            rep.violations
        );
    }

    #[test]
    fn exploration_triggers_the_dormant_protocol_fault() {
        let rep = explore_scenario(Scenario::MissedInvalidation, 7, quick_cfg());
        assert!(
            rep.violations.iter().any(|v| v.kind == "coherence"),
            "a second writer must expose the missed invalidation: {:?}",
            rep.violations
        );
        assert!(
            !rep.truncated,
            "the probe's schedule space fits the quick budget"
        );
    }

    #[test]
    fn clean_counter_space_is_violation_free() {
        let rep = explore_scenario(Scenario::CleanCounter, 7, quick_cfg());
        assert!(rep.is_clean(), "control scenario: {:?}", rep.violations);
        assert!(rep.runs >= 2, "the guard tie must branch");
    }
}
