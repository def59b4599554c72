//! `--check` verification mode for the experiment harness.
//!
//! Three passes from `ksr-verify`, all consuming the trace stream and
//! never feeding back into virtual time (a checked run's result files
//! are bit-identical to an unchecked run's):
//!
//! 1. **Coherence invariants** — each executor job runs inside a
//!    [`CheckScope`]: a scoped, thread-local
//!    [`ksr_machine::ObserverScope`] that attaches a fresh
//!    [`PredictiveSink`] (a [`ksr_verify::CheckingSink`] plus a
//!    lock-order graph) to *every* machine the job builds, shadowing
//!    each sub-page's global state and flagging protocol violations with
//!    the offending cycle, processor, and a short event-window replay.
//!    Jobs on different workers check independently; their [`ExpCheck`]
//!    results merge in job order, so `violations.json` is byte-identical
//!    at any `-j`.
//! 2. **Happens-before races** — the IS kernel runs under a
//!    [`CollectingSink`] and its access stream goes through the
//!    vector-clock [`RaceDetector`]; the properly locked kernel must be
//!    race-free, and the detector must catch the deliberately racy
//!    phase-6 variant (a checker self-test: failing to find the seeded
//!    race is itself a violation).
//! 3. **Predictive passes** — the locked IS trace goes through the
//!    Eraser-style [`lockset_analysis`] (must be clean thanks to its
//!    barrier-era discipline), and the seeded lock-order-inversion
//!    mutant from `ksr_sync::mutants` must be flagged as a potential
//!    deadlock *from its clean default-schedule trace* while the
//!    correctly nested counterpart stays silent (both self-tests).
//!
//! Everything lands in `<results>/violations.json`; any violation makes
//! the run exit non-zero, which is how `scripts/check.sh` gates CI.
//!
//! Checked runs bypass the results cache entirely (`--cache` is
//! ignored, with a notice): a cache hit would skip the job and with it
//! every verification pass, and a checked run's purpose is to observe
//! the execution, not to reuse old rows. `--shard` with `--check` is
//! rejected at argument parsing for the same reason.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ksr_core::trace::{TraceEvent, Tracer};
use ksr_core::Json;
use ksr_machine::{Machine, MachineObserver, ObserverScope};
use ksr_nas::{IsConfig, IsSetup};
use ksr_sync::mutants::LockOrderMutant;
use ksr_verify::report::{predict_to_json, race_to_json, violation_to_json};
use ksr_verify::{
    lockset_analysis, CollectingSink, LockOrderGraph, PredictFinding, PredictRule, PredictiveSink,
    RaceDetector, RaceReport, Violation,
};

use crate::common::RunOpts;

/// Aggregated coherence-checking results for one job (and, after
/// merging in job order, one experiment).
#[derive(Debug, Default)]
pub struct ExpCheck {
    /// Machines observed.
    pub machines: usize,
    /// Coherence events the sinks saw.
    pub events: u64,
    /// Violations dropped past each sink's retention cap.
    pub truncated: u64,
    /// Retained violations, in machine-construction order.
    pub violations: Vec<Violation>,
    /// Predictive lock-order findings, in machine-construction order.
    pub predict: Vec<PredictFinding>,
}

impl ExpCheck {
    /// Violation count including those past the retention cap and the
    /// predictive findings.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.truncated + self.predict.len() as u64
    }

    /// Fold `next` (the following job's results) into `self`.
    pub fn merge(&mut self, next: Self) {
        self.machines += next.machines;
        self.events += next.events;
        self.truncated += next.truncated;
        self.violations.extend(next.violations);
        self.predict.extend(next.predict);
    }

    /// JSON entry for the `coherence.experiments` array.
    #[must_use]
    pub fn to_json(&self, id: &str) -> Json {
        Json::obj([
            ("id", Json::from(id)),
            ("machines", Json::from(self.machines)),
            ("events", Json::from(self.events)),
            ("truncated", Json::from(self.truncated)),
            (
                "violations",
                Json::arr(self.violations.iter().map(violation_to_json)),
            ),
            (
                "predict",
                Json::arr(self.predict.iter().map(predict_to_json)),
            ),
        ])
    }
}

/// A scope during which every [`Machine`] built **on this thread** gets
/// a fresh [`PredictiveSink`] attached as its tracer. One per executor
/// job; concurrent jobs on other workers have their own scopes and
/// never see each other's machines. Dropping (or draining) the scope
/// uninstalls the observer.
pub struct CheckScope {
    sinks: Arc<Mutex<Vec<Arc<Mutex<PredictiveSink>>>>>,
    _scope: ObserverScope,
}

impl std::fmt::Debug for CheckScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckScope")
            .field("machines", &self.machines_seen())
            .finish_non_exhaustive()
    }
}

impl CheckScope {
    /// Install the checking observer for the current thread.
    #[must_use]
    pub fn install() -> Self {
        let sinks: Arc<Mutex<Vec<Arc<Mutex<PredictiveSink>>>>> = Arc::default();
        let registry = Arc::clone(&sinks);
        let observer: Arc<MachineObserver> = Arc::new(move |m: &mut Machine| {
            let (tracer, sink) = Tracer::attach(PredictiveSink::default());
            m.set_tracer(tracer);
            registry
                .lock()
                .expect("checker registry poisoned")
                .push(sink);
        });
        Self {
            sinks,
            _scope: ObserverScope::install(observer),
        }
    }

    /// Number of machines observed so far.
    #[must_use]
    pub fn machines_seen(&self) -> usize {
        self.sinks.lock().expect("checker registry poisoned").len()
    }

    /// Uninstall the observer and collect every sink's results.
    #[must_use]
    pub fn drain(self) -> ExpCheck {
        let sinks = self.sinks.lock().expect("checker registry poisoned");
        let mut check = ExpCheck {
            machines: sinks.len(),
            ..ExpCheck::default()
        };
        for sink in sinks.iter() {
            let s = sink.lock().expect("checking sink poisoned");
            check.events += s.checker().events_seen();
            check.truncated += s.checker().truncated();
            check.violations.extend(s.violations().iter().cloned());
            check.predict.extend(s.predict_findings());
        }
        check
    }
}

/// Run the race and predict suites, assemble the `violations.json`
/// document from the per-experiment coherence results (already merged
/// in job order), and write it. Returns the file path and whether the
/// whole run was clean. Suite progress goes to stderr.
pub fn finalize(
    entries: &[(&'static str, ExpCheck)],
    opts: &RunOpts,
) -> std::io::Result<(PathBuf, bool)> {
    let coherence_violations: u64 = entries.iter().map(|(_, c)| c.total_violations()).sum();
    let (clean_is_events, procs) = is_trace(opts, false);
    let (racy_is_events, _) = is_trace(opts, true);
    let (race_json, races_clean) = race_suite(&clean_is_events, &racy_is_events, procs);
    let (predict_json, predicts_clean) = predict_suite(opts, &clean_is_events);
    let clean = coherence_violations == 0 && races_clean && predicts_clean;
    let doc = Json::obj([
        ("quick", Json::from(opts.quick)),
        ("seed", Json::from(opts.seed)),
        ("clean", Json::from(clean)),
        (
            "coherence",
            Json::obj([
                ("total_violations", Json::from(coherence_violations)),
                (
                    "experiments",
                    Json::Arr(entries.iter().map(|(id, c)| c.to_json(id)).collect()),
                ),
            ]),
        ),
        ("races", race_json),
        ("predict", predict_json),
    ]);
    let path = opts.results_dir.join("violations.json");
    std::fs::create_dir_all(&opts.results_dir)?;
    std::fs::write(&path, doc.render_pretty())?;
    eprintln!("[violations: {}]", path.display());
    if clean {
        eprintln!("[check: PASS — no coherence violations, no races, no predictive findings]");
    } else {
        eprintln!(
            "[check: FAIL — {coherence_violations} coherence violation(s), races clean: \
             {races_clean}, predictive clean: {predicts_clean}]"
        );
    }
    Ok((path, clean))
}

/// Run IS under a collecting tracer and hand back its full trace (the
/// race and predictive suites both analyze it) and its processor count.
/// The configuration is small enough to run on every `--check`
/// invocation, large enough that phase 6 overlaps across processors.
fn is_trace(opts: &RunOpts, racy: bool) -> (Vec<TraceEvent>, usize) {
    let procs = 4;
    let cfg = IsConfig {
        keys: 1 << 12,
        max_key: 256,
        seed: 19_930_401,
        chunk: 64,
    };
    let mut m = Machine::ksr1_scaled(opts.machine_seed(50), 64).expect("machine");
    let (tracer, sink) = Tracer::attach(CollectingSink::new());
    m.set_tracer(tracer);
    let setup = IsSetup::new(&mut m, cfg, procs).expect("IS setup");
    m.run(if racy {
        setup.programs_racy_phase6()
    } else {
        setup.programs()
    })
    .expect("run");
    let events = sink.lock().expect("collector poisoned").take();
    (events, procs)
}

/// The race pass: the locked IS kernel must be race-free, and the
/// deliberately racy phase-6 variant must be caught (with at least one
/// cross-processor pair involving a write).
fn race_suite(
    clean_is_events: &[TraceEvent],
    racy_is_events: &[TraceEvent],
    procs: usize,
) -> (Json, bool) {
    let clean_reports: Vec<RaceReport> = RaceDetector::new(procs).analyze(clean_is_events);
    let racy_reports: Vec<RaceReport> = RaceDetector::new(procs).analyze(racy_is_events);
    let clean_is_clean = clean_reports.is_empty();
    let seeded_race_caught = racy_reports
        .iter()
        .any(|r| r.first.cell != r.second.cell && (r.first.write || r.second.write));
    eprintln!(
        "[check: races: locked IS {} ({} report(s)); racy IS self-test {} ({} report(s))]",
        if clean_is_clean { "clean" } else { "RACY" },
        clean_reports.len(),
        if seeded_race_caught {
            "caught"
        } else {
            "MISSED"
        },
        racy_reports.len(),
    );
    let json = Json::obj([
        (
            "clean_is_reports",
            Json::arr(clean_reports.iter().map(race_to_json)),
        ),
        (
            "racy_is_selfcheck",
            Json::obj([
                ("seeded_race_caught", Json::from(seeded_race_caught)),
                ("reports", Json::arr(racy_reports.iter().map(race_to_json))),
            ]),
        ),
    ]);
    (json, clean_is_clean && seeded_race_caught)
}

/// Trace the lock-order mutant (or its correctly nested counterpart)
/// under the default deterministic schedule and run the lock-order
/// graph over the result.
fn lock_order_findings(opts: &RunOpts, clean: bool) -> Vec<PredictFinding> {
    let mut m = Machine::ksr1_scaled(opts.machine_seed(51), 64).expect("machine");
    let (tracer, sink) = Tracer::attach(CollectingSink::new());
    m.set_tracer(tracer);
    let w = LockOrderMutant::alloc(&mut m).expect("alloc");
    m.run(if clean {
        w.clean_programs()
    } else {
        w.programs()
    })
    .expect("run");
    let events = sink.lock().expect("collector poisoned").take();
    let mut graph = LockOrderGraph::new();
    graph.ingest(&events);
    graph.findings()
}

/// The predictive pass: the locked IS trace must survive the
/// Eraser-style lockset analysis, the seeded lock-order inversion must
/// be predicted as a potential deadlock from its *clean* default
/// schedule (self-test), and the correctly nested counterpart must stay
/// silent (counter-self-test).
fn predict_suite(opts: &RunOpts, locked_is_events: &[TraceEvent]) -> (Json, bool) {
    let lockset = lockset_analysis(locked_is_events);
    let mutant = lock_order_findings(opts, false);
    let nested = lock_order_findings(opts, true);
    let is_lockset_clean = lockset.is_empty();
    let deadlock_predicted = mutant
        .iter()
        .any(|f| f.rule == PredictRule::PotentialDeadlock);
    let nested_silent = nested.is_empty();
    eprintln!(
        "[check: predict: locked IS lockset {} ({} finding(s)); lock-order mutant {}; clean \
         nesting {}]",
        if is_lockset_clean { "clean" } else { "DIRTY" },
        lockset.len(),
        if deadlock_predicted {
            "predicted"
        } else {
            "MISSED"
        },
        if nested_silent { "silent" } else { "NOISY" },
    );
    let to_arr = |fs: &[PredictFinding]| Json::arr(fs.iter().map(predict_to_json));
    let json = Json::obj([
        ("locked_is_lockset_findings", to_arr(&lockset)),
        (
            "lock_order_selfcheck",
            Json::obj([
                ("deadlock_predicted", Json::from(deadlock_predicted)),
                ("findings", to_arr(&mutant)),
            ]),
        ),
        ("clean_nesting_findings", to_arr(&nested)),
    ]);
    (
        json,
        is_lockset_clean && deadlock_predicted && nested_silent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_scope_attaches_a_sink_per_machine() {
        let scope = CheckScope::install();
        let _m = Machine::ksr1_scaled(1, 64).expect("machine");
        let _m2 = Machine::ksr1_scaled(2, 64).expect("machine");
        assert_eq!(scope.machines_seen(), 2);
        let check = scope.drain();
        assert_eq!(check.machines, 2);
        assert!(check.violations.is_empty() && check.truncated == 0);
    }

    #[test]
    fn exp_checks_merge_in_order() {
        let mut a = ExpCheck {
            machines: 1,
            events: 10,
            ..ExpCheck::default()
        };
        a.merge(ExpCheck {
            machines: 2,
            events: 5,
            truncated: 3,
            ..ExpCheck::default()
        });
        assert_eq!(a.machines, 3);
        assert_eq!(a.events, 15);
        assert_eq!(a.total_violations(), 3);
    }
}
