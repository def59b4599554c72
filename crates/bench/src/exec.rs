//! Pure jobs and the parallel experiment executor.
//!
//! One experiment = an [`ExperimentPlan`]: a list of pure [`Job`]s
//! (config + seed + program factory → typed [`MetricRow`]s) plus an
//! ordered reduce that turns the per-job rows back into the experiment's
//! [`ExperimentOutput`]. Construction, execution, and reduction are
//! strictly separated — no experiment prints or writes mid-run.
//!
//! A job is a label and a closure. The label names the job in progress
//! lines and `timings.json`; the closure captures everything the job
//! computes from.
//!
//! [`execute`] schedules every job of every plan over a pool of
//! `opts.jobs` scoped worker threads. Determinism is structural, not
//! accidental:
//!
//! * each job builds its own [`Machine`](ksr_machine::Machine)s from an
//!   explicit seed, and the simulator is deterministic per
//!   (config, seed) regardless of host scheduling;
//! * job results land in pre-assigned slots, so the reduce always sees
//!   them in job order no matter which worker finished first;
//! * reduces run on the caller's thread in plan order.
//!
//! Hence `results/*.json` and `summary.json` are byte-identical at any
//! `-j`. Wall-clock timings (the only nondeterministic signal) are kept
//! out of result files and reported separately via
//! [`ExecReport::timings`].

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use ksr_core::Progress;

use crate::check::{CheckScope, ExpCheck};
use crate::common::{ExperimentOutput, MetricRow, RunOpts};

/// One pure unit of work: a label plus a closure over config + seeds
/// that builds its own machines and returns typed rows. No printing, no
/// file I/O, no shared state — which is what makes the grid schedulable
/// in any order on any number of workers.
pub struct Job {
    label: String,
    run: Box<dyn FnOnce() -> Vec<MetricRow> + Send>,
}

impl Job {
    /// A job returning arbitrarily many rows.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Vec<MetricRow> + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The common single-measurement job: one `f64` becomes one row of
    /// `metric` (the reduce re-derives the fully parameterized rows).
    pub fn value(
        label: impl Into<String>,
        metric: &str,
        unit: &str,
        f: impl FnOnce() -> f64 + Send + 'static,
    ) -> Self {
        let (metric, unit) = (metric.to_string(), unit.to_string());
        Self::new(label, move || {
            vec![MetricRow::new(&metric, &[], f(), &unit)]
        })
    }

    /// Human-readable label (shown in progress lines and
    /// `timings.json`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Run the job to completion on the current thread.
    #[must_use]
    pub fn execute(self) -> Vec<MetricRow> {
        (self.run)()
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Per-job row lists, in job order — what an [`ExperimentPlan`]'s
/// reduce receives.
#[derive(Debug)]
pub struct JobResults {
    rows: Vec<Vec<MetricRow>>,
}

impl JobResults {
    /// Results for `jobs.len()` jobs, in job order.
    #[must_use]
    pub fn new(rows: Vec<Vec<MetricRow>>) -> Self {
        Self { rows }
    }

    /// All rows of job `i`.
    #[must_use]
    pub fn rows(&self, i: usize) -> &[MetricRow] {
        &self.rows[i]
    }

    /// The single value of job `i` (for [`Job::value`] jobs).
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        self.rows[i][0].value
    }
}

/// The reduce: per-job rows (in job order) → the experiment's output.
pub type Reduce = Box<dyn FnOnce(JobResults) -> ExperimentOutput + Send>;

/// One experiment as pure data: its jobs and the ordered reduce.
pub struct ExperimentPlan {
    id: &'static str,
    jobs: Vec<Job>,
    reduce: Reduce,
}

impl ExperimentPlan {
    /// Assemble a plan.
    pub fn new(
        id: &'static str,
        jobs: Vec<Job>,
        reduce: impl FnOnce(JobResults) -> ExperimentOutput + Send + 'static,
    ) -> Self {
        Self {
            id,
            jobs,
            reduce: Box::new(reduce),
        }
    }

    /// The jobs, for inspection.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Run every job on the current thread, in order, then reduce —
    /// byte-identical to what the executor produces at any `-j`.
    #[must_use]
    pub fn run_serial(self) -> ExperimentOutput {
        let rows = self.jobs.into_iter().map(Job::execute).collect();
        (self.reduce)(JobResults::new(rows))
    }
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("id", &self.id)
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

/// One executed experiment: its output plus the coherence-checking
/// results, which stay out of the byte-compared result files.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The reduced output (identical to `plan.run_serial()`).
    pub output: ExperimentOutput,
    /// Aggregated coherence-checking results, merged in job order —
    /// `Some` exactly when `opts.check` was set.
    pub check: Option<ExpCheck>,
}

/// What [`execute`] returns: the per-experiment results plus their host
/// timings.
#[derive(Debug)]
pub struct ExecReport {
    /// One entry per plan, in plan order.
    pub results: Vec<ExperimentResult>,
    /// Each plan's jobs with their wall-clock seconds, in plan order
    /// (for `timings.json`; nondeterministic by nature).
    pub timings: Vec<PlanTimings>,
}

/// Host seconds of one plan's jobs.
#[derive(Debug, Clone)]
pub struct PlanTimings {
    /// Experiment id.
    pub id: &'static str,
    /// `(label, seconds)` of every job, in plan order.
    pub jobs: Vec<(String, f64)>,
}

impl PlanTimings {
    /// Summed seconds of the jobs.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.jobs.iter().map(|&(_, s)| s).sum()
    }
}

struct QueueItem {
    plan: usize,
    job: usize,
    index: usize,
    item: Job,
}

struct JobSlot {
    rows: Vec<MetricRow>,
    check: Option<ExpCheck>,
    /// Host seconds the job took.
    seconds: f64,
}

/// Run one job, wrapped in a check scope when requested. Returns the
/// filled slot.
fn run_job(item: Job, check: bool) -> JobSlot {
    let started = Instant::now();
    let (rows, job_check) = if check {
        let scope = CheckScope::install();
        let rows = item.execute();
        (rows, Some(scope.drain()))
    } else {
        (item.execute(), None)
    };
    JobSlot {
        rows,
        check: job_check,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Execute `plans` over `opts.jobs` workers and reduce each in plan
/// order. Progress (a start and a finish line per job) goes through
/// `progress`; nothing here touches stdout or the filesystem.
#[must_use]
pub fn execute(plans: Vec<ExperimentPlan>, opts: &RunOpts, progress: &Progress) -> ExecReport {
    let total: usize = plans.iter().map(|p| p.jobs.len()).sum();

    // Split every plan into its queue items and its reduce.
    let mut reduces = Vec::with_capacity(plans.len());
    let mut queue = VecDeque::with_capacity(total);
    let mut slots: Vec<Vec<Option<(String, JobSlot)>>> = Vec::with_capacity(plans.len());
    let mut index = 0;
    for (pi, plan) in plans.into_iter().enumerate() {
        slots.push((0..plan.jobs.len()).map(|_| None).collect());
        for (ji, item) in plan.jobs.into_iter().enumerate() {
            index += 1;
            queue.push_back(QueueItem {
                plan: pi,
                job: ji,
                index,
                item,
            });
        }
        reduces.push((plan.id, plan.reduce));
    }

    let workers = opts.jobs.max(1).min(total.max(1));
    let queue = Mutex::new(queue);
    let slots = Mutex::new(slots);
    let check = opts.check;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(next) = queue.lock().expect("job queue poisoned").pop_front() else {
                    break;
                };
                let label = next.item.label().to_string();
                progress.started(&label, next.index, total);
                let slot = run_job(next.item, check);
                let ms = (slot.seconds * 1000.0) as u64;
                progress.finished(&label, next.index, total, ms);
                slots.lock().expect("result slots poisoned")[next.plan][next.job] =
                    Some((label, slot));
            });
        }
    });

    let slots = slots.into_inner().expect("result slots poisoned");
    let mut timings = Vec::with_capacity(reduces.len());
    let mut results = Vec::with_capacity(reduces.len());
    for ((id, reduce), plan_slots) in reduces.into_iter().zip(slots) {
        let mut jobs = Vec::with_capacity(plan_slots.len());
        let mut rows = Vec::with_capacity(plan_slots.len());
        let mut merged = check.then(ExpCheck::default);
        for slot in plan_slots {
            let (label, slot) = slot.expect("executor finished with an unfilled job slot");
            jobs.push((label, slot.seconds));
            rows.push(slot.rows);
            if let (Some(acc), Some(jc)) = (merged.as_mut(), slot.check) {
                acc.merge(jc);
            }
        }
        timings.push(PlanTimings { id, jobs });
        results.push(ExperimentResult {
            output: reduce(JobResults::new(rows)),
            check: merged,
        });
    }
    ExecReport { results, timings }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan(id: &'static str, values: &[f64]) -> ExperimentPlan {
        let jobs = values
            .iter()
            .map(|&v| Job::value(format!("{id} v={v}"), "m", "s", move || v))
            .collect();
        let n = values.len();
        ExperimentPlan::new(id, jobs, move |res| {
            let mut out = ExperimentOutput::new(id, "toy");
            for i in 0..n {
                out.line(format_args!("v[{i}] = {}", res.value(i)));
            }
            out
        })
    }

    #[test]
    fn serial_and_parallel_agree_in_job_order() {
        let serial = toy_plan("T", &[3.0, 1.0, 2.0]).run_serial();
        for jobs in [1, 2, 8] {
            let opts = RunOpts {
                jobs,
                ..RunOpts::default()
            };
            let report = execute(
                vec![toy_plan("T", &[3.0, 1.0, 2.0])],
                &opts,
                &Progress::disabled(),
            );
            assert_eq!(report.results.len(), 1);
            assert_eq!(report.timings[0].jobs.len(), 3);
            assert_eq!(report.results[0].output.text, serial.text, "jobs={jobs}");
            assert!(report.results[0].check.is_none());
        }
    }

    #[test]
    fn many_plans_reduce_in_plan_order() {
        let opts = RunOpts {
            jobs: 4,
            ..RunOpts::default()
        };
        let plans = vec![toy_plan("A", &[1.0]), toy_plan("B", &[2.0, 4.0])];
        let report = execute(plans, &opts, &Progress::disabled());
        assert_eq!(report.results[0].output.id, "A");
        assert_eq!(report.results[1].output.id, "B");
        assert!(report.results[1].output.text.contains("v[1] = 4"));
        assert_eq!(report.timings.len(), 2);
        assert_eq!(report.timings[1].id, "B");
        let labels: Vec<&str> = report.timings[1]
            .jobs
            .iter()
            .map(|(label, _)| label.as_str())
            .collect();
        assert_eq!(labels, ["B v=2", "B v=4"], "every job, in plan order");
        assert!(report.timings.iter().all(|t| t.seconds() >= 0.0));
    }

    #[test]
    fn empty_plan_still_reduces() {
        let report = execute(
            vec![toy_plan("E", &[])],
            &RunOpts::default(),
            &Progress::disabled(),
        );
        assert_eq!(report.results[0].output.id, "E");
    }

    /// Two workers report every job through a live stderr handle (the
    /// spawned `run_all` tests in `tests/pipeline.rs` read those lines),
    /// and the report times each job in plan order.
    #[test]
    fn progress_reports_every_job() {
        let opts = RunOpts {
            jobs: 2,
            ..RunOpts::default()
        };
        let report = execute(
            vec![toy_plan("P", &[1.0, 2.0, 3.0])],
            &opts,
            &Progress::stderr(),
        );
        let labels: Vec<&str> = report.timings[0]
            .jobs
            .iter()
            .map(|(label, _)| label.as_str())
            .collect();
        assert_eq!(labels, ["P v=1", "P v=2", "P v=3"]);
    }
}
