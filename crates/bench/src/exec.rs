//! Pure jobs and the parallel experiment executor.
//!
//! One experiment = an [`ExperimentPlan`]: a list of pure jobs plus a
//! reduce that turns their values into the experiment's
//! [`ExperimentOutput`]. [`ExperimentPlan::job`] queues a job and
//! returns a typed handle, [`Out<T>`], to the value it will compute;
//! the reduce reads each value through its handle (`res[h]`), never by
//! position. Construction, execution, and reduction are strictly
//! separated — no experiment prints or writes mid-run.
//!
//! A job is a label and a closure. The label names the job in progress
//! lines and `timings.json`; the closure captures everything the job
//! computes from and returns any `Send` value (`f64`, a tuple, a
//! report). Values are type-erased only in this module: one boxed
//! [`Any`] per job, downcast by the handle that queued it.
//!
//! [`execute`] schedules every job of every plan over a pool of
//! `opts.jobs` scoped worker threads. Determinism is structural, not
//! accidental:
//!
//! * each job builds its own [`Machine`](ksr_machine::Machine)s from an
//!   explicit seed, and the simulator is deterministic per
//!   (config, seed) regardless of host scheduling;
//! * job values land in pre-assigned slots, so a handle reads the same
//!   value no matter which worker finished first;
//! * reduces run on the caller's thread in plan order.
//!
//! Hence `results/*.json` and `summary.json` are byte-identical at any
//! `-j`. Wall-clock timings (the only nondeterministic signal) are kept
//! out of result files and reported separately via
//! [`ExecReport::timings`].

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Index;
use std::sync::Mutex;
use std::time::Instant;

use ksr_core::Progress;

use crate::check::{CheckScope, ExpCheck};
use crate::common::{ExperimentOutput, RunOpts};

/// A job's value, type-erased until its handle reads it.
type Value = Box<dyn Any + Send>;

/// One pure unit of work: a label plus a closure over config + seeds
/// that builds its own machines and returns its value. No printing, no
/// file I/O, no shared state — which is what makes the grid schedulable
/// in any order on any number of workers.
struct Job {
    label: String,
    run: Box<dyn FnOnce() -> Value + Send>,
}

/// Typed handle to the value of one job, returned by
/// [`ExperimentPlan::job`]; the plan's reduce reads the value as
/// `res[handle]`.
pub struct Out<T> {
    index: usize,
    value: PhantomData<fn() -> T>,
}

impl<T> Clone for Out<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Out<T> {}

impl<T> std::fmt::Debug for Out<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Out").field(&self.index).finish()
    }
}

/// The values of one plan's jobs, as its reduce reads them: index with
/// the handles the planner kept.
pub struct Results {
    values: Vec<Value>,
}

impl<T: 'static> Index<Out<T>> for Results {
    type Output = T;

    fn index(&self, handle: Out<T>) -> &T {
        self.values[handle.index]
            .downcast_ref()
            .expect("a handle reads only the plan that queued it")
    }
}

impl std::fmt::Debug for Results {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Results")
            .field("values", &self.values.len())
            .finish()
    }
}

/// A plan's reduce: reads the job values and fills the output.
type Reduce = Box<dyn FnOnce(&Results, &mut ExperimentOutput) + Send>;

/// One experiment as pure data: its jobs and the reduce that fills its
/// output.
pub struct ExperimentPlan {
    output: ExperimentOutput,
    jobs: Vec<Job>,
    reduce: Reduce,
}

impl ExperimentPlan {
    /// A plan with no jobs yet, whose reduce fills an output with this
    /// id and title.
    #[must_use]
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Self {
            output: ExperimentOutput::new(id, title),
            jobs: Vec::new(),
            reduce: Box::new(|_, _| {}),
        }
    }

    /// Queue a job; its value is read in the reduce through the
    /// returned handle.
    #[must_use]
    pub fn job<T: Send + 'static>(
        &mut self,
        label: impl Into<String>,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> Out<T> {
        self.jobs.push(Job {
            label: label.into(),
            run: Box::new(move || Box::new(run()) as Value),
        });
        Out {
            index: self.jobs.len() - 1,
            value: PhantomData,
        }
    }

    /// Set the reduce, which reads the job values through their handles
    /// and fills the output.
    #[must_use]
    pub fn reduce(
        mut self,
        reduce: impl FnOnce(&Results, &mut ExperimentOutput) + Send + 'static,
    ) -> Self {
        self.reduce = Box::new(reduce);
        self
    }

    /// The job labels, in plan order.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = &str> {
        self.jobs.iter().map(|job| job.label.as_str())
    }

    /// Run every job on the current thread, in order, then reduce —
    /// byte-identical to what the executor produces at any `-j`.
    #[must_use]
    pub fn run_serial(mut self) -> ExperimentOutput {
        let jobs = std::mem::take(&mut self.jobs);
        self.finish(jobs.into_iter().map(|job| (job.run)()).collect())
    }

    /// Reduce the values of this plan's jobs, given in plan order.
    fn finish(self, values: Vec<Value>) -> ExperimentOutput {
        let mut output = self.output;
        (self.reduce)(&Results { values }, &mut output);
        output
    }
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("id", &self.output.id)
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
    value: Value,
    check: Option<ExpCheck>,
    /// Host seconds the job took.
    seconds: f64,
}

/// Run one job's closure, wrapped in a check scope when requested.
/// Returns the filled slot.
fn run_job(run: Box<dyn FnOnce() -> Value + Send>, check: bool) -> JobSlot {
    let started = Instant::now();
    let (value, job_check) = if check {
        let scope = CheckScope::install();
        let value = run();
        (value, Some(scope.drain()))
    } else {
        (run(), None)
    };
    JobSlot {
        value,
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

    // Queue every plan's jobs; the emptied plans wait for their values.
    let mut pending = Vec::with_capacity(plans.len());
    let mut queue = VecDeque::with_capacity(total);
    let mut slots: Vec<Vec<Option<(String, JobSlot)>>> = Vec::with_capacity(plans.len());
    let mut index = 0;
    for (pi, mut plan) in plans.into_iter().enumerate() {
        let jobs = std::mem::take(&mut plan.jobs);
        slots.push((0..jobs.len()).map(|_| None).collect());
        for (ji, item) in jobs.into_iter().enumerate() {
            index += 1;
            queue.push_back(QueueItem {
                plan: pi,
                job: ji,
                index,
                item,
            });
        }
        pending.push(plan);
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
                let Job { label, run } = next.item;
                progress.started(&label, next.index, total);
                let slot = run_job(run, check);
                let ms = (slot.seconds * 1000.0) as u64;
                progress.finished(&label, next.index, total, ms);
                slots.lock().expect("result slots poisoned")[next.plan][next.job] =
                    Some((label, slot));
            });
        }
    });

    let slots = slots.into_inner().expect("result slots poisoned");
    let mut timings = Vec::with_capacity(pending.len());
    let mut results = Vec::with_capacity(pending.len());
    for (plan, plan_slots) in pending.into_iter().zip(slots) {
        let mut jobs = Vec::with_capacity(plan_slots.len());
        let mut values = Vec::with_capacity(plan_slots.len());
        let mut merged = check.then(ExpCheck::default);
        for slot in plan_slots {
            let (label, slot) = slot.expect("executor finished with an unfilled job slot");
            jobs.push((label, slot.seconds));
            values.push(slot.value);
            if let (Some(acc), Some(jc)) = (merged.as_mut(), slot.check) {
                acc.merge(jc);
            }
        }
        timings.push(PlanTimings {
            id: plan.output.id,
            jobs,
        });
        results.push(ExperimentResult {
            output: plan.finish(values),
            check: merged,
        });
    }
    ExecReport { results, timings }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job value that owns heap data.
    struct Sorted {
        values: Vec<f64>,
    }

    /// One `f64` job per value, then a `(f64, f64)` job and a job
    /// returning a struct that holds a `Vec`.
    fn toy_plan(id: &'static str, values: &[f64]) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new(id, "toy");
        let singles: Vec<Out<f64>> = values
            .iter()
            .map(|&v| plan.job(format!("{id} v={v}"), move || v))
            .collect();
        let all = values.to_vec();
        let sum = all.iter().sum::<f64>();
        let pair = plan.job(format!("{id} pair"), move || (sum, sum * 2.0));
        let sorted = plan.job(format!("{id} sorted"), move || {
            let mut values = all;
            values.sort_by(f64::total_cmp);
            Sorted { values }
        });
        plan.reduce(move |res, out| {
            for (i, &h) in singles.iter().enumerate() {
                out.line(format_args!("v[{i}] = {}", res[h]));
            }
            let (sum, twice) = res[pair];
            out.line(format_args!("sum = {sum}, twice = {twice}"));
            out.line(format_args!("sorted = {:?}", res[sorted].values));
        })
    }

    fn labels(timings: &PlanTimings) -> Vec<&str> {
        timings
            .jobs
            .iter()
            .map(|(label, _)| label.as_str())
            .collect()
    }

    #[test]
    fn serial_and_parallel_agree_in_job_order() {
        let serial = toy_plan("T", &[3.0, 1.0, 2.0]).run_serial();
        assert!(serial.text.contains("v[0] = 3\nv[1] = 1\nv[2] = 2\n"));
        assert!(serial.text.contains("sum = 6, twice = 12\n"));
        assert!(serial.text.contains("sorted = [1.0, 2.0, 3.0]\n"));
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
            assert_eq!(report.results[0].output.text, serial.text, "jobs={jobs}");
            assert_eq!(
                labels(&report.timings[0]),
                ["T v=3", "T v=1", "T v=2", "T pair", "T sorted"],
                "jobs={jobs}: every job, in plan order"
            );
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
        assert_eq!(
            labels(&report.timings[1]),
            ["B v=2", "B v=4", "B pair", "B sorted"]
        );
        assert!(report.timings.iter().all(|t| t.seconds() >= 0.0));
    }

    #[test]
    fn empty_plan_still_reduces() {
        let report = execute(
            vec![ExperimentPlan::new("E", "empty")],
            &RunOpts::default(),
            &Progress::disabled(),
        );
        assert_eq!(report.results[0].output.id, "E");
        assert!(report.timings[0].jobs.is_empty());
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
        assert_eq!(
            labels(&report.timings[0]),
            ["P v=1", "P v=2", "P v=3", "P pair", "P sorted"]
        );
    }
}
