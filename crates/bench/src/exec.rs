//! Pure jobs, canonical job descriptors, and the parallel experiment
//! executor.
//!
//! One experiment = an [`ExperimentPlan`]: a list of pure [`Job`]s
//! (config + seed + program factory → typed [`MetricRow`]s) plus an
//! ordered reduce that turns the per-job rows back into the experiment's
//! [`ExperimentOutput`]. Construction, execution, and reduction are
//! strictly separated — no experiment prints or writes mid-run.
//!
//! Every job carries a [`JobDesc`]: the canonical, hashable statement of
//! *what* the job computes (experiment id, schema version, label, mode
//! flags, seed, config parameters). Its fingerprint keys the
//! content-addressed results cache (`--cache DIR`), and the flattened
//! job index drives `--shard i/N` partitioning — both possible only
//! because jobs are pure functions of their descriptor.
//!
//! [`execute`] schedules every job of every plan over a pool of
//! `opts.jobs` scoped worker threads. Determinism is structural, not
//! accidental:
//!
//! * each job builds its own [`Machine`](ksr_machine::Machine)s from an
//!   explicit seed, and the simulator is deterministic per
//!   (config, seed) regardless of host scheduling;
//! * job results land in pre-assigned slots, so the reduce always sees
//!   them in job order no matter which worker finished first — or
//!   whether the rows came from the cache instead of a worker;
//! * reduces run on the caller's thread in plan order.
//!
//! Hence `results/*.json` and `summary.json` are byte-identical at any
//! `-j`, cold or warm. Wall-clock timings (the only nondeterministic
//! signal) are kept out of result files and reported separately via
//! [`ExecReport::timings`] and [`CacheStats`].

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use ksr_core::{fingerprint, Fingerprint, Json, Progress};

use crate::cache::ResultsCache;
use crate::check::{CheckScope, ExpCheck};
use crate::common::{ExperimentOutput, MetricRow, RunOpts};

/// The canonical descriptor of one pure job — everything its closure's
/// result depends on, and nothing else (no wall-clock, no worker count,
/// no host details, which is why a cache entry written on one machine
/// hits on another).
///
/// Planners must route every input the closure captures through the
/// descriptor: the seed via [`JobDesc::seed`], each config knob (procs,
/// topology spec, sweep point, episode count, ...) via
/// [`JobDesc::param`]. The `quick`/`check` flags and the per-experiment
/// `schema_version` salt come from construction, so reduced sweeps,
/// checked runs, and code changes each key separately.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDesc {
    experiment: &'static str,
    schema: u32,
    label: String,
    quick: bool,
    check: bool,
    seed: u64,
    params: Vec<(String, Json)>,
}

impl JobDesc {
    /// Start a descriptor for one job of `experiment`.
    ///
    /// `schema` is the experiment's schema version: bump it whenever the
    /// meaning of the job's output changes (new workload shape, fixed
    /// model, different row layout) so stale cache entries miss instead
    /// of resurfacing.
    #[must_use]
    pub fn new(
        experiment: &'static str,
        schema: u32,
        label: impl Into<String>,
        opts: &RunOpts,
    ) -> Self {
        Self {
            experiment,
            schema,
            label: label.into(),
            quick: opts.quick,
            check: opts.check,
            seed: 0,
            params: Vec::new(),
        }
    }

    /// Set the machine seed the job builds from (after
    /// [`RunOpts::machine_seed`] perturbation).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Append one config parameter (insertion order is part of the
    /// canonical form, so keep call sites stable).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// The experiment this job belongs to.
    #[must_use]
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// The experiment's schema version (bumped to re-key the cache).
    #[must_use]
    pub fn schema(&self) -> u32 {
        self.schema
    }

    /// Human-readable label (shown in progress lines).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The canonical serialized form: compact JSON with fields in fixed
    /// order. This exact string is hashed for the fingerprint and stored
    /// in cache entries for collision-proof validation, so any change to
    /// it invalidates existing caches (deliberately).
    #[must_use]
    pub fn canonical(&self) -> String {
        Json::obj([
            ("experiment", Json::from(self.experiment)),
            ("schema", Json::from(u64::from(self.schema))),
            ("label", Json::from(self.label.as_str())),
            ("quick", Json::from(self.quick)),
            ("check", Json::from(self.check)),
            ("seed", Json::from(self.seed)),
            ("params", Json::Obj(self.params.clone())),
        ])
        .render()
    }

    /// The cache key: the fingerprint of [`JobDesc::canonical`].
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(self.canonical().as_bytes())
    }
}

/// One pure unit of work: a closure over config + seeds that builds its
/// own machines and returns typed rows, plus the [`JobDesc`] stating
/// exactly which (config, seed) point it is. No printing, no file I/O,
/// no shared state — which is what makes the grid schedulable in any
/// order on any number of workers, and cacheable by descriptor.
pub struct Job {
    desc: JobDesc,
    run: Box<dyn FnOnce() -> Vec<MetricRow> + Send>,
}

impl Job {
    /// A job returning arbitrarily many rows.
    pub fn new(desc: JobDesc, run: impl FnOnce() -> Vec<MetricRow> + Send + 'static) -> Self {
        Self {
            desc,
            run: Box::new(run),
        }
    }

    /// The common single-measurement job: one `f64` becomes one row of
    /// `metric` (the reduce re-derives the fully parameterized rows).
    pub fn value(
        desc: JobDesc,
        metric: &str,
        unit: &str,
        f: impl FnOnce() -> f64 + Send + 'static,
    ) -> Self {
        let (metric, unit) = (metric.to_string(), unit.to_string());
        Self::new(desc, move || vec![MetricRow::new(&metric, &[], f(), &unit)])
    }

    /// The job's canonical descriptor.
    #[must_use]
    pub fn desc(&self) -> &JobDesc {
        &self.desc
    }

    /// Human-readable label (shown in progress lines).
    #[must_use]
    pub fn label(&self) -> &str {
        self.desc.label()
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
            .field("desc", &self.desc)
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

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the plan had no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
    title: &'static str,
    jobs: Vec<Job>,
    reduce: Reduce,
}

impl ExperimentPlan {
    /// Assemble a plan.
    pub fn new(
        id: &'static str,
        title: &'static str,
        jobs: Vec<Job>,
        reduce: impl FnOnce(JobResults) -> ExperimentOutput + Send + 'static,
    ) -> Self {
        Self {
            id,
            title,
            jobs,
            reduce: Box::new(reduce),
        }
    }

    /// Experiment id (DESIGN.md index key).
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Human title.
    #[must_use]
    pub fn title(&self) -> &'static str {
        self.title
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

/// Cache traffic counters for one run — reported in `timings.json` and
/// on stderr, never in the byte-compared result files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs whose rows came from the cache without executing.
    pub hits: usize,
    /// Jobs that executed (and, where possible, stored their rows).
    pub misses: usize,
    /// Jobs belonging to other shards, neither executed nor loaded.
    pub skipped: usize,
}

/// What [`execute`] returns: the per-experiment results plus run-level
/// execution metadata.
#[derive(Debug)]
pub struct ExecReport {
    /// One entry per plan, in plan order — empty for a shard run, which
    /// reduces nothing.
    pub results: Vec<ExperimentResult>,
    /// Each plan's executed jobs with their wall-clock seconds, in plan
    /// order (for `timings.json`; nondeterministic by nature). Cache hits
    /// and jobs left to other shards are absent.
    pub timings: Vec<PlanTimings>,
    /// Cache counters — `Some` exactly when a cache was in use (i.e.
    /// `opts.cache` set and not bypassed by `opts.check`).
    pub cache: Option<CacheStats>,
    /// Total jobs across every plan (all shards together).
    pub total_jobs: usize,
}

/// Host seconds of one plan's executed jobs.
#[derive(Debug, Clone)]
pub struct PlanTimings {
    /// Experiment id.
    pub id: &'static str,
    /// `(label, seconds)` of every job that executed, in plan order.
    pub jobs: Vec<(String, f64)>,
}

impl PlanTimings {
    /// Summed seconds of the executed jobs.
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
    /// Host seconds, or `None` when the rows came from the cache.
    seconds: Option<f64>,
}

/// The cache to consult for a run: `--check` bypasses it entirely,
/// because checked runs exist to *observe* execution (their violations
/// are not rows and cannot be replayed from a cache).
fn active_cache(opts: &RunOpts) -> Option<ResultsCache> {
    if opts.check {
        return None;
    }
    opts.cache.as_deref().map(ResultsCache::new)
}

/// Run one job, wrapped in a check scope when requested, and store the
/// rows in the cache (when one is active). Returns the filled slot.
fn run_job(item: Job, check: bool, cache: Option<&ResultsCache>, progress: &Progress) -> JobSlot {
    let desc = item.desc().clone();
    let started = Instant::now();
    let (rows, job_check) = if check {
        let scope = CheckScope::install();
        let rows = item.execute();
        (rows, Some(scope.drain()))
    } else {
        (item.execute(), None)
    };
    let seconds = started.elapsed().as_secs_f64();
    if let Some(cache) = cache {
        if let Err(e) = cache.store(&desc, &rows) {
            progress.note(format!("[warning: could not cache {}: {e}]", desc.label()));
        }
    }
    JobSlot {
        rows,
        check: job_check,
        seconds: Some(seconds),
    }
}

/// Execute `plans` over `opts.jobs` workers and reduce each in plan
/// order. With `opts.cache` set (and `--check` off), each job first
/// consults the cache — hits skip execution entirely and count in
/// [`ExecReport::cache`]. Progress (start/finish/cached per job) goes
/// through `progress`; nothing here touches stdout, and the only
/// filesystem traffic is the cache directory.
///
/// With `opts.shard` set this is a shard run: only the jobs the shard
/// [owns](crate::common::Shard::owns) run (the rest count as
/// `skipped`), their rows go to the cache, and no reduce runs. After
/// every shard of a sweep has run, a plain run over the same cache
/// executes nothing and reduces artifacts byte-identical to an
/// unsharded run.
#[must_use]
pub fn execute(plans: Vec<ExperimentPlan>, opts: &RunOpts, progress: &Progress) -> ExecReport {
    let total: usize = plans.iter().map(|p| p.jobs.len()).sum();
    let cache = active_cache(opts);

    // Split every plan into its queue items and its reduce.
    let mut reduces = Vec::with_capacity(plans.len());
    let mut queue = VecDeque::with_capacity(total);
    let mut slots: Vec<Vec<Option<(String, JobSlot)>>> = Vec::with_capacity(plans.len());
    let mut skipped = 0;
    let mut index = 0;
    for (pi, plan) in plans.into_iter().enumerate() {
        slots.push((0..plan.jobs.len()).map(|_| None).collect());
        for (ji, item) in plan.jobs.into_iter().enumerate() {
            index += 1;
            if opts.shard.is_some_and(|shard| !shard.owns(index - 1)) {
                skipped += 1;
                continue;
            }
            queue.push_back(QueueItem {
                plan: pi,
                job: ji,
                index,
                item,
            });
        }
        reduces.push((plan.id, plan.reduce));
    }

    let workers = opts.jobs.max(1).min(queue.len().max(1));
    let queue = Mutex::new(queue);
    let slots = Mutex::new(slots);
    let stats = Mutex::new(CacheStats {
        skipped,
        ..CacheStats::default()
    });
    let check = opts.check;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(next) = queue.lock().expect("job queue poisoned").pop_front() else {
                    break;
                };
                let label = next.item.label().to_string();
                let slot = if let Some(rows) = cache.as_ref().and_then(|c| c.load(next.item.desc()))
                {
                    progress.cached(&label, next.index, total);
                    stats.lock().expect("cache stats poisoned").hits += 1;
                    JobSlot {
                        rows,
                        check: None,
                        seconds: None,
                    }
                } else {
                    progress.started(&label, next.index, total);
                    let slot = run_job(next.item, check, cache.as_ref(), progress);
                    let ms = slot.seconds.map_or(0, |s| (s * 1000.0) as u64);
                    progress.finished(&label, next.index, total, ms);
                    if cache.is_some() {
                        stats.lock().expect("cache stats poisoned").misses += 1;
                    }
                    slot
                };
                slots.lock().expect("result slots poisoned")[next.plan][next.job] =
                    Some((label, slot));
            });
        }
    });

    let slots = slots.into_inner().expect("result slots poisoned");
    let timings = reduces
        .iter()
        .zip(&slots)
        .map(|((id, _), plan_slots)| PlanTimings {
            id,
            jobs: plan_slots
                .iter()
                .flatten()
                .filter_map(|(label, slot)| Some((label.clone(), slot.seconds?)))
                .collect(),
        })
        .collect();
    let results = if opts.shard.is_some() {
        Vec::new()
    } else {
        reduces
            .into_iter()
            .zip(slots)
            .map(|((_, reduce), plan_slots)| {
                let mut rows = Vec::with_capacity(plan_slots.len());
                let mut merged = check.then(ExpCheck::default);
                for slot in plan_slots {
                    let (_, slot) = slot.expect("executor finished with an unfilled job slot");
                    rows.push(slot.rows);
                    if let (Some(acc), Some(jc)) = (merged.as_mut(), slot.check) {
                        acc.merge(jc);
                    }
                }
                ExperimentResult {
                    output: reduce(JobResults::new(rows)),
                    check: merged,
                }
            })
            .collect()
    };
    ExecReport {
        results,
        timings,
        cache: cache
            .is_some()
            .then(|| *stats.lock().expect("cache stats poisoned")),
        total_jobs: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_desc(id: &'static str, label: String, v: f64) -> JobDesc {
        JobDesc::new(id, 1, label, &RunOpts::default())
            .seed(7)
            .param("v", v)
    }

    fn toy_plan(id: &'static str, values: &[f64]) -> ExperimentPlan {
        let jobs = values
            .iter()
            .map(|&v| Job::value(toy_desc(id, format!("{id} v={v}"), v), "m", "s", move || v))
            .collect();
        let n = values.len();
        ExperimentPlan::new(id, "toy", jobs, move |res| {
            let mut out = ExperimentOutput::new(id, "toy");
            assert_eq!(res.len(), n);
            for i in 0..res.len() {
                out.line(format_args!("v[{i}] = {}", res.value(i)));
            }
            out
        })
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ksr_exec_cache_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
            assert_eq!(report.total_jobs, 3);
            assert_eq!(report.results[0].output.text, serial.text, "jobs={jobs}");
            assert!(report.results[0].check.is_none());
            assert!(report.cache.is_none(), "no cache configured");
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
        assert_eq!(
            labels,
            ["B v=2", "B v=4"],
            "every executed job, in plan order"
        );
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

    #[test]
    fn progress_reports_every_job() {
        let (progress, rx) = Progress::channel();
        let opts = RunOpts {
            jobs: 2,
            ..RunOpts::default()
        };
        let _ = execute(vec![toy_plan("P", &[1.0, 2.0, 3.0])], &opts, &progress);
        drop(progress);
        let events: Vec<_> = rx.into_iter().collect();
        // One Started and one Finished per job.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn descriptor_fingerprints_separate_every_axis() {
        let base = || toy_desc("T", "x".to_string(), 1.0);
        let fp = base().fingerprint();
        assert_eq!(fp, base().fingerprint(), "fingerprints are deterministic");
        assert_ne!(fp, base().seed(8).fingerprint(), "seed must key");
        assert_ne!(
            fp,
            base().param("extra", 1u64).fingerprint(),
            "params must key"
        );
        assert_ne!(
            fp,
            JobDesc::new("T", 2, "x", &RunOpts::default())
                .seed(7)
                .param("v", 1.0)
                .fingerprint(),
            "schema_version must key"
        );
        assert_ne!(
            fp,
            JobDesc::new("T", 1, "x", &RunOpts::quick())
                .seed(7)
                .param("v", 1.0)
                .fingerprint(),
            "quick must key"
        );
        assert_ne!(
            fp,
            toy_desc("U", "x".to_string(), 1.0).fingerprint(),
            "experiment id must key"
        );
        assert_ne!(
            fp,
            toy_desc("T", "y".to_string(), 1.0).fingerprint(),
            "label must key"
        );
    }

    #[test]
    fn canonical_form_is_stable() {
        // The canonical rendering is an on-disk contract (hashed into
        // every cache key); changes must be deliberate schema bumps.
        let desc = JobDesc::new("FIG4", 3, "fig4 p=8", &RunOpts::quick())
            .seed(1000)
            .param("procs", 8usize)
            .param("kind", "tree");
        assert_eq!(
            desc.canonical(),
            r#"{"experiment":"FIG4","schema":3,"label":"fig4 p=8","quick":true,"check":false,"seed":1000,"params":{"procs":8,"kind":"tree"}}"#
        );
    }

    #[test]
    fn warm_cache_skips_execution() {
        let dir = temp_cache_dir("warm");
        let opts = RunOpts {
            jobs: 2,
            cache: Some(dir.clone()),
            ..RunOpts::default()
        };
        let cold = execute(
            vec![toy_plan("C", &[1.0, 2.0, 3.0])],
            &opts,
            &Progress::disabled(),
        );
        assert_eq!(
            cold.cache,
            Some(CacheStats {
                hits: 0,
                misses: 3,
                skipped: 0
            })
        );
        let (progress, rx) = Progress::channel();
        let warm = execute(vec![toy_plan("C", &[1.0, 2.0, 3.0])], &opts, &progress);
        drop(progress);
        assert_eq!(
            warm.cache,
            Some(CacheStats {
                hits: 3,
                misses: 0,
                skipped: 0
            })
        );
        assert_eq!(
            warm.results[0].output.text, cold.results[0].output.text,
            "cached rows must reduce to the identical output"
        );
        assert_eq!(cold.timings[0].jobs.len(), 3);
        assert!(
            warm.timings[0].jobs.is_empty(),
            "jobs served from the cache have no host time"
        );
        // Every event is a Cached notification — nothing started.
        let events: Vec<_> = rx.into_iter().collect();
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| matches!(e, ksr_core::ProgressEvent::Cached { .. })));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn check_mode_bypasses_the_cache() {
        let dir = temp_cache_dir("check_bypass");
        let opts = RunOpts {
            cache: Some(dir.clone()),
            check: true,
            ..RunOpts::default()
        };
        let report = execute(vec![toy_plan("K", &[1.0])], &opts, &Progress::disabled());
        assert!(
            report.cache.is_none(),
            "checked runs must not consult or populate the cache"
        );
        assert!(report.results[0].check.is_some());
        assert!(
            !dir.exists(),
            "checked runs must leave no cache entries behind"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shards_partition_round_robin_and_join_hits_everything() {
        let dir = temp_cache_dir("shard");
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mk = || vec![toy_plan("S", &values)];
        for index in [1, 2] {
            let opts = RunOpts {
                jobs: 2,
                cache: Some(dir.clone()),
                shard: Some(crate::common::Shard { index, count: 2 }),
                ..RunOpts::default()
            };
            let report = execute(mk(), &opts, &Progress::disabled());
            assert_eq!(report.total_jobs, 5);
            assert!(report.results.is_empty(), "a shard run reduces nothing");
            let own = if index == 1 { 3 } else { 2 }; // indices {0,2,4} vs {1,3}
            assert_eq!(
                report.cache,
                Some(CacheStats {
                    hits: 0,
                    misses: own,
                    skipped: 5 - own
                })
            );
        }
        // Re-running a shard is all hits, no re-execution.
        let opts = RunOpts {
            cache: Some(dir.clone()),
            shard: Some(crate::common::Shard { index: 1, count: 2 }),
            ..RunOpts::default()
        };
        let rerun = execute(mk(), &opts, &Progress::disabled());
        assert_eq!(
            rerun.cache,
            Some(CacheStats {
                hits: 3,
                misses: 0,
                skipped: 2
            })
        );
        // The union of both shards serves a full run entirely from
        // cache, byte-identical to a serial one.
        let serial = mk().pop().unwrap().run_serial();
        let join_opts = RunOpts {
            cache: Some(dir.clone()),
            ..RunOpts::default()
        };
        let joined = execute(mk(), &join_opts, &Progress::disabled());
        assert_eq!(
            joined.cache,
            Some(CacheStats {
                hits: 5,
                misses: 0,
                skipped: 0
            })
        );
        assert_eq!(joined.results[0].output.text, serial.text);
        let _ = std::fs::remove_dir_all(dir);
    }
}
