//! Tier-1 gate for the sweep-at-scale machinery: the content-addressed
//! results cache and round-robin sharding must never change what a run
//! produces — only whether jobs execute.
//!
//! Covered here, end-to-end over real registry experiments (TAB3 and
//! TAB4 in quick mode, so the gate stays debug-build friendly):
//!
//! * a warm re-run hits on every job and writes byte-identical
//!   artifacts;
//! * changing the run seed misses on every job (no stale reuse);
//! * a corrupted cache entry degrades to a miss — the job re-runs and
//!   the artifacts stay byte-identical, never wrong;
//! * `--shard 1/2` ∪ `--shard 2/2` followed by a join reduces to
//!   artifacts byte-identical to an unsharded run without executing
//!   anything.

use std::fs;
use std::path::{Path, PathBuf};

use ksr_bench::common::write_summary;
use ksr_bench::registry::find;
use ksr_bench::{exec, CacheStats, RunOpts, Shard};
use ksr_core::Progress;

const IDS: [&str; 2] = ["TAB3", "TAB4"];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksr_sweep_cache_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn opts(seed: u64, cache: Option<&Path>, results: &Path) -> RunOpts {
    RunOpts {
        quick: true,
        seed,
        jobs: 2,
        cache: cache.map(Path::to_path_buf),
        results_dir: results.to_path_buf(),
        ..RunOpts::default()
    }
}

fn plans(opts: &RunOpts) -> Vec<exec::ExperimentPlan> {
    IDS.iter()
        .map(|id| find(id).expect("registered id").plan(opts))
        .collect()
}

/// Execute the selection and persist its artifacts the way `run_all`
/// does; returns the cache counters.
fn run_and_persist(opts: &RunOpts) -> Option<CacheStats> {
    let report = exec::execute(plans(opts), opts, &Progress::disabled());
    let mut outputs = Vec::new();
    for result in report.results {
        result
            .output
            .write_to(&opts.results_dir)
            .expect("write result files");
        outputs.push(result.output);
    }
    write_summary(&outputs, opts).expect("write summary");
    report.cache
}

/// Every artifact in `dir` as (name, bytes), sorted by name.
fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read results dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().into_string().unwrap(),
                fs::read(e.path()).expect("read artifact"),
            )
        })
        .collect();
    files.sort();
    files
}

fn total_jobs(opts: &RunOpts) -> usize {
    plans(opts).iter().map(|p| p.jobs().len()).sum()
}

#[test]
fn warm_runs_hit_everything_and_reproduce_artifacts_exactly() {
    let cache = fresh_dir("warm_cache");
    let cold_dir = fresh_dir("warm_cold");
    let warm_dir = fresh_dir("warm_warm");
    let n = total_jobs(&opts(0, None, &cold_dir));
    assert!(n >= 2, "selection too small to be a meaningful gate");

    let cold = run_and_persist(&opts(0, Some(&cache), &cold_dir)).expect("cache active");
    assert_eq!(
        cold,
        CacheStats {
            hits: 0,
            misses: n,
            skipped: 0
        }
    );

    let warm = run_and_persist(&opts(0, Some(&cache), &warm_dir)).expect("cache active");
    assert_eq!(
        warm,
        CacheStats {
            hits: n,
            misses: 0,
            skipped: 0
        },
        "a warm re-run must execute zero jobs"
    );
    assert_eq!(
        artifacts(&cold_dir),
        artifacts(&warm_dir),
        "cached rows must reduce to byte-identical artifacts"
    );

    // A different run seed is a different descriptor: all misses, and
    // the stale entries stay untouched for their own seed.
    let other_dir = fresh_dir("warm_other");
    let other = run_and_persist(&opts(1, Some(&cache), &other_dir)).expect("cache active");
    assert_eq!(
        other,
        CacheStats {
            hits: 0,
            misses: n,
            skipped: 0
        },
        "a new seed must never reuse old rows"
    );

    for dir in [cache, cold_dir, warm_dir, other_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn corrupted_entries_degrade_to_misses_not_wrong_results() {
    let cache = fresh_dir("corrupt_cache");
    let cold_dir = fresh_dir("corrupt_cold");
    let rerun_dir = fresh_dir("corrupt_rerun");
    let n = total_jobs(&opts(0, None, &cold_dir));

    let cold = run_and_persist(&opts(0, Some(&cache), &cold_dir)).expect("cache active");
    assert_eq!(cold.misses, n);

    // Truncate one entry mid-file: its validation must fail closed.
    let victim = fs::read_dir(&cache)
        .expect("read cache dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("cache has entries");
    let bytes = fs::read(&victim).expect("read entry");
    fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate entry");

    let rerun = run_and_persist(&opts(0, Some(&cache), &rerun_dir)).expect("cache active");
    assert_eq!(
        rerun,
        CacheStats {
            hits: n - 1,
            misses: 1,
            skipped: 0
        },
        "exactly the corrupted entry must re-run"
    );
    assert_eq!(
        artifacts(&cold_dir),
        artifacts(&rerun_dir),
        "the re-executed job must restore identical artifacts"
    );

    for dir in [cache, cold_dir, rerun_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn sharded_halves_join_to_an_unsharded_run_byte_for_byte() {
    let cache = fresh_dir("shard_cache");
    let plain_dir = fresh_dir("shard_plain");
    let join_dir = fresh_dir("shard_join");
    let n = total_jobs(&opts(0, None, &plain_dir));

    // Reference: an unsharded, uncached run.
    let plain = run_and_persist(&opts(0, None, &plain_dir));
    assert!(plain.is_none(), "no cache configured for the reference run");

    // Both halves, at different worker counts for good measure.
    let mut executed = 0;
    for (index, jobs) in [(1, 1), (2, 4)] {
        let mut o = opts(0, Some(&cache), &join_dir);
        o.jobs = jobs;
        o.shard = Some(Shard { index, count: 2 });
        let report = exec::execute_shard(plans(&o), &o, &Progress::disabled());
        assert_eq!(report.total_jobs, n);
        assert_eq!(report.cache.hits, 0, "fresh cache: nothing to hit");
        assert_eq!(
            report.cache.misses + report.cache.skipped,
            n,
            "every job is either owned or left to the other shard"
        );
        executed += report.cache.misses;
    }
    assert_eq!(
        executed, n,
        "the two shards must cover the job list exactly"
    );

    // The join is a warm run: zero executions, identical artifacts.
    let join = run_and_persist(&opts(0, Some(&cache), &join_dir)).expect("cache active");
    assert_eq!(
        join,
        CacheStats {
            hits: n,
            misses: 0,
            skipped: 0
        }
    );
    assert_eq!(
        artifacts(&plain_dir),
        artifacts(&join_dir),
        "a sharded+joined run must be byte-identical to an unsharded one"
    );

    for dir in [cache, plain_dir, join_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}
