//! Tier-1 gate for the whole quick suite and the sweep-at-scale
//! machinery around it: every quick artifact of every registered
//! experiment is pinned to a committed digest, and the results cache,
//! pruning and round-robin sharding must never change what a run
//! produces — only whether jobs execute.
//!
//! `quick.digests` holds one `ksr_core::fingerprint` per artifact of
//! `run_all --quick --seed 0 --jobs 1` (each experiment's `.txt`,
//! `.json` and `.csv` files plus `summary.json`), and two per experiment
//! over its jobs' `JobDesc::canonical()` forms in plan order: one for the
//! quick plan, one for the full-size plan, which is only planned. The
//! digests come from a serial run, so a run at eight workers that
//! matches them is a `-j1`/`-j8` comparison. The descriptor lines catch
//! a cache key that drifts between processes, which warm runs inside
//! one process cannot see. A change that alters an artifact or a
//! descriptor on purpose replaces the file with the text the failing
//! test prints, and says why.
//!
//! Covered here:
//!
//! * shards 1/2 and 2/2 into a fresh cache execute every job of the
//!   registry exactly once;
//! * a warm run over that cache executes nothing and matches every
//!   digest;
//! * a prune with the registry's live set removes a planted corrupt
//!   entry and keeps every live one, so a second warm run still
//!   executes nothing;
//!
//! and, on TAB3 and TAB4 in quick mode:
//!
//! * a warm re-run hits on every job and writes byte-identical
//!   artifacts, and changing the run seed misses on every job (no stale
//!   reuse);
//! * a corrupted cache entry degrades to a miss — the job re-runs and
//!   the artifacts stay byte-identical, never wrong;
//! * shards 1/2 (one worker) and 2/2 (four workers) followed by a plain
//!   cached run reduce to artifacts byte-identical to an unsharded,
//!   uncached run without executing anything.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use ksr_bench::cache::PruneStats;
use ksr_bench::common::write_summary;
use ksr_bench::registry::{self, find};
use ksr_bench::{exec, CacheStats, ResultsCache, RunOpts, Shard};
use ksr_core::{fingerprint, Progress};

/// The committed digests.
const GOLDENS: &str = include_str!("quick.digests");

/// The first lines of `quick.digests`.
const HEADER: &str = "\
# Quick-suite goldens, checked by tests/sweep_cache.rs. Each line is
# `<name> <ksr_core::fingerprint hex>`: an artifact of
# `run_all --quick --seed 0 --jobs 1`, or `jobs:<ID>` (`jobs-full:<ID>`),
# the fingerprint of that experiment's quick (full-size)
# JobDesc::canonical() forms joined by newlines in plan order.
";

/// The experiments of the cache and seed cases.
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

fn plans(ids: &[&str], opts: &RunOpts) -> Vec<exec::ExperimentPlan> {
    ids.iter()
        .map(|id| find(id).expect("registered id").plan(opts))
        .collect()
}

/// Execute the selection and persist its artifacts the way `run_all`
/// does; returns the cache counters.
fn run_and_persist(ids: &[&str], opts: &RunOpts) -> Option<CacheStats> {
    let report = exec::execute(plans(ids, opts), opts, &Progress::disabled());
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

fn total_jobs(ids: &[&str], opts: &RunOpts) -> usize {
    plans(ids, opts).iter().map(|p| p.jobs().len()).sum()
}

/// The digests of a whole-registry run persisted under
/// `opts.results_dir`, rendered in the format of `quick.digests`.
fn render_digests(opts: &RunOpts) -> String {
    let mut digests = BTreeMap::new();
    let full = RunOpts {
        quick: false,
        ..opts.clone()
    };
    for (prefix, opts) in [("jobs", opts), ("jobs-full", &full)] {
        for plan in plans(&registry::ids(), opts) {
            let canonical: Vec<String> = plan.jobs().iter().map(|j| j.desc().canonical()).collect();
            digests.insert(
                format!("{prefix}:{}", plan.id()),
                fingerprint(canonical.join("\n").as_bytes()),
            );
        }
    }
    for (name, bytes) in artifacts(&opts.results_dir) {
        digests.insert(name, fingerprint(&bytes));
    }
    let mut text = HEADER.to_string();
    for (name, digest) in digests {
        text.push_str(&format!("{name} {digest}\n"));
    }
    text
}

/// Fail unless the persisted run reproduces `quick.digests` exactly: no
/// entry missing, none extra, none changed. The message names the
/// entries that differ and prints the whole actual file.
fn assert_matches_goldens(opts: &RunOpts, what: &str) {
    let actual = render_digests(opts);
    if actual == GOLDENS {
        return;
    }
    let entries = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let (golden, now) = (entries(GOLDENS), entries(&actual));
    let differing: BTreeSet<&String> = golden
        .keys()
        .chain(now.keys())
        .filter(|k| golden.get(*k) != now.get(*k))
        .collect();
    panic!(
        "{what}: quick.digests differs at {differing:?}. If the change is \
         deliberate, replace crates/bench/tests/quick.digests with the text \
         below and say why.\n{actual}"
    );
}

#[test]
fn quick_suite_matches_goldens_through_shards_warm_runs_and_prune() {
    let cache = fresh_dir("goldens_cache");
    let results = fresh_dir("goldens_results");
    let quick = RunOpts {
        jobs: 8,
        ..opts(0, Some(&cache), &results)
    };
    let ids = registry::ids();
    let n = total_jobs(&ids, &quick);

    // Both halves into a fresh cache: every job runs exactly once.
    let mut executed = 0;
    for index in [1, 2] {
        let shard = RunOpts {
            shard: Some(Shard { index, count: 2 }),
            ..quick.clone()
        };
        let report = exec::execute(plans(&ids, &shard), &shard, &Progress::disabled());
        assert!(report.results.is_empty(), "a shard run reduces nothing");
        let stats = report.cache.expect("cache active");
        assert_eq!(stats.hits, 0, "fresh cache: nothing to hit");
        assert_eq!(
            stats.misses + stats.skipped,
            n,
            "every job is either owned or left to the other shard"
        );
        executed += stats.misses;
    }
    assert_eq!(
        executed, n,
        "the two shards must cover the job list exactly"
    );

    let all_hits = Some(CacheStats {
        hits: n,
        misses: 0,
        skipped: 0,
    });
    assert_eq!(
        run_and_persist(&ids, &quick),
        all_hits,
        "a warm run must execute zero jobs"
    );
    assert_matches_goldens(&quick, "warm run over two shards");

    let corrupt = cache.join("deadbeefdeadbeefdeadbeefdeadbeef.json");
    fs::write(&corrupt, "not a cache entry").expect("plant a corrupt entry");
    let pruned = ResultsCache::new(&cache)
        .prune(&registry::live_schemas(&quick))
        .expect("prune");
    assert_eq!(
        pruned,
        PruneStats {
            kept: n as u64,
            pruned: 1
        }
    );
    assert!(!corrupt.exists(), "the corrupt entry must be gone");

    let after_prune = fresh_dir("goldens_after_prune");
    let quick = RunOpts {
        results_dir: after_prune.clone(),
        ..quick
    };
    assert_eq!(
        run_and_persist(&ids, &quick),
        all_hits,
        "a prune must keep every live entry"
    );
    assert_matches_goldens(&quick, "warm run after a prune");

    for dir in [cache, results, after_prune] {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn warm_runs_hit_everything_and_reproduce_artifacts_exactly() {
    let cache = fresh_dir("warm_cache");
    let cold_dir = fresh_dir("warm_cold");
    let warm_dir = fresh_dir("warm_warm");
    let n = total_jobs(&IDS, &opts(0, None, &cold_dir));
    assert!(n >= 2, "selection too small to be a meaningful gate");

    let cold = run_and_persist(&IDS, &opts(0, Some(&cache), &cold_dir)).expect("cache active");
    assert_eq!(
        cold,
        CacheStats {
            hits: 0,
            misses: n,
            skipped: 0
        }
    );

    let warm = run_and_persist(&IDS, &opts(0, Some(&cache), &warm_dir)).expect("cache active");
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
    let other = run_and_persist(&IDS, &opts(1, Some(&cache), &other_dir)).expect("cache active");
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
    let n = total_jobs(&IDS, &opts(0, None, &cold_dir));

    let cold = run_and_persist(&IDS, &opts(0, Some(&cache), &cold_dir)).expect("cache active");
    assert_eq!(cold.misses, n);

    // Truncate one entry mid-file: its validation must fail closed.
    let victim = fs::read_dir(&cache)
        .expect("read cache dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("cache has entries");
    let bytes = fs::read(&victim).expect("read entry");
    fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate entry");

    let rerun = run_and_persist(&IDS, &opts(0, Some(&cache), &rerun_dir)).expect("cache active");
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
    let n = total_jobs(&IDS, &opts(0, None, &plain_dir));

    // Reference: an unsharded, uncached run.
    let plain = run_and_persist(&IDS, &opts(0, None, &plain_dir));
    assert!(plain.is_none(), "no cache configured for the reference run");

    // Both halves, at different worker counts for good measure.
    let mut executed = 0;
    for (index, jobs) in [(1, 1), (2, 4)] {
        let mut o = opts(0, Some(&cache), &join_dir);
        o.jobs = jobs;
        o.shard = Some(Shard { index, count: 2 });
        let report = exec::execute(plans(&IDS, &o), &o, &Progress::disabled());
        assert_eq!(report.total_jobs, n);
        assert!(report.results.is_empty(), "a shard run reduces nothing");
        let stats = report.cache.expect("cache active");
        assert_eq!(stats.hits, 0, "fresh cache: nothing to hit");
        assert_eq!(
            stats.misses + stats.skipped,
            n,
            "every job is either owned or left to the other shard"
        );
        executed += stats.misses;
    }
    assert_eq!(
        executed, n,
        "the two shards must cover the job list exactly"
    );

    // The join is a warm run: zero executions, identical artifacts.
    let join = run_and_persist(&IDS, &opts(0, Some(&cache), &join_dir)).expect("cache active");
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
