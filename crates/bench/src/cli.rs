//! Command-line plumbing for `run_all`, the harness's one front end.
//! Its flags are its only input:
//!
//! * `--list` — print the registry and exit;
//! * `--only ID[,ID...]` — run a subset (case-insensitive ids, repeats
//!   dropped) and write only those experiments' files: no `summary.json`
//!   or `timings.json`, which index a whole run;
//! * `--quick` / `--full` — force reduced or full sweeps;
//! * `--seed N` — perturb every machine seed;
//! * `--results DIR` — where result files go;
//! * `--jobs N` / `-j N` — worker threads the executor schedules jobs
//!   over (results are byte-identical at any value; default: the host
//!   parallelism capped at [`MAX_DEFAULT_JOBS`]);
//! * `--check` — verification mode: every machine gets a
//!   `ksr-verify` coherence-checking sink, the race-detector and
//!   predictive suites run over a traced IS kernel afterwards, and
//!   `violations.json` lands next to the results (non-zero exit on any
//!   violation);
//! * `--cache DIR` — content-addressed results cache: jobs whose
//!   fingerprint is present load instead of executing, everything else
//!   executes and populates the cache (bypassed under `--check`, whose
//!   point is observing execution);
//! * `--shard i/N` — run only shard `i` of `N` of the flattened job
//!   list into the cache (requires `--cache`; writes no artifacts). A
//!   plain `--cache` run after every shard has finished executes nothing
//!   and writes the artifacts; its `[cache: ...]` line counts as misses
//!   any jobs a missing shard left out;
//! * `--prune` — delete cache entries from dead generations (stale
//!   schemas, removed experiments, corrupt files), then exit (requires
//!   `--cache`).
//!
//! Output discipline: rendered experiment results go to **stdout** (so
//! runs pipe cleanly into files and diffs); everything else — per-job
//! progress, `[written:]` / `[summary:]` / `[check:]` / `[cache:]`
//! status lines, errors — goes to **stderr**.

use std::process::ExitCode;
use std::time::Instant;

use ksr_core::{Json, Progress};

use crate::common::{write_summary, ExperimentOutput, RunOpts, Shard, MAX_DEFAULT_JOBS};
use crate::exec::{self, CacheStats, PlanTimings};
use crate::registry::{find, live_schemas, Experiment, REGISTRY};

/// Parsed command line: run options plus the selection flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Effective run options (defaults + flags).
    pub opts: RunOpts,
    /// `--list`: print the registry instead of running.
    pub list: bool,
    /// `--only`: ids to run, upper-cased, each once in first-seen
    /// order (empty means all).
    pub only: Vec<String>,
    /// `--prune`: drop dead cache generations instead of running.
    pub prune: bool,
}

/// Parse `args` (not including the program name) over the defaults:
/// full size, seed 0, `results/`, no check, no cache, and the host
/// parallelism capped at [`MAX_DEFAULT_JOBS`] workers. Returns an error
/// message for unknown or malformed flags (including an `--only` that
/// names no id) and for inconsistent combinations (sharding without a
/// cache, `--shard` with `--check`).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: RunOpts {
            jobs: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(MAX_DEFAULT_JOBS),
            ..RunOpts::default()
        },
        list: false,
        only: Vec::new(),
        prune: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.opts.quick = true,
            "--full" => cli.opts.quick = false,
            "--check" => cli.opts.check = true,
            "--list" => cli.list = true,
            "--prune" => cli.prune = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--results" => {
                cli.opts.results_dir = args.next().ok_or("--results needs a directory")?.into();
            }
            "--cache" => {
                cli.opts.cache = Some(args.next().ok_or("--cache needs a directory")?.into());
            }
            "--shard" => {
                let v = args.next().ok_or("--shard needs i/N")?;
                cli.opts.shard = Some(Shard::parse(&v)?);
            }
            "--jobs" | "-j" => {
                let v = args.next().ok_or("--jobs needs a worker count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
                cli.opts.jobs = n.max(1);
            }
            "--only" => {
                let v = args
                    .next()
                    .ok_or("--only needs a comma-separated id list")?;
                let ids: Vec<String> = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_uppercase)
                    .collect();
                if ids.is_empty() {
                    return Err(format!("--only names no experiment id: {v:?}"));
                }
                for id in ids {
                    if !cli.only.contains(&id) {
                        cli.only.push(id);
                    }
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if cli.opts.shard.is_some() {
        if cli.opts.cache.is_none() {
            return Err("--shard requires --cache DIR: shards \
                 communicate through the cache"
                .into());
        }
        if cli.opts.check {
            return Err(
                "--shard conflicts with --check: checked runs bypass the cache, \
                 so a checked shard would produce nothing"
                    .into(),
            );
        }
    }
    if cli.prune && cli.opts.cache.is_none() {
        return Err("--prune requires --cache DIR: it needs a cache to clean".into());
    }
    Ok(cli)
}

fn usage() -> String {
    format!(
        "usage: run_all [--quick|--full] [--check] [--seed N] [--results DIR] [--jobs N] \
         [--cache DIR] [--shard i/N] [--list] [--only ID,ID...] [--prune]\n\
         ids: {}",
        crate::registry::ids().join(", ")
    )
}

/// Print the full registry (id + title per line) to stderr — shown when
/// a selection names an unknown experiment.
fn print_registry_to_stderr() {
    eprintln!("registered experiments:");
    for e in REGISTRY {
        eprintln!("  {:<8} {}", e.id(), e.title());
    }
}

/// The run path: plan every selected experiment, execute all jobs over
/// the worker pool, then print/persist the outputs in selection order.
/// With `summary` set (a run without `--only`), `summary.json` and
/// `timings.json` are written too; an `--only` run writes just the
/// selected experiments' files. Under `--check`, the per-experiment
/// coherence results are merged in job order and
/// [`crate::check::finalize`] runs the race and predict suites and writes
/// `violations.json`.
///
/// With `opts.shard` set this is a shard run instead: execute this
/// process's slice of the job list into the cache and stop — no
/// rendering, no artifacts except, with `summary` set, `timings.json`
/// (which carries the hit/miss/skip counters).
fn run_selection(selected: &[&Experiment], opts: &RunOpts, summary: bool) -> ExitCode {
    let plans: Vec<crate::exec::ExperimentPlan> = selected.iter().map(|e| e.plan(opts)).collect();
    let wall_start = Instant::now();
    let report = exec::execute(plans, opts, &Progress::stderr());
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let cache = report.cache.map(|stats| (stats, report.total_jobs));

    if let Some(shard) = opts.shard {
        let stats = report.cache.expect("--shard requires --cache");
        let cache_dir = opts.cache.as_deref().expect("--shard requires --cache");
        eprintln!(
            "[shard {shard}: {} executed, {} already cached, {} left to other shards → {}]",
            stats.misses,
            stats.hits,
            stats.skipped,
            cache_dir.display(),
        );
        if summary {
            if let Err(e) = write_timings(&report.timings, wall_seconds, opts, cache) {
                eprintln!("[warning: could not write timings: {e}]");
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some(stats) = report.cache {
        let cache_dir = opts.cache.as_deref().expect("stats imply a cache");
        eprintln!(
            "[cache: {} hit(s), {} miss(es) of {} job(s) → {}]",
            stats.hits,
            stats.misses,
            report.total_jobs,
            cache_dir.display(),
        );
    } else if opts.cache.is_some() && opts.check {
        eprintln!("[cache: bypassed under --check (violations are observed, not cached)]");
    }

    let mut outputs: Vec<ExperimentOutput> = Vec::with_capacity(report.results.len());
    let mut checks = Vec::new();
    for (exp, result) in selected.iter().zip(report.results) {
        println!("{}", result.output.render());
        match result.output.write_to(&opts.results_dir) {
            Ok(path) => eprintln!("[written: {}]", path.display()),
            Err(e) => eprintln!("[warning: could not write results file: {e}]"),
        }
        if let Some(check) = result.check {
            eprintln!(
                "[check: {}: {} machine(s), {} coherence event(s), {} violation(s)]",
                exp.id(),
                check.machines,
                check.events,
                check.total_violations()
            );
            checks.push((exp.id(), check));
        }
        outputs.push(result.output);
    }

    if summary {
        match write_summary(&outputs, opts) {
            Ok(path) => eprintln!("[summary: {}]", path.display()),
            Err(e) => {
                eprintln!("error: could not write summary: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = write_timings(&report.timings, wall_seconds, opts, cache) {
            eprintln!("[warning: could not write timings: {e}]");
        }
    }

    if opts.check {
        match crate::check::finalize(&checks, opts) {
            Ok((_, true)) => ExitCode::SUCCESS,
            Ok((_, false)) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: could not write violations report: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        ExitCode::SUCCESS
    }
}

/// Write `timings.json`: per-experiment wall-clock seconds, each with
/// its executed jobs' labels and seconds in plan order (jobs served from
/// the cache are left out), plus the run's worker count, total wall
/// time, and (when a cache was active) the hit/miss/skip counters.
/// Timings are the one nondeterministic output, so they live in their
/// own file that the determinism gates exclude from byte comparison —
/// which is also why the cache counters belong here and not in
/// `summary.json`.
fn write_timings(
    timings: &[PlanTimings],
    wall_seconds: f64,
    opts: &RunOpts,
    cache: Option<(CacheStats, usize)>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.results_dir)?;
    let mut doc = Json::obj([
        ("jobs", Json::from(opts.jobs)),
        ("wall_seconds", Json::from(wall_seconds)),
    ]);
    if let Some((stats, total_jobs)) = cache {
        doc.push_field(
            "cache",
            Json::obj([
                ("hits", Json::from(stats.hits)),
                ("misses", Json::from(stats.misses)),
                ("skipped", Json::from(stats.skipped)),
                ("total_jobs", Json::from(total_jobs)),
            ]),
        );
    }
    doc.push_field(
        "experiments",
        Json::Arr(
            timings
                .iter()
                .map(|t| {
                    let jobs = t.jobs.iter().map(|(label, seconds)| {
                        Json::obj([
                            ("label", Json::from(label.as_str())),
                            ("seconds", Json::from(*seconds)),
                        ])
                    });
                    Json::obj([
                        ("id", Json::from(t.id)),
                        ("seconds", Json::from(t.seconds())),
                        ("jobs", Json::arr(jobs)),
                    ])
                })
                .collect(),
        ),
    );
    let path = opts.results_dir.join("timings.json");
    let mut body = doc.render_pretty();
    body.push('\n');
    std::fs::write(&path, body)?;
    eprintln!("[timings: {}]", path.display());
    Ok(())
}

/// Entry point for the `run_all` binary.
#[must_use]
pub fn run_all_main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.list {
        // Job counts come from plan() under the effective options, so
        // `--quick --list` shows the quick grid — exactly what a user
        // sizing --shard N is about to run.
        for e in REGISTRY {
            let jobs = e.plan(&cli.opts).jobs().len();
            println!("{:<8} {:>4} job(s)  {}", e.id(), jobs, e.title());
        }
        return ExitCode::SUCCESS;
    }
    if cli.prune {
        return prune_cache(&cli.opts);
    }
    let selected: Vec<&Experiment> = if cli.only.is_empty() {
        REGISTRY.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &cli.only {
            match find(id) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("error: unknown experiment id {id}");
                    print_registry_to_stderr();
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };
    run_selection(&selected, &cli.opts, cli.only.is_empty())
}

/// Delete cache entries no current experiment generation can ever hit:
/// the [`live_schemas`] stay, anything else — stale schemas, removed
/// experiments, corrupt files — goes.
fn prune_cache(opts: &RunOpts) -> ExitCode {
    let dir = opts.cache.clone().expect("parse_args enforces --cache");
    match crate::cache::ResultsCache::new(&dir).prune(&live_schemas(opts)) {
        Ok(stats) => {
            eprintln!(
                "[prune: {} entries removed, {} kept → {}]",
                stats.pruned,
                stats.kept,
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: could not prune {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_layer_over_defaults() {
        let cli = parse_args(
            [
                "--quick",
                "--seed",
                "9",
                "--results",
                "out",
                "--jobs",
                "4",
                "--only",
                "fig4,tab1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(cli.opts.quick);
        assert_eq!(cli.opts.seed, 9);
        assert_eq!(cli.opts.results_dir, std::path::PathBuf::from("out"));
        assert_eq!(cli.opts.jobs, 4);
        assert_eq!(cli.only, ["FIG4", "TAB1"]);
        let cli =
            parse_args(["--only", "SEC31A,sec31a", "--only", "tab1,Sec31a"].map(String::from))
                .unwrap();
        assert_eq!(
            cli.only,
            ["SEC31A", "TAB1"],
            "a repeated id runs once, at its first position"
        );
    }

    #[test]
    fn short_jobs_flag_and_floor() {
        let cli = parse_args(["-j", "8"].map(String::from)).unwrap();
        assert_eq!(cli.opts.jobs, 8);
        let cli = parse_args(["--jobs", "0"].map(String::from)).unwrap();
        assert_eq!(cli.opts.jobs, 1, "a zero worker count clamps to serial");
        let jobs = parse_args(std::iter::empty()).unwrap().opts.jobs;
        assert!((1..=MAX_DEFAULT_JOBS).contains(&jobs), "default: {jobs}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse_args(["--bogus".to_string()]).is_err());
        assert!(parse_args(["--seed".to_string(), "x".to_string()]).is_err());
        assert!(parse_args(["--jobs".to_string(), "x".to_string()]).is_err());
        assert!(
            parse_args(["--only", ","].map(String::from)).is_err(),
            "an --only that names no id"
        );
        assert!(parse_args(["--only", ""].map(String::from)).is_err());
    }

    #[test]
    fn cache_and_shard_flags_parse() {
        let cli = parse_args(["--cache", "cdir", "--shard", "2/4"].map(String::from)).unwrap();
        assert_eq!(cli.opts.cache, Some(std::path::PathBuf::from("cdir")));
        assert_eq!(cli.opts.shard, Some(Shard { index: 2, count: 4 }));
    }

    #[test]
    fn prune_flag_parses_and_requires_a_cache() {
        let cli = parse_args(["--cache", "cdir", "--prune"].map(String::from)).unwrap();
        assert!(cli.prune);
        assert!(
            parse_args(["--prune".to_string()]).is_err(),
            "--prune without --cache"
        );
    }

    #[test]
    fn inconsistent_shard_combinations_are_errors() {
        assert!(
            parse_args(["--shard", "1/2"].map(String::from)).is_err(),
            "--shard without --cache"
        );
        assert!(
            parse_args(["--cache", "c", "--shard", "1/2", "--check"].map(String::from)).is_err(),
            "--shard with --check"
        );
        assert!(parse_args(["--shard".to_string()]).is_err());
        assert!(parse_args(["--shard", "0/2"].map(String::from)).is_err());
        assert!(parse_args(["--shard", "3/2"].map(String::from)).is_err());
        assert!(parse_args(["--cache".to_string()]).is_err());
    }
}
