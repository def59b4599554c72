//! Command-line plumbing for `run_all`, the harness's one front end.
//! Its flags are its only input:
//!
//! * `--list` — print the registry and exit;
//! * `--only ID[,ID...]` — run a subset (case-insensitive ids, repeats
//!   dropped; an unknown id is a usage error) and write only those
//!   experiments' files: no `summary.json` or `timings.json`, which
//!   index a whole run;
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
//!   violation).
//!
//! Output discipline: rendered experiment results go to **stdout** (so
//! runs pipe cleanly into files and diffs); everything else — per-job
//! progress, `[written:]` / `[summary:]` / `[check:]` status lines,
//! errors — goes to **stderr**. A reader that closes stdout early (`run_all
//! --list | head -3`) stops the stdout output quietly; any other stdout
//! write error fails the run.

use std::io::{ErrorKind, StdoutLock, Write};
use std::process::ExitCode;
use std::time::Instant;

use ksr_core::{Json, Progress};

use crate::common::{write_summary, ExperimentOutput, RunOpts, MAX_DEFAULT_JOBS};
use crate::exec::{self, PlanTimings};
use crate::registry::{find, Experiment, REGISTRY};

/// Parsed command line: run options plus the selection flags.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Effective run options (defaults + flags).
    pub opts: RunOpts,
    /// `--list`: print the registry instead of running.
    pub list: bool,
    /// `--only`: the experiments to run, each once in first-seen order
    /// (empty means all).
    pub only: Vec<&'static Experiment>,
}

/// Parse `args` (not including the program name) over the defaults:
/// full size, seed 0, `results/`, no check, and the host parallelism
/// capped at [`MAX_DEFAULT_JOBS`] workers. Returns an error message for
/// unknown or malformed flags, including an `--only` that names no id
/// or an unknown one.
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
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.opts.quick = true,
            "--full" => cli.opts.quick = false,
            "--check" => cli.opts.check = true,
            "--list" => cli.list = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--results" => {
                cli.opts.results_dir = args.next().ok_or("--results needs a directory")?.into();
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
                let ids: Vec<&str> = v.split(',').filter(|s| !s.is_empty()).collect();
                if ids.is_empty() {
                    return Err(format!("--only names no experiment id: {v:?}"));
                }
                for id in ids {
                    let e = find(id).ok_or_else(|| format!("unknown experiment id {id}"))?;
                    if !cli.only.iter().any(|o| o.id() == e.id()) {
                        cli.only.push(e);
                    }
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn usage() -> String {
    format!(
        "usage: run_all [--quick|--full] [--check] [--seed N] [--results DIR] [--jobs N] \
         [--list] [--only ID,ID...]\n\
         ids: {}",
        crate::registry::ids().join(", ")
    )
}

/// `run_all`'s one stdout handle.
struct Stdout {
    lock: StdoutLock<'static>,
    /// The reader went away: later lines are dropped.
    closed: bool,
}

impl Stdout {
    fn new() -> Self {
        Self {
            lock: std::io::stdout().lock(),
            closed: false,
        }
    }

    /// Write `text` and a newline. A broken pipe stops the output
    /// quietly; any other write error prints an `error:` line and
    /// returns the exit code that fails the run.
    fn line(&mut self, text: &str) -> Result<(), ExitCode> {
        if self.closed {
            return Ok(());
        }
        match writeln!(self.lock, "{text}") {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            Err(e) => {
                eprintln!("error: could not write to stdout: {e}");
                Err(ExitCode::FAILURE)
            }
        }
    }
}

/// The run path: plan every selected experiment, execute all jobs over
/// the worker pool, then print/persist the outputs in selection order.
/// With `summary` set (a run without `--only`), `summary.json` and
/// `timings.json` are written too; an `--only` run writes just the
/// selected experiments' files. Under `--check`, the per-experiment
/// coherence results are merged in job order and
/// [`crate::check::finalize`] runs the race and predict suites and writes
/// `violations.json`. A result file that cannot be written fails the
/// run, as a failed `summary.json` or `violations.json` write does, and
/// so does a stdout write error other than a closed reader.
fn run_selection(selected: &[&Experiment], opts: &RunOpts, summary: bool) -> ExitCode {
    let plans: Vec<crate::exec::ExperimentPlan> = selected.iter().map(|e| e.plan(opts)).collect();
    let wall_start = Instant::now();
    let report = exec::execute(plans, opts, &Progress::stderr());
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let mut outputs: Vec<ExperimentOutput> = Vec::with_capacity(report.results.len());
    let mut checks = Vec::new();
    let mut out = Stdout::new();
    for (exp, result) in selected.iter().zip(report.results) {
        if let Err(code) = out.line(&result.output.render()) {
            return code;
        }
        match result.output.write_to(&opts.results_dir) {
            Ok(path) => eprintln!("[written: {}]", path.display()),
            Err(e) => {
                eprintln!("error: could not write results file: {e}");
                return ExitCode::FAILURE;
            }
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
        if let Err(e) = write_timings(&report.timings, wall_seconds, opts) {
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
/// its jobs' labels and seconds in plan order, plus the run's worker
/// count and total wall time. Timings are the one nondeterministic
/// output, so they live in their own file that the determinism gates
/// exclude from byte comparison.
fn write_timings(
    timings: &[PlanTimings],
    wall_seconds: f64,
    opts: &RunOpts,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.results_dir)?;
    let experiments = timings.iter().map(|t| {
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
    });
    let doc = Json::obj([
        ("jobs", Json::from(opts.jobs)),
        ("wall_seconds", Json::from(wall_seconds)),
        ("experiments", Json::arr(experiments)),
    ]);
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
        // `--quick --list` shows the quick grid.
        let mut out = Stdout::new();
        for e in REGISTRY {
            let jobs = e.plan(&cli.opts).labels().len();
            if let Err(code) = out.line(&format!("{:<8} {:>4} job(s)  {}", e.id(), jobs, e.title()))
            {
                return code;
            }
        }
        return ExitCode::SUCCESS;
    }
    let summary = cli.only.is_empty();
    let selected = if summary {
        REGISTRY.iter().collect()
    } else {
        cli.only
    };
    run_selection(&selected, &cli.opts, summary)
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
        let ids = |cli: &Cli| cli.only.iter().map(|e| e.id()).collect::<Vec<_>>();
        assert_eq!(ids(&cli), ["FIG4", "TAB1"]);
        let cli =
            parse_args(["--only", "SEC31A,sec31a", "--only", "tab1,Sec31a"].map(String::from))
                .unwrap();
        assert_eq!(
            ids(&cli),
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
        let err = parse_args(["--only", "FIG4,NOPE"].map(String::from)).unwrap_err();
        assert!(
            err.contains("NOPE"),
            "the error names the unknown id: {err}"
        );
        for retired in [&["--cache", "d"][..], &["--shard", "1/2"], &["--prune"]] {
            assert!(
                parse_args(retired.iter().map(|a| a.to_string())).is_err(),
                "{retired:?} is no flag"
            );
        }
    }
}
