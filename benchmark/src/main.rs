//! Host-speed benchmark of the KSR-1 simulator.
//!
//! ```text
//! ksr-benchmark --workload NAME [--seed N] [--seconds N] [--trace [0|1]]
//! ```
//!
//! Runs one workload rep after rep, in this one thread, until `--seconds`
//! have passed, and checks every rep's simulated outputs: each part's
//! invariants, its digest against the first rep's, and at `--seed 0` its
//! digest against the one pinned in `digests.txt`. Metrics go to stderr
//! as a table and to stdout as one JSON line, the last line printed.
//!
//! With `--trace 0` (the default) the metrics are the end-to-end ones,
//! medians over the reps. With `--trace 1` every untraced rep is followed
//! by a traced one, and the metrics are the per-layer ones: host times
//! are medians over the traced reps, counts come from the traced reps
//! (which must all agree), and `trace.overhead_ratio` compares the two
//! kinds of rep.

mod harness;
mod probe;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use ksr_core::{Json, Summary};

use harness::{Rep, Times, Work};
use workloads::{Part, Scale, Workload};

const USAGE: &str =
    "usage: ksr-benchmark --workload NAME [--seed N] [--seconds N] [--trace [0|1]]\n\
     workloads: lock_handoff_1024, atomic_hotspot_1024, apps_32, checked_mix";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    let mut pending = args.next();
    while let Some(flag) = pending.take() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or(format!("--seconds {v:?} is not a whole number >= 1"))?;
            }
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => trace = v == "1",
                next => {
                    trace = true;
                    pending = next;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
        pending = args.next();
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Seed-0 digests of every part, recorded from the simulator this
/// benchmark was defined against: `workload part digest` per line.
const PINNED: &str = include_str!("../digests.txt");

fn pinned_digest(workload: &str, part: &str) -> Option<&'static str> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, p, d] if w == workload && p == part => Some(d),
            _ => None,
        })
}

/// Host seconds one part of a rep took.
#[derive(Debug, Clone, Copy)]
struct PartTimes {
    wall: f64,
    setup: f64,
    run: f64,
}

/// One rep's wall time, host-time split and simulated work, and the
/// times of each of its parts.
#[derive(Debug, Clone, Default)]
struct RepResult {
    wall: f64,
    times: Times,
    work: Work,
    parts: Vec<PartTimes>,
}

/// Runs a workload's parts rep after rep and keeps score of failures.
struct Runner {
    workload: Workload,
    parts: Vec<Part>,
    /// The digest each part must reproduce: the pinned one at seed 0,
    /// otherwise the part's first successful run.
    expected: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
}

impl Runner {
    fn new(workload: Workload, parts: Vec<Part>, pin: bool) -> Self {
        let expected = parts
            .iter()
            .map(|p| {
                pin.then(|| {
                    pinned_digest(workload.name(), p.name)
                        .unwrap_or("<not pinned>")
                        .to_string()
                })
            })
            .collect();
        Self {
            workload,
            parts,
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, part: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {} {part}: {why}", self.workload.name());
    }

    fn rep(&mut self, traced: bool) -> RepResult {
        let t0 = Instant::now();
        let first_rep = self.attempted == 0;
        let mut rep = Rep::new(traced);
        let mut parts = Vec::with_capacity(self.parts.len());
        for i in 0..self.parts.len() {
            self.attempted += 1;
            let name = self.parts[i].name;
            let part_t0 = Instant::now();
            let before = rep.times;
            let ran = catch_unwind(AssertUnwindSafe(|| (self.parts[i].run)(&mut rep)));
            parts.push(PartTimes {
                wall: part_t0.elapsed().as_secs_f64(),
                setup: rep.times.setup - before.setup,
                run: rep.times.run - before.run,
            });
            let digest = rep.take_digest();
            if first_rep {
                eprintln!(
                    "part {} {name} {:.3} s digest {digest}",
                    self.workload.name(),
                    part_t0.elapsed().as_secs_f64()
                );
            }
            if ran.is_err() {
                self.fail(name, "the run panicked");
                continue;
            }
            match &self.expected[i] {
                None => self.expected[i] = Some(digest),
                Some(want) if *want != digest => {
                    let why = format!("digest {digest}, expected {want}");
                    self.fail(name, &why);
                }
                Some(_) => {}
            }
        }
        let (times, work) = rep.finish();
        RepResult {
            wall: t0.elapsed().as_secs_f64(),
            times,
            work,
            parts,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `xs` (linear interpolation between the middle two of an
/// even count); NaN for none.
fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    Summary::of(&xs.into_iter().collect::<Vec<_>>()).map_or(f64::NAN, |s| s.median)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `stat` over `reps` of each part's `time`, summed over the parts.
fn per_part(reps: &[RepResult], stat: fn(&Summary) -> f64, time: fn(&PartTimes) -> f64) -> f64 {
    (0..reps[0].parts.len())
        .map(|i| {
            let xs: Vec<f64> = reps.iter().map(|r| time(&r.parts[i])).collect();
            Summary::of(&xs).map_or(f64::NAN, |s| stat(&s))
        })
        .sum()
}

/// The end-to-end metrics over untraced reps, with host times multiplied
/// by `scale`, this run's clock speed over the reference host's (see
/// [`probe`]).
///
/// Every rep of a part does the same simulated work (the digests check
/// it), and other load on the host only ever slows a part down, in
/// bursts of a few seconds. So wall and run time take each part's
/// fastest rep, the rep least disturbed; set-up time, a few
/// page-fault-bound milliseconds on most workloads, takes each part's
/// median.
fn end_to_end(reps: &[RepResult], scale: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let fastest = |time| scale * per_part(reps, |s| s.min, time);
    vec![
        metric("wall_s", "s", fastest(|p| p.wall)),
        metric(
            "setup_s",
            "s",
            scale * per_part(reps, |s| s.median, |p| p.setup),
        ),
        metric(
            "accesses_per_s",
            "1/s",
            ratio(reps[0].work.accesses as f64, fastest(|p| p.run)),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The per-layer metrics: host times over `traced` reps, counts from the
/// first of them, and the tracing overhead against `plain` reps.
fn per_layer(plain: &[RepResult], traced: &[RepResult]) -> Vec<Metric> {
    let t = |f: fn(&Times) -> f64| median(traced.iter().map(|r| f(&r.times)));
    let w = traced[0].work;
    let per_ns = |secs: fn(&Times) -> f64, count: fn(&Work) -> u64| {
        median(
            traced
                .iter()
                .map(|r| ratio(secs(&r.times) * 1e9, count(&r.work) as f64)),
        )
    };
    let wall = |reps: &[RepResult]| median(reps.iter().map(|r| r.wall));
    vec![
        metric("machine.new_s", "s", t(|t| t.new)),
        metric("machine.run_s", "s", t(|t| t.run)),
        metric("machine.drop_s", "s", t(|t| t.drop)),
        metric("machine.service_s", "s", t(|t| t.service)),
        metric(
            "machine.ns_per_access",
            "ns",
            per_ns(|t| t.service, |w| w.accesses),
        ),
        metric("machine.wakes", "count", w.wakes as f64),
        metric(
            "machine.wakes_per_resume",
            "ratio",
            ratio(w.wakes as f64, w.resumes as f64),
        ),
        metric("program.self_s", "s", t(|t| t.program)),
        metric("program.resumes", "count", w.resumes as f64),
        metric("mem.accesses", "count", w.accesses as f64),
        metric(
            "mem.subcache_hit_ratio",
            "ratio",
            ratio(w.subcache_hits as f64, w.accesses as f64),
        ),
        metric("mem.coherence_events", "count", w.coherence_events as f64),
        metric("mem.invalidations", "count", w.invalidations as f64),
        metric("mem.atomic_rejections", "count", w.atomic_rejections as f64),
        metric(
            "mem.atomic_reject_ratio",
            "ratio",
            ratio(
                w.atomic_rejections as f64,
                (w.atomic_rejections + w.sync_acquires) as f64,
            ),
        ),
        metric("mem.remote_references", "count", w.remote_references as f64),
        metric("net.packets", "count", w.packets as f64),
        metric(
            "net.blocked_slot_ratio",
            "ratio",
            ratio(w.blocked_slots as f64, w.ring_slots as f64),
        ),
        metric(
            "net.combined_fraction",
            "ratio",
            ratio(w.combined as f64, (w.packets + w.combined) as f64),
        ),
        metric("trace.events", "count", w.events as f64),
        metric("trace.sink_s", "s", t(|t| t.sink)),
        metric(
            "trace.overhead_ratio",
            "ratio",
            wall(traced) / wall(plain) - 1.0,
        ),
        metric("verify.sink_s", "s", t(|t| t.verify)),
        metric(
            "verify.ns_per_event",
            "ns",
            per_ns(|t| t.verify, |w| w.verify_events),
        ),
        metric("verify.offline_s", "s", t(|t| t.offline)),
    ]
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `getrusage`, whose `ru_maxrss` Linux reports in KiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `struct timeval`s of two
    /// `long`s each, then fourteen `long`s starting with `ru_maxrss`.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a live, writable value with the size and
    // alignment of the C `struct rusage` on this target, and RUSAGE_SELF
    // is a valid `who`, so getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.0[4] as f64 * 1024.0 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("peak_rss_mb reads getrusage's 64-bit Linux layout");

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "{} seed {} for {} s, trace {}, single-threaded on a {host}-CPU host",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let parts = workloads::parts(args.workload, args.seed, Scale::Full);
    let mut runner = Runner::new(args.workload, parts, args.seed == 0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut probes = Vec::new();
    let start = Instant::now();
    let mut fastest = f64::INFINITY;
    loop {
        let round = Instant::now();
        let round_probes = [probe::seconds(), probe::seconds(), probe::seconds()];
        probes.extend(round_probes);
        let rep = runner.rep(false);
        let parts: Vec<String> = rep
            .parts
            .iter()
            .map(|p| format!("{:.4}/{:.4}/{:.4}", p.wall, p.setup, p.run))
            .collect();
        eprintln!(
            "rep {} wall {:.3} s, probe {:.5} s; parts wall/setup/run s: {}",
            plain.len(),
            rep.wall,
            median(round_probes),
            parts.join(" ")
        );
        plain.push(rep);
        if args.trace {
            let rep = runner.rep(true);
            if traced
                .first()
                .is_some_and(|first: &RepResult| first.work != rep.work)
            {
                runner.fail("traced", "traced work counts differ between reps");
            }
            traced.push(rep);
        }
        // Stop before a round that would most likely end past the
        // deadline, but only after one measured rep beyond the warm-up.
        fastest = fastest.min(round.elapsed().as_secs_f64());
        if plain.len() >= 2 && start.elapsed().as_secs_f64() + fastest > args.seconds as f64 {
            break;
        }
    }
    // The first rep warms the allocator and the host caches: it is
    // checked like every other, but not timed.
    let plain = &plain[1..];
    let probe_s = median(probes.iter().copied());
    let scale = probe::REFERENCE_S / probe_s;
    eprintln!(
        "probe median {probe_s:.5} s over {} runs: host times scaled by {scale:.4}",
        probes.len()
    );
    let (metrics, n) = if args.trace {
        (per_layer(plain, &traced), traced.len())
    } else {
        (end_to_end(plain, scale, peak_rss_mb()), plain.len())
    };
    for m in &metrics {
        eprintln!("{:<26} {:>16.6} {:<6} n={n}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(runner.attempted, runner.failed, &metrics).render()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median([7.5]), 7.5);
        assert!(median([]).is_nan());
    }

    #[test]
    fn parses_the_driver_command_line_and_the_bare_trace_flag() {
        let a = args("--workload apps_32 --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Apps32,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        assert!(!args("--workload apps_32 --trace 0").unwrap().trace);
        assert!(args("--workload apps_32 --trace").unwrap().trace);
        assert!(args("--trace --workload checked_mix").unwrap().trace);
        assert!(args("--seed 1").is_err(), "workload is required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload apps_32 --seconds 0").is_err());
        assert!(args("--workload apps_32 --seed x").is_err());
        assert!(args("--workload apps_32 --bogus").is_err());
    }

    /// Three reps of two parts. Part 0 is slowest in rep 0, part 1 in
    /// rep 2; every rep makes 1200 accesses.
    fn sample_reps() -> Vec<RepResult> {
        let rep = |a: PartTimes, b: PartTimes| RepResult {
            wall: a.wall + b.wall,
            work: Work {
                accesses: 1200,
                ..Work::default()
            },
            parts: vec![a, b],
            ..RepResult::default()
        };
        let part = |wall, setup, run| PartTimes { wall, setup, run };
        vec![
            rep(part(3.0, 0.3, 2.0), part(2.0, 0.01, 1.0)),
            rep(part(2.0, 0.1, 1.0), part(2.5, 0.03, 1.5)),
            rep(part(2.5, 0.2, 1.5), part(3.0, 0.02, 2.0)),
        ]
    }

    #[test]
    fn end_to_end_sums_each_parts_fastest_times_and_median_setup() {
        let e2e = end_to_end(&sample_reps(), 0.5, 42.0);
        let value = |name| e2e.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("wall_s"), 0.5 * (2.0 + 2.0));
        assert!((value("setup_s") - 0.5 * (0.2 + 0.02)).abs() < 1e-12);
        assert_eq!(value("accesses_per_s"), 1200.0 / (0.5 * (1.0 + 1.0)));
        assert_eq!(value("peak_rss_mb"), 42.0);
    }

    fn emitted() -> (Vec<Metric>, Vec<Metric>) {
        (
            end_to_end(&sample_reps(), 1.0, 1.0),
            per_layer(&sample_reps(), &sample_reps()),
        )
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        let (e2e, layers) = emitted();
        for m in e2e.iter().chain(&layers) {
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{}",
                m.name
            );
        }
        assert_eq!(layers.len(), 25);
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let names = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let (e2e, layers) = emitted();
        assert_eq!(names(&e2e), declared("end_to_end"));
        assert_eq!(names(&layers), declared("per_layer"));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let json = result_json(3, 0, &emitted().0);
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn every_part_of_every_workload_is_pinned() {
        for w in Workload::ALL {
            for p in workloads::parts(w, 0, Scale::Tiny) {
                assert!(
                    pinned_digest(w.name(), p.name).is_some(),
                    "{} {} has no pinned digest",
                    w.name(),
                    p.name
                );
            }
        }
    }

    /// Every driver at eight cells: clean, and the same digests on a
    /// second untraced rep and on a traced one.
    #[test]
    fn tiny_workloads_run_clean_and_repeat() {
        for w in Workload::ALL {
            let mut runner = Runner::new(w, workloads::parts(w, 3, Scale::Tiny), false);
            let first = runner.rep(false);
            let second = runner.rep(false);
            let traced = runner.rep(true);
            assert_eq!(runner.failed, 0, "{}", w.name());
            assert_eq!(runner.attempted, 3 * runner.parts.len() as u64);
            assert_eq!(first.work, second.work, "{}", w.name());
            assert_eq!(traced.work.accesses, first.work.accesses);
            assert!(
                traced.work.resumes > 0 && traced.work.events > 0,
                "{}",
                w.name()
            );
        }
    }
}
