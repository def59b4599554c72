//! The machine-readable experiment pipeline, end to end: registry →
//! run → `<id>.json` → `summary.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ksr_bench::common::{write_summary, RunOpts};
use ksr_bench::registry::{find, REGISTRY};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ksr_pipeline_{tag}_{}", std::process::id()))
}

/// Run the `run_all` binary with `args`; panics unless it exits 0.
fn run_all(args: &[&str], results: &Path) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .arg("--results")
        .arg(results)
        .output()
        .expect("spawn run_all");
    assert!(
        out.status.success(),
        "run_all {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The per-job progress lines on `run_all`'s stderr, sorted into the
/// `[i/N] label` prefixes of its start and its `done in` lines.
fn progress_lines(out: &Output) -> [Vec<String>; 2] {
    let mut lines: [Vec<String>; 2] = Default::default();
    for line in stderr_of(out).lines() {
        let Some((counter, _)) = line.strip_prefix('[').and_then(|l| l.split_once("] ")) else {
            continue;
        };
        if !counter.split('/').all(|n| n.parse::<usize>().is_ok()) {
            continue;
        }
        let (prefix, kind) = if let Some(p) = line.strip_suffix(" ...") {
            (p, 0)
        } else if let Some((p, _)) = line.split_once(" done in ") {
            (p, 1)
        } else {
            panic!("unexpected progress line {line:?}");
        };
        lines[kind].push(prefix.to_string());
    }
    lines
}

/// `summary.json` must name every registered experiment id — the
/// contract `run_all` (and anything consuming `results/`) relies on.
#[test]
fn summary_names_every_registered_experiment() {
    let dir = temp_dir("summary");
    let opts = RunOpts {
        quick: true,
        seed: 0,
        results_dir: dir.clone(),
        ..RunOpts::default()
    };
    // Summary metadata comes from the outputs' id/title fields, which the
    // registry provides without running the (slow) sweeps.
    let outputs: Vec<_> = REGISTRY
        .iter()
        .map(|e| ksr_bench::ExperimentOutput::new(e.id(), e.title()))
        .collect();
    let path = write_summary(&outputs, &opts).unwrap();
    let body = std::fs::read_to_string(path).unwrap();
    for e in REGISTRY {
        assert!(
            body.contains(&format!("\"id\": \"{}\"", e.id())),
            "summary.json is missing {}",
            e.id()
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// One real experiment through the whole pipeline in quick mode: the
/// registry resolves it, the run emits typed rows, and write_to lands
/// txt + json artifacts.
#[test]
fn quick_run_writes_typed_json_results() {
    let dir = temp_dir("run");
    let opts = RunOpts {
        quick: true,
        seed: 0,
        results_dir: dir.clone(),
        ..RunOpts::default()
    };
    let exp = find("SEC31A").expect("registered");
    let out = exp.plan(&opts).run_serial();
    assert_eq!(out.id, "SEC31A");
    assert!(!out.rows.is_empty(), "experiments must emit typed rows");
    out.write_to(&opts.results_dir).unwrap();
    let json = std::fs::read_to_string(dir.join("sec31a.json")).unwrap();
    assert!(json.contains("\"id\": \"SEC31A\""));
    assert!(json.contains("\"metric\": \"mean_access_seconds\""));
    assert!(json.contains("\"stride_bytes\": 16384"));
    assert!(dir.join("sec31a.txt").exists());
    let _ = std::fs::remove_dir_all(dir);
}

/// The seed in RunOpts perturbs machine seeds; the default leaves the
/// baseline untouched.
#[test]
fn seed_perturbs_machine_seeds() {
    let base = RunOpts::default();
    let perturbed = RunOpts {
        seed: 0xDEAD,
        ..RunOpts::default()
    };
    assert_eq!(base.machine_seed(500), 500);
    assert_ne!(perturbed.machine_seed(500), 500);
}

/// `run_all --only` writes the selected experiments' files and nothing
/// else: the `summary.json` of an earlier whole run in the same
/// directory stays byte-identical, and no `timings.json` appears.
/// Along the way stdout is each output's `render()` plus a newline —
/// the bytes of its `.txt` file — and stderr carries one start line and
/// one `done in` line for every job of the plan.
#[test]
fn only_run_leaves_the_whole_run_index_alone() {
    let dir = temp_dir("only");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let summary = b"{\"experiments\": \"from an earlier whole run\"}\n";
    std::fs::write(dir.join("summary.json"), summary).unwrap();
    let out = run_all(&["--quick", "--only", "SEC31A", "--jobs", "2"], &dir);
    assert!(dir.join("sec31a.json").exists());
    assert_eq!(std::fs::read(dir.join("summary.json")).unwrap(), summary);
    assert!(!dir.join("timings.json").exists());

    let txt = std::fs::read_to_string(dir.join("sec31a.txt")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{txt}\n"));
    let plan = find("SEC31A").unwrap().plan(&RunOpts::quick());
    let n = plan.labels().len();
    let mut expected: Vec<String> = plan
        .labels()
        .enumerate()
        .map(|(i, label)| format!("[{}/{n}] {label}", i + 1))
        .collect();
    expected.sort();
    let [mut started, mut done] = progress_lines(&out);
    started.sort();
    done.sort();
    assert_eq!(started, expected, "{}", stderr_of(&out));
    assert_eq!(done, expected, "{}", stderr_of(&out));
    let _ = std::fs::remove_dir_all(dir);
}

/// A result file that cannot be written fails the run: `--results`
/// under a regular file prints an `error:` line and exits 1, as a failed
/// `summary.json` write does.
#[test]
fn a_failed_artifact_write_fails_the_run() {
    let dir = temp_dir("unwritable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("a_file");
    std::fs::write(&file, "not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--quick", "--only", "SEC31A", "--results"])
        .arg(file.join("results"))
        .output()
        .expect("spawn run_all");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("error: could not write results file"),
        "{}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A reader that closes stdout before `run_all` writes to it stops the
/// output quietly: `--list`, and a run whose result file still lands,
/// both exit 0 with no panic. A stdout that fails otherwise (a full
/// device) fails the run with an `error:` line and exit 1.
#[test]
fn a_closed_stdout_stops_output_quietly() {
    let dir = temp_dir("closed_stdout");
    let _ = std::fs::remove_dir_all(&dir);
    for args in [&["--list"][..], &["--quick", "--only", "SEC31A"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .arg("--results")
            .arg(&dir)
            .stdout(writer)
            .output()
            .expect("spawn run_all");
        let err = stderr_of(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
    }
    assert!(
        dir.join("sec31a.json").exists(),
        "the run still writes its results"
    );
    let full = Path::new("/dev/full");
    if full.exists() {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .arg("--list")
            .stdout(std::fs::File::create(full).expect("open /dev/full"))
            .output()
            .expect("spawn run_all");
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("error: could not write to stdout"),
            "{}",
            stderr_of(&out)
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `run_all --check --quick` at seed 0 must write the committed
/// `tests/checked/quick.violations.json` byte for byte. Besides the
/// verdicts, the report holds every experiment's machine and
/// checked-event counts, so a trace event lost or delivered twice fails
/// here even when the checker stays clean.
#[test]
fn quick_checked_report_matches_its_committed_copy() {
    let dir = temp_dir("checked");
    let _ = std::fs::remove_dir_all(&dir);
    run_all(&["--check", "--quick", "--jobs", "2"], &dir);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/checked/quick.violations.json");
    let expected = std::fs::read_to_string(golden).unwrap();
    let actual = std::fs::read_to_string(dir.join("violations.json")).unwrap();
    assert!(
        actual == expected,
        "violations.json differs from tests/checked/quick.violations.json; if the change is \
         deliberate, replace that file with this one and say why:\n{actual}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
