//! Tier-1 determinism gate for the parallel executor: running the same
//! experiment selection at `-j1` and `-j8` must produce byte-identical
//! result files — `summary.json`, every per-experiment `.json`/`.txt`/
//! `.csv`, and (under `--check`) `violations.json`.
//!
//! Uses the cheap experiments (FIG4, SEC323, EP, TAB3), the lock
//! crossover sweep (LCK, whose cohort lock must also stay silent under
//! the predictive passes), and the schedule explorer (EXPLORE, whose
//! predictive passes hash schedule states across processes) in quick
//! mode so the gate stays debug-build friendly.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use ksr_bench::common::write_summary;
use ksr_bench::registry::find;
use ksr_bench::{check, exec, RunOpts};
use ksr_core::Progress;

const IDS: [&str; 6] = ["FIG4", "SEC323", "EP", "TAB3", "LCK", "EXPLORE"];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ksr_parallel_determinism_{}_{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp results dir");
    dir
}

/// Plan, execute, and persist the selection exactly the way the CLI
/// does (minus stdout rendering), at the given worker count.
fn run_at(jobs: usize, dir: &Path) {
    let opts = RunOpts {
        quick: true,
        jobs,
        check: true,
        results_dir: dir.to_path_buf(),
        ..RunOpts::default()
    };
    let plans = IDS
        .iter()
        .map(|id| find(id).expect("registered id").plan(&opts))
        .collect();
    let report = exec::execute(plans, &opts, &Progress::disabled());
    assert_eq!(report.results.len(), IDS.len());
    let mut outputs = Vec::new();
    let mut checks = Vec::new();
    for (id, result) in IDS.iter().zip(report.results) {
        result
            .output
            .write_to(&opts.results_dir)
            .expect("write result files");
        checks.push((
            *id,
            result.check.expect("check mode collects per-job sinks"),
        ));
        outputs.push(result.output);
    }
    write_summary(&outputs, &opts).expect("write summary");
    let (path, clean) = check::finalize(&checks, &opts).expect("write violations");
    assert!(path.ends_with("violations.json"));
    assert!(clean, "the stock protocol must check clean");
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .expect("read results dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect()
}

#[test]
fn results_are_byte_identical_across_worker_counts() {
    let serial_dir = fresh_dir("j1");
    let parallel_dir = fresh_dir("j8");
    run_at(1, &serial_dir);
    run_at(8, &parallel_dir);

    let names = file_names(&serial_dir);
    assert_eq!(
        names,
        file_names(&parallel_dir),
        "both runs must produce the same artifact set"
    );
    assert!(names.contains("summary.json"));
    assert!(names.contains("violations.json"));
    assert!(names.contains("fig4.json"));
    assert!(names.contains("explore.json"));
    for name in &names {
        let a = fs::read(serial_dir.join(name)).expect("read serial artifact");
        let b = fs::read(parallel_dir.join(name)).expect("read parallel artifact");
        assert_eq!(a, b, "{name} must be byte-identical between -j1 and -j8");
    }

    let _ = fs::remove_dir_all(serial_dir);
    let _ = fs::remove_dir_all(parallel_dir);
}
