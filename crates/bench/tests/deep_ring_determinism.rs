//! Deep-ring determinism gate: the 256-cell quick point of the SCB
//! scaling sweep must produce byte-identical artifacts at `-j1` and
//! `-j8` — every result file, `violations.json` from check mode, and
//! the rendered stdout.
//!
//! The worker-count gate in `parallel_determinism.rs` covers the paper
//! experiments on the 32/64-cell presets; this one pins the new
//! multi-level Topology machines (quick SCB builds ring[32x4] and
//! ring[32x8] trees), where a scheduling leak would be likeliest to
//! show up as cross-job nondeterminism.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const IDS: &str = "SCB";

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ksr_deep_ring_determinism_{}_{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp results dir");
    dir
}

/// Run the selection at the given worker count in a child process;
/// returns the rendered stdout.
fn run_jobs(jobs: &str, dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args([
            "--quick", "--check", "--jobs", jobs, "--seed", "0", "--only", IDS,
        ])
        .arg("--results")
        .arg(dir)
        .output()
        .expect("spawn run_all");
    assert!(
        out.status.success(),
        "run_all at -j{jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("rendered results are utf-8")
}

#[test]
fn deep_ring_artifacts_are_identical_at_any_worker_count() {
    let serial_dir = fresh_dir("j1");
    let parallel_dir = fresh_dir("j8");
    let serial_stdout = run_jobs("1", &serial_dir);
    let parallel_stdout = run_jobs("8", &parallel_dir);

    assert_eq!(
        serial_stdout, parallel_stdout,
        "rendered output diverged between -j1 and -j8"
    );

    let file_names = |dir: &Path| -> BTreeSet<String> {
        fs::read_dir(dir)
            .expect("read results dir")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .collect()
    };
    let names = file_names(&serial_dir);
    assert_eq!(
        names,
        file_names(&parallel_dir),
        "the worker counts wrote different file sets"
    );
    assert!(
        names.contains("violations.json"),
        "check mode must produce violations.json: {names:?}"
    );
    for name in &names {
        if name == "timings.json" {
            continue; // wall-clock times: legitimately nondeterministic
        }
        let serial = fs::read(serial_dir.join(name)).expect("read -j1 file");
        let parallel = fs::read(parallel_dir.join(name)).expect("read -j8 file");
        assert_eq!(
            serial, parallel,
            "determinism violation: {name} differs between -j1 and -j8"
        );
    }

    let _ = fs::remove_dir_all(serial_dir);
    let _ = fs::remove_dir_all(parallel_dir);
}
