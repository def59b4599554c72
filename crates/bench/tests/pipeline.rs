//! The machine-readable experiment pipeline, end to end: registry →
//! run → `<id>.json` → `summary.json`.

use std::path::PathBuf;
use std::process::Command;

use ksr_bench::common::{write_summary, RunOpts};
use ksr_bench::registry::{find, REGISTRY};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ksr_pipeline_{tag}_{}", std::process::id()))
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
#[test]
fn only_run_leaves_the_whole_run_index_alone() {
    let dir = temp_dir("only");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let summary = b"{\"experiments\": \"from an earlier whole run\"}\n";
    std::fs::write(dir.join("summary.json"), summary).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--quick", "--only", "SEC31A", "--results"])
        .arg(&dir)
        .env_remove("KSR_CHECK")
        .env_remove("KSR_CACHE")
        .output()
        .expect("spawn run_all");
    assert!(
        out.status.success(),
        "run_all --only failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("sec31a.json").exists());
    assert_eq!(std::fs::read(dir.join("summary.json")).unwrap(), summary);
    assert!(!dir.join("timings.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}
