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
    run_all(&["--quick", "--only", "SEC31A"], &dir);
    assert!(dir.join("sec31a.json").exists());
    assert_eq!(std::fs::read(dir.join("summary.json")).unwrap(), summary);
    assert!(!dir.join("timings.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}

/// The cache flags through the binary on SEC31A's four quick jobs: two
/// shards fill a cache, `--prune` removes a planted corrupt entry and
/// keeps every live one, and a plain `--cache` run then executes
/// nothing and prints each output's `render()` — the bytes of its
/// `.txt` file.
#[test]
fn shards_prune_and_a_warm_run_through_the_binary() {
    let dir = temp_dir("shard");
    let _ = std::fs::remove_dir_all(&dir);
    let (cache, results) = (dir.join("cache"), dir.join("results"));
    let cache_arg = cache.to_str().expect("utf-8 temp path");
    let base = [
        "--quick", "--only", "SEC31A", "--jobs", "2", "--cache", cache_arg,
    ];

    for (shard, executed) in [("1/2", 2), ("2/2", 2)] {
        let out = run_all(&[&base[..], &["--shard", shard]].concat(), &results);
        let line = format!(
            "[shard {shard}: {executed} executed, 0 already cached, 2 left to other shards"
        );
        assert!(stderr_of(&out).contains(&line), "{}", stderr_of(&out));
        assert!(!results.exists(), "a shard run writes no artifacts");
    }

    let corrupt = cache.join("deadbeefdeadbeefdeadbeefdeadbeef.json");
    std::fs::write(&corrupt, "not a cache entry").unwrap();
    let out = run_all(&["--cache", cache_arg, "--prune"], &results);
    assert!(
        stderr_of(&out).contains("[prune: 1 entries removed, 4 kept"),
        "{}",
        stderr_of(&out)
    );
    assert!(!corrupt.exists());

    let out = run_all(&base, &results);
    assert!(
        stderr_of(&out).contains("[cache: 4 hit(s), 0 miss(es) of 4 job(s)"),
        "{}",
        stderr_of(&out)
    );
    let txt = std::fs::read_to_string(results.join("sec31a.txt")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), format!("{txt}\n"));
    let _ = std::fs::remove_dir_all(dir);
}
