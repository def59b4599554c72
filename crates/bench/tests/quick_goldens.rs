//! Tier-1 gate for the whole quick suite: every quick artifact of every
//! registered experiment is pinned to a committed digest.
//!
//! `quick.digests` holds one `ksr_core::fingerprint` per artifact of
//! `run_all --quick --seed 0 --jobs 1`: each experiment's `.txt`,
//! `.json` and `.csv` files plus `summary.json`. The test runs the suite
//! once at eight workers, so a match is also a `-j1`/`-j8` comparison. A
//! change that alters an artifact on purpose replaces the file with the
//! text the failing test prints, and says why.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use ksr_bench::common::write_summary;
use ksr_bench::registry::REGISTRY;
use ksr_bench::{exec, RunOpts};
use ksr_core::{fingerprint, Progress};

/// The committed digests.
const GOLDENS: &str = include_str!("quick.digests");

/// The first lines of `quick.digests`.
const HEADER: &str = "\
# Quick-suite goldens, checked by tests/quick_goldens.rs. Each line is
# `<name> <ksr_core::fingerprint hex>`: an artifact of
# `run_all --quick --seed 0 --jobs 1`.
";

/// The digests of every artifact in `dir`, rendered in the format of
/// `quick.digests`.
fn render_digests(dir: &Path) -> String {
    let mut digests = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        digests.insert(
            name,
            fingerprint(&fs::read(entry.path()).expect("read artifact")),
        );
    }
    let mut text = HEADER.to_string();
    for (name, digest) in digests {
        text.push_str(&format!("{name} {digest}\n"));
    }
    text
}

#[test]
fn quick_suite_matches_goldens_at_eight_workers() {
    let dir = std::env::temp_dir().join(format!("ksr_quick_goldens_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let opts = RunOpts {
        quick: true,
        jobs: 8,
        results_dir: dir.clone(),
        ..RunOpts::default()
    };
    let plans = REGISTRY.iter().map(|e| e.plan(&opts)).collect();
    let report = exec::execute(plans, &opts, &Progress::disabled());
    let mut outputs = Vec::new();
    for result in report.results {
        result.output.write_to(&dir).expect("write result files");
        outputs.push(result.output);
    }
    write_summary(&outputs, &opts).expect("write summary");

    let actual = render_digests(&dir);
    let _ = fs::remove_dir_all(&dir);
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
        "quick.digests differs at {differing:?}. If the change is deliberate, \
         replace crates/bench/tests/quick.digests with the text below and say \
         why.\n{actual}"
    );
}
