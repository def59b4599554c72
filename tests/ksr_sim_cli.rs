//! `ksr-sim` rejects bad command lines with a usage error (status 2)
//! instead of silently running its defaults.

use std::process::{Command, Output};

fn ksr_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ksr-sim"))
        .args(args)
        .output()
        .expect("spawn ksr-sim")
}

#[test]
fn bad_flags_are_usage_errors() {
    let bad: [&[&str]; 11] = [
        &["barriers", "--procs", "abc"],
        &["lock", "--procs", "64"],
        &["latency", "--procs", "0"],
        &["barriers", "--machine", "nope"],
        &["barriers", "--procs", "1"],
        &["lock", "--read-pct", "101"],
        &["lock", "--read-pct", "x"],
        &["cg", "--procs"],
        &["ep", "--prcs", "4"],
        &["nope"],
        &[],
    ];
    for args in bad {
        let out = ksr_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("usage: ksr-sim"),
            "{args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran anyway: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn good_flags_still_run() {
    let out = ksr_sim(&["barriers", "--machine", "symmetry", "--procs", "2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("symmetry, 2 processors"),
        "the flags must reach the run: {stdout}"
    );
    assert!(ksr_sim(&["info"]).status.success());
}
