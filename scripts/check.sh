#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, docs, the workspace tests (among
# them the quick-suite goldens, which also cover worker counts, the
# results cache, prune and sharding, and the checked quick run, whose
# report must equal its committed copy), a run of every example, the
# host-speed benchmark's digests, a full-size checked run of the
# 1024-cell storms whose report must equal its committed copy, and a
# full-size run that must reproduce the committed results/ byte for
# byte. Run from the repo root before pushing.
#
# Every run lands in a throwaway directory. The one file this script
# writes under results/ is timings.json, copied from the full-size run:
# wall-clock times are nondeterministic, so the golden comparison
# skips that file.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (broken or ambiguous doc links fail)"
# The workspace's `warnings = deny` lint turns every rustdoc warning into
# an error, so a doc link left pointing at a renamed or deleted item
# fails here.
cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo test --workspace --release"
cargo test --workspace --release --quiet

echo "==> examples: each must run to completion in release"
# cargo test only compiles the examples; running them catches a panic or
# a failed assertion on the library paths they drive (all six take about
# a second together).
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    if ! cargo run --release --offline --quiet --example "$name" > /dev/null; then
        echo "example $name exited non-zero" >&2
        exit 1
    fi
done

echo "==> cargo test --manifest-path benchmark/Cargo.toml (8-cell benchmark workloads and digests)"
# The host-speed benchmark is a package of its own, outside the
# workspace; its tests drive the simulator through every benchmark
# workload at eight cells, so a simulator change that breaks one fails
# here rather than in the next benchmark run.
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> benchmark at full size: every workload at --seed 0 must reproduce benchmark/digests.txt"
# The digests are pinned at full size (1024-cell storms, 32-cell apps),
# which the 8-cell tests above never reach. A seed-0 run compares every
# part's digest with digests.txt and checks each part's invariants and
# results; any mismatch shows as "correct":false and a non-zero
# "failed" on the run's last stdout line.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench_err=$(mktemp)
for w in lock_handoff_1024 atomic_hotspot_1024 apps_32 checked_mix; do
    last=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 0 --seconds 1 2> "$bench_err" | tail -n 1)
    correct=$(printf '%s\n' "$last" | sed -n 's/.*"correct": *\([a-z]*\).*/\1/p')
    failed=$(printf '%s\n' "$last" | sed -n 's/.*"failed": *\([0-9][0-9]*\).*/\1/p')
    if [ "$correct" != true ] || [ "$failed" != 0 ]; then
        cat "$bench_err" >&2
        echo "benchmark gate: $w at --seed 0 reported: $last" >&2
        exit 1
    fi
done
rm -f "$bench_err"

tmp_check_full=$(mktemp -d)
tmp_full=$(mktemp -d)
trap 'rm -rf "$tmp_check_full" "$tmp_full"' EXIT

echo "==> run_all --check --full --only CMB,LCK (1024-cell hot spot and lock storms under the checker)"
# Exits non-zero on any coherence violation, data race or predictive
# finding. The quick checked run of every experiment is a workspace test
# (crates/bench/tests/pipeline.rs); this run checks the full-size hot
# spot and lock storms, where one sub-page's holder list reaches every
# one of 1024 cells: the sizes at which an O(holders) step per event in
# the protocol or the checker would show. Its violations.json must equal
# the committed copy byte for byte: besides the verdicts, the copy holds
# every experiment's machine and checked-event counts, so a trace event
# lost or delivered twice fails here even when the checker stays clean.
# A change that alters the report on purpose replaces the copy and says
# why.
golden=crates/bench/tests/checked/full-CMB-LCK.violations.json
cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --check --full --only CMB,LCK --results "$tmp_check_full" > "$tmp_check_full/stdout.txt"
if ! cmp -s "$golden" "$tmp_check_full/violations.json"; then
    diff "$golden" "$tmp_check_full/violations.json" | head -n 20 >&2 || true
    echo "checked gate: $tmp_check_full/violations.json differs from $golden" >&2
    exit 1
fi

echo "==> full-size golden gate: run_all --full --seed 0 must reproduce results/ byte for byte"
# Every committed artifact except the wall-clock timings.json must come
# back identical, and no file may be missing or extra. run_all reads
# nothing but its flags, so this is a full, seed-0, uncached, unchecked
# run.
cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --full --seed 0 --jobs 2 --results "$tmp_full" > /dev/null
if ! diff -rq -x timings.json results "$tmp_full"; then
    echo "golden gate: run_all --full --seed 0 differs from the committed results/" >&2
    exit 1
fi

echo "==> recording the full run's wall times in results/timings.json"
cp "$tmp_full/timings.json" results/timings.json

echo "==> all checks passed"
