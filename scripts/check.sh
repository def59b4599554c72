#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, tests, a quick end-to-end run of
# every registered experiment, and the parallel-executor determinism
# gate. Run from the repo root before pushing.
#
# Quick-mode runs land in throwaway directories so the full-sweep
# baselines under results/ are never overwritten; the only files this
# script refreshes there are results/timings.json and results/bench.json
# (wall-clock times are nondeterministic by nature and excluded from
# every byte comparison).
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

tmp_serial=$(mktemp -d)
tmp_parallel=$(mktemp -d)
tmp_cache=$(mktemp -d)
tmp_warm=$(mktemp -d)
tmp_shard_cache=$(mktemp -d)
tmp_join=$(mktemp -d)
tmp_warm2=$(mktemp -d)
tmp_check=$(mktemp -d)
tmp_check_full=$(mktemp -d)
trap 'rm -rf "$tmp_serial" "$tmp_parallel" "$tmp_cache" "$tmp_warm" "$tmp_warm2" \
    "$tmp_shard_cache" "$tmp_join" "$tmp_check" "$tmp_check_full"' EXIT

# Compare every artifact of two result dirs, excluding the wall-clock
# files (timings.json, bench.json — legitimately nondeterministic).
compare_dirs() {
    local ref="$1" other="$2" why="$3" name
    for f in "$ref"/*; do
        name=$(basename "$f")
        case "$name" in
        timings.json | bench.json) continue ;;
        esac
        if ! cmp -s "$f" "$other/$name"; then
            echo "determinism violation: $name differs ($why)" >&2
            exit 1
        fi
    done
}

# The hit/miss counters a cached run records in timings.json.
cache_counter() {
    sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p' "$1/timings.json" | head -n 1
}

echo "==> determinism gate: quick run_all at -j1 vs -j8 (byte-compare; -j8 populates a cache)"
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 1 --results "$tmp_serial" > "$tmp_serial/stdout.txt"
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 8 --cache "$tmp_cache" --results "$tmp_parallel" > "$tmp_parallel/stdout.txt"
compare_dirs "$tmp_serial" "$tmp_parallel" "between -j1 and -j8"

echo "==> cache gate: warm re-run must execute zero jobs and byte-match"
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 8 --cache "$tmp_cache" --results "$tmp_warm" > "$tmp_warm/stdout.txt"
compare_dirs "$tmp_serial" "$tmp_warm" "between a cold and a warm cached run"
warm_hits=$(cache_counter "$tmp_warm" hits)
warm_misses=$(cache_counter "$tmp_warm" misses)
warm_total=$(cache_counter "$tmp_warm" total_jobs)
if [ "$warm_misses" != 0 ] || [ "$warm_hits" != "$warm_total" ]; then
    echo "cache gate: warm run executed jobs (hits $warm_hits, misses $warm_misses, total $warm_total)" >&2
    exit 1
fi

echo "==> prune gate: --prune drops dead entries and keeps every live one"
# Plant a corrupt entry; --prune must remove it and only it, and a
# post-prune warm run must still execute zero jobs (no live entry lost).
echo 'not a cache entry' > "$tmp_cache/deadbeefdeadbeefdeadbeefdeadbeef.json"
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --cache "$tmp_cache" --prune
if [ -e "$tmp_cache/deadbeefdeadbeefdeadbeefdeadbeef.json" ]; then
    echo "prune gate: corrupt entry survived --prune" >&2
    exit 1
fi
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 8 --cache "$tmp_cache" --results "$tmp_warm2" > "$tmp_warm2/stdout.txt"
compare_dirs "$tmp_serial" "$tmp_warm2" "between a warm run and a post-prune warm run"
pruned_misses=$(cache_counter "$tmp_warm2" misses)
if [ "$pruned_misses" != 0 ]; then
    echo "prune gate: --prune deleted live entries ($pruned_misses post-prune misses)" >&2
    exit 1
fi

echo "==> shard gate: --shard 1/2 + --shard 2/2 + --join must byte-match the unsharded run"
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 8 --cache "$tmp_shard_cache" --shard 1/2 --results "$tmp_join" > /dev/null
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 8 --cache "$tmp_shard_cache" --shard 2/2 --results "$tmp_join" > /dev/null
KSR_QUICK=1 cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --jobs 8 --cache "$tmp_shard_cache" --join --results "$tmp_join" > "$tmp_join/stdout.txt"
join_misses=$(cache_counter "$tmp_join" misses)
if [ "$join_misses" != 0 ]; then
    echo "shard gate: the join had to execute $join_misses job(s) the shards should have covered" >&2
    exit 1
fi
compare_dirs "$tmp_serial" "$tmp_join" "between an unsharded run and shard 1/2 + 2/2 + --join"

echo "==> recording per-experiment wall times in results/timings.json"
mkdir -p results
cp "$tmp_parallel/timings.json" results/timings.json

echo "==> perf gate: microworkload minima vs committed results/bench.json (>10% fails)"
# Wall-clock numbers for the coordinator hot path; like timings.json,
# bench.json is nondeterministic and excluded from byte comparisons.
# The gate fails on any case regressing more than 10% (and 50ms) over
# the committed minima and leaves bench.json untouched so it stays red;
# on a pass the fresh report refreshes bench.json. Trajectory entries
# with before/after per optimization PR live in the repo-root
# BENCH_<n>.json files.
cargo run --quiet --release -p ksr-bench --bin perf -- \
    --reps 3 --results results --gate results/bench.json

echo "==> run_all --check --quick (coherence + race + predictive + lint verification)"
# Exits non-zero on any coherence violation, data race, predictive
# finding, or schedule lint; the full report lands in violations.json.
cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --check --quick --results "$tmp_check" > "$tmp_check/stdout.txt"

echo "==> run_all --check --full --only CMB,LCK (1024-cell hot spot and lock storms under the checker)"
# The aggregate quick run above already checks every experiment. This
# run checks the full-size hot spot and lock storms, where one sub-page's
# holder list reaches every one of 1024 cells: the sizes at which an
# O(holders) step per event in the protocol or the checker would show.
cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --check --full --only CMB,LCK --results "$tmp_check_full" > "$tmp_check_full/stdout.txt"

echo "==> all checks passed"
