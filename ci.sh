#!/usr/bin/env bash
# Repository CI gate: build, test, lint, format, determinism. Run from the
# repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace

# Run the whole workspace's tests and compare the total against the
# committed baseline: a shrinking count means coverage silently regressed,
# a growing one means the baseline needs a (reviewed) bump. Either way the
# delta is printed so it is visible in CI logs.
test_log="$(mktemp)"
cargo test -q --workspace 2>&1 | tee "$test_log"
test_count="$(awk '/^test result:/ { total += $4 } END { print total + 0 }' "$test_log")"
rm -f "$test_log"
baseline="$(cat results/test_count.txt)"
echo "workspace tests: ${test_count} (baseline ${baseline}, delta $((test_count - baseline)))"
if [ "${test_count}" -ne "${baseline}" ]; then
    echo "test count moved from ${baseline} to ${test_count}: update" \
         "results/test_count.txt if the change is intentional." >&2
    exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check

# The benchmark package is outside the workspace but builds against its
# crates by path: lint it here, so a public-API change that breaks its build
# or its lints fails CI rather than the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo fmt --manifest-path perfbench/Cargo.toml --check

# Rustdoc gate: a doc link to a type that no longer exists (or to a private
# item) is a warning, and warnings fail CI.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Determinism gate: E10 is seeded and wall-clock-free, so its CSV must be
# byte-identical on every run. Regenerate and diff against the committed copy.
cargo run --release -p gr-bench --bin exp_recovery >/dev/null
git diff --exit-code -- results/exp_recovery.csv || {
    echo "exp_recovery.csv changed: E10 is no longer deterministic (or the" \
         "committed results are stale — rerun and commit them)." >&2
    exit 1
}

# E5, E7, E8 and E9 are seeded and wall-clock-free as well. E7, E8 and E9
# read the engine's counters (evaluations, modelled overhead, rule faults,
# watchdog trips, retrain retries), so a change to how the engine counts
# shows up here. E4 (drift detection), the hedged-probe ablation, both
# Figure 1 tables, Figure 2 (the LinnOS run: a change to the learned model's
# arithmetic shows up here) and E6 (oscillation) are seeded too. About 7 s
# for the ten.
for experiment in exp_subsystems exp_dependency exp_incremental exp_faults \
        exp_drift exp_probe_ablation fig1_properties fig1_actions fig2_linnos \
        exp_oscillation; do
    cargo run --release -p gr-bench --bin "${experiment}" >/dev/null
    git diff --exit-code -- "results/${experiment}.csv" || {
        echo "${experiment}.csv changed: the experiment is no longer" \
             "deterministic (or the committed results are stale — rerun and" \
             "commit them)." >&2
        exit 1
    }
done

# Examples: `cargo test` compiles them but nothing runs them, and several
# unwrap the paths they demonstrate (crash_recovery decodes and restores an
# engine checkpoint through a durable store). Each must exit 0; about a
# second for all of them once built.
for example in examples/*.rs; do
    name="$(basename "${example}" .rs)"
    cargo run --release --quiet --example "${name}" >/dev/null || {
        echo "example ${name} exited non-zero." >&2
        exit 1
    }
done

# Criterion smoke run: the offline criterion shim caps every benchmark at a
# ~25ms budget, so the whole suite is a fast sanity pass that the bench
# targets still run (the numbers themselves are not gated).
cargo bench -p gr-bench >/dev/null

# E11 determinism + hot-path invariants: the binary asserts that batched
# ingestion is observationally identical to (and >=3x faster than) the
# legacy per-event path (unoptimized monitors, per-event drain, re-enacted
# clock reads and hook lookup) and that group commit shrinks the WAL; its CSV holds only
# deterministic columns and must be byte-identical on every run.
cargo run --release -p gr-bench --bin exp_hotpath >/dev/null
git diff --exit-code -- results/exp_hotpath.csv || {
    echo "exp_hotpath.csv changed: E11 is no longer deterministic (or the" \
         "committed results are stale — rerun and commit them)." >&2
    exit 1
}

# E12 determinism + telemetry invariants: the binary asserts telemetry-on
# ingestion stays within 3% of telemetry-off with bit-identical outputs,
# and that the overhead-budget guardrail demotes the hog monitor; its CSV
# holds only deterministic counters and must be byte-identical every run.
cargo run --release -p gr-bench --bin exp_telemetry >/dev/null
git diff --exit-code -- results/exp_telemetry.csv || {
    echo "exp_telemetry.csv changed: E12 is no longer deterministic (or the" \
         "committed results are stale — rerun and commit them)." >&2
    exit 1
}

# Benchmark smoke run: perfbench/ builds against the workspace crates by
# path and checks every round's outputs, so a store or engine API change
# that breaks it, or a change that makes a workload's output wrong, fails
# here. Two seconds per workload; the timings themselves are not gated.
for workload in ingest healthy durable linnos; do
    result="$(python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    echo "perfbench ${workload}: ${result}"
    case "${result}" in
        *'"correct": true'*) ;;
        *)
            echo "perfbench ${workload} did not report \"correct\": true." >&2
            exit 1
            ;;
    esac
done
