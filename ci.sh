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

# The model crates' tests again, optimised: the bitwise kernel and training
# proptests and the allocation counts then also hold for the vectorised
# code the benchmark times, not only for the debug build above.
cargo test --release -q -p mlkit -p storagesim

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

# Determinism gate: every experiment below is seeded and wall-clock-free, so
# its CSV must be byte-identical on every run. Each is regenerated and
# diffed against the committed copy. What each one fences:
# - E10 (exp_recovery): crash recovery, WAL bytes included.
# - E5, E7, E8, E9 (exp_subsystems, exp_dependency, exp_incremental,
#   exp_faults) read the engine's counters (evaluations, modelled overhead,
#   rule faults, watchdog trips, retrain retries), so a change to how the
#   engine counts shows up here.
# - E4 (exp_drift: drift detection), the hedged-probe ablation, both Figure 1
#   tables, Figure 2 (fig2_linnos, the LinnOS run: a change to the learned
#   model's arithmetic shows up here) and E6 (exp_oscillation).
# - E11 (exp_hotpath): the binary asserts that batched ingestion of
#   optimized monitors is observationally identical to per-event ingestion
#   of unoptimized ones, and that group commit shrinks the WAL while replay
#   recovers the same state; nothing in it is timed.
# - E12 (exp_telemetry): the binary asserts telemetry-on ingestion stays
#   within 3% of telemetry-off with bit-identical outputs, and that the
#   overhead-budget guardrail demotes the hog monitor; its CSV holds only
#   deterministic counters. The telemetry-off arm reads no clock, so the
#   3% covers the engine's clock reads too.
# About 10 s for the thirteen.
for experiment in exp_recovery exp_subsystems exp_dependency exp_incremental \
        exp_faults exp_drift exp_probe_ablation fig1_properties fig1_actions \
        fig2_linnos exp_oscillation exp_hotpath exp_telemetry; do
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

# Per-layer timing ledger: exp_layers times every row and fails when one is
# 2x slower than BENCH_layers.json (in reference-pass steps), missing from
# it, or when the file is malformed. It always writes its own measurements,
# so the committed file is saved first and put back afterwards: a CI run
# leaves the tree as it found it.
ledger_backup="$(mktemp)"
cp BENCH_layers.json "${ledger_backup}"
ledger_status=0
cargo run --release -p gr-bench --bin exp_layers || ledger_status=$?
cp "${ledger_backup}" BENCH_layers.json
rm -f "${ledger_backup}"
if [ "${ledger_status}" -ne 0 ]; then
    echo "exp_layers failed against the committed BENCH_layers.json." >&2
    exit 1
fi

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

# The benchmark's files stay as committed: building or running anything
# above must not touch them. A dependency change to a crate perfbench
# builds against (guardrails, storagesim, simkernel, mlkit) makes cargo
# rewrite perfbench/Cargo.lock, which shows up here. `git status` compares
# the working tree and the index with HEAD, so staged, unstaged and
# untracked changes all count.
status="$(git status --porcelain -- perfbench BENCHMARK.json)"
if [ -n "${status}" ]; then
    echo "perfbench/ or BENCHMARK.json differs from HEAD (staged, unstaged or untracked):" >&2
    echo "${status}" >&2
    exit 1
fi
