#!/usr/bin/env bash
# Tier-1 gate + scheduler benchmark: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== rustfmt (check) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1 tests =="
cargo test -q

echo "== every workspace test (crate unit tests, integration tests, doctests) =="
cargo test -q --workspace

echo "== telemetry flake guard (10 runs at default harness parallelism) =="
for _ in $(seq 10); do
    cargo test -q --test telemetry --test fleet_telemetry --test policy_telemetry \
        --test metrics_determinism
done

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== docs-tree link check =="
for doc in docs/*.md; do
    if ! grep -q "$(basename "$doc")" README.md; then
        echo "error: $doc is not referenced from README.md" >&2
        exit 1
    fi
done

echo "== scheduler engine benchmark =="
./target/release/exp_bench_sched

echo "== serving smoke test =="
./target/release/exp_serve --smoke

echo "== schedule-store precompile + warm-start smoke test =="
./target/release/rana-compile precompile --networks alexnet,googlenet \
    --banks 22,44 --out target/schedule_store.jsonl
./target/release/exp_serve --smoke --store target/schedule_store.jsonl

echo "== metrics smoke test =="
./target/release/exp_metrics --smoke

echo "== functional-engine smoke test =="
./target/release/exp_bench_exec --smoke

echo "== fleet smoke test =="
./target/release/exp_fleet --smoke

echo "== policy smoke test =="
./target/release/exp_policies --smoke

echo "== regenerate the deterministic BENCH artifacts the gate checks =="
for exp in exp_thermal exp_serve exp_fleet exp_policies exp_metrics exp_trace; do
    ./target/release/"$exp" > /dev/null
done

echo "== bench-regression gate =="
./scripts/bench_gate.sh

echo "All checks passed."
