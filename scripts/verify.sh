#!/bin/sh
# Offline verification: build, test, docs, lint, benchmark digests. Must
# pass with zero network access — the workspace has no external
# dependencies.
#
# Usage: scripts/verify.sh
# Exits non-zero on the first failure. Clippy and rustfmt are skipped
# (with a note) when the component is not installed.

set -eu
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The root manifest is itself a package, so without --workspace these
# two would check only the facade crate.
echo "==> cargo doc --workspace --no-deps (warnings are errors, unconditionally)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
    cargo clippy --workspace --all-targets --quiet -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

# The benchmark package: its own tests, then each workload once at
# the default seed and once at seed 0. Every run's digest must match
# the one recorded in simbench/golden.tsv, so a change that moves any
# simulated output of the four workloads fails here, including one
# that moves only the outputs of a non-default seed.
echo "==> cargo test --manifest-path simbench/Cargo.toml"
cargo test --offline --quiet --manifest-path simbench/Cargo.toml

for w in dma_sweep driver_zoo flow_rx rpc_fabric; do
    for seed in default 0; do
        echo "==> simbench --workload $w --seed $seed --seconds 0 (digest must match simbench/golden.tsv)"
        args="--workload $w --seconds 0"
        [ "$seed" = default ] || args="$args --seed $seed"
        # $args is split on purpose: every word is a plain token.
        out=$(cargo run --release --quiet --offline --manifest-path simbench/Cargo.toml -- $args) ||
            { printf '%s\n' "$out" >&2; exit 1; }
        printf '%s\n' "$out" | grep '^# digest matches' || { printf '%s\n' "$out" >&2; exit 1; }
    done
done

# Non-fatal perf datapoint: quick suite (sequential vs parallel) and
# per-figure regeneration timings into BENCH_sim.json, so every PR
# records the simulator's own performance trajectory.
echo "==> scripts/bench.sh --quick (non-fatal)"
if ! sh scripts/bench.sh --quick; then
    echo "==> bench.sh failed (non-fatal, continuing)"
fi

echo "==> OK"
