#!/bin/sh
# Offline verification: build, test, docs, lint, repro_report and every
# binary that asserts a check, each binary's output against its archive
# under results/, every recorded benchmark digest. Must
# pass with zero network access — the workspace has no external
# dependencies.
#
# Usage: scripts/verify.sh
# Exits non-zero on the first failure, or if the run changed `git status
# --porcelain`. Clippy and rustfmt are skipped (with a note) when the
# component is not installed.

set -eu
cd "$(dirname "$0")/.."

# No step may rewrite a tracked file or leave behind one that
# .gitignore does not name.
tree_before=$(git status --porcelain 2>/dev/null) || tree_before="not a git checkout"

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

# simbench counts allocations in a release build, so the allocation
# pins must hold there too, not only in the debug build above.
echo "==> cargo test --release --test steady_alloc -q"
cargo test --release --test steady_alloc -q

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

# prints <archive> <command...>: runs the command, which must exit 0,
# and fails unless its output is results/<archive>.txt line for line,
# `#` lines included. Only the suite prints lines that depend on the
# host, its wall time, thread count and speed-up, and those two are
# left out on both sides.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
host_lines='^# [0-9]+ tests in |^# sequential-equivalent '
prints() {
    archive=results/$1.txt
    shift
    "$@" >"$out/stdout"
    grep -Ev "$host_lines" "$out/stdout" >"$out/got" || true
    grep -Ev "$host_lines" "$archive" >"$out/want" || true
    if ! cmp -s "$out/want" "$out/got"; then
        echo "verify.sh: '$*' no longer prints $archive:" >&2
        diff "$out/want" "$out/got" | head -n 20 >&2
        exit 1
    fi
}

# repro_report checks all 13 paper claims and exits 1 on a failed one;
# the figure, table and extension binaries assert their paper-shape
# checks as they run. Each must exit 0 and print its archive under
# results/ ("ext_flows --quick" prints ext_flows_quick.txt); the suite
# runs at pool widths 1, 2 and the default, and at paper scale, whose
# 7 992 cells run the access-order cache's eviction and regeneration
# hardest. ext_flows also runs in full mode, so its million-flow checks
# (fairness, the knee, monotone drops, threads:1 ≡ threads:4) hold at
# the generator's own scale, and so does ext_rpc, whose 200 000 RPCs
# per point cross the peer-write path of the device datapath.
# table1_systems asserts nothing; only its archive is checked.
# $bin is split on purpose: every word is a plain token.
for bin in repro_report fig1_nic_models fig2_loopback_latency fig4_baseline_bw \
    fig5_latency_size fig6_latency_cdf fig7_cache_ddio fig8_numa fig9_iommu table1_systems \
    table2_findings ext_multidevice ext_linkgen ext_offsets ext_ddio_ways ext_topology ext_p2p \
    ext_faults "ext_drivers --quick" "ext_flows --quick" ext_flows "ext_rpc --quick" ext_rpc suite; do
    echo "==> $bin (its asserted checks must hold, its output its archive's)"
    prints "$(echo "$bin" | sed 's/ --/_/')" ./target/release/$bin
done
prints suite env PCIE_BENCH_THREADS=1 ./target/release/suite
prints suite env PCIE_BENCH_THREADS=2 ./target/release/suite
echo "==> PCIE_BENCH_SUITE=paper suite (its output its archive's)"
prints suite_paper env PCIE_BENCH_SUITE=paper ./target/release/suite

# The benchmark package: its own tests, then every digest recorded in
# simbench/golden.tsv (each workload at the default seed and seeds
# 0-20), so a change that moves any simulated output of the four
# workloads at any recorded seed fails here.
echo "==> cargo test --manifest-path simbench/Cargo.toml"
cargo test --offline --quiet --manifest-path simbench/Cargo.toml

echo "==> scripts/golden.sh (every digest in simbench/golden.tsv must match)"
sh scripts/golden.sh

echo "==> git status --porcelain is as the run found it"
tree_after=$(git status --porcelain 2>/dev/null) || tree_after="not a git checkout"
if [ "$tree_after" != "$tree_before" ]; then
    printf 'verify.sh: the run changed the work tree\nbefore:\n%s\nafter:\n%s\n' "$tree_before" "$tree_after" >&2
    exit 1
fi

echo "==> OK"
