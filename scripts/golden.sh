#!/bin/sh
# Replays every digest recorded in simbench/golden.tsv: one `simbench
# --seconds 0` run per row (a workload at a seed), which must print
# `# digest matches the one recorded for this seed`. 88 rows take about
# 5 minutes on a 2-vCPU host.
#
# Usage: scripts/golden.sh
# Runs every row, then exits 1 if any run failed or printed another
# digest, naming each such row.

set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release --manifest-path simbench/Cargo.toml"
cargo build --release --quiet --offline --manifest-path simbench/Cargo.toml

rows=0
failed=
# Each row is `workload seed digest`; the seed `default` means none.
while read -r workload seed _; do
    case $workload in '' | '#'*) continue ;; esac
    rows=$((rows + 1))
    args="--workload $workload --seconds 0"
    [ "$seed" = default ] || args="$args --seed $seed"
    # $args is split on purpose: every word is a plain token. stdin is
    # the table, so the run gets none.
    if out=$(cargo run --release --quiet --offline --manifest-path simbench/Cargo.toml -- $args </dev/null) &&
        printf '%s\n' "$out" | grep -q '^# digest matches'; then
        echo "==> $workload seed $seed: digest matches"
    else
        printf '%s\n' "$out" | tail -n 5 >&2
        echo "==> FAILED: $workload seed $seed" >&2
        failed="$failed $workload/$seed"
    fi
done <simbench/golden.tsv

[ "$rows" -gt 0 ] || { echo "golden.sh: simbench/golden.tsv has no rows" >&2; exit 1; }
if [ -n "$failed" ]; then
    echo "golden.sh: $rows rows; failed or mismatched:$failed" >&2
    exit 1
fi
echo "==> all $rows digests match"
