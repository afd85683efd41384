#!/bin/sh
# The repository's one performance yardstick: simbench at two revisions,
# in ten alternating pairs of every workload both list in BENCHMARK.json.
#
# Usage: scripts/ab.sh <base-rev> [<change-rev>]
#
# <change-rev> defaults to the working tree. Each side is unpacked with
# `git archive` and built the same way in .bench_build/<tree sha>/, where
# later calls reuse it. Pair i runs the base first for odd i. Each run
# is `--workload <w> --seconds <run_seconds>` at the default seed; it
# fails on a non-zero exit (simbench's on a failed op included) or no
# `# digest matches`. scripts/ab.awk judges the metrics and writes
# BENCH_sim.json. Exits 1 on a regressed or missing metric or a failed
# run, 2 on a bad revision. One call is 80 runs: 40-50 minutes.

set -eu
cd "$(dirname "$0")/.."
PAIRS=10 # the fewest pairs a gain may rest on

[ $# = 1 ] || [ $# = 2 ] || { echo "usage: scripts/ab.sh <base-rev> [<change-rev>]" >&2; exit 2; }

# resolve <rev>: print the commit's sha; exit 2 unless it has simbench/.
resolve() {
    git cat-file -e "$1:simbench/Cargo.toml" 2>/dev/null || { echo "ab.sh: '$1' is not a revision with simbench/" >&2; exit 2; }
    git rev-parse "$1^{commit}"
}

# build <commit|tree>: unpack its tree once, build its simbench there
# and print the directory.
build() {
    sha=$(git rev-parse "$1^{tree}") && dir=$PWD/.bench_build/$sha
    [ -d "$dir" ] || { mkdir -p "$dir.part" && git archive "$sha" | tar -x -C "$dir.part" && mv "$dir.part" "$dir"; }
    echo "==> building simbench at $1 (tree $sha)" >&2
    CARGO_TARGET_DIR=$dir/target cargo build --release --quiet --offline --manifest-path "$dir/simbench/Cargo.toml" >&2
    echo "$dir"
}

workloads() { sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$1/BENCHMARK.json"; }

base=$(resolve "$1")
if [ $# = 2 ]; then
    change=$(resolve "$2"); tree=$change
else
    # The working tree with its unignored untracked files, through a
    # scratch index so that the real one is left alone.
    change=$(git rev-parse HEAD)
    [ -z "$(git status --porcelain)" ] || change=$change-dirty
    idx=$(mktemp -d)
    GIT_INDEX_FILE=$idx/index git add -A
    tree=$(GIT_INDEX_FILE=$idx/index git write-tree)
    rm -rf "$idx"
fi
base_dir=$(build "$base")
change_dir=$(build "$tree")
both=
for w in $(workloads "$change_dir"); do
    if workloads "$base_dir" | grep -qx "$w"; then both="$both $w"; else echo "==> $w: not in the base's BENCHMARK.json" >&2; fi
done
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change_dir/BENCHMARK.json")
table=$(mktemp)
trap 'rm -f "$table"' EXIT

# run <side> <pair> <workload>: one simbench run, appended to $table as
# `workload side pair metric value` rows and its `# host` line, or as
# one `failed` row.
run() {
    if [ "$1" = base ]; then bin=$base_dir; else bin=$change_dir; fi
    if out=$("$bin/target/release/simbench" --workload "$3" --seconds "$secs") &&
        printf '%s\n' "$out" | grep -q '^# digest matches'; then
        printf '%s\n' "$out" | awk -v k="$3 $1 $2" 'NF == 3 && /^[a-z]/ { print k, $1, $2 } /^# host / { print }' >>"$table"
    else
        printf '%s\n' "$out" | tail -n 5 >&2
        echo "==> FAILED: $3 $1 pair $2" >&2
        echo "$3 $1 $2 failed 1" >>"$table"
    fi
}

for w in $both; do
    i=0
    while [ $((i += 1)) -le "$PAIRS" ]; do
        echo "==> $w pair $i/$PAIRS" >&2
        if [ $((i % 2)) = 1 ]; then sides="base change"; else sides="change base"; fi
        for side in $sides; do run "$side" "$i" "$w"; done
    done
done

awk -v json=BENCH_sim.json -v command="sh scripts/ab.sh $*" -v base="$base" -v change="$change" -v seconds="$secs" \
    -f scripts/ab.awk "$change_dir/BENCHMARK.json" "$table" || status=$?
echo "==> wrote BENCH_sim.json: $base vs $change" >&2
exit "${status:-0}"
