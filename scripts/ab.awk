# Verdicts for scripts/ab.sh:
#   awk -v json=FILE [-v command=... -v base=... -v change=... -v seconds=S] \
#       -f scripts/ab.awk BENCHMARK.json SAMPLES
# SAMPLES holds `workload side pair metric value` rows (side `base` or
# `change`), a `workload side pair failed 1` row per failed run and
# simbench's `# host` line. For each workload and end-to-end metric this
# prints both medians, the base's spread (interquartile range over
# median), the median per-pair change/base ratio, the pairs the change
# won (ties count for neither) and the first verdict that applies:
#   missing     a side has no sample;
#   regressed   the change's median is worse than the base's by more
#               than the bound, a fraction of the base's median;
#   unresolved  the base's spread exceeds the bound, and not every
#               change run beats every base run;
#   gain        the change won at least 9 in 10 pairs, and the medians
#               differ by more than the base's interquartile range;
#   flat        none of these.
# FILE gets BENCH_sim.json schema v2: the same, with the samples in pair
# order (null for a failed run). Exits 1 on a regressed verdict, a metric
# the change lacks, or a failed run.

# field(k): the value of key k in the one-line JSON object $0.
function field(k,    s) {
    s = $0
    sub(".*\"" k "\": *\"?", "", s)
    sub(/[",}].*/, "", s)
    return s
}

function jstr(s) { gsub(/[\\"]/, "\\\\&", s); return "\"" s "\"" }

function isort(x, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && x[j - 1] + 0 > x[j] + 0; j--) {
            t = x[j]; x[j] = x[j - 1]; x[j - 1] = t
        }
}

# quart(x, n, k): the k-th quartile of sorted x[1..n], by the exclusive
# method of the spreads in simbench/README.md (Python's
# statistics.quantiles). One that falls on a sample keeps its digits.
function quart(x, n, k,    pos, j) {
    pos = k * (n + 1) / 4
    j = int(pos)
    if (j < 1) return x[1]
    if (j >= n) return x[n]
    if (pos == j || x[j] + 0 == x[j + 1] + 0) return x[j]
    return x[j] + (pos - j) * (x[j + 1] - x[j])
}

function judge(w, m,    b, c, r, nb, nc, nr, wins, p, has_b, has_c, jb, jc, bm, cm, sp, ra, iqr, spread, d, beats, v) {
    for (p = 1; p <= np; p++) {
        if (has_b = ((w, "base", m, p) in val)) b[++nb] = val[w, "base", m, p]
        if (has_c = ((w, "change", m, p) in val)) c[++nc] = val[w, "change", m, p]
        if (has_b && has_c) {
            r[++nr] = b[nb] + 0 ? c[nc] / b[nb] : 1
            wins += lower[m] ? c[nc] + 0 < b[nb] + 0 : c[nc] + 0 > b[nb] + 0
        }
        jb = jb (p > 1 ? ", " : "") (has_b ? b[nb] : "null")
        jc = jc (p > 1 ? ", " : "") (has_c ? c[nc] : "null")
    }
    bm = cm = sp = ra = "null"; v = "missing"
    if (nb && nc) {
        isort(b, nb); isort(c, nc); isort(r, nr)
        bm = quart(b, nb, 2); cm = quart(c, nc, 2)
        iqr = quart(b, nb, 3) - quart(b, nb, 1)
        spread = bm + 0 ? iqr / bm : 0
        sp = sprintf("%.4f", spread); ra = sprintf("%.4f", quart(r, nr, 2))
        d = lower[m] ? cm - bm : bm - cm
        beats = lower[m] ? c[nc] + 0 < b[1] + 0 : c[1] + 0 > b[nb] + 0
        if (d > bound[m] * bm) v = "regressed"
        else if (spread > bound[m] && !beats) v = "unresolved"
        else if (nr && wins >= 0.9 * nr && -d > iqr) v = "gain"
        else v = "flat"
    }
    bad += v == "regressed" || !nc
    printf "%-10s %-13s %20s %20s %6s %6s %2d/%-2d %s\n", w, m, bm, cm, sp, ra, wins, nr, v
    results = results (results == "" ? "" : ",\n") \
        sprintf("    {\"workload\": \"%s\", \"metric\": \"%s\", \"unit\": \"%s\", \"bound\": %s,\n" \
            "     \"base\": [%s],\n     \"change\": [%s],\n     \"base_median\": %s, \"change_median\": %s, " \
            "\"base_spread\": %s, \"ratio\": %s, \"wins\": %d, \"pairs\": %d, \"verdict\": \"%s\"}", \
            w, m, unit[m], bound[m], jb, jc, bm, cm, sp, ra, wins, nr, v)
}

FNR == NR && /"bound"/ {
    m = field("name"); metric[++nm] = m; unit[m] = field("unit")
    lower[m] = field("better") == "lower"; bound[m] = field("bound") + 0
}
FNR == NR { next }
/^# host / { host = substr($0, 8); next }
!($1 in seen) { seen[$1]; workload[++nw] = $1 }
$3 + 0 > np { np = $3 + 0 }
$4 == "failed" { failed++; next }
{ val[$1, $2, $4, $3] = $5 }

END {
    printf "%-10s %-13s %20s %20s %6s %6s %5s %s\n", "workload", "metric", "base", "change", "spread", "ratio", "wins", "verdict"
    for (i = 1; i <= nw; i++)
        for (k = 1; k <= nm; k++) judge(workload[i], metric[k])
    if (failed) printf "%d failed run(s)\n", failed
    printf "{\n  \"schema\": \"pcie-bench/bench/v2\",\n  \"command\": %s,\n  \"host\": %s,\n  \"base\": %s,\n" \
        "  \"change\": %s,\n  \"pairs\": %d,\n  \"run_seconds\": %d,\n  \"results\": [\n%s\n  ]\n}\n", \
        jstr(command), jstr(host), jstr(base), jstr(change), np, seconds, results > json
    exit bad || failed
}
