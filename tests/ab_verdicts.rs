//! The verdicts of `scripts/ab.awk`, the judge behind `scripts/ab.sh`,
//! on canned tables of ten base/change pairs against `BENCHMARK.json`'s
//! bounds, with no simbench run.

use std::io::Write as _;
use std::process::{Command, Stdio};

const METRICS: [&str; 4] = ["cpu_ns_per_op", "allocs_per_op", "setup_s", "peak_rss_mb"];

/// Relative run-to-run noise of two sides drawn from one distribution:
/// the change wins five of the ten pairs, and the base's spread is 0.032.
const NOISE_BASE: &str = "0 0.02 -0.02 0.01 -0.01 0.03 -0.03 0.015 -0.015 0.005";
const NOISE_CHANGE: &str = "0.01 -0.02 0.02 -0.01 0.025 -0.025 0 0.012 -0.012 0.004";

/// The space-separated samples of pairs 1..=10.
fn xs(samples: &str) -> Vec<f64> {
    samples.split(' ').map(|x| x.parse().unwrap()).collect()
}

/// `value` with each of the relative `noise` samples.
fn noisy(value: f64, noise: &str) -> Vec<f64> {
    xs(noise).iter().map(|n| value * (1.0 + n)).collect()
}

/// `metric` on `workload` as rows of pairs 1.., each side's samples in
/// pair order.
fn pairs(workload: &str, metric: &str, base: &[f64], change: &[f64]) -> String {
    let rows = |side: &str, xs: &[f64]| -> String {
        let row = |(i, v)| format!("{workload} {side} {} {metric} {v}\n", i + 1);
        xs.iter().enumerate().map(row).collect()
    };
    rows("base", base) + &rows("change", change)
}

/// Runs ab.awk on `table`: its exit code, the table it printed and the
/// BENCH_sim.json document it wrote.
fn judge(table: &str) -> (i32, String, String) {
    let mut awk = Command::new("awk")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["-v", "json=/dev/stderr"])
        .args(["-v", "command=sh scripts/ab.sh HEAD~1"])
        .args(["-v", "base=b0", "-v", "change=c1", "-v", "seconds=25"])
        .args(["-f", "scripts/ab.awk", "BENCHMARK.json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("awk starts");
    let table = table.as_bytes();
    awk.stdin.take().unwrap().write_all(table).unwrap();
    let out = awk.wait_with_output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    let code = out.status.code().expect("awk exited");
    (code, text(out.stdout), text(out.stderr))
}

/// The verdict printed on the row of `workload` and `metric`.
fn verdict<'a>(out: &'a str, workload: &str, metric: &str) -> &'a str {
    out.lines()
        .find(|l| l.split_whitespace().take(2).eq([workload, metric]))
        .and_then(|l| l.split_whitespace().last())
        .unwrap_or_else(|| panic!("no {workload} {metric} row in\n{out}"))
}

/// Judges one metric's pairs on `dma_sweep`, beside three steady ones:
/// "<verdict> <exit code>".
fn one(metric: &str, base: &[f64], change: &[f64]) -> String {
    let mut table = pairs("dma_sweep", metric, base, change);
    for m in METRICS.into_iter().filter(|&m| m != metric) {
        table += &pairs("dma_sweep", m, &[1.0; 10], &[1.0; 10]);
    }
    let (code, out, _) = judge(&table);
    format!("{} {code}", verdict(&out, "dma_sweep", metric))
}

#[test]
fn a_over_a_is_flat_everywhere() {
    let workloads = ["dma_sweep", "driver_zoo", "flow_rx", "rpc_fabric"];
    let mut table = String::from("# host cpu=\"Xeon\" nproc=2\n");
    for w in workloads {
        for (m, v) in METRICS.into_iter().zip([750.0, 0.725849, 0.23, 15.8]) {
            // allocs_per_op is exact per seed: every run reads the same count.
            let n = |noise| match m {
                "allocs_per_op" => vec![v; 10],
                _ => noisy(v, noise),
            };
            table += &pairs(w, m, &n(NOISE_BASE), &n(NOISE_CHANGE));
        }
    }
    let (code, out, json) = judge(&table);
    for w in workloads {
        for m in METRICS {
            assert_eq!(verdict(&out, w, m), "flat", "{w} {m}\n{out}");
        }
    }
    assert_eq!(code, 0, "{out}");

    // The whole BENCH_sim.json document, one result per workload and metric.
    let head = r#"{
  "schema": "pcie-bench/bench/v2",
  "command": "sh scripts/ab.sh HEAD~1",
  "host": "cpu=\"Xeon\" nproc=2",
  "base": "b0",
  "change": "c1",
  "pairs": 10,
  "run_seconds": 25,
  "results": [
    {"workload": "dma_sweep", "metric": "cpu_ns_per_op", "unit": "ns", "bound": 0.24,
     "base": [750, 765, 735, "#;
    assert!(json.starts_with(head), "{json}");
    assert!(json.ends_with("\"verdict\": \"flat\"}\n  ]\n}\n"), "{json}");
    assert_eq!(json.matches("\"verdict\": \"flat\"}").count(), 16, "{json}");
    assert_eq!(json.matches("},\n    {\"workload\"").count(), 15, "{json}");

    // A failed run fails the comparison, whatever the verdicts, and
    // leaves a null in its pair's place.
    let failed: String = table
        .lines()
        .filter(|l| !l.starts_with("flow_rx change 4 "))
        .map(|l| format!("{l}\n"))
        .collect();
    let (code, out, json) = judge(&(failed + "flow_rx change 4 failed 1\n"));
    assert_eq!(verdict(&out, "flow_rx", "cpu_ns_per_op"), "flat", "{out}");
    assert_eq!(code, 1, "{out}");
    assert!(json.contains("0.725849, null, 0.725849"), "{json}");
}

#[test]
fn a_metric_one_side_lacks_is_missing() {
    // One the base does not print yet is reported; one the change stops
    // printing fails the comparison.
    let x = noisy(750.0, NOISE_BASE);
    assert_eq!(one("cpu_ns_per_op", &[], &x), "missing 0");
    assert_eq!(one("cpu_ns_per_op", &x, &[]), "missing 1");
}

#[test]
fn thirty_percent_more_cpu_in_every_pair_regresses() {
    let base = noisy(750.0, NOISE_BASE);
    let change: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
    assert_eq!(one("cpu_ns_per_op", &base, &change), "regressed 1");
}

#[test]
fn ten_percent_more_allocations_regresses() {
    let verdict = one("allocs_per_op", &[1.20145; 10], &[1.321595; 10]);
    assert_eq!(verdict, "regressed 1");
}

#[test]
fn a_base_spread_wider_than_the_bound_is_unresolved() {
    // Median 1000, quartiles 800 and 1200: spread 0.4 against the 0.24
    // bound. The change runs the same values in another order.
    let base = xs("700 800 800 900 950 1050 1100 1200 1200 1300");
    let change = xs("1050 950 1200 800 1300 700 900 1100 800 1200");
    assert_eq!(one("cpu_ns_per_op", &base, &change), "unresolved 0");
}

#[test]
fn winning_every_pair_by_more_than_the_spread_is_a_gain() {
    // Median 1000, quartiles 975 and 1025: a 5 % interquartile range.
    let base = xs("1000 960 1025 975 1040 990 1025 975 1010 1000");
    let change: Vec<f64> = base.iter().map(|b| b * 0.85).collect();
    assert_eq!(one("cpu_ns_per_op", &base, &change), "gain 0");

    // Two ties leave the change 8 wins of 10; a 1 % win is inside the spread.
    let mut tied = change.clone();
    tied[..2].copy_from_slice(&base[..2]);
    assert_eq!(one("cpu_ns_per_op", &base, &tied), "flat 0");
    let slight: Vec<f64> = base.iter().map(|b| b * 0.99).collect();
    assert_eq!(one("cpu_ns_per_op", &base, &slight), "flat 0");
}
