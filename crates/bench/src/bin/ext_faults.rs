//! Extension — error-path benchmarks: BW_RD goodput and LAT_RD tail
//! latency vs injected bit-error rate.
//!
//! The paper's model budgets the DLL bytes (TLP sequence numbers,
//! LCRC, ACK/NAK DLLPs) that exist to pay for *recovery*; this binary
//! exercises the recovery itself. For each BER on a log-spaced grid it
//! runs the Figure 4 BW_RD measurement and a 64 B LAT_RD, printing
//! goodput, replay counters, and the latency distribution with the
//! `replay` stage's contribution.
//!
//! Invariants checked in commentary:
//! * BER = 0 reproduces the Figure 4 BW_RD numbers exactly (the fault
//!   subsystem is bit-transparent when idle);
//! * goodput decreases monotonically with BER (replays consume wire
//!   time and credits);
//! * p99 latency grows with BER (a NAK round trip or replay-timer wait
//!   lands in the tail, not the median);
//! * `link.replay.*` counters reconcile with the injected error count.
//!
//! Usage: `cargo run --release --bin ext_faults`
//! (`PCIE_BENCH_N` scales transaction counts as usual.)

use pcie_bench_harness::{baseline_params, header, n};
use pcie_device::DmaPath;
use pcie_par::Pool;
use pciebench::report::format_multi_series;
use pciebench::{
    run_bandwidth_with, run_latency, BenchScratch, BenchSetup, BwOp, LatOp, Stage, StageSet,
};

/// Log-spaced BER grid; 0 first so the fault-free baseline anchors the
/// sweep.
const BERS: [f64; 7] = [0.0, 1e-8, 1e-7, 5e-7, 1e-6, 5e-6, 1e-5];

/// Transfer sizes for the goodput sweep (subset of the Figure 4 grid).
const SIZES: [u32; 4] = [64, 256, 512, 1024];

fn main() {
    let txns = n(20_000);
    let n_lat = n(2_000);
    let pool = Pool::from_env();

    header("Extension (a) — BW_RD goodput vs bit-error rate (NetFPGA-HSW)");
    // Every (BER, size) cell is an independent platform; fan the grid
    // across the pool, results back in grid order.
    let jobs: Vec<(f64, u32)> = BERS
        .iter()
        .flat_map(|&ber| SIZES.iter().map(move |&sz| (ber, sz)))
        .collect();
    let cells = pool.run_with(jobs.len(), BenchScratch::new, |scratch, i| {
        let (ber, sz) = jobs[i];
        let setup = BenchSetup::netfpga_hsw().with_ber(ber);
        let r = run_bandwidth_with(
            &setup,
            &baseline_params(sz),
            BwOp::Rd,
            txns,
            DmaPath::DmaEngine,
            scratch,
        );
        (r.gbps, r.mtps)
    });
    let series: Vec<Vec<(u32, f64)>> = BERS
        .iter()
        .enumerate()
        .map(|(bi, _)| {
            SIZES
                .iter()
                .enumerate()
                .map(|(si, &sz)| (sz, cells[bi * SIZES.len() + si].0))
                .collect()
        })
        .collect();
    let labels: Vec<String> = BERS.iter().map(|b| format!("BER={b:.0e}")).collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    print!(
        "{}",
        format_multi_series(
            "BW_RD goodput (Gb/s) vs transfer size (B), by BER",
            "size",
            &label_refs,
            &series,
        )
    );
    // Goodput must fall monotonically with BER at every size (ties
    // allowed at rates too low to inject over this transaction count).
    let mut monotone = true;
    for (si, &sz) in SIZES.iter().enumerate() {
        for bi in 1..BERS.len() {
            let prev = cells[(bi - 1) * SIZES.len() + si].0;
            let cur = cells[bi * SIZES.len() + si].0;
            if cur > prev + 1e-9 {
                monotone = false;
                println!(
                    "# VIOLATION: {}B goodput rose {prev:.3} -> {cur:.3} Gb/s at BER={}",
                    sz, BERS[bi]
                );
            }
        }
    }
    println!("# goodput monotonically non-increasing in BER: {monotone}");

    header("Extension (b) — 64B LAT_RD tail latency and replay stage vs BER");
    println!(
        "# {:>9} {:>10} {:>10} {:>10} {:>12} {:>10} {:>9} {:>7}",
        "ber", "median_ns", "p99_ns", "p999_ns", "replay_mean", "replays", "naks", "errors"
    );
    let mut p99_baseline = 0.0;
    let mut p99_max = 0.0;
    for &ber in &BERS {
        let setup = BenchSetup::netfpga_hsw().with_ber(ber).with_telemetry();
        let r = run_latency(
            &setup,
            &baseline_params(64),
            LatOp::Rd,
            n_lat,
            DmaPath::DmaEngine,
        );
        let s = &r.summary;
        let snap = r.telemetry.as_ref().expect("telemetry enabled");
        let replay_mean = snap
            .stages()
            .map(|st| {
                st.rows
                    .iter()
                    .find(|row| row.0 == Stage::Replay.name())
                    .map(|row| row.2)
                    .unwrap_or(0.0)
            })
            .unwrap_or(0.0);
        let (mut replays, mut naks, mut errors) = (0, 0, 0);
        for comp in ["link.replay.upstream", "link.replay.downstream"] {
            if let Some(g) = snap.group(comp) {
                replays += g.get("replays").unwrap_or(0);
                naks += g.get("naks").unwrap_or(0);
                errors += g.get("injected_errors").unwrap_or(0);
            }
        }
        println!(
            "# {:>9.0e} {:>10.0} {:>10.0} {:>10.0} {:>12.2} {:>10} {:>9} {:>7}",
            ber, s.median, s.p99, s.p999, replay_mean, replays, naks, errors
        );
        if ber == 0.0 {
            p99_baseline = s.p99;
            assert_eq!(replays + naks + errors, 0, "BER=0 must not inject");
            assert_eq!(replay_mean, 0.0, "BER=0 must have an empty replay stage");
        }
        p99_max = s.p99.max(p99_max);
    }
    println!(
        "# p99 grows with BER: {} ({p99_baseline:.0}ns fault-free -> {p99_max:.0}ns worst)",
        p99_max > p99_baseline
    );

    header("Extension (c) — replay-counter reconciliation at BER=1e-5");
    let setup = BenchSetup::netfpga_hsw().with_ber(1e-5).with_telemetry();
    let mut scratch = BenchScratch::new();
    let r = run_bandwidth_with(
        &setup,
        &baseline_params(512),
        BwOp::Rd,
        txns,
        DmaPath::DmaEngine,
        &mut scratch,
    );
    let snap = r.telemetry.as_ref().expect("telemetry enabled");
    pcie_bench_harness::print_fault_summary(snap);
    let up = snap.group("link.replay.upstream").expect("replay group");
    let down = snap.group("link.replay.downstream").expect("replay group");
    // NAK-detected replays on one direction produce NAK DLLPs on the
    // other; with timeout_fraction = 0 the counts match exactly.
    assert_eq!(
        up.get("replays"),
        down.get("naks"),
        "upstream replays vs downstream NAKs"
    );
    assert_eq!(
        down.get("replays"),
        up.get("naks"),
        "downstream replays vs upstream NAKs"
    );
    println!(
        "# replays == opposite-direction NAKs on both directions: true \
         (up {} / down {})",
        up.get("replays").unwrap_or(0),
        down.get("replays").unwrap_or(0)
    );
}
