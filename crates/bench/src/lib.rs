//! # pcie-bench-harness — figure/table regeneration
//!
//! One binary per artefact of the paper's evaluation:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig1_nic_models` | Figure 1 — modelled bidirectional bandwidth of effective PCIe, Simple NIC, kernel NIC, DPDK NIC |
//! | `fig2_loopback_latency` | Figure 2 — NIC loopback latency and the PCIe share of it |
//! | `fig4_baseline_bw` | Figure 4(a/b/c) — BW_RD / BW_WR / BW_RDWR vs transfer size, NFP vs NetFPGA vs model |
//! | `fig5_latency_size` | Figure 5 — median DMA latency vs transfer size with min/p95 bars |
//! | `fig6_latency_cdf` | Figure 6 — 64 B read-latency CDFs, Xeon E5 vs Xeon E3 |
//! | `fig7_cache_ddio` | Figure 7(a/b) — cache/DDIO effects vs window size |
//! | `fig8_numa` | Figure 8 — local vs remote bandwidth change |
//! | `fig9_iommu` | Figure 9 — IOMMU bandwidth change vs window size |
//! | `table1_systems` | Table 1 — system configurations |
//! | `table2_findings` | Table 2 — the paper's findings, re-derived and checked |
//! | `suite` | the §5.4 full-suite control program |
//!
//! Each binary prints gnuplot-ready columns plus a short commentary of
//! the paper-shape checks it performs. `PCIE_BENCH_N` scales the
//! transaction counts (default chosen for seconds-long runs).
//!
//! The simulator's own cost is measured by the separate `simbench`
//! package, and `scripts/ab.sh` compares it between two revisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pciebench::{BenchParams, BenchSetup, Snapshot};
use std::env::VarError;
use std::fmt::Display;
use std::str::FromStr;

/// Prints `msg` on stderr and exits 2, the binaries' exit code for
/// bad input (an unknown name, a knob out of range).
pub fn exit_usage(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Environment variable `name` parsed as `T`, or `default` when it is
/// unset. A value that does not parse exits 2 (see [`exit_usage`])
/// with a message naming the variable, instead of silently running
/// with the default.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|_| {
            exit_usage(format_args!(
                "{name}='{s}' is not a valid {}",
                std::any::type_name::<T>()
            ))
        }),
        Err(VarError::NotPresent) => default,
        Err(VarError::NotUnicode(s)) => {
            exit_usage(format_args!("{name}={s:?} is not valid Unicode"))
        }
    }
}

/// The largest `PCIE_BENCH_N` factor [`scale`] accepts: ten times the
/// paper's own scale (`PCIE_BENCH_N=10`), 2·10⁷ transactions for the
/// largest binary.
pub const MAX_SCALE: f64 = 100.0;

/// Transaction-count scale factor from the `PCIE_BENCH_N` environment
/// variable (default 1.0). Figures use `(base as f64 * scale) as
/// usize`. A value that does not parse, is not finite, is not above 0
/// or exceeds [`MAX_SCALE`] exits 2 naming the variable.
pub fn scale() -> f64 {
    let f = env_or("PCIE_BENCH_N", 1.0);
    if !(f > 0.0 && f <= MAX_SCALE) {
        exit_usage(format_args!(
            "PCIE_BENCH_N={f:?} is out of range: the factor must be above 0 and at most {MAX_SCALE}"
        ));
    }
    f
}

/// Scaled transaction count.
pub fn n(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(16)
}

/// Scaled count [`n`]`(base)` of a binary whose asserted checks mean
/// something only from `min` `units` up; `why` says where `min` comes
/// from. Below it, exits 2 naming `PCIE_BENCH_N` and the smallest
/// factor that reaches `min`.
pub fn n_at_least(base: usize, min: usize, units: &str, why: impl Display) -> usize {
    let got = n(base);
    if got < min {
        let factor = (min as f64 / base as f64 * 1e4).ceil() / 1e4;
        exit_usage(format_args!(
            "PCIE_BENCH_N={} gives {got} {units}, fewer than the {min} the asserted \
             checks need ({why}): set PCIE_BENCH_N to at least {factor}",
            scale()
        ));
    }
    got
}

/// The standard transfer-size grid of Figure 4 (64 B – 2048 B with ±1 B
/// probes).
pub fn fig4_sizes() -> Vec<u32> {
    pcie_model::bandwidth::figure4_sizes()
}

/// Builds the two §6.1 baseline setups: (NFP6000-HSW, NetFPGA-HSW).
pub fn baseline_setups() -> (BenchSetup, BenchSetup) {
    (BenchSetup::nfp6000_hsw(), BenchSetup::netfpga_hsw())
}

/// The baseline 8 KiB-window warm-cache geometry of §6.1.
pub fn baseline_params(transfer: u32) -> BenchParams {
    BenchParams::baseline(transfer)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Prints a telemetry snapshot's per-stage latency breakdown as a
/// commented table: total / mean / share per pipeline stage, plus the
/// reconciliation against the end-to-end histogram.
pub fn print_stage_breakdown(snap: &Snapshot) {
    let Some(st) = snap.stages() else {
        return;
    };
    println!(
        "# telemetry [{}]: {} transactions, mean end-to-end {:.0}ns",
        snap.label, st.transactions, st.end_to_end_mean_ns
    );
    println!(
        "# {:>18} {:>14} {:>10} {:>7}",
        "stage", "total_ns", "mean_ns", "share"
    );
    let denom = if st.end_to_end_total_ns > 0.0 {
        st.end_to_end_total_ns
    } else {
        1.0
    };
    for &(name, total, mean, _) in &st.rows {
        println!(
            "# {:>18} {:>14.0} {:>10.1} {:>6.1}%",
            name,
            total,
            mean,
            100.0 * total / denom
        );
    }
    println!(
        "# {:>18} {:>14.0} {:>10.1} {:>6.1}%  (stage sum / end-to-end = {:.6})",
        "end_to_end",
        st.end_to_end_total_ns,
        st.end_to_end_mean_ns,
        100.0,
        st.stage_total_ns() / denom
    );
}

/// Prints the fault/replay counter groups of a snapshot
/// (`link.replay.*`, `device.errors`) as commented lines. Silent when
/// the snapshot carries none — i.e. on every fault-free run.
pub fn print_fault_summary(snap: &Snapshot) {
    for comp in [
        "link.replay.upstream",
        "link.replay.downstream",
        "device.errors",
    ] {
        if let Some(g) = snap.group(comp) {
            let cells: Vec<String> = g
                .counters()
                .iter()
                .map(|(name, v)| format!("{name}={v}"))
                .collect();
            println!("# {comp}: {}", cells.join(" "));
        }
    }
}

/// Writes a snapshot as `<stem>.telemetry.json` and
/// `<stem>.telemetry.csv` under `dir`, reporting the paths on stdout.
pub fn export_snapshot(dir: &std::path::Path, stem: &str, snap: &Snapshot) {
    let json = dir.join(format!("{stem}.telemetry.json"));
    let csv = dir.join(format!("{stem}.telemetry.csv"));
    pciebench::export::write_snapshot_json(&json, snap).expect("telemetry json export");
    pciebench::export::write_snapshot_csv(&csv, snap).expect("telemetry csv export");
    println!(
        "# telemetry snapshot in {} and {}",
        json.display(),
        csv.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_bounded_below() {
        assert!(n(0) >= 16);
        assert_eq!(n(1000), 1000);
    }

    #[test]
    fn size_grid_sane() {
        let s = fig4_sizes();
        assert_eq!(*s.first().unwrap(), 64);
        assert_eq!(*s.last().unwrap(), 2048);
    }
}
