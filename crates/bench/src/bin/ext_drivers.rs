//! Extension — the driver interaction-pattern zoo (EXPERIMENTS.md X11).
//!
//! Runs all four `pcie-drivers` patterns — kernel IRQ, DPDK poll,
//! AF_XDP, io_uring — over the same NIC-DMA-engine platform and ranks
//! them two ways:
//!
//! * **capacity** (closed-loop saturation): delivered Mpps and Gb/s
//!   per packet size — the Figure 1 axis, now with software costs;
//! * **latency** (open loop at a gentle rate): p50/p99 end-to-end
//!   echo latency — where interrupt coalescing buys throughput with
//!   tail latency, and busy polling buys tail latency with a burned
//!   core.
//!
//! A third section prints the six-stage breakdown (`rx_dma`, `notify`,
//! `rx_sw`, `app`, `tx_post`, `tx_dma`) at 64 B and checks it
//! telescopes: stage means sum to the end-to-end mean, per pattern.
//!
//! Invariants checked in commentary:
//! * closed loop delivers every offered packet (no drops by design);
//! * 64 B capacity ranks dpdk_poll > af_xdp > io_uring > kernel_irq
//!   (per-packet software cost strictly orders the patterns when the
//!   link is not the bottleneck);
//! * low-rate p99 ranks the busy pollers below both interrupt-driven
//!   patterns (the coalescing delay is the tail);
//! * stage means telescope to the end-to-end mean per pattern.
//!
//! Usage: `cargo run --release --bin ext_drivers [-- --quick]`
//! Env: `PCIE_BENCH_DRIVER=<name>` runs a single pattern (an unknown
//! name exits 2); `PCIE_BENCH_N` scales packet counts;
//! `PCIE_BENCH_THREADS` sizes the worker pool.

use pcie_bench_harness::{header, n};
use pcie_drivers::{
    DriverConfig, DriverPattern, DriverRunResult, DriverSim, OfferedLoad, PATTERNS,
};
use pcie_par::Pool;
use pcie_telemetry::{DriverStage, StageSet};
use pciebench::report::format_multi_series;
use pciebench::BenchSetup;

/// Open-loop rate for the latency section: low enough that every
/// pattern (including kernel IRQ at 64 B, capacity ≈ 2 Mpps) runs
/// well under its capacity, so queues stay short and the measured
/// tail isolates the notification discipline itself.
const LATENCY_GBPS: f64 = 0.8;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[u32] = if quick {
        &[64, 512, 1500]
    } else {
        &[64, 256, 512, 1024, 1500]
    };
    let patterns: Vec<DriverPattern> = match std::env::var("PCIE_BENCH_DRIVER") {
        Ok(name) => match DriverPattern::from_name(&name) {
            Some(p) => vec![p],
            None => {
                let names: Vec<&str> = PATTERNS.iter().map(|p| p.name()).collect();
                eprintln!(
                    "unknown PCIE_BENCH_DRIVER '{name}'; expected one of {}",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
        Err(_) => PATTERNS.to_vec(),
    };
    let pkts = n(if quick { 4_000 } else { 20_000 }) as u32;
    let cfg = DriverConfig::default();
    let pool = Pool::from_env();

    // Every (pattern, size, mode) cell is an independent sim on a
    // fresh platform; fan the whole grid across the pool at once.
    let jobs: Vec<(DriverPattern, u32, bool)> = patterns
        .iter()
        .flat_map(|&p| {
            sizes
                .iter()
                .flat_map(move |&sz| [(p, sz, true), (p, sz, false)])
        })
        .collect();
    let cells: Vec<DriverRunResult> = pool.run(jobs.len(), |i| {
        let (pattern, sz, saturate) = jobs[i];
        let cfg = if saturate {
            cfg.with_load(OfferedLoad::Saturate)
        } else {
            cfg.with_load(OfferedLoad::OpenLoopGbps(LATENCY_GBPS))
        };
        let platform = BenchSetup::nfp6000_hsw().build_nic_platform();
        let mut sim = DriverSim::new(pattern, cfg, platform);
        sim.run(sz, pkts)
    });
    let cell = |pi: usize, si: usize, saturate: bool| -> &DriverRunResult {
        &cells[(pi * sizes.len() + si) * 2 + usize::from(!saturate)]
    };

    header("Extension (a) — echo capacity by interaction pattern (closed loop, NFP6000-HSW)");
    let labels: Vec<&str> = patterns.iter().map(|p| p.name()).collect();
    let series: Vec<Vec<(u32, f64)>> = patterns
        .iter()
        .enumerate()
        .map(|(pi, _)| {
            sizes
                .iter()
                .enumerate()
                .map(|(si, &sz)| (sz, cell(pi, si, true).mpps))
                .collect()
        })
        .collect();
    print!(
        "{}",
        format_multi_series(
            "delivered Mpps vs packet size (B), by pattern",
            "size",
            &labels,
            &series,
        )
    );
    let gbps_series: Vec<Vec<(u32, f64)>> = patterns
        .iter()
        .enumerate()
        .map(|(pi, _)| {
            sizes
                .iter()
                .enumerate()
                .map(|(si, &sz)| (sz, cell(pi, si, true).gbps))
                .collect()
        })
        .collect();
    print!(
        "{}",
        format_multi_series(
            "delivered Gb/s vs packet size (B), by pattern",
            "size",
            &labels,
            &gbps_series,
        )
    );
    for (pi, p) in patterns.iter().enumerate() {
        for (si, &sz) in sizes.iter().enumerate() {
            let r = cell(pi, si, true);
            assert_eq!(
                r.delivered + r.early_drops,
                r.offered,
                "{} {}B: closed loop must deliver everything",
                p.name(),
                sz
            );
            assert_eq!(
                r.dropped,
                0,
                "{} {}B: closed loop never drops",
                p.name(),
                sz
            );
        }
    }
    println!("# closed loop delivered every offered packet at every size: true");

    // Capacity ranking at every size (PPS, descending).
    for (si, &sz) in sizes.iter().enumerate() {
        let mut ranked: Vec<(&str, f64)> = patterns
            .iter()
            .enumerate()
            .map(|(pi, p)| (p.name(), cell(pi, si, true).mpps))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let line: Vec<String> = ranked
            .iter()
            .map(|(name, mpps)| format!("{name} {mpps:.2}"))
            .collect();
        println!("# capacity ranking @{sz}B (Mpps): {}", line.join(" > "));
    }
    if patterns.len() == PATTERNS.len() {
        let at = |p: DriverPattern| {
            let pi = patterns.iter().position(|&q| q == p).unwrap();
            cell(pi, 0, true).mpps
        };
        assert!(
            at(DriverPattern::DpdkPoll) > at(DriverPattern::AfXdp)
                && at(DriverPattern::AfXdp) > at(DriverPattern::IoUring)
                && at(DriverPattern::IoUring) > at(DriverPattern::KernelIrq),
            "64B capacity must rank dpdk_poll > af_xdp > io_uring > kernel_irq"
        );
        println!("# 64B ranking matches per-packet software cost ordering: true");
    }

    header(&format!(
        "Extension (b) — echo latency at {LATENCY_GBPS} Gb/s open loop (p50 / p99, ns)"
    ));
    println!(
        "# {:>12} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "pattern", "size", "p50_ns", "p99_ns", "mean_ns", "delivered", "dropped"
    );
    for (pi, p) in patterns.iter().enumerate() {
        for (si, &sz) in sizes.iter().enumerate() {
            let r = cell(pi, si, false);
            println!(
                "# {:>12} {:>6} {:>10.0} {:>10.0} {:>10.0} {:>9} {:>9}",
                p.name(),
                sz,
                r.p50_ns,
                r.p99_ns,
                r.mean_ns,
                r.delivered,
                r.dropped
            );
        }
    }
    for (si, &sz) in sizes.iter().enumerate() {
        let mut ranked: Vec<(&str, f64)> = patterns
            .iter()
            .enumerate()
            .map(|(pi, p)| (p.name(), cell(pi, si, false).p99_ns))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        let line: Vec<String> = ranked
            .iter()
            .map(|(name, p99)| format!("{name} {p99:.0}"))
            .collect();
        println!("# p99 ranking @{sz}B (ns, ascending): {}", line.join(" < "));
    }
    if patterns.len() == PATTERNS.len() {
        let p99 = |p: DriverPattern, si: usize| {
            let pi = patterns.iter().position(|&q| q == p).unwrap();
            cell(pi, si, false).p99_ns
        };
        for (si, &sz) in sizes.iter().enumerate() {
            let poll_worst = p99(DriverPattern::DpdkPoll, si).max(p99(DriverPattern::AfXdp, si));
            let irq_best = p99(DriverPattern::KernelIrq, si).min(p99(DriverPattern::IoUring, si));
            assert!(
                poll_worst < irq_best,
                "{sz}B: busy polling must beat interrupt coalescing on p99 \
                 ({poll_worst:.0} vs {irq_best:.0} ns)"
            );
        }
        println!("# busy pollers beat interrupt-driven patterns on p99 at every size: true");
    }

    header("Extension (c) — six-stage latency attribution at 64B (mean ns per stage)");
    println!(
        "# {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "pattern", "rx_dma", "notify", "rx_sw", "app", "tx_post", "tx_dma", "sum=e2e"
    );
    for &pattern in &patterns {
        // Re-run the low-rate point sequentially to read the stage
        // stats (the parallel cells only return the result struct).
        let platform = BenchSetup::nfp6000_hsw().build_nic_platform();
        let mut sim = DriverSim::new(
            pattern,
            cfg.with_load(OfferedLoad::OpenLoopGbps(LATENCY_GBPS)),
            platform,
        );
        let r = sim.run(64, pkts.min(4_000));
        let means: Vec<f64> = DriverStage::ALL
            .iter()
            .map(|&st| sim.stages.mean_ns(st))
            .collect();
        let sum: f64 = means.iter().sum();
        println!(
            "# {:>12} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>10.0}",
            pattern.name(),
            means[0],
            means[1],
            means[2],
            means[3],
            means[4],
            means[5],
            sum
        );
        assert!(
            (sum - r.mean_ns).abs() <= 1e-6 * r.mean_ns.max(1.0),
            "{}: stage means must telescope to the e2e mean ({sum:.1} vs {:.1})",
            pattern.name(),
            r.mean_ns
        );
        let snap = sim.snapshot(format!("{} 64B", pattern.name()));
        let group = format!("driver.{}", pattern.name());
        assert!(
            snap.groups().iter().any(|g| g.component == group),
            "snapshot must carry {group}"
        );
    }
    println!("# stage means telescope to the end-to-end mean for every pattern: true");
}
