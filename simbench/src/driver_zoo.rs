//! `driver_zoo`: the four `DriverSim` interaction patterns at 64 B and
//! 1500 B, each in closed-loop saturation and at 0.8 Gb/s open loop,
//! plus the three Figure 1 `NicSim` designs at the same two sizes.
//!
//! It is the only workload that runs `pcie-drivers` and `NicSim`, two
//! of the four hand-written deferred-issuance schedulers, and the
//! only serving workload whose device reads packets back out of host
//! memory (TX) beside its RX writes, with MSIs and doorbells. Its
//! per-event `Vec` payloads make it the workload where allocation
//! cost shows. One op is one offered packet (for `NicSim`, one packet
//! each way).

use crate::trace;
use crate::workload::{
    add, get, platform_metrics, ratio, tally_platform, Counts, Fnv, Metric, Outcome, Pass, Run,
    Traced,
};
use pcie_drivers::{
    DriverConfig, DriverPattern, DriverRunResult, DriverSim, OfferedLoad, PATTERNS,
};
use pcie_model::NicModelParams;
use pcie_nic::{NicSim, NicSimResult};
use pciebench::BenchSetup;

/// The spans this workload records.
pub const SPANS: &[&str] = &[
    "driver_zoo.config",
    "core.build_nic_platform",
    "drivers.new",
    "drivers.run",
    "nic.new",
    "nic.run",
];

/// Packets per `DriverSim` configuration.
const N_DRIVER: u32 = 25_000;
/// Packets per `NicSim` configuration.
const N_NIC: u32 = 25_000;

const SIZES: [u32; 2] = [64, 1500];
/// The open-loop rate: under every pattern's capacity, so the tail
/// reflects the notification discipline rather than queueing.
const OPEN_GBPS: f64 = 0.8;
/// The Figure 1 NIC designs.
const NIC_DESIGNS: [fn() -> NicModelParams; 3] = [
    NicModelParams::simple,
    NicModelParams::kernel,
    NicModelParams::dpdk,
];

/// One configuration.
#[derive(Clone, Copy)]
enum Config {
    Driver {
        pattern: DriverPattern,
        size: u32,
        saturate: bool,
    },
    Nic {
        design: usize,
        size: u32,
    },
}

fn configs() -> Vec<Config> {
    let mut c = Vec::new();
    for pattern in PATTERNS {
        for size in SIZES {
            for saturate in [true, false] {
                c.push(Config::Driver {
                    pattern,
                    size,
                    saturate,
                });
            }
        }
    }
    for design in 0..NIC_DESIGNS.len() {
        for size in SIZES {
            c.push(Config::Nic { design, size });
        }
    }
    c
}

/// Runs every configuration.
pub fn run(run: Run, out: &mut Vec<Outcome>, mut counts: Option<&mut Counts>) {
    let setup = match run.seed {
        Some(seed) => BenchSetup::nfp6000_hsw().with_seed(seed),
        None => BenchSetup::nfp6000_hsw(),
    };
    let mut base = DriverConfig::default();
    if let Some(seed) = run.seed {
        base.seed = seed;
    }
    let one_op = run.pass == Pass::OneOp;
    for (i, config) in configs().into_iter().enumerate() {
        let outcome = trace::config(i, "driver_zoo.config", || {
            let platform = trace::span("core.build_nic_platform", || setup.build_nic_platform());
            match config {
                Config::Driver {
                    pattern,
                    size,
                    saturate,
                } => {
                    let n = if one_op { 1 } else { N_DRIVER };
                    let load = if saturate {
                        OfferedLoad::Saturate
                    } else {
                        OfferedLoad::OpenLoopGbps(OPEN_GBPS)
                    };
                    let cfg = base.with_load(load);
                    let mut sim =
                        trace::span("drivers.new", || DriverSim::new(pattern, cfg, platform));
                    let r = trace::span("drivers.run", || sim.run(size, n));
                    if let Some(c) = counts.as_deref_mut() {
                        tally_platform(&sim.snapshot(pattern.name()), r.offered, c);
                        let k = &sim.counters;
                        let p = pattern.name();
                        add(c, format!("drivers.{p}.polls"), k.polls as f64);
                        add(c, format!("drivers.{p}.empty_polls"), k.empty_polls as f64);
                        add(c, format!("drivers.{p}.doorbells"), k.doorbells as f64);
                        add(c, format!("drivers.{p}.offered"), k.offered as f64);
                    }
                    Outcome {
                        ops: u64::from(n),
                        digest: driver_digest(&r),
                        check: driver_check(&r, pattern, size, n, saturate),
                    }
                }
                Config::Nic { design, size } => {
                    let n = if one_op { 1 } else { N_NIC };
                    let mut sim =
                        trace::span("nic.new", || NicSim::new(NIC_DESIGNS[design](), platform));
                    let r = trace::span("nic.run", || sim.run(size, n));
                    Outcome {
                        ops: u64::from(n),
                        digest: nic_digest(&r),
                        check: nic_check(&r, size, n),
                    }
                }
            }
        });
        out.push(outcome);
    }
}

fn driver_digest(r: &DriverRunResult) -> u64 {
    Fnv::new()
        .text(r.pattern.name())
        .word(u64::from(r.pkt_size))
        .word(r.offered)
        .word(r.delivered)
        .word(r.dropped)
        .word(r.early_drops)
        .word(r.elapsed.as_ps())
        .float(r.mpps)
        .float(r.gbps)
        .float(r.mean_ns)
        .float(r.p50_ns)
        .float(r.p99_ns)
        .finish()
}

/// Every offered packet is delivered, dropped or dropped early; the
/// closed loop drops nothing; the run offered what it was asked to.
fn driver_check(
    r: &DriverRunResult,
    pattern: DriverPattern,
    size: u32,
    n: u32,
    saturate: bool,
) -> Result<(), String> {
    if r.pattern != pattern || r.pkt_size != size || r.offered != u64::from(n) {
        return Err(format!(
            "{} {}B offered {} of {n}",
            r.pattern.name(),
            r.pkt_size,
            r.offered
        ));
    }
    if r.delivered + r.dropped + r.early_drops != r.offered {
        return Err(format!(
            "{} {size}B: delivered {} + dropped {} + early {} != offered {}",
            pattern.name(),
            r.delivered,
            r.dropped,
            r.early_drops,
            r.offered
        ));
    }
    if saturate && r.dropped != 0 {
        return Err(format!(
            "{} {size}B: closed loop dropped {}",
            pattern.name(),
            r.dropped
        ));
    }
    Ok(())
}

fn nic_digest(r: &NicSimResult) -> u64 {
    Fnv::new()
        .word(u64::from(r.pkt_size))
        .word(u64::from(r.packets))
        .float(r.gbps)
        .word(r.elapsed.as_ps())
        .finish()
}

fn nic_check(r: &NicSimResult, size: u32, n: u32) -> Result<(), String> {
    if r.pkt_size != size || r.packets != n || !(r.gbps > 0.0 && r.gbps.is_finite()) {
        return Err(format!(
            "NicSim {size}B moved {} of {n} packets at {} Gb/s",
            r.packets, r.gbps
        ));
    }
    Ok(())
}

/// Host cost, useful-poll ratio and doorbells of each driver pattern,
/// `NicSim`'s host cost, and the modelled counters of the `DriverSim`
/// platforms.
pub fn layer_metrics(t: &Traced) -> Vec<Metric> {
    let configs = configs();
    let mut m = Vec::new();
    for pattern in PATTERNS {
        let p = pattern.name();
        let mine = |i: usize| matches!(configs.get(i), Some(Config::Driver { pattern: q, .. }) if *q == pattern);
        m.push(Metric::new(
            format!("drivers.{p}.host_ns_per_pkt"),
            t.ns_per_op("drivers.run", false, mine),
            "ns",
        ));
        let c = |k: &str| get(t.counts, &format!("drivers.{p}.{k}"));
        let (polls, empty) = (c("polls"), c("empty_polls"));
        m.push(Metric::new(
            format!("drivers.{p}.useful_poll_ratio"),
            1.0 - ratio(empty, polls + empty),
            "ratio",
        ));
        m.push(Metric::new(
            format!("drivers.{p}.doorbells_per_pkt"),
            ratio(c("doorbells"), c("offered")),
            "count",
        ));
    }
    m.push(Metric::new(
        "nic.nicsim.host_ns_per_pkt",
        t.ns_per_op("nic.run", false, |i| {
            matches!(configs.get(i), Some(Config::Nic { .. }))
        }),
        "ns",
    ));
    m.extend(platform_metrics(t.counts));
    m
}
