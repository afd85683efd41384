//! `pciebench` command-line interface — the counterpart of the paper's
//! §5.4 control programs: run one benchmark with explicit parameters.
//!
//! ```text
//! pciebench_cli <BENCH> [options]
//!   BENCH                LAT_RD | LAT_WRRD | BW_RD | BW_WR | BW_RDWR
//!   --system <name>      nfp6000-hsw (default) | netfpga-hsw |
//!                        nfp6000-hsw-e3 | nfp6000-bdw | nfp6000-snb | nfp6000-ib
//!   --size <bytes>       transfer size (default 64)
//!   --window <bytes>     window size (default 8192; k/m suffixes ok)
//!   --offset <bytes>     start offset within a cache line (default 0)
//!   --pattern <p>        random (default) | sequential
//!   --cache <state>      warm (default) | cold | device-warm
//!   --numa <p>           local (default) | remote
//!   --iommu <mode>       off (default) | 4k | superpages
//!   --path <p>           dma (default) | cmdif
//!   --count <n>          transactions (default: 2000 latency / 20000 bandwidth)
//!   --seed <n>           RNG seed
//!   --ber <rate>         per-bit error rate injected on both link
//!                        directions (default 0 = fault-free; also
//!                        settable via PCIE_BENCH_BER, the flag wins;
//!                        an unparsable value in either exits 2).
//!                        Nonzero rates exercise the DLL replay
//!                        protocol: NAKs, retransmissions, and the
//!                        replay latency stage
//!   --telemetry          record per-stage latency attribution and
//!                        per-component counters; prints the stage
//!                        breakdown and (with --out) writes the
//!                        snapshot as JSON and CSV
//!   --out <dir>          export raw journal/CDF/histogram (latency
//!                        only) and the telemetry snapshot
//! ```
//!
//! Example: `pciebench_cli BW_RD --size 64 --window 64m --iommu 4k`

use pcie_device::DmaPath;
use pcie_host::presets::NumaPlacement;
use pciebench::{
    run_bandwidth, run_latency, BenchParams, BenchSetup, BwOp, CacheState, IommuMode, LatOp,
    Pattern,
};

fn usage() -> ! {
    eprintln!("{}", HELP);
    std::process::exit(2)
}

fn invalid(msg: &str) -> ! {
    eprintln!("invalid parameters: {msg}");
    std::process::exit(2)
}

const HELP: &str = "usage: pciebench_cli <LAT_RD|LAT_WRRD|BW_RD|BW_WR|BW_RDWR> \
[--system S] [--size N] [--window N[k|m]] [--offset N] [--pattern random|sequential] \
[--cache warm|cold|device-warm] [--numa local|remote] [--iommu off|4k|superpages] \
[--path dma|cmdif] [--count N] [--seed N] [--ber RATE] [--telemetry] [--out DIR]";

fn parse_bytes(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix('k') {
        (n, 1024)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n, 1024 * 1024)
    } else if let Some(n) = lower.strip_suffix('g') {
        (n, 1024 * 1024 * 1024)
    } else {
        (lower.as_str(), 1)
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
    }
    let bench = args[0].to_ascii_uppercase();
    if !matches!(
        bench.as_str(),
        "LAT_RD" | "LAT_WRRD" | "BW_RD" | "BW_WR" | "BW_RDWR"
    ) {
        eprintln!("unknown benchmark {bench}");
        usage();
    }
    let mut system = "nfp6000-hsw".to_string();
    let mut size: u32 = 64;
    let mut window: u64 = 8192;
    let mut offset: u32 = 0;
    let mut pattern = Pattern::Random;
    let mut cache = CacheState::HostWarm;
    let mut numa = NumaPlacement::Local;
    let mut iommu = IommuMode::Off;
    let mut path = DmaPath::DmaEngine;
    let mut count: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut telemetry = false;
    let mut out: Option<String> = None;
    // PCIE_BENCH_BER seeds the default; an explicit --ber wins. A rate
    // out of range is reported under the name it came from.
    let mut ber: f64 = pcie_bench_harness::env_or("PCIE_BENCH_BER", 0.0);
    let mut ber_from = "PCIE_BENCH_BER";

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--system" => system = val().to_string(),
            "--size" => size = val().parse().unwrap_or_else(|_| usage()),
            "--window" => window = parse_bytes(val()).unwrap_or_else(|| usage()),
            "--offset" => offset = val().parse().unwrap_or_else(|_| usage()),
            "--pattern" => {
                pattern = match val() {
                    "random" => Pattern::Random,
                    "sequential" => Pattern::Sequential,
                    _ => usage(),
                }
            }
            "--cache" => {
                cache = match val() {
                    "warm" => CacheState::HostWarm,
                    "cold" => CacheState::Cold,
                    "device-warm" => CacheState::DeviceWarm,
                    _ => usage(),
                }
            }
            "--numa" => {
                numa = match val() {
                    "local" => NumaPlacement::Local,
                    "remote" => NumaPlacement::Remote,
                    _ => usage(),
                }
            }
            "--iommu" => {
                iommu = match val() {
                    "off" => IommuMode::Off,
                    "4k" => IommuMode::FourK,
                    "superpages" => IommuMode::SuperPages,
                    _ => usage(),
                }
            }
            "--path" => {
                path = match val() {
                    "dma" => DmaPath::DmaEngine,
                    "cmdif" => DmaPath::CommandIf,
                    _ => usage(),
                }
            }
            "--count" => count = Some(val().parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = Some(val().parse().unwrap_or_else(|_| usage())),
            "--ber" => {
                ber = val().parse().unwrap_or_else(|_| usage());
                ber_from = "--ber";
            }
            "--telemetry" => telemetry = true,
            "--out" => out = Some(val().to_string()),
            _ => usage(),
        }
    }

    let mut setup = BenchSetup::named(&system)
        .unwrap_or_else(|e| invalid(&format!("--system: {e}")))
        .with_iommu(iommu);
    if let Some(s) = seed {
        setup = setup.with_seed(s);
    }
    if telemetry {
        setup = setup.with_telemetry();
    }
    if !(0.0..=1.0).contains(&ber) {
        invalid(&format!("{ber_from} must be in [0, 1]"));
    }
    if ber > 0.0 {
        setup = setup.with_ber(ber);
    }
    let params = BenchParams {
        window,
        transfer: size,
        offset,
        pattern,
        cache,
        placement: numa,
    };
    if let Err(e) = params.validate() {
        invalid(&e);
    }
    if count == Some(0) {
        invalid("--count must be at least 1");
    }
    if numa == NumaPlacement::Remote && setup.preset.numa_nodes < 2 {
        invalid(&format!(
            "{} is a single-socket system; --numa remote needs a 2-way host (nfp6000-bdw, nfp6000-ib)",
            setup.preset.name
        ));
    }
    if path == DmaPath::CommandIf {
        match setup.device.cmdif {
            None => invalid(&format!(
                "{} has no command interface; use --path dma",
                setup.device.name
            )),
            Some(c) if size > c.max_size => invalid(&format!(
                "the command interface moves at most {}B per transfer, not {size}B",
                c.max_size
            )),
            Some(_) => {}
        }
    }

    println!(
        "# {} on {} ({}), transfer {}B window {}B offset {} {:?} {:?} {:?} iommu={:?}",
        bench,
        setup.preset.name,
        setup.device.name,
        size,
        window,
        offset,
        pattern,
        cache,
        numa,
        iommu
    );
    match bench.as_str() {
        "LAT_RD" | "LAT_WRRD" => {
            let op = if bench == "LAT_RD" {
                LatOp::Rd
            } else {
                LatOp::WrRd
            };
            let r = run_latency(&setup, &params, op, count.unwrap_or(2_000), path);
            let s = &r.summary;
            println!(
                "{}: n={} median={:.0}ns avg={:.0}ns min={:.0}ns p95={:.0}ns p99={:.0}ns p99.9={:.0}ns max={:.0}ns",
                op.name(), s.count, s.median, s.avg, s.min, s.p95, s.p99, s.p999, s.max
            );
            if let Some(snap) = &r.telemetry {
                pcie_bench_harness::print_stage_breakdown(snap);
                pcie_bench_harness::print_fault_summary(snap);
            }
            if let Some(dir) = out {
                let stem = format!("{}_{}B", op.name().to_ascii_lowercase(), size);
                pciebench::export::write_latency_result(std::path::Path::new(&dir), &stem, &r, 400)
                    .expect("export failed");
                println!("# raw data in {dir}/{stem}.{{journal,cdf,hist,timeseries}}");
                if let Some(snap) = &r.telemetry {
                    pcie_bench_harness::export_snapshot(std::path::Path::new(&dir), &stem, snap);
                }
            }
        }
        "BW_RD" | "BW_WR" | "BW_RDWR" => {
            let op = match bench.as_str() {
                "BW_RD" => BwOp::Rd,
                "BW_WR" => BwOp::Wr,
                _ => BwOp::RdWr,
            };
            let r = run_bandwidth(&setup, &params, op, count.unwrap_or(20_000), path);
            println!(
                "{}: n={} bandwidth={:.2}Gb/s rate={:.2}Mtps elapsed={} dll_overhead=up {:.1}% / down {:.1}%",
                op.name(),
                r.transactions,
                r.gbps,
                r.mtps,
                r.elapsed,
                r.dll_overhead.0 * 100.0,
                r.dll_overhead.1 * 100.0
            );
            if let Some(snap) = &r.telemetry {
                pcie_bench_harness::print_stage_breakdown(snap);
                pcie_bench_harness::print_fault_summary(snap);
                if let Some(dir) = out {
                    let stem = format!("{}_{}B", op.name().to_ascii_lowercase(), size);
                    pcie_bench_harness::export_snapshot(std::path::Path::new(&dir), &stem, snap);
                }
            }
        }
        _ => usage(),
    }
}
