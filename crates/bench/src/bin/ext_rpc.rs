//! Extension — end-to-end RPC serving over the switch fabric
//! (EXPERIMENTS.md X14): host-bypass vs host-bounce.
//!
//! Sweeps open-loop offered load from well under to 2× the aggregate
//! accelerator capacity of a multi-queue RPC front-end: Toeplitz RSS
//! steers RPCs onto per-queue rings; each queue forwards its requests
//! device-to-device across a shared PCIe switch to an accelerator and
//! returns the responses the same way, on one of two datapaths:
//!
//! * **bypass** — direct P2P through the switch crossbar;
//! * **bounce** — ACS redirect through the root complex, with the
//!   IOMMU TLB in the path of every peer TLP.
//!
//! Per load point and datapath the sweep reports sustained Mrps, drop
//! rate, p50/p99/p999 end-to-end latency and the fabric counters that
//! explain the gap (redirects, IO-TLB misses, uplink bytes).
//!
//! Invariants checked in commentary:
//! * exact accounting per point (`offered == completed + dropped`);
//! * bypass beats bounce at every load point (completions and p99);
//! * bypass never touches the uplink or the IOMMU; bounce never uses
//!   the crossbar;
//! * p99/p999 grow monotonically with offered load on each datapath,
//!   with a clean throughput knee at the binding capacity;
//! * the six `rpc.stages` telescope exactly to end-to-end (asserted
//!   inside every queue run);
//! * `threads:1` and `threads:4` pool runs are bit-identical
//!   (fingerprint pin).
//!
//! Usage: `cargo run --release --bin ext_rpc [-- --quick]
//!         [-- --path bypass|bounce|both]`
//! Env: `PCIE_BENCH_RPC_PATH` selects the datapath when `--path` is
//! absent; `PCIE_BENCH_QUEUES` overrides the RSS queue count (default
//! 4; 1–128); `PCIE_BENCH_N` scales RPC counts, down to four
//! ring-fulls per queue; `PCIE_BENCH_THREADS` sizes the worker pool.
//! An unparsable or out-of-range value exits 2.

use pcie_bench_harness::{env_or, exit_usage, header, n_at_least};
use pcie_par::Pool;
use pcie_rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile, RpcRunReport, RunTotals};
use pcie_telemetry::{RpcStage, StageSet};

/// Offered load points as fractions of aggregate accelerator capacity.
const SWEEP: &[f64] = &[0.4, 0.8, 1.2, 1.6, 2.0];
const SWEEP_QUICK: &[f64] = &[0.5, 1.2, 2.0];

/// The datapaths to run: `--path bypass|bounce|both` on the command
/// line, else `PCIE_BENCH_RPC_PATH`, else both (the headline is the
/// gap between them). An unknown name exits 2.
fn selected_paths() -> Vec<Datapath> {
    let mut sel = std::env::var("PCIE_BENCH_RPC_PATH").ok();
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--path" {
            sel = args.get(i + 1).cloned();
        } else if let Some(v) = a.strip_prefix("--path=") {
            sel = Some(v.to_string());
        }
    }
    match sel.as_deref() {
        None => vec![Datapath::HostBypass, Datapath::HostBounce],
        Some(s) if s.eq_ignore_ascii_case("both") => {
            vec![Datapath::HostBypass, Datapath::HostBounce]
        }
        Some(s) => match Datapath::parse(s) {
            Ok(d) => vec![d],
            Err(_) => exit_usage(format_args!(
                "unknown --path / PCIE_BENCH_RPC_PATH '{s}'; \
                 expected bypass, bounce or both"
            )),
        },
    }
}

fn engine(queues: u32, datapath: Datapath, rps: f64, rpcs: u64) -> RpcEngine {
    let cfg = RpcEngineConfig {
        queues,
        datapath,
        ..RpcEngineConfig::default()
    };
    RpcEngine::new(cfg, RpcProfile::standard(rps, rpcs))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let queues = env_or::<u32>("PCIE_BENCH_QUEUES", 4);
    let sweep = if quick { SWEEP_QUICK } else { SWEEP };
    let paths = selected_paths();
    let pool = Pool::from_env();
    let base = RpcEngineConfig {
        queues,
        ..RpcEngineConfig::default()
    };
    if let Err(e) = base.validate() {
        exit_usage(format_args!("invalid PCIE_BENCH_QUEUES={queues}: {e}"));
    }
    // Past saturation a queue drops nothing until its ring holds
    // `ring` RPCs more than it has served: over n RPCs a queue at load
    // ρ drops about (ρ − 1)/ρ − ring/n of them, and its tail reaches
    // the ring-bound plateau only once the ring has filled. Four
    // ring-fulls per queue lift the lowest point past 1.5× (1.6×, or
    // 2× with --quick) to about 12.5 % drops, over the asserted 10 %,
    // and leave three ring-fulls on the plateau for the tail checks.
    let ring = base.nic.ring as usize;
    let rpcs = n_at_least(
        if quick { 24_000 } else { 200_000 },
        4 * ring * queues as usize,
        "RPCs",
        format_args!("4 ring-fulls of {ring} for each of {queues} queues"),
    ) as u64;
    let capacity_rps = base.capacity_rps();
    if let Err(e) = RpcProfile::standard(sweep[0] * capacity_rps, rpcs).validate() {
        exit_usage(format_args!("invalid RPC profile: {e}"));
    }

    header(&format!(
        "Extension — RPC serving over the switch fabric: {} across {queues} \
         queues (accelerator capacity ≈ {:.0} Mrps aggregate)",
        paths
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(" vs "),
        capacity_rps / 1e6,
    ));
    println!(
        "# {:>6} {:>7} {:>9} {:>9} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "load%",
        "path",
        "offer_mrp",
        "compl_mrp",
        "drop%",
        "p50_ns",
        "p99_ns",
        "p999_ns",
        "redirects",
        "iotlb_miss"
    );

    let mut reports: Vec<(f64, Datapath, RpcRunReport)> = Vec::new();
    for &frac in sweep {
        for &path in &paths {
            let r = engine(queues, path, frac * capacity_rps, rpcs).run(&pool);
            println!(
                "# {:>6.0} {:>7} {:>9.2} {:>9.2} {:>8.2} {:>9.0} {:>9.0} {:>9.0} {:>10} {:>10}",
                frac * 100.0,
                path.name(),
                r.offered_mps(),
                r.served_mps(),
                r.drop_rate() * 100.0,
                r.p50_ns(),
                r.p99_ns(),
                r.p999_ns(),
                r.p2p_redirects(),
                r.iommu_misses(),
            );
            reports.push((frac, path, r));
        }
    }

    // Exact accounting and tail ordering per point; datapath-specific
    // fabric invariants.
    for (frac, path, r) in &reports {
        assert_eq!(
            r.offered(),
            r.completed() + r.dropped(),
            "load {frac} {}: RPC accounting must be exact",
            path.name()
        );
        assert_eq!(r.offered(), rpcs, "load {frac}: all RPCs offered");
        assert!(
            r.p50_ns() <= r.p99_ns() && r.p99_ns() <= r.p999_ns(),
            "load {frac} {}: quantiles must be ordered",
            path.name()
        );
        match path {
            Datapath::HostBypass => {
                assert_eq!(r.p2p_redirects(), 0, "bypass must not bounce");
                assert_eq!(r.uplink_up_bytes(), 0, "bypass must not touch the uplink");
                assert_eq!(r.iommu_misses(), 0, "bypass must not translate");
            }
            Datapath::HostBounce => {
                assert!(r.p2p_redirects() > 0, "bounce must redirect");
                assert!(r.uplink_up_bytes() > 0, "bounce must climb the uplink");
                assert_eq!(r.p2p_in_bytes(), 0, "bounce must not use the crossbar");
            }
        }
    }
    println!("# accounting exact; fabric counters match the datapath at every point: true");

    // The headline: bypass beats bounce at every load point.
    if paths.len() == 2 {
        for &frac in sweep {
            let find = |p: Datapath| {
                &reports
                    .iter()
                    .find(|(f, d, _)| *f == frac && *d == p)
                    .unwrap()
                    .2
            };
            let by = find(Datapath::HostBypass);
            let bo = find(Datapath::HostBounce);
            assert!(
                by.completed() >= bo.completed(),
                "load {frac}: bypass must complete at least as many RPCs"
            );
            assert!(
                by.p99_ns() < bo.p99_ns(),
                "load {frac}: bypass p99 {} must beat bounce {}",
                by.p99_ns(),
                bo.p99_ns()
            );
        }
        println!("# bypass ≥ completions and < p99 vs bounce at every load point: true");
    }

    // Tails and drops grow monotonically with load on each datapath;
    // the knee sits at the binding capacity (the accelerator for
    // bypass, the IOMMU page walker for bounce — earlier).
    for &path in &paths {
        let series: Vec<&RpcRunReport> = reports
            .iter()
            .filter(|(_, d, _)| *d == path)
            .map(|(_, _, r)| r)
            .collect();
        for w in series.windows(2) {
            // Past the knee the tail sits on the ring-bound plateau;
            // quantiles are bucketed at 50 ns, so monotonicity is
            // asserted up to one bucket of slack.
            let slack = 50.0;
            assert!(
                w[1].p99_ns() + slack >= w[0].p99_ns() && w[1].p999_ns() + slack >= w[0].p999_ns(),
                "{}: tail latency must be monotone in offered load",
                path.name()
            );
            assert!(
                w[1].drop_rate() >= w[0].drop_rate(),
                "{}: drop rate must be monotone in offered load",
                path.name()
            );
        }
    }
    for (frac, path, r) in &reports {
        if *path == Datapath::HostBypass && *frac <= 0.8 {
            assert!(
                r.drop_rate() < 0.01,
                "load {frac} bypass: sub-capacity should barely drop, got {:.4}",
                r.drop_rate()
            );
        }
        if *frac >= 1.5 {
            assert!(
                r.drop_rate() > 0.1,
                "load {frac} {}: past saturation must drop hard, got {:.4}",
                path.name(),
                r.drop_rate()
            );
        }
    }
    println!("# p99/p999 and drops monotone; knee at the binding capacity: true");

    // Stage breakdown at the mid-load point: where the bounce tax
    // lands (fabric_req/fabric_resp, not accel_service).
    let mid = sweep[sweep.len() / 2];
    for &path in &paths {
        let r = &reports
            .iter()
            .find(|(f, d, _)| *f == mid && *d == path)
            .unwrap()
            .2;
        let means: Vec<String> = RpcStage::ALL
            .iter()
            .map(|&s| format!("{}={:.0}ns", s.name(), r.stages.mean_ns(s)))
            .collect();
        println!(
            "# stages @{:.0}% {}: {} (e2e mean {:.0}ns over {} RPCs)",
            mid * 100.0,
            path.name(),
            means.join(" "),
            r.stages.grand_total_ns() / r.stages.count().max(1) as f64,
            r.stages.count(),
        );
    }

    // Pool-width pin: the mid-load point, sequential vs 4 workers.
    for &path in &paths {
        let pin = engine(queues, path, mid * capacity_rps, (rpcs / 2).max(1_000));
        let seq = pin.run(&Pool::sequential());
        let par = pin.run(&Pool::with_threads(4));
        assert_eq!(
            seq.fingerprint(),
            par.fingerprint(),
            "{}: threads:1 and threads:4 must be bit-identical",
            path.name()
        );
        println!(
            "# determinism {}: threads:1 vs threads:4 fingerprints equal ({:#018x}): true",
            path.name(),
            seq.fingerprint()
        );
    }
}
