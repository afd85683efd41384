//! Extension — million-flow traffic engine with multi-queue RSS
//! (EXPERIMENTS.md X12).
//!
//! Sweeps open-loop offered load from well under to 2× the aggregate
//! service capacity of a multi-queue NIC front-end: Toeplitz RSS
//! steers a heavy-tailed population of concurrent flows onto N
//! per-queue descriptor rings, each queue an independent timed
//! simulation over its own platform, fanned across the `pcie-par`
//! pool. Per offered-load point the sweep reports sustained Mpps,
//! drop rate, per-queue fairness (min/max share of offered packets)
//! and whole-run p50/p99/p999 ingest latency — the SLO-vs-load curve
//! under oversubscription.
//!
//! Invariants checked in commentary:
//! * exact accounting per point (`offered == delivered + dropped`);
//! * RSS fairness: every queue's share of offered packets within
//!   [0.5, 2]× the fair share, at every load point;
//! * open-loop drops are monotone in offered load and substantial
//!   past saturation, while sub-capacity points barely drop;
//! * tail ordering `p50 ≤ p99 ≤ p999` per point;
//! * `threads:1` and `threads:4` pool runs are bit-identical
//!   (fingerprint pin).
//!
//! Usage: `cargo run --release --bin ext_flows [-- --quick]`
//! Env: `PCIE_BENCH_FLOWS` overrides the concurrent-flow target
//! (default 1,250,000, at least 1,000,000; quick 50,000, at least 1);
//! `PCIE_BENCH_QUEUES` overrides the RSS queue count (default 8, 4–128;
//! quick 4, 1–128); `PCIE_BENCH_N` scales packet counts, down to four
//! ring-fulls per queue; `PCIE_BENCH_THREADS` sizes the worker pool. An
//! unparsable or out-of-range value exits 2 before the sweep starts.

use pcie_bench_harness::{env_or, exit_usage, header, n_at_least};
use pcie_flows::{
    ArrivalProcess, FlowEngine, FlowEngineConfig, FlowLength, FlowRunReport, RunTotals,
    ServiceModel, TrafficProfile,
};
use pcie_nic::traffic::Workload;
use pcie_par::Pool;
use pcie_sim::SimTime;
use pciebench::BenchSetup;

/// Full mode is the million-flow, multi-queue headline configuration:
/// it needs at least this many concurrent flows and RSS queues, and a
/// smaller run takes `--quick`.
const FULL_MIN_FLOWS: u32 = 1_000_000;
const FULL_MIN_QUEUES: u32 = 4;

/// Offered load points as fractions of aggregate service capacity.
const SWEEP: &[f64] = &[0.4, 0.8, 1.2, 1.6, 2.0];
const SWEEP_QUICK: &[f64] = &[0.5, 1.2, 2.0];

/// The bench's per-queue service model: ~2 Mpps per queue core so
/// oversubscription is reachable with modest packet counts, and a
/// 256-slot ring so the worst-case queueing delay stays inside the
/// stage histogram's range.
fn service() -> ServiceModel {
    ServiceModel {
        rx_sw: SimTime::from_ns(400),
        app: SimTime::from_ns(100),
        ring_size: 256,
        ..ServiceModel::default()
    }
}

fn config(queues: u32) -> FlowEngineConfig {
    FlowEngineConfig {
        queues,
        service: service(),
        ..FlowEngineConfig::default()
    }
}

fn profile(flows: u32, pps: f64, packets: u64) -> TrafficProfile {
    TrafficProfile {
        flows,
        packets,
        arrival: ArrivalProcess::Poisson { pps },
        flow_length: FlowLength::BoundedPareto {
            min: 1,
            max: 10_000,
            alpha: 1.2,
        },
        sizes: Workload::Imix,
    }
}

fn engine(flows: u32, queues: u32, pps: f64, packets: u64) -> FlowEngine {
    FlowEngine::new(config(queues), profile(flows, pps, packets))
}

fn run(e: &FlowEngine, pool: &Pool) -> FlowRunReport {
    e.run(pool, |_q| BenchSetup::nfp6000_hsw().build_nic_platform())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let queues = env_or::<u32>("PCIE_BENCH_QUEUES", if quick { 4 } else { 8 });
    let flows = env_or::<u32>("PCIE_BENCH_FLOWS", if quick { 50_000 } else { 1_250_000 });
    let sweep = if quick { SWEEP_QUICK } else { SWEEP };
    let pool = Pool::from_env();
    if let Err(e) = config(queues).validate() {
        exit_usage(format_args!("invalid PCIE_BENCH_QUEUES={queues}: {e}"));
    }
    if !quick && queues < FULL_MIN_QUEUES {
        exit_usage(format_args!(
            "PCIE_BENCH_QUEUES={queues}: full mode fans out to at least \
             {FULL_MIN_QUEUES} RSS queues (fewer need --quick)"
        ));
    }
    if !quick && flows < FULL_MIN_FLOWS {
        exit_usage(format_args!(
            "PCIE_BENCH_FLOWS={flows}: full mode runs at least {FULL_MIN_FLOWS} \
             concurrent flows (fewer need --quick)"
        ));
    }
    // Past saturation a queue drops nothing until its ring holds
    // `ring` packets more than it has served: over n packets a queue
    // at load ρ drops about (ρ − 1)/ρ − ring/n of them. Four ring-fulls
    // per queue lift the lowest point past 1.5× (1.6×, or 2× with
    // --quick) to about 12.5 % drops, over the asserted 10 %, and give
    // every queue enough packets for the fairness bounds.
    let ring = service().ring_size as usize;
    let packets = n_at_least(
        if quick { 24_000 } else { 200_000 },
        4 * ring * queues as usize,
        "packets",
        format_args!("4 ring-fulls of {ring} for each of {queues} queues"),
    ) as u64;
    let capacity_mpps = service().capacity_pps() * f64::from(queues) / 1e6;
    if let Err(e) = profile(flows, sweep[0] * capacity_mpps * 1e6, packets).validate() {
        exit_usage(format_args!("invalid PCIE_BENCH_FLOWS={flows}: {e}"));
    }

    header(&format!(
        "Extension — {flows} concurrent flows over {queues} RSS queues \
         (aggregate capacity ≈ {capacity_mpps:.1} Mpps, NFP6000-HSW)"
    ));
    println!(
        "# {:>6} {:>9} {:>9} {:>8} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "load%",
        "offer_mpp",
        "deliv_mpp",
        "drop%",
        "p50_ns",
        "p99_ns",
        "p999_ns",
        "min_sh",
        "max_sh"
    );

    let mut reports: Vec<(f64, FlowRunReport)> = Vec::new();
    for &frac in sweep {
        let pps = frac * capacity_mpps * 1e6;
        let r = run(&engine(flows, queues, pps, packets), &pool);
        let (min_share, max_share) = r.share_range();
        println!(
            "# {:>6.0} {:>9.2} {:>9.2} {:>8.2} {:>9.0} {:>9.0} {:>9.0} {:>7.3} {:>7.3}",
            frac * 100.0,
            r.offered_mps(),
            r.served_mps(),
            r.drop_rate() * 100.0,
            r.p50_ns(),
            r.p99_ns(),
            r.p999_ns(),
            min_share,
            max_share,
        );
        reports.push((frac, r));
    }

    // Exact accounting, fairness bounds and tail ordering per point.
    let fair = 1.0 / f64::from(queues);
    for (frac, r) in &reports {
        assert_eq!(
            r.offered(),
            r.delivered() + r.dropped(),
            "load {frac}: packet accounting must be exact"
        );
        assert_eq!(r.offered(), packets, "load {frac}: all packets offered");
        let (min_share, max_share) = r.share_range();
        assert!(
            min_share >= 0.5 * fair && max_share <= 2.0 * fair,
            "load {frac}: RSS fairness out of bounds [{min_share:.4}, {max_share:.4}] vs fair {fair:.4}"
        );
        assert!(
            r.p50_ns() <= r.p99_ns() && r.p99_ns() <= r.p999_ns(),
            "load {frac}: quantiles must be ordered"
        );
        assert_eq!(
            r.active_end, flows,
            "load {frac}: concurrency held at target"
        );
    }
    println!("# accounting exact, fairness within [0.5x, 2x] fair share at every point: true");

    // Drops: negligible under capacity, monotone in load, substantial
    // past saturation.
    for pair in reports.windows(2) {
        let (fa, ra) = &pair[0];
        let (fb, rb) = &pair[1];
        assert!(
            rb.drop_rate() >= ra.drop_rate(),
            "drop rate must be monotone in offered load ({fa}: {:.4} vs {fb}: {:.4})",
            ra.drop_rate(),
            rb.drop_rate()
        );
    }
    for (frac, r) in &reports {
        if *frac <= 0.8 {
            assert!(
                r.drop_rate() < 0.01,
                "load {frac}: sub-capacity should barely drop, got {:.4}",
                r.drop_rate()
            );
        }
        if *frac >= 1.5 {
            assert!(
                r.drop_rate() > 0.1,
                "load {frac}: past saturation must drop hard, got {:.4}",
                r.drop_rate()
            );
        }
    }
    println!("# drop rate monotone in offered load; knee at the service capacity: true");

    // Occupancy and steering telemetry at the saturated end.
    let (_, sat) = reports.last().unwrap();
    let snap = sat.snapshot("ext_flows saturated point");
    let table = snap.group("flows.table").unwrap();
    let rss = snap.group("flows.rss").unwrap();
    println!(
        "# flow table: capacity {} peak {} inserts {} completions {} (occupancy held: {})",
        table.get("capacity").unwrap(),
        table.get("peak_active").unwrap(),
        table.get("inserts").unwrap(),
        table.get("completions").unwrap(),
        table.get("active_end").unwrap(),
    );
    println!(
        "# rss: {} queues, flows/queue [{}, {}], packets/queue [{}, {}], imbalance {}‰",
        rss.get("queues").unwrap(),
        rss.get("flows_min_queue").unwrap(),
        rss.get("flows_max_queue").unwrap(),
        rss.get("packets_min_queue").unwrap(),
        rss.get("packets_max_queue").unwrap(),
        rss.get("imbalance_permille").unwrap(),
    );
    // Pool-width pin: the mid-load point, sequential vs 4 workers.
    let mid = sweep[sweep.len() / 2] * capacity_mpps * 1e6;
    let pin_flows = flows.min(50_000);
    let pin = engine(pin_flows, queues, mid, (packets / 2).max(1_000));
    let seq = run(&pin, &Pool::sequential());
    let par = run(&pin, &Pool::with_threads(4));
    assert_eq!(
        seq.fingerprint(),
        par.fingerprint(),
        "threads:1 and threads:4 must be bit-identical"
    );
    println!(
        "# determinism: threads:1 vs threads:4 fingerprints equal ({:#018x}): true",
        seq.fingerprint()
    );
}
