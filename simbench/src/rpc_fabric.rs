//! `rpc_fabric`: `RpcEngine` with 4 queues on both datapaths, at 0.4×
//! the aggregate accelerator capacity (below both knees) and at 1.6×
//! (past both).
//!
//! It is the only workload that crosses the switch and the IOMMU on
//! the serving path, and the only user of `DevicePipeline`. Bypass and
//! bounce drive the same engine two ways (crossbar, or uplink with
//! IO-TLB misses), so a change that speeds one path and slows the
//! other shows. One op is one offered RPC.

use crate::trace;
use crate::workload::{add, get, ratio, Counts, Metric, Outcome, Pass, Run, Traced};
use pcie_par::Pool;
use pcie_rpc::engine::build_platform;
use pcie_rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile, RpcRunReport};

/// The spans this workload records in a full repetition (the one-op
/// pass adds `rpc.build_platform`).
pub const SPANS: &[&str] = &["rpc_fabric.config", "rpc.engine_new", "rpc.run"];

/// RPCs offered per configuration.
const RPCS: u64 = 250_000;
/// Offered load as a share of aggregate accelerator capacity.
const LOADS: [f64; 2] = [0.4, 1.6];
const DATAPATHS: [Datapath; 2] = [Datapath::HostBypass, Datapath::HostBounce];

/// The configurations, in run order.
fn configs() -> Vec<(Datapath, f64)> {
    DATAPATHS
        .iter()
        .flat_map(|&d| LOADS.map(|l| (d, l)))
        .collect()
}

/// Runs both datapaths at both loads.
///
/// `RpcEngine::run` builds its queues' platforms internally; the
/// traced one-op pass also calls `build_platform` itself, under its
/// own span, to time that set-up step.
pub fn run(run: Run, out: &mut Vec<Outcome>, mut counts: Option<&mut Counts>) {
    let rpcs = if run.pass == Pass::OneOp { 1 } else { RPCS };
    let time_builds = run.pass == Pass::OneOp && trace::active();
    let pool = Pool::sequential();
    for (i, (datapath, load)) in configs().into_iter().enumerate() {
        let outcome = trace::config(i, "rpc_fabric.config", || {
            let mut cfg = RpcEngineConfig {
                datapath,
                ..RpcEngineConfig::default()
            };
            if let Some(seed) = run.seed {
                cfg.seed = seed;
            }
            if time_builds {
                for q in 0..cfg.queues {
                    trace::span("rpc.build_platform", || drop(build_platform(&cfg, q)));
                }
            }
            let profile = RpcProfile::standard(load * cfg.capacity_rps(), rpcs);
            let engine = trace::span("rpc.engine_new", || RpcEngine::new(cfg, profile));
            let r = trace::span("rpc.run", || engine.run(&pool));
            if let Some(c) = counts.as_deref_mut() {
                tally(&r, c);
            }
            Outcome {
                ops: rpcs,
                digest: r.fingerprint(),
                check: check(&r, rpcs),
            }
        });
        out.push(outcome);
    }
}

fn tally(r: &RpcRunReport, c: &mut Counts) {
    let path = r.datapath.name();
    add(c, format!("rpc.{path}.offered"), r.offered() as f64);
    add(c, format!("rpc.{path}.dropped"), r.dropped() as f64);
    add(
        c,
        format!("rpc.{path}.iommu_misses"),
        r.iommu_misses() as f64,
    );
    add(c, format!("rpc.{path}.redirects"), r.p2p_redirects() as f64);
    let stalls: u64 = (r.queues.iter())
        .flat_map(|q| q.ports.iter())
        .map(|p| p.credit_stalls)
        .sum();
    add(c, "topo.credit_stalls", stalls as f64);
}

/// Every offered RPC completes or is dropped, steering placed each on
/// one queue, and each datapath stays on its own side of the fabric:
/// bypass never reaches the root complex, bounce never the crossbar.
fn check(r: &RpcRunReport, rpcs: u64) -> Result<(), String> {
    let (offered, completed, dropped) = (r.offered(), r.completed(), r.dropped());
    if offered != rpcs || completed + dropped != offered {
        return Err(format!(
            "offered {offered} of {rpcs}, completed {completed} + dropped {dropped}"
        ));
    }
    if r.rpcs_per_queue.iter().sum::<u64>() != rpcs || r.stages.end_to_end().count() != completed {
        return Err("steering or latency accounting does not add up".into());
    }
    let crossed = match r.datapath {
        Datapath::HostBypass => r.p2p_redirects() + r.iommu_misses() + r.uplink_up_bytes(),
        Datapath::HostBounce => r.p2p_in_bytes(),
    };
    if crossed != 0 {
        return Err(format!(
            "{} traffic crossed the other datapath",
            r.datapath.name()
        ));
    }
    Ok(())
}

/// Host cost per RPC by datapath, the platform build, and the
/// modelled drop, IOMMU, redirect and credit-stall counters.
pub fn layer_metrics(t: &Traced) -> Vec<Metric> {
    let configs = configs();
    let c = t.counts;
    let mut m = Vec::new();
    for d in DATAPATHS {
        let p = d.name();
        m.push(Metric::new(
            format!("rpc.{p}.host_ns_per_rpc"),
            t.ns_per_op("rpc.run", false, |i| {
                configs.get(i).is_some_and(|x| x.0 == d)
            }),
            "ns",
        ));
        m.push(Metric::new(
            format!("rpc.{p}.drop_ratio"),
            ratio(
                get(c, &format!("rpc.{p}.dropped")),
                get(c, &format!("rpc.{p}.offered")),
            ),
            "ratio",
        ));
    }
    let bounce = get(c, "rpc.bounce.offered");
    m.push(Metric::new(
        "rpc.build_platform.host_ns",
        t.setup_mean_ns("rpc.build_platform"),
        "ns",
    ));
    m.push(Metric::new(
        "rpc.bounce.iommu_misses_per_rpc",
        ratio(get(c, "rpc.bounce.iommu_misses"), bounce),
        "count",
    ));
    m.push(Metric::new(
        "rpc.bounce.redirects_per_rpc",
        ratio(get(c, "rpc.bounce.redirects"), bounce),
        "count",
    ));
    let all = get(c, "rpc.bypass.offered") + bounce;
    m.push(Metric::new(
        "topo.credit_stalls_per_rpc",
        ratio(get(c, "topo.credit_stalls"), all),
        "count",
    ));
    m
}
