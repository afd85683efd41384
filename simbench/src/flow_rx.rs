//! `flow_rx`: `FlowEngine` with 1.25 M concurrent flows over 8 RSS
//! queues, bounded-Pareto flow lengths and IMIX packet sizes, with
//! `ext_flows`' per-queue service model, at 0.8× and 1.6× the
//! aggregate service capacity.
//!
//! Its working set, a 1.25 M-slot flow table, is far larger than the
//! CPU caches, so memory-layout changes show here and nowhere else;
//! it has the largest set-up (the table ramp) and the highest peak
//! RSS, and it is the only workload that runs `QueueSim`'s ring-full
//! drop path. One op is one offered packet.

use crate::trace;
use crate::workload::{add, get, ratio, Counts, Metric, Outcome, Pass, Run, Traced};
use pcie_flows::{FlowEngine, FlowEngineConfig, FlowRunReport, ServiceModel, TrafficProfile};
use pcie_par::Pool;
use pcie_sim::SimTime;
use pciebench::BenchSetup;

/// The spans this workload records.
pub const SPANS: &[&str] = &[
    "flow_rx.config",
    "flows.engine_new",
    "flows.run",
    "flows.build",
];

/// Packets offered per configuration.
const PACKETS: u64 = 1_000_000;
const FLOWS: u32 = 1_250_000;
const QUEUES: u32 = 8;
/// Offered load as a share of aggregate service capacity.
const LOADS: [f64; 2] = [0.8, 1.6];

/// `ext_flows`' service model: about 2 Mpps per queue core, and a
/// 256-slot ring so overload drops instead of queueing without bound.
fn service() -> ServiceModel {
    ServiceModel {
        rx_sw: SimTime::from_ns(400),
        app: SimTime::from_ns(100),
        ring_size: 256,
        ..ServiceModel::default()
    }
}

/// Runs both load points.
pub fn run(run: Run, out: &mut Vec<Outcome>, mut counts: Option<&mut Counts>) {
    let setup = match run.seed {
        Some(seed) => BenchSetup::nfp6000_hsw().with_seed(seed),
        None => BenchSetup::nfp6000_hsw(),
    };
    let mut cfg = FlowEngineConfig {
        queues: QUEUES,
        service: service(),
        ..FlowEngineConfig::default()
    };
    if let Some(seed) = run.seed {
        cfg.seed = seed;
    }
    let packets = if run.pass == Pass::OneOp { 1 } else { PACKETS };
    let capacity = service().capacity_pps() * f64::from(QUEUES);
    let pool = Pool::sequential();
    for (i, load) in LOADS.into_iter().enumerate() {
        let outcome = trace::config(i, "flow_rx.config", || {
            let mut profile = TrafficProfile::million_flow(load * capacity, packets);
            profile.flows = FLOWS;
            let engine = trace::span("flows.engine_new", || FlowEngine::new(cfg.clone(), profile));
            let r = trace::span("flows.run", || {
                engine.run(&pool, |_q| {
                    trace::span("flows.build", || setup.build_nic_platform())
                })
            });
            if let Some(c) = counts.as_deref_mut() {
                tally(&r, c);
            }
            Outcome {
                ops: packets,
                digest: r.fingerprint(),
                check: check(&r, packets),
            }
        });
        out.push(outcome);
    }
}

fn tally(r: &FlowRunReport, c: &mut Counts) {
    for q in &r.queues {
        add(c, "flows.polls", q.counters.polls as f64);
        add(c, "flows.empty_polls", q.counters.empty_polls as f64);
    }
    add(c, "flows.offered", r.offered() as f64);
    add(c, "flows.dropped", r.dropped() as f64);
    let imbalance = r
        .snapshot("flow_rx")
        .group("flows.rss")
        .and_then(|g| g.get("imbalance_permille"))
        .unwrap_or(0);
    add(c, "flows.rss.imbalance_permille", imbalance as f64);
    add(c, "flows.runs", 1.0);
}

/// Every offered packet is delivered or dropped, every packet was
/// attributed to a flow, concurrency held at its target, and each
/// steered flow landed on exactly one queue.
fn check(r: &FlowRunReport, packets: u64) -> Result<(), String> {
    let (offered, delivered, dropped) = (r.offered(), r.delivered(), r.dropped());
    if offered != packets || delivered + dropped != offered {
        return Err(format!(
            "offered {offered} of {packets}, delivered {delivered} + dropped {dropped}"
        ));
    }
    if r.table.packets != packets || r.e2e.count() != delivered {
        return Err(format!(
            "table saw {} packets, histogram {} deliveries",
            r.table.packets,
            r.e2e.count()
        ));
    }
    if r.active_end != FLOWS || r.flows_per_queue.iter().sum::<u64>() != r.table.inserts {
        return Err(format!(
            "{} flows live at the end, {} inserts",
            r.active_end, r.table.inserts
        ));
    }
    Ok(())
}

/// The engine's own host cost (its platform builds excluded), the
/// table ramp, and the modelled poll, drop and steering counters.
pub fn layer_metrics(t: &Traced) -> Vec<Metric> {
    let c = t.counts;
    let ramp = t.setup.totals("flows.run", |_| true);
    let (polls, empty) = (get(c, "flows.polls"), get(c, "flows.empty_polls"));
    vec![
        Metric::new(
            "flows.engine.host_ns_per_pkt",
            t.ns_per_op("flows.run", true, |_| true),
            "ns",
        ),
        Metric::new(
            "flows.ramp.host_ns",
            ratio(ramp.self_ns as f64, ramp.count as f64),
            "ns",
        ),
        Metric::new(
            "flows.useful_poll_ratio",
            1.0 - ratio(empty, polls + empty),
            "ratio",
        ),
        Metric::new(
            "flows.drop_ratio",
            ratio(get(c, "flows.dropped"), get(c, "flows.offered")),
            "ratio",
        ),
        Metric::new(
            "flows.rss.imbalance_permille",
            ratio(get(c, "flows.rss.imbalance_permille"), get(c, "flows.runs")),
            "permille",
        ),
    ]
}
