//! Absolute output pins for the three serving engines.
//!
//! The other determinism tests compare two runs of the same build, so
//! a change that shifts simulated timing consistently still passes
//! them. These pins compare against values recorded once: each run
//! folds its report fields, the `f64` bits of every stage total and
//! its telemetry snapshot JSON into an FNV-1a digest. A refactor of a
//! serving engine must leave every digest unchanged.

mod common;

use common::Fnv;
use pcie_bench_repro::bench::BenchSetup;
use pcie_bench_repro::drivers::{DriverConfig, DriverSim, OfferedLoad, PATTERNS};
use pcie_bench_repro::flows::{FlowEngine, FlowEngineConfig, TrafficProfile};
use pcie_bench_repro::par::Pool;
use pcie_bench_repro::rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile};
use pcie_telemetry::{DriverStage, RpcStage, Snapshot};

const DRIVER_STAGES: [DriverStage; 6] = [
    DriverStage::RxDma,
    DriverStage::Notify,
    DriverStage::RxSoftware,
    DriverStage::App,
    DriverStage::TxPost,
    DriverStage::TxDma,
];

const RPC_STAGES: [RpcStage; 6] = [
    RpcStage::IngressDma,
    RpcStage::Steer,
    RpcStage::FabricReq,
    RpcStage::AccelService,
    RpcStage::FabricResp,
    RpcStage::EgressDma,
];

/// Every driver pattern, closed loop and 0.8 Gb/s open loop, 256 B,
/// 2 000 packets.
#[test]
fn driver_sim_outputs_are_pinned() {
    let pinned: [(&str, [u64; 2]); 4] = [
        ("kernel_irq", [0x7c6127f6a2b4fc1c, 0x7d7315421f468e1f]),
        ("dpdk_poll", [0x4131a8eef956c52c, 0x3fb97c5c38b42820]),
        ("af_xdp", [0xe31f692809aa2d2d, 0x5f0baeac19c187e7]),
        ("io_uring", [0x1e1a2967139f29b4, 0x3c81f003b67905e2]),
    ];
    let mut got = Vec::new();
    for (pattern, (name, _)) in PATTERNS.into_iter().zip(pinned) {
        assert_eq!(pattern.name(), name);
        let mut digests = [0u64; 2];
        for (i, load) in [OfferedLoad::Saturate, OfferedLoad::OpenLoopGbps(0.8)]
            .into_iter()
            .enumerate()
        {
            let cfg = DriverConfig::default().with_load(load);
            let platform = BenchSetup::nfp6000_hsw().build_nic_platform();
            let mut sim = DriverSim::new(pattern, cfg, platform);
            let r = sim.run(256, 2_000);
            let mut h = Fnv::new();
            h.bytes(r.pattern.name().as_bytes())
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
                .float(r.p99_ns);
            for stage in DRIVER_STAGES {
                h.float(sim.stages.total_ns(stage));
            }
            h.snapshot(&sim.snapshot(name));
            digests[i] = h.0;
        }
        got.push((name, digests));
    }
    assert_eq!(got, pinned, "DriverSim outputs moved");
}

/// A small flow-engine run: 4 queues, 2 000 flows, 6 000 packets at
/// about 1.5x the aggregate service capacity, so the ring-full drop
/// path runs too.
#[test]
fn flow_engine_outputs_are_pinned() {
    let cfg = FlowEngineConfig {
        queues: 4,
        ..FlowEngineConfig::default()
    };
    let pps = 1.5 * cfg.service.capacity_pps() * f64::from(cfg.queues);
    let mut profile = TrafficProfile::quick(pps);
    profile.flows = 2_000;
    profile.packets = 6_000;
    let r = FlowEngine::new(cfg, profile).run(&Pool::sequential(), |_| {
        BenchSetup::nfp6000_hsw().build_nic_platform()
    });
    assert!(r.dropped() > 0, "the pin must cover the drop path");
    let mut h = Fnv::new();
    h.word(r.fingerprint());
    for q in &r.queues {
        for stage in DRIVER_STAGES {
            h.float(q.stages.total_ns(stage));
        }
    }
    // The groups the snapshot exported when the pin was recorded;
    // any group added later is pinned by its own test.
    let full = r.snapshot("flows");
    let mut snap = Snapshot::new("flows");
    for g in full.groups() {
        if g.component.starts_with("flows.queue")
            || g.component == "flows.table"
            || g.component == "flows.rss"
        {
            snap.add_group(g.clone());
        }
    }
    assert_eq!(snap.groups().len(), 2 + r.queues.len());
    h.snapshot(&snap);
    assert_eq!(h.0, 0x1994010c5eff21e5, "FlowEngine outputs moved");
}

/// Both RPC datapaths, 3 queues, 3 000 RPCs at about 1.2x the
/// aggregate accelerator capacity.
#[test]
fn rpc_engine_outputs_are_pinned() {
    let pinned: [(&str, u64); 2] = [
        ("bypass", 0xa02cf2283cb4c87e),
        ("bounce", 0xeaa23883aa3df709),
    ];
    let mut got = Vec::new();
    for (datapath, (name, _)) in [Datapath::HostBypass, Datapath::HostBounce]
        .into_iter()
        .zip(pinned)
    {
        assert_eq!(datapath.name(), name);
        let cfg = RpcEngineConfig {
            queues: 3,
            datapath,
            ..RpcEngineConfig::default()
        };
        let rps = 1.2 * cfg.capacity_rps();
        let r = RpcEngine::new(cfg, RpcProfile::standard(rps, 3_000)).run(&Pool::sequential());
        let mut h = Fnv::new();
        h.word(r.fingerprint());
        for stage in RPC_STAGES {
            h.float(r.stages.total_ns(stage));
        }
        for q in &r.queues {
            for stage in RPC_STAGES {
                h.float(q.stages.total_ns(stage));
            }
        }
        h.snapshot(&r.snapshot(name));
        got.push((name, h.0));
    }
    assert_eq!(got, pinned, "RpcEngine outputs moved");
}
