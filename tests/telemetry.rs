//! Tier-1 telemetry integration tests: the cross-layer counters
//! exported by `pcie-telemetry` must reconcile with the paper's
//! analytical model (Eq. 1–3) and with the end-to-end measurements —
//! otherwise the observability story is decorative, not diagnostic.
//!
//! Geometry is kept aligned (offset 0, power-of-two transfer sizes,
//! sequential pattern) so the simulator's TLP splitting matches the
//! model's `ceil(sz/MPS)` / `ceil(sz/MRRS)` terms exactly.

use pcie_bench_repro::bench::{
    run_bandwidth, run_latency, BenchParams, BenchSetup, BwOp, CacheState, LatOp, Pattern,
};
use pcie_bench_repro::device::DmaPath;
use pcie_bench_repro::host::presets::NumaPlacement;
use pcie_bench_repro::model::bandwidth as model;

fn aligned_params(transfer: u32) -> BenchParams {
    BenchParams {
        window: 8192,
        transfer,
        offset: 0,
        pattern: Pattern::Sequential,
        cache: CacheState::HostWarm,
        placement: NumaPlacement::Local,
    }
}

#[test]
fn read_wire_counters_match_model_eq2_eq3() {
    // A DMA read costs Eq. 2 bytes upstream (MRd requests) and Eq. 3
    // bytes downstream (CplD completions). The link's wire counters,
    // surfaced through the telemetry snapshot, must agree exactly.
    let setup = BenchSetup::netfpga_hsw().with_telemetry();
    let link = setup.link;
    for transfer in [64u32, 256, 512] {
        let n = 200usize;
        let r = run_latency(
            &setup,
            &aligned_params(transfer),
            LatOp::Rd,
            n,
            DmaPath::DmaEngine,
        );
        let snap = r.telemetry.as_ref().expect("telemetry enabled");
        let up = snap.group("link.upstream").expect("upstream group");
        let down = snap.group("link.downstream").expect("downstream group");
        assert_eq!(
            up.get("tlp_bytes"),
            Some(n as u64 * model::dma_read_request_bytes(&link, transfer)),
            "Eq. 2 upstream bytes, transfer {transfer}"
        );
        assert_eq!(
            down.get("tlp_bytes"),
            Some(n as u64 * model::dma_read_completion_bytes(&link, transfer)),
            "Eq. 3 downstream bytes, transfer {transfer}"
        );
        // Completion payload is the data itself.
        assert_eq!(
            down.get("payload_bytes"),
            Some(n as u64 * transfer as u64),
            "downstream payload, transfer {transfer}"
        );
    }
}

#[test]
fn write_wire_counters_match_model_eq1() {
    // A DMA write costs Eq. 1 bytes upstream (MWr header per MPS chunk
    // plus the payload) and nothing downstream beyond DLLPs.
    let setup = BenchSetup::netfpga_hsw().with_telemetry();
    let link = setup.link;
    for transfer in [64u32, 256, 1024] {
        let n = 300usize;
        let r = run_bandwidth(
            &setup,
            &aligned_params(transfer),
            BwOp::Wr,
            n,
            DmaPath::DmaEngine,
        );
        let snap = r.telemetry.as_ref().expect("telemetry enabled");
        let up = snap.group("link.upstream").expect("upstream group");
        assert_eq!(
            up.get("tlp_bytes"),
            Some(n as u64 * model::dma_write_bytes(&link, transfer)),
            "Eq. 1 upstream bytes, transfer {transfer}"
        );
        assert_eq!(up.get("payload_bytes"), Some(n as u64 * transfer as u64));
        let down = snap.group("link.downstream").expect("downstream group");
        assert_eq!(down.get("tlp_bytes"), Some(0), "writes are posted");
    }
}

#[test]
fn wrrd_wire_counters_are_eq1_plus_eq2_up_and_eq3_down() {
    let setup = BenchSetup::netfpga_hsw().with_telemetry();
    let link = setup.link;
    let transfer = 256u32;
    let n = 150usize;
    let r = run_latency(
        &setup,
        &aligned_params(transfer),
        LatOp::WrRd,
        n,
        DmaPath::DmaEngine,
    );
    let snap = r.telemetry.as_ref().expect("telemetry enabled");
    let expected_up = n as u64
        * (model::dma_write_bytes(&link, transfer)
            + model::dma_read_request_bytes(&link, transfer));
    assert_eq!(
        snap.group("link.upstream").unwrap().get("tlp_bytes"),
        Some(expected_up)
    );
    assert_eq!(
        snap.group("link.downstream").unwrap().get("tlp_bytes"),
        Some(n as u64 * model::dma_read_completion_bytes(&link, transfer))
    );
}

#[test]
fn write_wire_counters_under_replay_are_eq1_plus_replayed_bytes() {
    // Eq. 1 under faults: every injected LCRC error forces the sender
    // to retransmit the TLP, so the upstream wire carries the fault-free
    // Eq. 1 budget *plus* one full TLP re-serialisation per replay —
    // and the receiver pays a NAK DLLP on the opposite direction. The
    // replay counters must close that ledger exactly.
    let setup = BenchSetup::netfpga_hsw().with_ber(2e-5).with_telemetry();
    let link = setup.link;
    let transfer = 256u32;
    let n = 2_000usize;
    let r = run_bandwidth(
        &setup,
        &aligned_params(transfer),
        BwOp::Wr,
        n,
        DmaPath::DmaEngine,
    );
    let snap = r.telemetry.as_ref().expect("telemetry enabled");
    let up = snap.group("link.upstream").expect("upstream group");
    let replay = snap
        .group("link.replay.upstream")
        .expect("replay group present under faults");
    let replay_bytes = replay.get("replay_bytes").expect("replay_bytes counter");
    let replays = replay.get("replays").expect("replays counter");
    assert!(replays > 0, "2e-5 BER over {n} writes must inject");
    // Wire bytes = n x Eq. 1 + replayed TLP bytes, exactly.
    assert_eq!(
        up.get("tlp_bytes"),
        Some(n as u64 * model::dma_write_bytes(&link, transfer) + replay_bytes),
        "Eq. 1 plus replay bytes"
    );
    // Payload accounting is untouched by replays: the *goodput* ledger
    // still sees each byte once.
    assert_eq!(up.get("payload_bytes"), Some(n as u64 * transfer as u64));
    // Every NAK-detected replay emitted one 8-byte NAK DLLP on the
    // opposite (downstream) direction, on top of ACKs and FC updates.
    let down = snap.group("link.downstream").expect("downstream group");
    let naks = snap
        .group("link.replay.downstream")
        .map(|g| g.get("naks").unwrap_or(0))
        .unwrap_or(0);
    assert_eq!(
        naks,
        replays - replay.get("timeout_replays").unwrap_or(0),
        "one NAK per NAK-detected upstream replay"
    );
    assert_eq!(
        down.get("dllp_bytes"),
        Some(down.get("dllps").unwrap() * 8),
        "all DLLPs are 8 wire bytes"
    );
    assert!(naks > 0, "BER-driven replays are NAK-detected");
}

#[test]
fn stage_breakdown_reconciles_with_end_to_end() {
    // The tentpole acceptance check, through the public API: for every
    // system and op, the per-stage contributions must sum to the
    // end-to-end total within rounding.
    for setup in [
        BenchSetup::netfpga_hsw().with_telemetry(),
        BenchSetup::nfp6000_hsw().with_telemetry(),
    ] {
        for op in [LatOp::Rd, LatOp::WrRd] {
            let r = run_latency(&setup, &aligned_params(64), op, 300, DmaPath::DmaEngine);
            let snap = r.telemetry.as_ref().expect("telemetry enabled");
            let st = snap.stages().expect("stage report");
            assert_eq!(st.transactions, 300);
            let sum = st.stage_total_ns();
            assert!(
                (sum - st.end_to_end_total_ns).abs() <= 1e-6 * st.end_to_end_total_ns,
                "{} on {}: stage sum {} vs end-to-end {}",
                op.name(),
                setup.preset.name,
                sum,
                st.end_to_end_total_ns
            );
            // And the export paths carry the same reconciliation.
            let json = snap.to_json();
            assert!(json.contains("\"stage_total_ns\""), "{json}");
            assert!(snap.to_csv().contains("stage,host,total_ns,"));
        }
    }
}

#[test]
fn host_cache_counters_track_cache_state() {
    // Warm windows hit in the LLC; cold windows miss to DRAM. The
    // telemetry counters must reflect that, per NUMA node.
    let setup = BenchSetup::netfpga_hsw().with_telemetry();
    let warm = run_latency(
        &setup,
        &aligned_params(64),
        LatOp::Rd,
        200,
        DmaPath::DmaEngine,
    );
    let warm_snap = warm.telemetry.as_ref().unwrap();
    let warm_cache = warm_snap.group("host.cache.node0").expect("cache group");
    assert!(warm_cache.get("read_hits").unwrap() > 0);
    assert_eq!(warm_cache.get("read_misses"), Some(0));

    let cold_params = BenchParams {
        cache: CacheState::Cold,
        ..aligned_params(64)
    };
    let cold = run_latency(&setup, &cold_params, LatOp::Rd, 200, DmaPath::DmaEngine);
    let cold_snap = cold.telemetry.as_ref().unwrap();
    let cold_cache = cold_snap.group("host.cache.node0").expect("cache group");
    assert!(cold_cache.get("read_misses").unwrap() > 0);
    assert!(
        cold_snap
            .group("host.dram.node0")
            .unwrap()
            .get("lines_read")
            .unwrap()
            > 0
    );
}

#[test]
fn topo_port_counters_reconcile_with_uplink_wire_bytes() {
    // Under a switch, the shared upstream link must carry exactly the
    // sum of what the downstream ports forwarded — and each port's
    // share must itself be the Eq. 1/Eq. 2 byte budget of its device's
    // transfers (aligned geometry, so the splits match the model).
    use pcie_bench_repro::device::{DeviceParams, DmaPath, MultiPlatform};
    use pcie_bench_repro::host::buffer::BufferAllocator;
    use pcie_bench_repro::host::presets::HostPreset;
    use pcie_bench_repro::host::HostSystem;
    use pcie_bench_repro::link::{Direction, LinkTiming};
    use pcie_bench_repro::model::LinkConfig;
    use pcie_bench_repro::sim::SimTime;
    use pcie_bench_repro::topo::SwitchConfig;

    let devices = 3usize;
    let link = LinkConfig::gen3_x8();
    let mut alloc = BufferAllocator::default_layout();
    let bufs: Vec<_> = (0..devices).map(|_| alloc.alloc(1 << 20, 0)).collect();
    let mut host = HostSystem::new(HostPreset::netfpga_hsw(), 11);
    for b in &bufs {
        host.host_warm(b, 0, 1 << 20);
    }
    let mut p = MultiPlatform::homogeneous_switched(
        devices,
        DeviceParams::netfpga(),
        link,
        LinkTiming::default(),
        host,
        SwitchConfig::gen3_x8(),
    );
    // Device d issues `n[d]` writes and `n[d]` reads of `sz[d]` bytes.
    let n = [40u64, 25, 10];
    let sz = [256u32, 512, 1024];
    for (d, b) in bufs.iter().enumerate() {
        for i in 0..n[d] {
            let off = (i * 4096) % ((1 << 20) - 4096);
            p.dma_write(d, SimTime::ZERO, b, off, sz[d], DmaPath::DmaEngine);
            p.dma_read(d, SimTime::ZERO, b, off, sz[d], DmaPath::DmaEngine);
        }
    }
    let sw = p.switch().expect("switched");
    let mut sum_up = 0u64;
    let mut sum_down = 0u64;
    for d in 0..devices {
        let c = sw.port_counters(d);
        // Up: Eq. 1 (posted writes) + Eq. 2 (read requests).
        assert_eq!(
            c.up_bytes,
            n[d] * (model::dma_write_bytes(&link, sz[d])
                + model::dma_read_request_bytes(&link, sz[d])),
            "port {d} host-bound bytes"
        );
        // Down: Eq. 3 (completions with data).
        assert_eq!(
            c.down_bytes,
            n[d] * model::dma_read_completion_bytes(&link, sz[d]),
            "port {d} host-originated bytes"
        );
        assert_eq!(c.rr_grants, c.up_tlps, "one grant per host-bound TLP");
        sum_up += c.up_bytes;
        sum_down += c.down_bytes;
    }
    assert_eq!(
        sw.uplink().counters(Direction::Upstream).tlp_bytes,
        sum_up,
        "upstream wire bytes == sum of downstream ports' host-bound bytes"
    );
    assert_eq!(
        sw.uplink().counters(Direction::Downstream).tlp_bytes,
        sum_down,
        "downstream wire bytes == sum of ports' host-originated bytes"
    );
    // The snapshot exposes the same ledger.
    let snap = p.telemetry_snapshot("switched");
    let uplink = snap.group("topo.uplink.upstream").expect("uplink group");
    assert_eq!(uplink.get("tlp_bytes"), Some(sum_up));
    for d in 0..devices {
        let port = snap.group(&format!("topo.port{d}")).expect("port group");
        assert_eq!(port.get("up_bytes"), Some(sw.port_counters(d).up_bytes));
    }
}

#[test]
fn p2p_bytes_never_touch_the_uplink() {
    // Peer-to-peer traffic with ACS off crosses only the crossbar: the
    // port counters record it, the upstream link carries none of it.
    use pcie_bench_repro::device::{DeviceParams, MultiPlatform};
    use pcie_bench_repro::host::presets::HostPreset;
    use pcie_bench_repro::host::HostSystem;
    use pcie_bench_repro::link::{Direction, LinkTiming};
    use pcie_bench_repro::model::LinkConfig;
    use pcie_bench_repro::sim::SimTime;
    use pcie_bench_repro::topo::SwitchConfig;

    let link = LinkConfig::gen3_x8();
    let mut p = MultiPlatform::homogeneous_switched(
        2,
        DeviceParams::netfpga(),
        link,
        LinkTiming::default(),
        HostSystem::new(HostPreset::netfpga_hsw(), 23),
        SwitchConfig::gen3_x8(),
    );
    let n = 30u64;
    let sz = 512u32;
    for i in 0..n {
        p.p2p_write(0, 1, SimTime::ZERO, i * 4096, sz);
    }
    let sw = p.switch().unwrap();
    // Eq. 1 on the crossbar: src port saw the bytes in, dst port out.
    let eq1 = n * model::dma_write_bytes(&link, sz);
    assert_eq!(sw.port_counters(0).p2p_in_bytes, eq1);
    assert_eq!(sw.port_counters(1).p2p_out_bytes, eq1);
    // And none of it on the shared upstream port.
    for dir in [Direction::Upstream, Direction::Downstream] {
        assert_eq!(sw.uplink().counters(dir).tlps, 0, "{dir:?}");
    }
    assert_eq!(p.host.stats().p2p_redirects, 0, "no root-complex bounce");
    // The snapshot's port groups carry the P2P ledger, and the device
    // engine reports its P2P ops.
    let snap = p.telemetry_snapshot("p2p");
    let src = snap.group("topo.port0").expect("port0 group");
    assert_eq!(src.get("p2p_in_bytes"), Some(eq1));
    assert_eq!(
        snap.group("topo.uplink.upstream").unwrap().get("tlps"),
        Some(0)
    );
    let eng = snap.group("dev0.device.engine").expect("engine group");
    assert_eq!(eng.get("p2p_writes"), Some(n));
}

#[test]
fn iommu_counters_present_only_when_enabled() {
    use pcie_bench_repro::bench::IommuMode;
    let off = BenchSetup::nfp6000_bdw().with_telemetry();
    let r = run_latency(
        &off,
        &aligned_params(64),
        LatOp::Rd,
        100,
        DmaPath::DmaEngine,
    );
    assert!(r.telemetry.as_ref().unwrap().group("host.iommu").is_none());

    let on = BenchSetup::nfp6000_bdw()
        .with_iommu(IommuMode::FourK)
        .with_telemetry();
    let r = run_latency(&on, &aligned_params(64), LatOp::Rd, 100, DmaPath::DmaEngine);
    let snap = r.telemetry.as_ref().unwrap();
    let iommu = snap.group("host.iommu").expect("iommu group");
    let hits = iommu.get("tlb_hits").unwrap();
    let misses = iommu.get("tlb_misses").unwrap();
    assert!(hits + misses > 0, "IOTLB saw traffic");
    assert_eq!(iommu.get("page_walks"), Some(misses));
}

#[test]
fn rpc_stage_sums_telescope_to_end_to_end() {
    // The six rpc.stages must sum exactly to the end-to-end latency,
    // per RPC and therefore in aggregate — the in-run assertion pins
    // it per queue; this pins the merged whole-run accumulator and
    // the exported group.
    use pcie_bench_repro::par::Pool;
    use pcie_bench_repro::rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile};
    use pcie_telemetry::{RpcStage, StageSet};

    for datapath in [Datapath::HostBypass, Datapath::HostBounce] {
        let cfg = RpcEngineConfig {
            queues: 2,
            datapath,
            ..RpcEngineConfig::default()
        };
        let r = RpcEngine::new(cfg, RpcProfile::standard(20.0e6, 6_000)).run(&Pool::sequential());
        let grand = r.stages.grand_total_ns();
        let e2e = r.stages.end_to_end().total_ns();
        assert!(
            (grand - e2e).abs() <= 1e-6 * grand.max(1.0),
            "{}: stage sum {grand} must telescope to end-to-end {e2e}",
            datapath.name()
        );
        assert_eq!(r.stages.count(), r.completed());
        assert_eq!(r.stages.end_to_end().count(), r.completed());
        // The exported group carries the same ledger.
        let snap = r.snapshot("telescoping");
        let g = snap.group("rpc.stages").expect("rpc.stages group");
        let from_group: u64 = RpcStage::ALL
            .iter()
            .map(|s| g.get(&format!("{}_total_ns", s.name())).unwrap())
            .sum();
        // Each stage total is truncated to u64 on export, so the sum
        // may sit up to one count per stage below the float ledger.
        assert!(
            (from_group as i64 - grand as i64).unsigned_abs() <= RpcStage::ALL.len() as u64,
            "group stage sum {from_group} must track grand total {grand}"
        );
        assert_eq!(g.get("end_to_end_total_ns"), Some(e2e as u64));
    }
}

#[test]
fn flow_stage_sums_telescope_to_end_to_end() {
    // The exported flows.stages group merges every queue's driver-stage
    // ledger: the stage totals sum to the end-to-end total (each is
    // truncated to whole ns on export, so within one ns per stage),
    // it counts exactly the delivered packets, and the RX-terminating
    // queues record nothing in the TX stages.
    use pcie_bench_repro::flows::{FlowEngine, FlowEngineConfig, TrafficProfile};
    use pcie_bench_repro::par::Pool;
    use pcie_telemetry::{DriverStage, StageSet};

    let cfg = FlowEngineConfig {
        queues: 3,
        ..FlowEngineConfig::default()
    };
    // 1.3x the aggregate capacity: the drop path runs too.
    let pps = 1.3 * cfg.service.capacity_pps() * f64::from(cfg.queues);
    let mut profile = TrafficProfile::quick(pps);
    profile.packets = 8_000;
    let r = FlowEngine::new(cfg, profile).run(&Pool::sequential(), |_| {
        BenchSetup::nfp6000_hsw().build_nic_platform()
    });
    assert!(r.dropped() > 0 && r.delivered() > 0);
    let snap = r.snapshot("flows");
    let g = snap.group("flows.stages").expect("flows.stages group");
    assert_eq!(g.get("packets"), Some(r.delivered()));
    let from_group: u64 = DriverStage::ALL
        .iter()
        .map(|s| g.get(&format!("{}_total_ns", s.name())).unwrap())
        .sum();
    let e2e = g.get("end_to_end_total_ns").unwrap();
    assert!(
        e2e.abs_diff(from_group) <= DriverStage::ALL.len() as u64,
        "stage sum {from_group} must telescope to end-to-end {e2e}"
    );
    assert_eq!(e2e, r.e2e.total_ns() as u64, "the group and e2e agree");
    assert_eq!(g.get("tx_post_total_ns"), Some(0));
    assert_eq!(g.get("tx_dma_total_ns"), Some(0));
}

#[test]
fn rpc_bypass_fabric_bytes_reconcile_eq1_on_the_crossbar() {
    // Host-bypass: every completed RPC crosses the crossbar twice —
    // a 256 B request 0→1 and a 128 B response 1→0 — each costing
    // Eq. 1 wire bytes on the port pair, with the shared uplink, the
    // root complex and the IOMMU untouched.
    use pcie_bench_repro::model::LinkConfig;
    use pcie_bench_repro::par::Pool;
    use pcie_bench_repro::rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile};

    let link = LinkConfig::gen3_x8();
    let cfg = RpcEngineConfig {
        queues: 2,
        datapath: Datapath::HostBypass,
        ..RpcEngineConfig::default()
    };
    let r = RpcEngine::new(cfg, RpcProfile::standard(20.0e6, 6_000)).run(&Pool::sequential());
    assert_eq!(r.dropped(), 0, "sub-capacity run must not drop");
    for q in &r.queues {
        let done = q.counters.completed;
        let req = done * model::dma_write_bytes(&link, 256);
        let resp = done * model::dma_write_bytes(&link, 128);
        assert_eq!(q.ports[0].p2p_in_bytes, req, "queue {}: req in", q.queue);
        assert_eq!(q.ports[1].p2p_out_bytes, req, "queue {}: req out", q.queue);
        assert_eq!(q.ports[1].p2p_in_bytes, resp, "queue {}: resp in", q.queue);
        assert_eq!(
            q.ports[0].p2p_out_bytes, resp,
            "queue {}: resp out",
            q.queue
        );
        assert_eq!(q.uplink_up.0, 0, "no uplink TLPs");
        assert_eq!(q.uplink_down.0, 0);
        assert_eq!(q.p2p_redirects, 0);
        assert_eq!(q.iommu_hits + q.iommu_misses, 0, "IOMMU never consulted");
    }
}

#[test]
fn rpc_bounce_fabric_bytes_reconcile_eq1_via_uplink() {
    // Host-bounce: the same two crossings now climb the shared uplink
    // (up from the source port, down to the destination port), with
    // one root-complex validation and one IOMMU translation per TLP.
    // Eq. 1 must reconcile on the port counters AND on the uplink's
    // own wire counters, direction by direction.
    use pcie_bench_repro::model::LinkConfig;
    use pcie_bench_repro::par::Pool;
    use pcie_bench_repro::rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile};

    let link = LinkConfig::gen3_x8();
    let cfg = RpcEngineConfig {
        queues: 2,
        datapath: Datapath::HostBounce,
        ..RpcEngineConfig::default()
    };
    let r = RpcEngine::new(cfg, RpcProfile::standard(10.0e6, 6_000)).run(&Pool::sequential());
    for q in &r.queues {
        let done = q.counters.completed;
        let req = done * model::dma_write_bytes(&link, 256);
        let resp = done * model::dma_write_bytes(&link, 128);
        // Port ledger: requests climb from port 0 and descend to port
        // 1; responses the reverse. The crossbar is never used.
        assert_eq!(q.ports[0].up_bytes, req, "queue {}: req up", q.queue);
        assert_eq!(q.ports[1].down_bytes, req, "queue {}: req down", q.queue);
        assert_eq!(q.ports[1].up_bytes, resp, "queue {}: resp up", q.queue);
        assert_eq!(q.ports[0].down_bytes, resp, "queue {}: resp down", q.queue);
        assert_eq!(q.ports[0].p2p_in_bytes + q.ports[1].p2p_in_bytes, 0);
        // Uplink wire ledger agrees with the sum over ports.
        assert_eq!(q.uplink_up.1, req + resp, "queue {}: uplink up", q.queue);
        assert_eq!(
            q.uplink_down.1,
            req + resp,
            "queue {}: uplink down",
            q.queue
        );
        // One redirect + one translation per TLP, two TLPs per RPC
        // (256 B and 128 B both fit one MPS-sized chunk), and the
        // 512-page BAR sweep defeats the 64-entry IO-TLB entirely.
        assert_eq!(q.p2p_redirects, 2 * done, "queue {}: redirects", q.queue);
        assert_eq!(q.iommu_misses, 2 * done, "queue {}: all misses", q.queue);
        assert_eq!(q.iommu_hits, 0, "queue {}: no hits", q.queue);
    }
}
