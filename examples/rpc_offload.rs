//! Quickstart: serve RPCs through a PCIe-attached accelerator, both
//! ways across the switch.
//!
//! Builds a 4-queue RPC front-end (Toeplitz RSS onto per-queue rings),
//! forwards every request device-to-device across a shared PCIe switch
//! to an 8-core accelerator and returns the response the same way —
//! once with direct crossbar P2P (host-bypass) and once with ACS
//! redirect through the root complex and IOMMU (host-bounce) — then
//! prints the throughput, tail latency and per-stage breakdown that
//! explain the gap.
//!
//! Run with: `cargo run --release --example rpc_offload`

use pcie_bench_repro::par::Pool;
use pcie_bench_repro::rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile};
use pcie_telemetry::{RpcStage, StageSet};

fn main() {
    let cfg = RpcEngineConfig::default(); // 4 queues, 8x400ns accel
    let capacity = cfg.capacity_rps();
    // Offer 60% of the accelerator's aggregate capacity — enough to
    // expose the bounce path's IOMMU-walker bottleneck (which knees
    // at ~55% here) while the bypass path still has headroom.
    let profile = RpcProfile::standard(0.6 * capacity, 100_000);
    let pool = Pool::from_env();

    println!(
        "RPC offload: {} queues, accelerator capacity {:.0} Mrps, offering {:.0} Mrps\n",
        cfg.queues,
        capacity / 1e6,
        0.6 * capacity / 1e6
    );

    for datapath in [Datapath::HostBypass, Datapath::HostBounce] {
        let mut cfg = cfg.clone();
        cfg.datapath = datapath;
        let report = RpcEngine::new(cfg, profile.clone()).run(&pool);
        println!(
            "{:>7}: {:>6.1} Mrps sustained, drop {:>5.2}%, p50 {:>6.0}ns  p99 {:>6.0}ns  p999 {:>6.0}ns",
            datapath.name(),
            report.completed_mrps(),
            report.drop_rate() * 100.0,
            report.p50_ns(),
            report.p99_ns(),
            report.p999_ns(),
        );
        for &stage in RpcStage::ALL {
            println!(
                "         {:>13}: {:>7.0} ns mean",
                stage.name(),
                report.stages.mean_ns(stage)
            );
        }
        println!(
            "         fabric: {} root-complex redirects, {} IO-TLB misses, {} uplink bytes\n",
            report.p2p_redirects(),
            report.iommu_misses(),
            report.uplink_up_bytes(),
        );
    }

    println!("The bounce tax is visible in fabric_req/fabric_resp, not accel_service:");
    println!("every peer TLP pays the climb to the root complex plus an IO-TLB");
    println!("translation — and the 512-page BAR sweep defeats the 64-entry TLB.");
}
