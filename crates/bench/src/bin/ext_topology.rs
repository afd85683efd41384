//! Extension (paper §9): devices behind a PCIe switch sharing one
//! upstream port. Sweeps the fan-out (1–8 Gen 3 x8 devices) against x8
//! and x16 upstream ports with closed-loop DMA writes: the aggregate
//! rate plateaus at the upstream port's Eq. 1 effective bandwidth, the
//! round-robin arbiter shares it fairly, and every byte the uplink
//! carries reconciles exactly against the per-port counters and the
//! paper's Eq. 1.
//!
//! Usage: `cargo run --release --bin ext_topology`

use pcie_bench_harness::{header, n};
use pcie_device::{DeviceParams, DmaPath, MultiPlatform};
use pcie_host::buffer::BufferAllocator;
use pcie_host::presets::HostPreset;
use pcie_host::{HostBuffer, HostSystem};
use pcie_link::{Direction, LinkTiming};
use pcie_model::bandwidth::dma_write_bytes;
use pcie_model::config::gbps;
use pcie_model::LinkConfig;
use pcie_sim::SimTime;
use pcie_topo::SwitchConfig;

const SZ: u32 = 512;
const WINDOW: u64 = 1 << 20;

/// Closed-loop `SZ`-byte DMA writes from `devices` devices behind one
/// switch. Returns (device-0 Gb/s, aggregate Gb/s, platform).
fn run(devices: usize, sw_cfg: SwitchConfig, txns: usize) -> (f64, f64, MultiPlatform) {
    let mut host = HostSystem::new(HostPreset::netfpga_hsw(), 1609);
    let mut alloc = BufferAllocator::default_layout();
    let bufs: Vec<HostBuffer> = (0..devices).map(|_| alloc.alloc(WINDOW, 0)).collect();
    for b in &bufs {
        host.host_warm(b, 0, WINDOW);
    }
    let mut p = MultiPlatform::homogeneous_switched(
        devices,
        DeviceParams::netfpga(),
        LinkConfig::gen3_x8(),
        LinkTiming::default(),
        host,
        sw_cfg,
    );
    let mut last_dev0 = SimTime::ZERO;
    let mut last_all = SimTime::ZERO;
    for i in 0..txns {
        // MPS-aligned so every write splits into exactly Eq.1's chunks.
        let off = ((i as u64 * 4096) % (WINDOW - SZ as u64)) & !4095;
        for (d, b) in bufs.iter().enumerate() {
            let r = p.dma_write(d, SimTime::ZERO, b, off, SZ, DmaPath::DmaEngine);
            if d == 0 {
                last_dev0 = last_dev0.max(r.absorbed);
            }
            last_all = last_all.max(r.absorbed);
        }
    }
    let dev0 = txns as f64 * SZ as f64 * 8.0 / last_dev0.as_secs_f64() / 1e9;
    let agg = (txns * devices) as f64 * SZ as f64 * 8.0 / last_all.as_secs_f64() / 1e9;
    (dev0, agg, p)
}

/// Eq. 1 effective bandwidth of the upstream port for `SZ`-byte
/// writes: (model with the paper's fixed DLL-efficiency factor,
/// physical-rate ceiling). The simulated DLL overhead is emergent
/// (ACK/FC coalescing), so the achieved plateau lands between the two.
fn uplink_model_gbps(cfg: &SwitchConfig) -> (f64, f64) {
    let eff = SZ as f64 / dma_write_bytes(&cfg.uplink, SZ) as f64;
    (
        gbps(cfg.uplink.tlp_bw()) * eff,
        gbps(cfg.uplink.phys_bw()) * eff,
    )
}

fn main() {
    let txns = n(4_000);
    let mut x8_agg4 = 0.0;
    let mut x16_agg4 = 0.0;
    for (name, cfg) in [
        ("x8 upstream", SwitchConfig::gen3_x8()),
        ("x16 upstream", SwitchConfig::gen3_x16()),
    ] {
        let (model, ceiling) = uplink_model_gbps(&cfg);
        header(&format!(
            "§9 extension: N Gen3 x8 devices behind a switch, {name} \
             ({SZ}B writes; uplink Eq.1 model {model:.1}-{ceiling:.1} Gb/s)"
        ));
        println!(
            "# {:>8} {:>14} {:>16} {:>14} {:>12}",
            "devices", "dev0 Gb/s", "aggregate Gb/s", "uplink util", "max stalls"
        );
        for devices in [1usize, 2, 4, 8] {
            let (dev0, agg, p) = run(devices, cfg, txns);
            let sw = p.switch().expect("switched topology");
            // Arbitration fairness and wire-byte reconciliation.
            let per_port: Vec<_> = (0..devices).map(|d| sw.port_counters(d)).collect();
            let sum_up: u64 = per_port.iter().map(|c| c.up_bytes).sum();
            let uplink_up = sw.uplink().counters(Direction::Upstream).tlp_bytes;
            assert_eq!(
                uplink_up, sum_up,
                "uplink wire bytes must equal the per-port sums"
            );
            let eq1 = txns as u64 * dma_write_bytes(&cfg.uplink, SZ);
            for (d, c) in per_port.iter().enumerate() {
                assert_eq!(
                    c.up_bytes, eq1,
                    "port {d}: Eq.1 reconciliation ({txns} x {SZ}B writes)"
                );
                assert_eq!(c.rr_grants, c.up_tlps, "one arbiter grant per TLP");
            }
            let min_b = per_port.iter().map(|c| c.up_bytes).min().unwrap();
            let max_b = per_port.iter().map(|c| c.up_bytes).max().unwrap();
            assert!(max_b <= min_b + min_b / 20, "round-robin shares fairly");
            let stalls = per_port.iter().map(|c| c.credit_stalls).max().unwrap();
            println!(
                "{:>10} {:>14.1} {:>16.1} {:>13.0}% {:>12}",
                devices,
                dev0,
                agg,
                agg / ceiling * 100.0,
                stalls
            );
            if devices >= 4 {
                assert!(
                    agg > model * 0.95 && agg < ceiling * 1.01,
                    "{name}/{devices} devices: aggregate {agg:.1} must plateau \
                     in the uplink Eq.1 band [{model:.1}, {ceiling:.1}]"
                );
                assert!(
                    dev0 < agg / devices as f64 * 1.10,
                    "oversubscribed: each device gets ~1/{devices} of the uplink"
                );
            }
            if devices == 4 {
                if cfg.uplink.lanes == 8 {
                    x8_agg4 = agg;
                } else {
                    x16_agg4 = agg;
                }
            }
        }
    }
    assert!(
        x16_agg4 > x8_agg4 * 1.6,
        "an x16 upstream port must lift the 4-device aggregate: \
         x8 {x8_agg4:.1} vs x16 {x16_agg4:.1}"
    );
    println!("\n# Findings:");
    println!("#  - The shared upstream port is the bottleneck: aggregate write bandwidth");
    println!("#    plateaus at the uplink's Eq.1 effective rate however many devices push.");
    println!("#  - Round-robin arbitration shares the uplink fairly (equal per-port bytes).");
    println!("#  - Doubling the upstream width (x8 -> x16) doubles the plateau.");
    println!("#  - Every uplink wire byte reconciles: uplink TLP bytes == sum of per-port");
    println!("#    up_bytes == devices x txns x Eq.1(size).");
}
