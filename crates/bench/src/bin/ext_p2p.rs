//! Extension (paper §9): peer-to-peer DMA between two devices. Under a
//! switch with ACS off, peer memory TLPs are forwarded port-to-port and
//! never touch the shared upstream link; with ACS Source Validation /
//! P2P Request Redirect they bounce through the root complex for IOMMU
//! validation, paying two extra uplink crossings and the root-complex
//! pipe. Measures both latencies plus the flat (switch-less)
//! root-complex path, P2P write bandwidth, and reconciles every
//! forwarded byte against Eq. 1.
//!
//! Usage: `cargo run --release --bin ext_p2p`

use pcie_bench_harness::{header, n};
use pcie_device::{DeviceParams, MultiPlatform};
use pcie_host::presets::HostPreset;
use pcie_host::HostSystem;
use pcie_link::{Direction, LinkTiming};
use pcie_model::bandwidth::dma_write_bytes;
use pcie_model::LinkConfig;
use pcie_sim::SimTime;
use pcie_topo::SwitchConfig;

/// The three peer-to-peer routes under test.
enum Route {
    SwitchP2p,
    AcsRedirect,
    FlatRc,
}

fn platform(route: &Route) -> MultiPlatform {
    let host = HostSystem::new(HostPreset::netfpga_hsw(), 4242);
    let dev = DeviceParams::netfpga();
    let cfg = LinkConfig::gen3_x8();
    let timing = LinkTiming::default();
    match route {
        Route::SwitchP2p => {
            MultiPlatform::homogeneous_switched(2, dev, cfg, timing, host, SwitchConfig::gen3_x8())
        }
        Route::AcsRedirect => MultiPlatform::homogeneous_switched(
            2,
            dev,
            cfg,
            timing,
            host,
            SwitchConfig::gen3_x8().with_acs_redirect(),
        ),
        Route::FlatRc => MultiPlatform::homogeneous(2, dev, cfg, timing, host),
    }
}

/// Minimum quiet-link latency of a P2P read (device 0 <- device 1 BAR).
fn read_latency_ns(p: &mut MultiPlatform, sz: u32, samples: usize) -> f64 {
    let mut now = SimTime::ZERO;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        now += SimTime::from_us(50);
        let r = p.p2p_read(0, 1, now, 0, sz);
        best = best.min(r.latency().as_ns_f64());
    }
    best
}

/// Closed-loop P2P write bandwidth (device 0 -> device 1 BAR) in Gb/s.
fn write_bw_gbps(p: &mut MultiPlatform, sz: u32, txns: usize) -> f64 {
    let window = pcie_device::BAR_WINDOW - sz as u64;
    let mut last = SimTime::ZERO;
    for i in 0..txns {
        let off = ((i as u64 * 4096) % window) & !63;
        let r = p.p2p_write(0, 1, SimTime::ZERO, off, sz);
        last = last.max(r.absorbed);
    }
    txns as f64 * sz as f64 * 8.0 / last.as_secs_f64() / 1e9
}

fn main() {
    let txns = n(6_000);
    let samples = 64;

    header("§9 extension: P2P read latency by route (min over quiet-link samples)");
    println!(
        "# {:>6} {:>16} {:>18} {:>14}",
        "size", "switch-P2P ns", "ACS-redirect ns", "flat-RC ns"
    );
    for sz in [64u32, 512] {
        let p2p = read_latency_ns(&mut platform(&Route::SwitchP2p), sz, samples);
        let acs = read_latency_ns(&mut platform(&Route::AcsRedirect), sz, samples);
        let flat = read_latency_ns(&mut platform(&Route::FlatRc), sz, samples);
        println!("{sz:>7}B {p2p:>16.0} {acs:>18.0} {flat:>14.0}");
        assert!(
            p2p < acs,
            "{sz}B: switch-forwarded P2P ({p2p:.0}ns) must beat the ACS \
             root-complex bounce ({acs:.0}ns)"
        );
        assert!(
            flat < acs,
            "{sz}B: the flat root complex has no switch hops; ACS adds them \
             plus the bounce ({flat:.0} !< {acs:.0})"
        );
    }

    header("§9 extension: P2P write bandwidth by route (512B, closed loop)");
    let sz = 512u32;
    let mut p2p_platform = platform(&Route::SwitchP2p);
    let p2p_bw = write_bw_gbps(&mut p2p_platform, sz, txns);
    let mut acs_platform = platform(&Route::AcsRedirect);
    let acs_bw = write_bw_gbps(&mut acs_platform, sz, txns);
    let flat_bw = write_bw_gbps(&mut platform(&Route::FlatRc), sz, txns);
    println!(
        "# {:>14} {:>16} {:>12}",
        "switch-P2P", "ACS-redirect", "flat-RC"
    );
    println!("{p2p_bw:>16.1} {acs_bw:>16.1} {flat_bw:>12.1}");

    // Pure switch-forwarded P2P never touches the upstream port.
    let sw = p2p_platform.switch().expect("switched");
    for dir in [Direction::Upstream, Direction::Downstream] {
        assert_eq!(
            sw.uplink().counters(dir).tlps,
            0,
            "ACS off: no P2P TLP may cross the upstream port ({dir:?})"
        );
    }
    assert_eq!(
        p2p_platform.host.stats().p2p_redirects,
        0,
        "ACS off: the root complex never sees peer requests"
    );

    // Eq. 1 reconciliation on the crossbar ports: every forwarded
    // write is header + payload, nothing more, nothing lost.
    let eq1 = txns as u64 * dma_write_bytes(&SwitchConfig::gen3_x8().uplink, sz);
    let src = sw.port_counters(0);
    let dst = sw.port_counters(1);
    assert_eq!(src.p2p_in_bytes, eq1, "source port Eq.1 reconciliation");
    assert_eq!(dst.p2p_out_bytes, eq1, "target port Eq.1 reconciliation");

    // The ACS bounce, by contrast, pushes every chunk through the root
    // complex and both directions of the uplink.
    let sw_acs = acs_platform.switch().expect("switched");
    assert!(sw_acs.uplink().counters(Direction::Upstream).tlps > 0);
    assert!(sw_acs.uplink().counters(Direction::Downstream).tlps > 0);
    assert!(
        acs_platform.host.stats().p2p_redirects > 0,
        "ACS on: peer requests are validated at the root complex"
    );

    println!("\n# Findings:");
    println!("#  - Switch-forwarded P2P beats the ACS root-complex bounce on latency;");
    println!("#    the bounce adds two uplink crossings plus root-complex service.");
    println!("#  - With ACS off the upstream port carries zero P2P TLPs - peer traffic");
    println!("#    stays on the crossbar and the uplink remains free for host traffic.");
    println!("#  - Crossbar port counters reconcile exactly with Eq.1 wire bytes.");
}
