//! Extension (§3's closing caveat + §4's offset parameter): unaligned
//! DMA. The paper's model "does not account for PCIe overheads of
//! unaligned DMA reads. For these, the specification requires the
//! first CplD to align the remaining CplDs to an advertised Read
//! Completion Boundary (RCB, typically 64B) and unaligned PCIe reads
//! may generate additional TLPs." The simulator implements the rule,
//! so the overhead is measurable here.
//!
//! Usage: `cargo run --release --bin ext_offsets`

use pcie_bench_harness::{header, n};
use pcie_device::DmaPath;
use pcie_tlp::split::completion_chunks;
use pciebench::{run_bandwidth, run_latency, BenchParams, BenchSetup, BwOp, LatOp};

fn main() {
    let setup = BenchSetup::netfpga_hsw();
    let txns = n(15_000);

    header("Unaligned DMA reads: completion TLP counts (512B read, MPS 256, RCB 64)");
    println!("# {:>8} {:>10}", "offset", "CplD TLPs");
    for off in [0u64, 1, 4, 32, 63] {
        let cpls = completion_chunks(0x10000 + off, 512, 256, 64).count();
        println!("{:>10} {:>10}", off, cpls);
    }

    header("Measured impact of start offset (NetFPGA-HSW, warm 8KiB window)");
    println!(
        "# {:>8} {:>14} {:>18} {:>18}",
        "offset", "BW_RD (Gb/s)", "BW_WR (Gb/s)", "LAT_RD med (ns)"
    );
    let mut aligned_bw = 0.0;
    let mut worst_bw = f64::MAX;
    for off in [0u32, 1, 8, 32, 63] {
        let params = BenchParams {
            offset: off,
            ..BenchParams::baseline(512)
        };
        let rd = run_bandwidth(&setup, &params, BwOp::Rd, txns, DmaPath::DmaEngine);
        let wr = run_bandwidth(&setup, &params, BwOp::Wr, txns, DmaPath::DmaEngine);
        let lat = run_latency(&setup, &params, LatOp::Rd, 1_000, DmaPath::DmaEngine);
        println!(
            "{:>10} {:>14.2} {:>18.2} {:>18.0}",
            off, rd.gbps, wr.gbps, lat.summary.median
        );
        if off == 0 {
            aligned_bw = rd.gbps;
        } else {
            worst_bw = worst_bw.min(rd.gbps);
        }
    }
    assert!(
        worst_bw < aligned_bw,
        "unaligned reads must cost bandwidth: {worst_bw:.2} !< {aligned_bw:.2}"
    );
    println!(
        "\n# Unaligned 512B reads lose {:.1}% of read bandwidth to the extra RCB",
        (1.0 - worst_bw / aligned_bw) * 100.0
    );
    println!("# completion and the extra touched cache line — a cost the analytical");
    println!("# model (§3) explicitly leaves out. Recommendation: keep DMA buffers");
    println!("# cache-line aligned (all Table 2 advice assumes it).");
}
