//! System presets — the paper's Table 1.
//!
//! Each preset bundles the structural parameters (LLC geometry, DDIO,
//! NUMA nodes) and the calibration constants (latencies, service gaps,
//! jitter model) of one of the evaluation systems. The calibration
//! targets are the paper's measured numbers; see DESIGN.md §4.

use crate::jitter::JitterModel;
use pcie_sim::SimTime;

/// Where the DMA buffer lives relative to the device's socket (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumaPlacement {
    /// Same node as the PCIe device.
    Local,
    /// The other node of a 2-way system (traffic crosses the
    /// QPI/UPI interconnect).
    Remote,
}

/// Latency and throughput constants of a host's PCIe/memory path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLatencies {
    /// Root-complex pipeline latency per request TLP.
    pub rc_latency: SimTime,
    /// Minimum spacing between TLPs through the root complex
    /// (per-transaction throughput bound; the paper's "a transaction
    /// every 5 ns" headroom, §4.2).
    pub rc_service_gap: SimTime,
    /// LLC access latency (as seen from the root complex).
    pub llc_latency: SimTime,
    /// Extra latency of DRAM over an LLC hit (≈ 70 ns, §6.3).
    pub dram_extra: SimTime,
    /// DRAM channel occupancy per 64 B line read.
    pub dram_line_service: SimTime,
    /// DRAM channel occupancy per 64 B line of inbound DMA writes
    /// (and DDIO write-backs).
    pub dram_write_line_service: SimTime,
    /// One-way socket-interconnect latency (≈ 50 ns; a remote access
    /// pays it twice, giving the paper's ≈ 100 ns penalty, §6.4).
    pub interconnect_oneway: SimTime,
    /// Per-TLP occupancy of the socket interconnect (QPI/UPI
    /// packetisation): the source of the residual 5-7% penalty the
    /// paper sees for 128-256B remote reads.
    pub interconnect_gap: SimTime,
}

/// One row of Table 1, plus calibration. `Copy`: it holds no heap
/// data, so every platform built from a preset copies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostPreset {
    /// System name as used in the paper (e.g. "NFP6000-HSW").
    pub name: &'static str,
    /// CPU model string.
    pub cpu: &'static str,
    /// Micro-architecture name.
    pub architecture: &'static str,
    /// NUMA nodes (1 = "no" in Table 1, 2 = "2-way").
    pub numa_nodes: usize,
    /// System memory in GiB (Table 1 metadata).
    pub memory_gb: u32,
    /// OS / kernel string (Table 1 metadata).
    pub os: &'static str,
    /// Network adapter used on this system in the paper.
    pub adapter: &'static str,
    /// LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Ways available to DDIO (0 = no DDIO, e.g. Xeon E3).
    pub ddio_ways: usize,
    /// Timing constants.
    pub lat: HostLatencies,
    /// Per-transaction latency jitter when the root complex was idle
    /// before the transaction (Figure 6 distributions; on the E3 this
    /// includes power-management wake penalties).
    pub jitter: JitterModel,
    /// Jitter under back-to-back load: streaming traffic keeps the
    /// uncore awake, so the E3's giant wake tail disappears (its read
    /// bandwidth matches the E5 for ≥512B transfers, §6.2) while a
    /// residual slowdown remains for small transfers.
    pub busy_jitter: JitterModel,
}

const MIB: u64 = 1024 * 1024;

fn e5_latencies(rc_ns: u64) -> HostLatencies {
    HostLatencies {
        rc_latency: SimTime::from_ns(rc_ns),
        rc_service_gap: SimTime::from_ns(3),
        llc_latency: SimTime::from_ns(20),
        dram_extra: SimTime::from_ns(70),
        dram_line_service: SimTime::from_ps(1_000),
        dram_write_line_service: SimTime::from_ps(1_000),
        interconnect_oneway: SimTime::from_ns(50),
        interconnect_gap: SimTime::from_ns(12),
    }
}

impl HostPreset {
    /// NFP6000-BDW: Xeon E5-2630v4 (Broadwell), 2-way NUMA, 25 MiB LLC.
    pub fn nfp6000_bdw() -> Self {
        HostPreset {
            name: "NFP6000-BDW",
            cpu: "Intel Xeon E5-2630v4 2.2GHz",
            architecture: "Broadwell",
            numa_nodes: 2,
            memory_gb: 128,
            os: "Ubuntu 3.19.0-69",
            adapter: "NFP6000 1.2GHz",
            llc_bytes: 25 * MIB,
            llc_ways: 20,
            ddio_ways: 2,
            lat: e5_latencies(64),
            jitter: JitterModel::xeon_e5(),
            busy_jitter: JitterModel::xeon_e5(),
        }
    }

    /// NetFPGA-HSW: Xeon E5-2637v3 (Haswell), single socket.
    pub fn netfpga_hsw() -> Self {
        HostPreset {
            name: "NetFPGA-HSW",
            cpu: "Intel Xeon E5-2637v3 3.5GHz",
            architecture: "Haswell",
            numa_nodes: 1,
            memory_gb: 64,
            os: "Ubuntu 3.19.0-43",
            adapter: "NetFPGA-SUME",
            llc_bytes: 15 * MIB,
            llc_ways: 20,
            ddio_ways: 2,
            lat: e5_latencies(60),
            jitter: JitterModel::xeon_e5(),
            busy_jitter: JitterModel::xeon_e5(),
        }
    }

    /// NFP6000-HSW: the same host as [`HostPreset::netfpga_hsw`] with
    /// the NFP6000 adapter.
    pub fn nfp6000_hsw() -> Self {
        HostPreset {
            name: "NFP6000-HSW",
            adapter: "NFP6000 1.2GHz",
            ..Self::netfpga_hsw()
        }
    }

    /// NFP6000-HSW-E3: Xeon E3-1226v3 — the anomalous system of
    /// Figure 6: no DDIO, heavy-tailed latency, slow DMA-write path.
    pub fn nfp6000_hsw_e3() -> Self {
        HostPreset {
            name: "NFP6000-HSW-E3",
            cpu: "Intel Xeon E3-1226v3 3.3GHz",
            architecture: "Haswell",
            numa_nodes: 1,
            memory_gb: 16,
            os: "Ubuntu 4.4.0-31",
            adapter: "NFP6000 1.2GHz",
            llc_bytes: 15 * MIB,
            llc_ways: 20,
            ddio_ways: 0, // DDIO is a Xeon E5/E7 feature
            lat: HostLatencies {
                rc_latency: SimTime::from_ns(30),
                rc_service_gap: SimTime::from_ns(6),
                llc_latency: SimTime::from_ns(20),
                dram_extra: SimTime::from_ns(70),
                dram_line_service: SimTime::from_ns(2),
                // Slow uncached DMA-write path: caps write throughput
                // below 40GbE line rate at every transfer size (§6.2).
                dram_write_line_service: SimTime::from_ns(18),
                interconnect_oneway: SimTime::from_ns(50),
                interconnect_gap: SimTime::from_ns(12),
            },
            jitter: JitterModel::xeon_e3(),
            busy_jitter: JitterModel::xeon_e3_busy(),
        }
    }

    /// NFP6000-IB: Xeon E5-2620v2 (Ivy Bridge), 2-way NUMA.
    pub fn nfp6000_ib() -> Self {
        HostPreset {
            name: "NFP6000-IB",
            cpu: "Intel Xeon E5-2620v2 2.1GHz",
            architecture: "Ivy Bridge",
            numa_nodes: 2,
            memory_gb: 32,
            os: "Ubuntu 3.19.0-30",
            adapter: "NFP6000 1.2GHz",
            llc_bytes: 15 * MIB,
            llc_ways: 20,
            ddio_ways: 2,
            lat: e5_latencies(70),
            jitter: JitterModel::xeon_e5(),
            busy_jitter: JitterModel::xeon_e5(),
        }
    }

    /// NFP6000-SNB: Xeon E5-2630 (Sandy Bridge), single socket (as
    /// configured in Table 1).
    pub fn nfp6000_snb() -> Self {
        HostPreset {
            name: "NFP6000-SNB",
            cpu: "Intel Xeon E5-2630 2.3GHz",
            architecture: "Sandy Bridge",
            numa_nodes: 1,
            memory_gb: 16,
            os: "Ubuntu 3.19.0-30",
            adapter: "NFP6000 1.2GHz",
            llc_bytes: 15 * MIB,
            llc_ways: 20,
            ddio_ways: 2,
            lat: e5_latencies(75),
            jitter: JitterModel::xeon_e5(),
            busy_jitter: JitterModel::xeon_e5(),
        }
    }

    /// All Table 1 systems, in the paper's order.
    pub fn all() -> Vec<HostPreset> {
        vec![
            Self::nfp6000_bdw(),
            Self::netfpga_hsw(),
            Self::nfp6000_hsw(),
            Self::nfp6000_hsw_e3(),
            Self::nfp6000_ib(),
            Self::nfp6000_snb(),
        ]
    }

    /// Whether this system has DDIO.
    pub fn has_ddio(&self) -> bool {
        self.ddio_ways > 0
    }

    /// The DDIO partition size (the "10 % of the LLC", §6.3).
    pub fn ddio_bytes(&self) -> u64 {
        self.llc_bytes * self.ddio_ways as u64 / self.llc_ways as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_inventory() {
        let all = HostPreset::all();
        assert_eq!(all.len(), 6);
        let names: Vec<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "NFP6000-BDW",
                "NetFPGA-HSW",
                "NFP6000-HSW",
                "NFP6000-HSW-E3",
                "NFP6000-IB",
                "NFP6000-SNB"
            ]
        );
    }

    #[test]
    fn llc_sizes_match_table1_footnote() {
        // "All systems have 15MB of LLC, except NFP6000-BDW (25MB)."
        for p in HostPreset::all() {
            let expect = if p.name == "NFP6000-BDW" { 25 } else { 15 };
            assert_eq!(p.llc_bytes, expect * MIB, "{}", p.name);
        }
    }

    #[test]
    fn numa_systems() {
        assert_eq!(HostPreset::nfp6000_bdw().numa_nodes, 2);
        assert_eq!(HostPreset::nfp6000_ib().numa_nodes, 2);
        assert_eq!(HostPreset::netfpga_hsw().numa_nodes, 1);
    }

    #[test]
    fn ddio_partition_is_ten_percent() {
        let p = HostPreset::nfp6000_hsw();
        assert!(p.has_ddio());
        let frac = p.ddio_bytes() as f64 / p.llc_bytes as f64;
        assert!((frac - 0.10).abs() < 0.001);
        assert!(!HostPreset::nfp6000_hsw_e3().has_ddio());
    }

    #[test]
    fn hsw_pair_share_host() {
        let a = HostPreset::netfpga_hsw();
        let b = HostPreset::nfp6000_hsw();
        assert_eq!(a.cpu, b.cpu);
        assert_eq!(a.lat, b.lat);
        assert_ne!(a.adapter, b.adapter);
    }
}
