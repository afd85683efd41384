//! # pcie-bench-repro — reproduction of *Understanding PCIe performance
//! for end host networking* (SIGCOMM 2018)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — the paper's §3 analytical model (link budgets,
//!   Eq. 1–3, NIC/driver interaction models; Figure 1);
//! * [`sim`] — the deterministic discrete-event substrate;
//! * [`tlp`] — TLP/DLLP wire formats and transfer splitting;
//! * [`link`] — the timed full-duplex link with emergent DLL overhead;
//! * [`host`] — root complex, LLC+DDIO, DRAM, NUMA, IOMMU, Table 1
//!   system presets;
//! * [`device`] — NFP-6000 / NetFPGA device models and the closed-loop
//!   [`device::Platform`];
//! * [`mod@bench`] — the pcie-bench methodology itself: `LAT_RD`,
//!   `LAT_WRRD`, `BW_RD`, `BW_WR`, `BW_RDWR` over controlled windows,
//!   transfer sizes, offsets, access patterns, cache states, NUMA
//!   placements and IOMMU modes (§4–6);
//! * [`topo`] — PCIe switch hierarchies: shared-upstream switches with
//!   cut-through forwarding and peer-to-peer TLP routing (with an ACS
//!   redirect knob), the §9 multi-device fabric;
//! * [`nic`] — NIC/driver simulations and the Figure 2 loopback
//!   latency experiment;
//! * [`drivers`] — the driver interaction-pattern zoo: kernel IRQ
//!   (MSI coalescing), DPDK busy polling, AF_XDP fill/completion
//!   rings and io_uring SQ/CQ, all over the same timed platform,
//!   with six-stage telescoping latency attribution;
//! * [`flows`] — the million-flow traffic engine: Toeplitz RSS
//!   steering onto per-queue descriptor rings, a slab-backed flow
//!   table for 10⁵–10⁷ concurrent flows, declarative open-loop
//!   traffic profiles, and the deterministic multi-queue serving
//!   harness that the flow and RPC engines share;
//! * [`rpc`] — end-to-end RPC serving over the switch fabric: RSS
//!   steering onto per-queue rings, device-to-device forwarding to an
//!   accelerator and back, with selectable host-bypass (crossbar P2P)
//!   and host-bounce (ACS redirect through root complex + IOMMU)
//!   datapaths and six-stage telescoping latency attribution;
//! * [`par`] — the deterministic scoped worker pool that fans
//!   independent grid points across cores (`PCIE_BENCH_THREADS`)
//!   while keeping results bit-identical to a sequential run.
//!
//! ## Quickstart
//!
//! ```
//! use pcie_bench_repro::bench::{run_bandwidth, BenchParams, BenchSetup, BwOp};
//! use pcie_bench_repro::device::DmaPath;
//!
//! // 64B DMA reads over an 8KiB warm window on the NFP6000-HSW system.
//! let setup = BenchSetup::nfp6000_hsw();
//! let result = run_bandwidth(&setup, &BenchParams::baseline(64), BwOp::Rd,
//!                            2_000, DmaPath::DmaEngine);
//! // §6.4 quotes ~32 Gb/s for this configuration.
//! assert!(result.gbps > 25.0 && result.gbps < 40.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the per-figure reproduction binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcie_device as device;
pub use pcie_drivers as drivers;
pub use pcie_fault as fault;
pub use pcie_flows as flows;
pub use pcie_host as host;
pub use pcie_link as link;
pub use pcie_model as model;
pub use pcie_nic as nic;
pub use pcie_par as par;
pub use pcie_rpc as rpc;
pub use pcie_sim as sim;
pub use pcie_tlp as tlp;
pub use pcie_topo as topo;
pub use pciebench as bench;
