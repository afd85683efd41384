//! # pciebench — the pcie-bench methodology (the paper's contribution)
//!
//! Micro-benchmarks that measure latency and bandwidth of individual
//! PCIe operations between a device and a host buffer while carefully
//! controlling every parameter that can affect performance (§4):
//!
//! * **window size** — the slice of the host buffer accessed
//!   repeatedly (sweeps across the LLC / DDIO / IO-TLB capacities);
//! * **transfer size** — bytes per DMA;
//! * **offset** — start offset from a cache line, for unaligned-access
//!   penalties;
//! * **unit size** — offset + transfer size rounded up to a cache
//!   line, so every access touches the same number of lines (Fig. 3);
//! * **access pattern** — sequential or (deterministically) random;
//! * **cache state** — thrashed cold, host-warmed, or device-warmed;
//! * **NUMA placement** — buffer local or remote to the device;
//! * **IOMMU** — off, 4 KiB pages (`sp_off`), or 2 MiB super-pages.
//!
//! The benchmarks are [`lat::LatOp`] (`LAT_RD`, `LAT_WRRD`) and
//! [`bw::BwOp`] (`BW_RD`, `BW_WR`, `BW_RDWR`), run by [`lat::run_latency`]
//! and [`bw::run_bandwidth`] over a [`setup::BenchSetup`] (host preset +
//! device + link). [`suite`] drives whole parameter grids, like the
//! control programs of §5.4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod analysis;
pub mod bw;
pub mod export;
pub mod lat;
pub mod params;
pub mod report;
pub mod scratch;
pub mod setup;
pub mod stats;
pub mod suite;

pub use bw::{run_bandwidth, run_bandwidth_with, BwOp, BwResult};
pub use lat::{run_latency, run_latency_summary, LatOp, LatencyResult};
pub use params::{BenchParams, CacheState, Pattern};
pub use scratch::BenchScratch;
pub use setup::{BenchSetup, IommuMode};
pub use stats::Summary;

/// Re-exported from `pcie-par`: the deterministic worker pool the
/// [`suite`] driver fans grid points onto.
pub use pcie_par::{Pool, PoolStats};

/// Re-exported from `pcie-telemetry`: the snapshot type carried by
/// [`LatencyResult::telemetry`] / [`BwResult::telemetry`].
pub use pcie_telemetry::{Snapshot, Stage, StageReport, StageSet};

/// Re-exported from `pcie-fault`: the fault-injection plan carried by
/// [`BenchSetup::fault`] (see [`BenchSetup::with_faults`] /
/// [`BenchSetup::with_ber`]).
pub use pcie_fault::{DirFaults, FaultPlan};
