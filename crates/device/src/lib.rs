//! # pcie-device — the device side of the PCIe path
//!
//! Models of the two pcie-bench implementation vehicles (§5):
//!
//! * the **Netronome NFP-6000** ([`params::DeviceParams::nfp6000`]):
//!   DMA descriptors prepared by firmware worker threads, enqueued to a
//!   shared DMA engine (≈ 100 ns of enqueue overhead), data staged
//!   through internal SRAM (a per-byte internal copy), a limited
//!   in-flight DMA window, a coarse 19.2 ns timestamp counter — plus
//!   the *direct PCIe command interface* for small transfers that
//!   bypasses the DMA engine;
//! * the **NetFPGA-SUME** ([`params::DeviceParams::netfpga`]): requests
//!   generated straight from the 250 MHz FPGA fabric, one per clock,
//!   no staging copies, 4 ns timestamps.
//!
//! [`platform::Platform`] glues a device, a [`pcie_link::Link`] and a
//! [`pcie_host::HostSystem`] into the closed loop that the benchmark
//! suite drives: DMA issue waits for worker slots, tags and
//! flow-control credits; requests serialise onto the link; the root
//! complex answers after cache/IOMMU/NUMA effects; completions
//! serialise back. Throughput *emerges* from latency × parallelism —
//! nothing in this crate computes a bandwidth directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config_space;
pub mod gate;
pub mod multi;
pub mod params;
pub mod platform;

pub use config_space::ConfigSpace;
pub use gate::SlotGate;
pub use multi::{MultiPlatform, BAR_WINDOW};
pub use params::DeviceParams;
pub use platform::{DeviceEngine, DmaPath, Platform};
