//! # pcie-host — the host side of the PCIe path
//!
//! Everything a TLP meets after the link: the **root complex** service
//! pipeline, the **IOMMU** (with its IO-TLB), the **LLC** (with its
//! DDIO way-partition), **DRAM**, and the **NUMA interconnect**. These
//! are the structures whose behaviour the paper measures (§6.2–§6.5);
//! this crate models them *structurally* — real sets and ways, real
//! TLB entries, real busy-until resources — so the knees and cliffs in
//! the reproduction emerge from capacity and contention rather than
//! from curve fitting.
//!
//! The entry point is [`HostSystem`], built from a [`presets`] entry
//! (the systems of the paper's Table 1). The device layer calls
//! [`HostSystem::process_read_tlp`] / [`HostSystem::process_write_tlp`]
//! for every memory-request TLP, in the issuing device's IOMMU
//! protection domain, and gets back the time the request's data is
//! ready (reads) or absorbed (writes); peer-to-peer requests that
//! route through the root complex go to
//! [`HostSystem::process_peer_tlp`] instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod dram;
pub mod hostsys;
pub mod iommu;
pub mod jitter;
pub mod presets;

pub use buffer::HostBuffer;
pub use cache::LlcCache;
pub use hostsys::{HostSystem, MemStats};
pub use iommu::Iommu;
pub use presets::{HostPreset, NumaPlacement};
