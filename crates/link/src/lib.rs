//! # pcie-link — the timed PCIe link
//!
//! Where `pcie-model` *estimates* data-link-layer costs, this crate
//! *generates* them: every TLP is serialised onto a per-direction
//! [`pcie_sim::Timeline`] at the physical-layer rate, and the link
//! automatically injects the ACK and flow-control-update DLLPs that
//! real links carry (coalesced, per the spec's recommendations). DLL
//! overhead therefore **emerges** from traffic patterns:
//! uni-directional writes see almost none of it (matching the paper's
//! observation that NetFPGA write throughput slightly *exceeds* the
//! model, §6.1), while bi-directional traffic pays the full cost.
//!
//! The link carries UpdateFC DLLPs but keeps no credit limits:
//! flow-control back-pressure lives in `pcie-device`, whose `DeviceEngine`
//! holds posted and non-posted header credits as `SlotGate`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod link;

pub use counters::WireCounters;
pub use link::{Link, LinkTiming};

/// A link direction, re-exported from the model crate so the whole
/// workspace shares one vocabulary.
pub use pcie_model::mix::Direction;
