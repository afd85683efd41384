//! # pcie-flows — million-flow traffic engine with multi-queue RSS
//!
//! The paper's benchmarks measure the PCIe substrate under synthetic
//! DMA patterns; its motivating workload, though, is an end host
//! terminating *millions of concurrent flows* across the multiple RX
//! queues of a modern NIC. This crate grows the workspace that
//! workload generator:
//!
//! * [`rss`] — Toeplitz receive-side scaling: the Microsoft
//!   verification key (with its published test vectors), the
//!   symmetric `0x6d5a` key, a 128-entry indirection table, and a
//!   12 × 256 lookup table built from the key once, so that steering
//!   a flow costs 12 loads instead of a loop over its 96 input bits;
//! * [`table`] — a dense flow table of 8-byte records holding
//!   10⁵–10⁷ concurrent flows (10⁷ in about 80 MB), with O(1)
//!   insert/sample/remove by position and zero per-packet allocation;
//! * [`profile`] — declarative traffic profiles: open-loop Poisson,
//!   paced and bursty arrival processes; fixed, uniform and
//!   bounded-Pareto flow lengths; packet sizes via
//!   `pcie_nic::Workload` (IMIX, Pareto, …);
//! * [`queue`] — one RX queue as an open-loop, RX-terminating driver
//!   simulation over a private `pcie-device` platform, descriptor
//!   and completion rings, and telescoping stage telemetry;
//! * [`engine`] — steer → schedule → simulate → merge, fanned across
//!   a `pcie-par` pool with bit-identical results at any pool width.
//!
//! ```
//! use pcie_flows::{FlowEngine, FlowEngineConfig, TrafficProfile};
//! use pcie_par::Pool;
//! use pciebench::BenchSetup;
//!
//! let engine = FlowEngine::new(
//!     FlowEngineConfig { queues: 4, ..FlowEngineConfig::default() },
//!     TrafficProfile::quick(4e6),
//! );
//! let report = engine.run(&Pool::sequential(), |_q| {
//!     BenchSetup::nfp6000_hsw().build_nic_platform()
//! });
//! assert_eq!(report.offered(), 20_000);
//! assert!(report.delivered() > 0);
//! // Same seed, any pool width: bit-identical.
//! let again = engine.run(&Pool::with_threads(2), |_q| {
//!     BenchSetup::nfp6000_hsw().build_nic_platform()
//! });
//! assert_eq!(report.fingerprint(), again.fingerprint());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod profile;
pub mod queue;
pub mod rss;
pub mod table;

pub use engine::{FlowEngine, FlowEngineConfig, FlowRunReport};
pub use profile::{ArrivalGen, ArrivalProcess, FlowLength, TrafficProfile};
pub use queue::{QueueCounters, QueueReport, QueueSim, QueuedPacket, ServiceModel};
pub use rss::{toeplitz_hash, FlowKey, Rss, RssKey, INDIRECTION_ENTRIES};
pub use table::{FlowTable, FlowTableStats};
