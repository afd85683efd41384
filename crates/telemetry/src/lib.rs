//! # pcie-telemetry — cross-layer observability for the simulator
//!
//! The paper's contribution is *attribution*: Table 2's findings rest
//! on knowing where in the PCIe path every nanosecond went — link
//! serialisation, LLC/DDIO hits, IOMMU TLB misses, DMA-engine
//! queueing. This crate is the substrate the rest of the workspace
//! uses to expose those internals:
//!
//! * [`CounterGroup`] / [`Snapshot`] — ordered, named per-component
//!   counter registries (link wire counters, cache hit/miss/writeback,
//!   IO-TLB hit/miss/page-walk, DMA-engine occupancy, credit stalls)
//!   assembled into one snapshot per benchmark run;
//! * [`LatencyHistogram`] — fixed-width-bucket latency histograms with
//!   a saturating overflow bucket, cheap enough to update per
//!   transaction;
//! * [`StageStats`] — one telescoping stage accumulator for every
//!   pipeline the simulator attributes, parameterised by a
//!   [`StageSet`]: per-stage totals and histograms, an end-to-end
//!   histogram, a count, a merge for per-queue accumulators and a
//!   counter-group export. The stage contributions of every
//!   transaction sum exactly to its end-to-end latency. Three sets:
//!   * [`Stage`] — the per-DMA critical path (`issue → tag-alloc →
//!     request-wire → host → completion-wire → replay →
//!     device-completion`), the simulator's answer to "*where* did the
//!     400 ns go?" (paper §5–6, Figure 6 discussion);
//!   * [`DriverStage`] — the per-packet driver pipeline above it
//!     (`rx_dma → notify → rx_sw → app → tx_post → tx_dma`), used by
//!     the `pcie-drivers` interaction patterns and `pcie-flows`; its
//!     `rx_dma`/`tx_dma` stages nest the DMA-level breakdown;
//!   * [`RpcStage`] — the per-RPC fabric pipeline of `pcie-rpc`
//!     (`ingress_dma → steer → fabric_req → accel_service →
//!     fabric_resp → egress_dma`), spanning two devices and the switch
//!     between them;
//! * JSON and CSV export ([`Snapshot::to_json`], [`Snapshot::to_csv`])
//!   with zero external dependencies, consumed by `repro_report`,
//!   `pciebench_cli` and the figure binaries.
//!
//! ## Zero-cost-when-disabled contract
//!
//! Telemetry never sits on a hot path unconditionally. Layers hold an
//! `Option<StageStats<Stage>>`-style handle that is `None` unless explicitly
//! enabled (`BenchSetup::with_telemetry`, `Platform::enable_telemetry`):
//! disabled, the only cost is an untaken branch per DMA; the aggregate
//! counters that were already maintained before this crate existed
//! (wire counters, cache stats) remain always-on. Benchmarks therefore
//! run at identical throughput with telemetry off.
//!
//! ```
//! use pcie_telemetry::{CounterGroup, LatencyHistogram, Snapshot};
//!
//! let mut g = CounterGroup::new("link.upstream");
//! g.push("tlps", 3).push("tlp_bytes", 264);
//! let mut h = LatencyHistogram::new(25, 400); // 25 ns buckets, 10 µs range
//! h.record_ns(437.0);
//! let mut snap = Snapshot::new("demo");
//! snap.add_group(g);
//! assert!(snap.to_json().contains("\"tlp_bytes\": 264"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod driver;
pub mod hist;
pub mod json;
pub mod rpc;
pub mod snapshot;
pub mod stages;

pub use counters::CounterGroup;
pub use driver::DriverStage;
pub use hist::LatencyHistogram;
pub use rpc::RpcStage;
pub use snapshot::{Snapshot, StageReport};
pub use stages::{Stage, StageSample, StageSet, StageStats};
