//! # pcie-rpc — end-to-end RPC serving over the switch fabric
//!
//! The paper's methodology (§6) is explicitly meant to extend beyond a
//! single NIC to whole-platform PCIe studies. This crate composes the
//! pieces the earlier subsystems built — the transaction-level switch
//! and P2P machinery of `pcie-topo`/`pcie-device`, the RSS steering of
//! `pcie-flows`, and the deferred-issuance scheduling discipline of
//! `pcie-drivers` — into one serving story: RPCs arrive at a simulated
//! NIC, are RSS-steered onto per-queue rings, forwarded
//! device-to-device across the switch to an accelerator with a
//! configurable service-time model, and returned the same way
//! (RPCAcc-style PCIe-attached RPC offload; see PAPERS.md).
//!
//! Two datapaths are selectable per run:
//!
//! * **host-bypass** ([`Datapath::HostBypass`]) — requests and
//!   responses cross the switch's internal crossbar directly
//!   (`forward_peer`), never touching the upstream link or the IOMMU;
//! * **host-bounce** ([`Datapath::HostBounce`]) — ACS Source
//!   Validation / P2P Request Redirect is on, so every peer TLP climbs
//!   the shared upstream link, is validated by the root complex with
//!   the IOMMU TLB in the path, and descends again.
//!
//! [`RpcQueueSim`] chains NIC → switch → accelerator → switch → NIC
//! hops as typed events on an event queue, issued with the same
//! deferred-issuance loop as `DriverSim` and `QueueSim`
//! ([`EventQueue::pop_before`](pcie_sim::EventQueue::pop_before):
//! platform issue ports are FIFO timelines, so every platform call is
//! made at its event time, in event-time order), and
//! [`RpcEngine`] fans queues out over a `pcie-par` pool with the same
//! determinism discipline as `pcie-flows`: schedule generation is
//! sequential, every queue owns a private platform, reports merge in
//! queue order — `threads:1` and `threads:N` runs are bit-identical,
//! pinned by [`RpcRunReport::fingerprint`].
//!
//! Per-RPC latency telescopes over the six `rpc.stages` of
//! [`pcie_telemetry::RpcStage`] (`ingress_dma → steer → fabric_req →
//! accel_service → fabric_resp → egress_dma`), summing exactly to
//! end-to-end — asserted at the end of every queue run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accel;
pub mod engine;
pub mod queue;

pub use accel::AccelModel;
pub use engine::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile, RpcRunReport};
pub use queue::{NicModel, QueuedRpc, RpcCounters, RpcQueueReport, RpcQueueSim};
