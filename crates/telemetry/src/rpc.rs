//! Per-RPC fabric-pipeline stage attribution.
//!
//! The RPC-serving pipeline of `pcie-rpc` spans *two* devices and the
//! switch between them: a request lands at the NIC, is RSS-steered to
//! a queue, crosses the fabric to the accelerator, is served, and the
//! response crosses back and leaves on the wire. Each hop boundary is
//! a timestamp in the simulation, so per-RPC durations telescope the
//! same way [`crate::DriverStage`] packets do: the six [`RpcStage`]
//! durations **sum exactly to the RPC's end-to-end latency** (wire
//! arrival → response on the wire). The `fabric_req`/`fabric_resp`
//! stages are where the host-bypass vs host-bounce datapaths diverge —
//! under ACS redirect they absorb the root-complex hop and any IOMMU
//! TLB misses, so the bypass-vs-bounce gap is directly readable from
//! the stage means.

use crate::stages::StageSet;

/// One stage of the per-RPC fabric pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RpcStage {
    /// Wire arrival at the NIC → request payload absorbed into the
    /// NIC's staging buffer (ingress MAC/DMA serialisation, including
    /// any queueing behind earlier arrivals on the ingress engine).
    IngressDma,
    /// Request visible to the NIC pipeline → RSS hash computed and the
    /// request parked on its per-queue ring (fixed classify cost).
    Steer,
    /// Queue issue → request bytes absorbed by the accelerator across
    /// the fabric (P2P write through the switch; under ACS redirect
    /// this includes the root-complex hop and IOMMU translations).
    FabricReq,
    /// Request absorbed at the accelerator → response ready (service
    /// core queueing + the configured service time).
    AccelService,
    /// Response issue → response bytes absorbed back at the NIC across
    /// the fabric (the return P2P write; same bypass/bounce split as
    /// `fabric_req`).
    FabricResp,
    /// Response at the NIC → response on the wire (egress MAC/DMA
    /// serialisation, including queueing on the egress engine).
    EgressDma,
}

impl StageSet for RpcStage {
    type Ns = [f64; 6];
    const ALL: &'static [RpcStage] = &[
        RpcStage::IngressDma,
        RpcStage::Steer,
        RpcStage::FabricReq,
        RpcStage::AccelService,
        RpcStage::FabricResp,
        RpcStage::EgressDma,
    ];
    const TOTAL_KEYS: &'static [&'static str] = &[
        "ingress_dma_total_ns",
        "steer_total_ns",
        "fabric_req_total_ns",
        "accel_service_total_ns",
        "fabric_resp_total_ns",
        "egress_dma_total_ns",
    ];
    const UNIT: &'static str = "rpcs";
    /// RPC latencies stretch into tens of microseconds once a deep
    /// ring queues behind a saturated fabric or IOMMU walker: the
    /// driver-path geometry (50 ns × 4000 buckets = 200 µs) covers
    /// the band.
    const BUCKET_WIDTH_NS: u64 = 50;
    const N_BUCKETS: usize = 4000;

    fn index(self) -> usize {
        self as usize
    }
}
