//! Per-packet driver-path stage attribution.
//!
//! The DMA pipeline stages of [`crate::stages`] explain where one PCIe
//! transaction's nanoseconds go; a NIC *driver* adds a second pipeline
//! above it: the packet lands in host memory, the driver finds out
//! (interrupt, poll loop, completion queue), software processes it,
//! the application reacts, and a response is posted and fetched. Each
//! `pcie-drivers` interaction pattern walks exactly these boundaries,
//! so per-packet timestamps telescope the same way the DMA stages do:
//! the six [`DriverStage`] durations **sum exactly to the packet's
//! end-to-end latency** (MAC arrival → response fetched by the
//! device). The `rx_dma` and `tx_dma` stages are themselves composed
//! of the lower-level DMA stages — the two breakdowns nest.

use crate::stages::StageSet;

/// One stage of the per-packet driver path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DriverStage {
    /// MAC arrival → packet payload and receive descriptor write-back
    /// absorbed in host memory (pure PCIe/hardware time; nests the DMA
    /// stage breakdown of [`crate::Stage`]).
    RxDma,
    /// Host-visible → the driver *knows*: interrupt coalescing wait +
    /// MSI write TLP + IRQ entry for interrupt-driven patterns, or the
    /// residual poll-loop gap for busy-polling patterns, or completion
    /// queue reaping for io_uring.
    Notify,
    /// Driver software per-packet receive work: skb allocation and
    /// protocol demux (kernel), mbuf handling (DPDK), XDP verdict +
    /// redirect (AF_XDP), CQE handling (io_uring). Serialised on the
    /// driver CPU, so batch queueing lands here.
    RxSoftware,
    /// Application work on the delivered packet (the echo turnaround),
    /// including any copy out of driver buffers.
    App,
    /// Response handed to the driver → transmit descriptor posted and
    /// the doorbell (or fill/submission-ring update) visible to the
    /// device; doorbell-batching wait lands here.
    TxPost,
    /// Doorbell visible → the device has fetched the transmit
    /// descriptor and the response payload (response on the wire).
    TxDma,
}

impl StageSet for DriverStage {
    type Ns = [f64; 6];
    const ALL: &'static [DriverStage] = &[
        DriverStage::RxDma,
        DriverStage::Notify,
        DriverStage::RxSoftware,
        DriverStage::App,
        DriverStage::TxPost,
        DriverStage::TxDma,
    ];
    const TOTAL_KEYS: &'static [&'static str] = &[
        "rx_dma_total_ns",
        "notify_total_ns",
        "rx_sw_total_ns",
        "app_total_ns",
        "tx_post_total_ns",
        "tx_dma_total_ns",
    ];
    const UNIT: &'static str = "packets";
    /// Driver-path latencies reach hundreds of microseconds under
    /// heavy interrupt coalescing, far past the DMA-stage band: 50 ns
    /// × 4000 buckets = 200 µs.
    const BUCKET_WIDTH_NS: u64 = 50;
    const N_BUCKETS: usize = 4000;

    fn index(self) -> usize {
        self as usize
    }
}
