//! Telescoping stage attribution, one accumulator for every pipeline.
//!
//! Each pipeline the simulator attributes walks a fixed sequence of
//! stages, and the simulation timestamps every stage boundary. The
//! per-stage durations are consecutive differences of those
//! timestamps, so they **sum exactly to the end-to-end latency**. Three
//! pipelines use this, each a [`StageSet`]:
//!
//! * [`Stage`] — one DMA's critical path: the DMA engine issues it, a
//!   read tag and non-posted credit are allocated, the request TLP
//!   serialises onto the wire, the host (root complex → IOMMU →
//!   LLC/DRAM) produces the data, the completion TLP(s) serialise
//!   back, and the engine finishes internal bookkeeping. The simulator
//!   timestamps the *critical* (last-completing) chunk of each
//!   transfer; the `fig6` stage-attributed CDFs rely on the sum;
//! * [`DriverStage`](crate::DriverStage) — one packet's trip through
//!   a NIC driver, above the DMA pipeline;
//! * [`RpcStage`](crate::RpcStage) — one RPC's trip across the switch
//!   fabric to an accelerator and back.
//!
//! [`StageSample`] holds one transaction's durations and
//! [`StageStats`] accumulates many: per-stage totals and histograms,
//! an end-to-end histogram, a count, a [`StageStats::merge`] for
//! per-queue accumulators, and a counter-group export.

use crate::counters::CounterGroup;
use crate::hist::LatencyHistogram;
use core::fmt::Debug;

/// A fixed, ordered set of pipeline stages whose durations telescope
/// to an end-to-end latency.
pub trait StageSet: Copy + Debug + PartialEq + 'static {
    /// Per-stage storage: `[f64; N]` for a set of `N` stages.
    type Ns: Copy + Default + Debug + PartialEq + AsRef<[f64]> + AsMut<[f64]>;
    /// Every stage in pipeline order (`ALL[s.index()] == s`).
    const ALL: &'static [Self];
    /// Exported counter key of each stage's total, `<name>_total_ns`,
    /// in pipeline order.
    const TOTAL_KEYS: &'static [&'static str];
    /// Counter key of the recorded-transaction count in the exported
    /// group (`packets`, `rpcs`).
    const UNIT: &'static str;
    /// Histogram bucket width, ns.
    const BUCKET_WIDTH_NS: u64;
    /// Histogram bucket count; values past the last bucket saturate
    /// into the overflow bucket.
    const N_BUCKETS: usize;

    /// Position of this stage in [`StageSet::ALL`].
    fn index(self) -> usize;

    /// Stable snake_case name used in export: its total key without
    /// the `_total_ns` suffix.
    fn name(self) -> &'static str {
        let key = Self::TOTAL_KEYS[self.index()];
        &key[..key.len() - "_total_ns".len()]
    }
}

/// One stage of the DMA critical path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Waiting for a free DMA-engine worker slot and the issue port
    /// (occupancy / queueing delay; absorbs the doorbell write for
    /// write-then-read ops).
    Issue,
    /// Waiting for a PCIe read tag and a non-posted header credit.
    TagAlloc,
    /// Request TLP serialisation + propagation on the upstream wire.
    RequestWire,
    /// Root complex, IOMMU, LLC and DRAM processing on the host.
    Host,
    /// Completion TLP serialisation + propagation on the downstream
    /// wire (last completion of the critical chunk).
    CompletionWire,
    /// Data-link-layer and device error recovery: TLP retransmissions
    /// (NAK round trips, replay-timer expiries) plus device-level
    /// completion-timeout waits and read re-issues. Exactly zero on a
    /// fault-free run.
    Replay,
    /// Device-internal completion handling after the last data beat.
    DeviceCompletion,
}

impl StageSet for Stage {
    type Ns = [f64; 7];
    const ALL: &'static [Stage] = &[
        Stage::Issue,
        Stage::TagAlloc,
        Stage::RequestWire,
        Stage::Host,
        Stage::CompletionWire,
        Stage::Replay,
        Stage::DeviceCompletion,
    ];
    const TOTAL_KEYS: &'static [&'static str] = &[
        "issue_total_ns",
        "tag_alloc_total_ns",
        "request_wire_total_ns",
        "host_total_ns",
        "completion_wire_total_ns",
        "replay_total_ns",
        "device_completion_total_ns",
    ];
    const UNIT: &'static str = "transactions";
    /// 25 ns × 400 buckets = 10 µs, comfortably covering the paper's
    /// 300 ns – 2.5 µs latency band (Figure 6).
    const BUCKET_WIDTH_NS: u64 = 25;
    const N_BUCKETS: usize = 400;

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-stage durations (ns) for one transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample<S: StageSet> {
    ns: S::Ns,
}

impl<S: StageSet> Default for StageSample<S> {
    fn default() -> Self {
        StageSample {
            ns: S::Ns::default(),
        }
    }
}

impl<S: StageSet> StageSample<S> {
    /// Sets one stage's duration, clamped at zero; chainable.
    pub fn set(&mut self, stage: S, ns: f64) -> &mut Self {
        self.ns.as_mut()[stage.index()] = ns.max(0.0);
        self
    }

    /// Duration of one stage.
    pub fn get(&self, stage: S) -> f64 {
        self.ns.as_ref()[stage.index()]
    }

    /// Sum over all stages, left to right — by construction the
    /// end-to-end latency.
    pub fn total_ns(&self) -> f64 {
        self.ns.as_ref().iter().sum()
    }
}

/// Accumulated stage attribution across many transactions: per-stage
/// totals and histograms plus an end-to-end histogram.
#[derive(Debug, Clone)]
pub struct StageStats<S: StageSet> {
    totals_ns: S::Ns,
    per_stage: Vec<LatencyHistogram>,
    end_to_end: LatencyHistogram,
    count: u64,
}

impl<S: StageSet> Default for StageStats<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: StageSet> StageStats<S> {
    /// Creates an empty accumulator with the set's histogram geometry.
    pub fn new() -> Self {
        let hist = || LatencyHistogram::new(S::BUCKET_WIDTH_NS, S::N_BUCKETS);
        StageStats {
            totals_ns: S::Ns::default(),
            per_stage: S::ALL.iter().map(|_| hist()).collect(),
            end_to_end: hist(),
            count: 0,
        }
    }

    /// Records one transaction's stage breakdown.
    pub fn record(&mut self, sample: &StageSample<S>) {
        for &stage in S::ALL {
            let v = sample.get(stage);
            self.totals_ns.as_mut()[stage.index()] += v;
            self.per_stage[stage.index()].record_ns(v);
        }
        self.end_to_end.record_ns(sample.total_ns());
        self.count += 1;
    }

    /// Number of transactions recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Accumulated nanoseconds in one stage.
    pub fn total_ns(&self, stage: S) -> f64 {
        self.totals_ns.as_ref()[stage.index()]
    }

    /// Mean contribution of one stage per transaction, ns.
    pub fn mean_ns(&self, stage: S) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns(stage) / self.count as f64
        }
    }

    /// Sum of all per-stage totals — equals the end-to-end total
    /// within floating-point rounding.
    pub fn grand_total_ns(&self) -> f64 {
        self.totals_ns.as_ref().iter().sum()
    }

    /// The per-stage histogram.
    pub fn histogram(&self, stage: S) -> &LatencyHistogram {
        &self.per_stage[stage.index()]
    }

    /// The end-to-end latency histogram.
    pub fn end_to_end(&self) -> &LatencyHistogram {
        &self.end_to_end
    }

    /// Folds `other` into `self`, so accumulators recorded
    /// independently (one per RSS queue, one per `pcie-par` worker)
    /// aggregate into exact whole-run stage totals and quantiles.
    pub fn merge(&mut self, other: &StageStats<S>) {
        for i in 0..S::ALL.len() {
            self.totals_ns.as_mut()[i] += other.totals_ns.as_ref()[i];
            self.per_stage[i].merge(&other.per_stage[i]);
        }
        self.end_to_end.merge(&other.end_to_end);
        self.count += other.count;
    }

    /// The stage totals as a counter group named `component`: the
    /// count under [`StageSet::UNIT`], `<stage>_total_ns` per stage,
    /// then `end_to_end_total_ns`, all truncated to whole ns.
    pub fn telemetry_group(&self, component: &str) -> CounterGroup {
        let mut g = CounterGroup::new(component);
        g.push(S::UNIT, self.count);
        for &stage in S::ALL {
            g.push(S::TOTAL_KEYS[stage.index()], self.total_ns(stage) as u64);
        }
        g.push("end_to_end_total_ns", self.end_to_end.total_ns() as u64);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriverStage, RpcStage};

    #[test]
    fn sample_sum_is_total() {
        let mut s = StageSample::default();
        s.set(Stage::Issue, 10.0)
            .set(Stage::TagAlloc, 2.0)
            .set(Stage::RequestWire, 9.6)
            .set(Stage::Host, 250.0)
            .set(Stage::CompletionWire, 33.6)
            .set(Stage::DeviceCompletion, 70.0);
        assert!((s.total_ns() - 375.2).abs() < 1e-9);
        assert_eq!(s.get(Stage::Host), 250.0);
    }

    #[test]
    fn negative_stage_duration_clamps() {
        let mut s = StageSample::default();
        s.set(Stage::Host, -1e-12);
        assert_eq!(s.get(Stage::Host), 0.0);
    }

    #[test]
    fn stats_accumulate_and_reconcile() {
        let mut stats = StageStats::new();
        for i in 0..100 {
            let mut s = StageSample::default();
            s.set(Stage::Issue, 5.0)
                .set(Stage::RequestWire, 9.6)
                .set(Stage::Host, 200.0 + i as f64)
                .set(Stage::CompletionWire, 33.6)
                .set(Stage::DeviceCompletion, 70.0);
            stats.record(&s);
        }
        assert_eq!(stats.count(), 100);
        assert_eq!(stats.end_to_end().count(), 100);
        assert_eq!(stats.histogram(Stage::Host).count(), 100);
        let e2e_total = stats.end_to_end().total_ns();
        assert!(
            (stats.grand_total_ns() - e2e_total).abs() < 1e-6,
            "stage totals {} vs end-to-end {}",
            stats.grand_total_ns(),
            e2e_total
        );
        assert!((stats.mean_ns(Stage::CompletionWire) - 33.6).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = StageStats::new();
        let mut b = StageStats::new();
        let mut whole = StageStats::new();
        for i in 0..10 {
            let mut s = StageSample::default();
            s.set(RpcStage::FabricReq, 500.0 + i as f64)
                .set(RpcStage::AccelService, 700.0);
            if i % 2 == 0 {
                a.record(&s);
            } else {
                b.record(&s);
            }
            whole.record(&s);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.end_to_end(), whole.end_to_end());
        for &stage in RpcStage::ALL {
            assert_eq!(a.histogram(stage), whole.histogram(stage));
            assert!((a.total_ns(stage) - whole.total_ns(stage)).abs() < 1e-9);
        }
    }

    #[test]
    fn telemetry_group_exports_totals() {
        let mut stats = StageStats::new();
        let mut s = StageSample::default();
        s.set(DriverStage::RxDma, 1000.0)
            .set(DriverStage::TxDma, 2000.0);
        stats.record(&s);
        let g = stats.telemetry_group("driver.stages");
        assert_eq!(g.component, "driver.stages");
        assert_eq!(g.get("packets"), Some(1));
        assert_eq!(g.get("rx_dma_total_ns"), Some(1000));
        assert_eq!(g.get("tx_dma_total_ns"), Some(2000));
        assert_eq!(g.get("end_to_end_total_ns"), Some(3000));
        assert_eq!(g.len(), 2 + DriverStage::ALL.len());
        let mut stats = StageStats::new();
        let mut s = StageSample::default();
        s.set(RpcStage::FabricReq, 1000.0);
        stats.record(&s);
        let g = stats.telemetry_group("rpc.stages");
        assert_eq!(g.get("rpcs"), Some(1));
        assert_eq!(g.get("fabric_req_total_ns"), Some(1000));
    }

    /// Stage names and indices are stable: they are exported keys.
    #[test]
    fn stage_names_and_indices_are_stable() {
        fn names<S: StageSet>() -> Vec<&'static str> {
            for (i, s) in S::ALL.iter().enumerate() {
                assert_eq!(s.index(), i);
            }
            assert_eq!(S::ALL.len(), S::TOTAL_KEYS.len());
            assert_eq!(S::ALL.len(), S::Ns::default().as_ref().len());
            S::ALL.iter().map(|s| s.name()).collect()
        }
        assert_eq!(
            names::<Stage>(),
            [
                "issue",
                "tag_alloc",
                "request_wire",
                "host",
                "completion_wire",
                "replay",
                "device_completion"
            ]
        );
        assert_eq!(
            names::<DriverStage>(),
            ["rx_dma", "notify", "rx_sw", "app", "tx_post", "tx_dma"]
        );
        assert_eq!(
            names::<RpcStage>(),
            [
                "ingress_dma",
                "steer",
                "fabric_req",
                "accel_service",
                "fabric_resp",
                "egress_dma"
            ]
        );
    }

    /// Driver and RPC latencies reach hundreds of microseconds under
    /// interrupt coalescing or a saturated IOMMU walker: their 50 ns ×
    /// 4000 geometry keeps a 150 µs sample out of the overflow bucket.
    #[test]
    fn long_tail_lands_in_histogram_not_overflow() {
        let mut stats = StageStats::new();
        let mut s = StageSample::default();
        s.set(DriverStage::Notify, 150_000.0);
        stats.record(&s);
        assert_eq!(stats.histogram(DriverStage::Notify).overflow(), 0);
        assert_eq!(stats.end_to_end().overflow(), 0);
        let mut stats = StageStats::new();
        let mut s = StageSample::default();
        s.set(RpcStage::FabricReq, 150_000.0);
        stats.record(&s);
        assert_eq!(stats.histogram(RpcStage::FabricReq).overflow(), 0);
        let dma = StageStats::<Stage>::new();
        assert_eq!(dma.end_to_end().bucket_width_ns(), 25);
        assert_eq!(dma.end_to_end().buckets().len(), 400);
    }
}
