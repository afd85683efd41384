//! What the four workloads share: the pass they run, what one
//! configuration reports, the output digest, the modelled counters of
//! the counting pass, and the per-layer metric helpers.

use crate::trace::{SpanTotals, Summary};
use crate::{dma_sweep, driver_zoo, flow_rx, rpc_fabric};
use pcie_telemetry::Snapshot;
use std::collections::BTreeMap;

/// How much of each configuration a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// One simulated operation per configuration: everything it takes
    /// to reach the first op (hosts, platforms, warm caches, the flow
    /// table ramp). This is the set-up the `setup_s` metric times.
    OneOp,
    /// The measured size of every configuration.
    Full,
}

/// One pass's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Pass size.
    pub pass: Pass,
    /// Seed for every engine, or `None` for each engine's own default.
    pub seed: Option<u64>,
}

/// What one configuration produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated operations (DMAs, packets or RPCs).
    pub ops: u64,
    /// FNV-1a digest of the configuration's simulated outputs.
    pub digest: u64,
    /// The configuration's conservation check.
    pub check: Result<(), String>,
}

/// Modelled counters summed over a counting pass, by key.
pub type Counts = BTreeMap<String, f64>;

/// Adds `v` to counter `key`.
pub fn add(counts: &mut Counts, key: impl Into<String>, v: f64) {
    *counts.entry(key.into()).or_insert(0.0) += v;
}

/// Counter `key`, zero if never added.
pub fn get(counts: &Counts, key: &str) -> f64 {
    counts.get(key).copied().unwrap_or(0.0)
}

/// `a / b`, or zero when `b` is zero (a layer the pass did not use).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over 64-bit words: the construction of the engines' own
/// report fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) -> &mut Fnv {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Folds in a float by its bits.
    pub fn float(&mut self, f: f64) -> &mut Fnv {
        self.word(f.to_bits())
    }

    /// Folds in a string, byte by byte.
    pub fn text(&mut self, s: &str) -> &mut Fnv {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a traced run hands each workload to derive its layer metrics.
pub struct Traced<'a> {
    /// Spans of the traced full repetitions.
    pub reps: &'a Summary,
    /// Number of traced full repetitions.
    pub rep_count: u64,
    /// Spans of the traced one-op pass.
    pub setup: &'a Summary,
    /// The configurations of one full repetition.
    pub outcomes: &'a [Outcome],
    /// Modelled counters of the counting pass.
    pub counts: &'a Counts,
}

impl Traced<'_> {
    /// Simulated ops of the configurations `pick` accepts, over every
    /// traced repetition.
    pub fn ops(&self, pick: impl Fn(usize) -> bool) -> f64 {
        let per_rep: u64 = (self.outcomes.iter().enumerate())
            .filter(|&(i, _)| pick(i))
            .map(|(_, o)| o.ops)
            .sum();
        (per_rep * self.rep_count) as f64
    }

    /// Host ns per simulated op spent in span `name` of the
    /// configurations `pick` accepts: whole spans, or self time
    /// (children excluded) when `self_time`.
    pub fn ns_per_op(&self, name: &str, self_time: bool, pick: impl Fn(usize) -> bool) -> f64 {
        let t = self.reps.totals(name, &pick);
        let ns = if self_time { t.self_ns } else { t.total_ns };
        ratio(ns as f64, self.ops(pick))
    }

    /// Mean duration, ns, of span `name` in the one-op pass.
    pub fn setup_mean_ns(&self, name: &str) -> f64 {
        let t: SpanTotals = self.setup.totals(name, |_| true);
        ratio(t.total_ns as f64, t.count as f64)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5.4 DMA grid.
    DmaSweep,
    /// The driver zoo and the Figure 1 NIC designs.
    DriverZoo,
    /// The million-flow RSS engine.
    FlowRx,
    /// RPC serving over the switch fabric.
    RpcFabric,
}

/// Every workload, in presentation order.
pub const ALL: [Workload; 4] = [
    Workload::DmaSweep,
    Workload::DriverZoo,
    Workload::FlowRx,
    Workload::RpcFabric,
];

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DmaSweep => "dma_sweep",
            Workload::DriverZoo => "driver_zoo",
            Workload::FlowRx => "flow_rx",
            Workload::RpcFabric => "rpc_fabric",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one op is, for the report.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::DmaSweep => "DMA",
            Workload::DriverZoo | Workload::FlowRx => "packet",
            Workload::RpcFabric => "RPC",
        }
    }

    /// Runs every configuration once, appending one outcome each to
    /// `out`. With `counts`, also sums the modelled counters that the
    /// per-layer metrics read (the untimed counting pass).
    pub fn run(self, run: Run, out: &mut Vec<Outcome>, counts: Option<&mut Counts>) {
        match self {
            Workload::DmaSweep => dma_sweep::run(run, out, counts),
            Workload::DriverZoo => driver_zoo::run(run, out, counts),
            Workload::FlowRx => flow_rx::run(run, out, counts),
            Workload::RpcFabric => rpc_fabric::run(run, out, counts),
        }
    }

    /// The workload's own per-layer metrics from a traced run.
    pub fn layer_metrics(self, t: &Traced) -> Vec<Metric> {
        match self {
            Workload::DmaSweep => dma_sweep::layer_metrics(t),
            Workload::DriverZoo => driver_zoo::layer_metrics(t),
            Workload::FlowRx => flow_rx::layer_metrics(t),
            Workload::RpcFabric => rpc_fabric::layer_metrics(t),
        }
    }

    /// The spans the workload records, for the per-span allocation
    /// metrics.
    pub fn spans(self) -> &'static [&'static str] {
        match self {
            Workload::DmaSweep => dma_sweep::SPANS,
            Workload::DriverZoo => driver_zoo::SPANS,
            Workload::FlowRx => flow_rx::SPANS,
            Workload::RpcFabric => rpc_fabric::SPANS,
        }
    }
}

/// Sums the device, link and host counters of one platform snapshot
/// whose configuration ran `ops` simulated ops.
pub fn tally_platform(snap: &Snapshot, ops: u64, counts: &mut Counts) {
    let mut sum = |key: &str, group: &str, counters: &[&str]| {
        if let Some(g) = snap.group(group) {
            let v: u64 = counters.iter().filter_map(|c| g.get(c)).sum();
            add(counts, key, v as f64);
        }
    };
    for dir in ["link.upstream", "link.downstream"] {
        sum("link.tlps", dir, &["tlps"]);
        sum("link.dllps", dir, &["dllps"]);
    }
    sum("host.cache.read_hits", "host.cache.node0", &["read_hits"]);
    sum(
        "host.cache.reads",
        "host.cache.node0",
        &["read_hits", "read_misses"],
    );
    sum("host.iommu.tlb_hits", "host.iommu", &["tlb_hits"]);
    sum(
        "host.iommu.lookups",
        "host.iommu",
        &["tlb_hits", "tlb_misses"],
    );
    sum("host.rc.queue_ns", "host.rc", &["queue_ns"]);
    if let Some(g) = snap.group("device.gates") {
        for &(name, v) in g.counters() {
            if name.ends_with("_stalls") {
                add(counts, "device.gates.stalls", v as f64);
            } else if name.ends_with("_wait_ns") {
                add(counts, "device.gates.wait_ns", v as f64);
            }
        }
    }
    add(counts, "platform.ops", ops as f64);
}

/// The modelled device, link and host metrics from
/// [`tally_platform`] sums: per op of the configurations whose
/// platform was read.
pub fn platform_metrics(c: &Counts) -> Vec<Metric> {
    let ops = get(c, "platform.ops");
    let per_op = |key: &str| ratio(get(c, key), ops);
    vec![
        Metric::new("link.tlps_per_op", per_op("link.tlps"), "count"),
        Metric::new("link.dllps_per_op", per_op("link.dllps"), "count"),
        Metric::new(
            "host.cache.read_hit_ratio",
            ratio(get(c, "host.cache.read_hits"), get(c, "host.cache.reads")),
            "ratio",
        ),
        Metric::new(
            "host.iommu.tlb_hit_ratio",
            ratio(get(c, "host.iommu.tlb_hits"), get(c, "host.iommu.lookups")),
            "ratio",
        ),
        Metric::new("host.rc.queue_ns_per_op", per_op("host.rc.queue_ns"), "ns"),
        Metric::new(
            "device.gates.stalls_per_op",
            per_op("device.gates.stalls"),
            "count",
        ),
        Metric::new(
            "device.gates.wait_ns_per_op",
            per_op("device.gates.wait_ns"),
            "ns",
        ),
    ]
}
