//! Latency micro-benchmarks (§4.1): `LAT_RD` and `LAT_WRRD`.
//!
//! One transaction at a time: the issuing thread computes the next
//! address, timestamps, issues the DMA, waits for completion,
//! timestamps again and journals the difference — exactly the firmware
//! loop of §5.1. Timestamps are quantised to the device's counter
//! resolution (19.2 ns on the NFP, 4 ns on the NetFPGA).

use crate::params::BenchParams;
use crate::scratch::BenchScratch;
use crate::setup::BenchSetup;
use crate::stats::{sort_samples, Cdf, Summary};
use pcie_device::DmaPath;
use pcie_sim::SimTime;
use pcie_telemetry::Snapshot;

/// Which latency benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatOp {
    /// `LAT_RD`: DMA read latency.
    Rd,
    /// `LAT_WRRD`: DMA write followed by DMA read of the same address
    /// (the only way to observe posted-write cost, §4.1).
    WrRd,
}

impl LatOp {
    /// The benchmark's paper name.
    pub fn name(self) -> &'static str {
        match self {
            LatOp::Rd => "LAT_RD",
            LatOp::WrRd => "LAT_WRRD",
        }
    }
}

/// Result of a latency run.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// The benchmark run.
    pub op: LatOp,
    /// Geometry used.
    pub params: BenchParams,
    /// Per-transaction latencies in ns (timestamp-quantised), in
    /// issue order.
    pub samples_ns: Vec<f64>,
    /// `samples_ns` sorted ascending — computed once and shared by
    /// [`LatencyResult::summary`] and [`LatencyResult::cdf`], instead
    /// of each clone-and-sorting the journal again.
    pub sorted_ns: Vec<f64>,
    /// Summary statistics.
    pub summary: Summary,
    /// Cross-layer telemetry snapshot, present when the setup was
    /// built [`BenchSetup::with_telemetry`]. Includes the per-stage
    /// latency breakdown whose contributions sum to the end-to-end
    /// latency.
    pub telemetry: Option<Snapshot>,
}

impl LatencyResult {
    /// CDF of the samples (Figure 6), derived from the shared sorted
    /// buffer — no further clone or sort.
    pub fn cdf(&self, max_points: usize) -> Cdf {
        Cdf::from_sorted(&self.sorted_ns, max_points)
    }
}

/// Time the benchmark thread spends journalling a result and fetching
/// the next address between transactions.
const JOURNAL_GAP: SimTime = SimTime::from_ns(60);

/// Runs a latency benchmark of `n` transactions.
pub fn run_latency(
    setup: &BenchSetup,
    params: &BenchParams,
    op: LatOp,
    n: usize,
    path: DmaPath,
) -> LatencyResult {
    let mut scratch = BenchScratch::new();
    let (platform, _) = measure(setup, params, op, n, path, &mut scratch);
    let samples = std::mem::take(&mut scratch.samples);
    // Same selection-based constructor as `run_latency_summary`, fed
    // the same issue-order data, so the two paths agree bit-for-bit.
    let mut sorted = samples.clone();
    let summary = Summary::from_unsorted_mut(&mut sorted);
    sort_samples(&mut sorted);
    let telemetry = platform
        .telemetry_enabled()
        .then(|| platform.telemetry_snapshot(format!("{}/{}", op.name(), params.transfer)));
    LatencyResult {
        op,
        params: *params,
        samples_ns: samples,
        sorted_ns: sorted,
        summary,
        telemetry,
    }
}

/// Summary-only latency run for the full-suite hot path: journals
/// into `scratch`'s reusable buffers (pre-sized, recycled across
/// tests) instead of allocating per test, and extracts percentiles by
/// selection instead of a full sort. Produces exactly the [`Summary`]
/// that [`run_latency`] would.
pub fn run_latency_summary(
    setup: &BenchSetup,
    params: &BenchParams,
    op: LatOp,
    n: usize,
    path: DmaPath,
    scratch: &mut BenchScratch,
) -> Summary {
    let _ = measure(setup, params, op, n, path, scratch);
    let mut samples = std::mem::take(&mut scratch.samples);
    let summary = Summary::from_unsorted_mut(&mut samples);
    scratch.samples = samples;
    summary
}

/// The shared measurement loop: fills `scratch.samples` (issue order),
/// returning the platform for telemetry/state inspection and the last
/// completion time. The platform's LLC buffers are recycled into the
/// scratch pool on the way out.
fn measure(
    setup: &BenchSetup,
    params: &BenchParams,
    op: LatOp,
    n: usize,
    path: DmaPath,
    scratch: &mut BenchScratch,
) -> (pcie_device::Platform, SimTime) {
    assert!(n > 0);
    let (mut platform, buf) = setup.build_with(params, &mut scratch.cache_pool);
    // The access-order stream is a pure function of (geometry,
    // pattern, seed): replay the memoised prefix instead of redrawing
    // it for every cell of a sweep that shares those.
    let offsets = scratch.orders.offsets(params, setup.seed ^ 0xACCE55, n);
    scratch.samples.clear();
    scratch.samples.reserve(n);
    let mut now = SimTime::ZERO;
    for &off in offsets {
        let r = match op {
            LatOp::Rd => platform.dma_read(now, &buf, off, params.transfer, path),
            LatOp::WrRd => platform.dma_write_read(now, &buf, off, params.transfer, path),
        };
        scratch
            .samples
            .push(platform.quantize(r.latency()).as_ns_f64());
        now = r.done + JOURNAL_GAP;
    }
    // The platform is done simulating: return its LLC set records to
    // the pool (stats survive for telemetry snapshots).
    platform.host.recycle_caches(&mut scratch.cache_pool);
    (platform, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CacheState;

    fn quick(setup: &BenchSetup, params: &BenchParams, op: LatOp) -> LatencyResult {
        run_latency(setup, params, op, 400, DmaPath::DmaEngine)
    }

    #[test]
    fn lat_rd_baseline_band() {
        let setup = BenchSetup::netfpga_hsw();
        let r = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        assert_eq!(r.samples_ns.len(), 400);
        // Warm 64B reads: paper band ~400-550ns end to end.
        assert!(
            r.summary.median > 380.0 && r.summary.median < 580.0,
            "median {}",
            r.summary.median
        );
        assert!(r.summary.min <= r.summary.median);
        assert!(r.summary.p99 >= r.summary.median);
    }

    #[test]
    fn samples_are_quantised() {
        let setup = BenchSetup::nfp6000_hsw();
        let r = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        for s in &r.samples_ns {
            let ps = (s * 1000.0).round() as u64;
            assert_eq!(ps % 19_200, 0, "sample {s} not on the 19.2ns grid");
        }
    }

    #[test]
    fn wrrd_exceeds_rd() {
        let setup = BenchSetup::netfpga_hsw();
        let rd = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        let wrrd = quick(&setup, &BenchParams::baseline(64), LatOp::WrRd);
        assert!(wrrd.summary.median > rd.summary.median);
    }

    #[test]
    fn cold_slower_than_warm() {
        let setup = BenchSetup::netfpga_hsw();
        let warm = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        let cold_params = BenchParams {
            cache: CacheState::Cold,
            ..BenchParams::baseline(64)
        };
        let cold = quick(&setup, &cold_params, LatOp::Rd);
        let delta = cold.summary.median - warm.summary.median;
        // ~70ns DRAM penalty, quantised to the 4ns NetFPGA clock.
        assert!((50.0..95.0).contains(&delta), "delta {delta}");
    }

    #[test]
    fn determinism_per_seed() {
        let setup = BenchSetup::nfp6000_hsw();
        let a = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        let b = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        assert_eq!(a.samples_ns, b.samples_ns, "same seed, same run");
        let c = quick(
            &setup.clone().with_seed(1234),
            &BenchParams::baseline(64),
            LatOp::Rd,
        );
        assert_ne!(a.samples_ns, c.samples_ns);
    }

    #[test]
    fn telemetry_snapshot_rides_along_when_enabled() {
        let setup = BenchSetup::netfpga_hsw();
        let plain = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        assert!(plain.telemetry.is_none(), "off by default");

        let setup = setup.with_telemetry();
        let r = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        let snap = r.telemetry.as_ref().expect("snapshot present");
        assert_eq!(snap.label, "LAT_RD/64");
        let st = snap.stages().expect("stage report");
        assert_eq!(st.transactions, 400);
        // Per-stage totals reconcile with the end-to-end histogram.
        assert!(
            (st.stage_total_ns() - st.end_to_end_total_ns).abs() < 1e-6 * st.end_to_end_total_ns,
            "stage sum {} vs end-to-end {}",
            st.stage_total_ns(),
            st.end_to_end_total_ns
        );
        // Wire counters present: 400 MRd TLPs upstream.
        assert_eq!(snap.group("link.upstream").unwrap().get("tlps"), Some(400));
        // And telemetry does not perturb the measurement itself.
        assert_eq!(plain.samples_ns, r.samples_ns);
    }

    #[test]
    fn summary_path_matches_full_result_and_reuses_buffers() {
        let setup = BenchSetup::netfpga_hsw();
        let mut scratch = BenchScratch::new();
        // Alternate geometries so a dirty scratch from one test feeds
        // the next — values must match fresh-allocation runs exactly.
        for (sz, n) in [(64u32, 300usize), (512, 120), (8, 77)] {
            let p = BenchParams::baseline(sz);
            let full = run_latency(&setup, &p, LatOp::Rd, n, DmaPath::DmaEngine);
            let s = run_latency_summary(&setup, &p, LatOp::Rd, n, DmaPath::DmaEngine, &mut scratch);
            assert_eq!(full.summary, s, "size {sz}");
            let mut resorted = full.samples_ns.clone();
            crate::stats::sort_samples(&mut resorted);
            assert_eq!(
                full.sorted_ns, resorted,
                "sorted buffer is the sorted journal"
            );
        }
        let caps = scratch.capacities();
        let s2 = run_latency_summary(
            &setup,
            &BenchParams::baseline(64),
            LatOp::Rd,
            300,
            DmaPath::DmaEngine,
            &mut scratch,
        );
        assert_eq!(caps, scratch.capacities(), "steady state: no regrowth");
        assert!(s2.count == 300);
    }

    #[test]
    fn cdf_reflects_samples() {
        let setup = BenchSetup::nfp6000_hsw();
        let r = quick(&setup, &BenchParams::baseline(64), LatOp::Rd);
        let cdf = r.cdf(64);
        assert!(cdf.value_at(0.5) >= r.summary.min);
        assert!(cdf.value_at(1.0) == r.summary.max);
    }
}
