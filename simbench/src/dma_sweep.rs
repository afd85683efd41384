//! `dma_sweep`: the paper's own method (§5.4). A parameter grid run
//! cell by cell through `SuiteConfig::jobs` and `SuiteJob::run` on
//! NFP6000-HSW, with the IOMMU off and with 4 KiB pages.
//!
//! The grid covers all five benchmarks, transfers of 8 B to 2 KiB at
//! an aligned and an unaligned offset, and windows of 4 KiB to 64 MiB
//! (either side of the 256 KiB IO-TLB reach, the 1.5 MiB DDIO ways
//! and the 15 MiB LLC) in all three cache states. Warming a 64 MiB
//! window and drawing its access order cost milliseconds per cell, so
//! that window runs a reduced grid: cold and host-warm, aligned, the
//! smallest and largest sizes. Host time here is almost all in the
//! device → link → host DMA path and in the per-cell platform builds;
//! none of it is in a serving engine. One op is one DMA; a LAT_WRRD
//! transaction is two.

use crate::trace;
use crate::workload::{
    platform_metrics, tally_platform, Counts, Fnv, Metric, Outcome, Pass, Run, Traced,
};
use pcie_device::DmaPath;
use pciebench::suite::{Measurement, SuiteConfig, SuiteEntry, SuiteJob, SuiteOp};
use pciebench::{
    run_bandwidth, run_latency, BenchScratch, BenchSetup, BwOp, CacheState, IommuMode, LatOp,
    Pattern,
};

/// The spans this workload records.
pub const SPANS: &[&str] = &["dma_sweep.cell", "core.suite_job"];

/// Transactions per latency cell.
const N_LAT: usize = 1_000;
/// Transactions per bandwidth cell.
const N_BW: usize = 4_000;

const IOMMU: [IommuMode; 2] = [IommuMode::Off, IommuMode::FourK];

/// The benchmarks, by the names the layer metrics use.
const BENCHES: [&str; 5] = ["lat_rd", "lat_wrrd", "bw_rd", "bw_wr", "bw_rdwr"];

fn grids() -> [SuiteConfig; 2] {
    let small = SuiteConfig {
        lat_sizes: vec![8, 64, 512, 2048],
        bw_sizes: vec![64, 256, 2048],
        windows: vec![4 << 10, 64 << 10, 1 << 20],
        states: vec![
            CacheState::Cold,
            CacheState::HostWarm,
            CacheState::DeviceWarm,
        ],
        offsets: vec![0, 1],
        patterns: vec![Pattern::Random],
        n_lat: N_LAT,
        n_bw: N_BW,
    };
    let large = SuiteConfig {
        lat_sizes: vec![8, 2048],
        bw_sizes: vec![64, 2048],
        windows: vec![64 << 20],
        states: vec![CacheState::Cold, CacheState::HostWarm],
        offsets: vec![0],
        ..small.clone()
    };
    [small, large]
}

/// One grid cell: the IOMMU mode (index into [`IOMMU`]) and the job.
struct Cell {
    iommu: usize,
    job: SuiteJob,
}

fn cells(pass: Pass) -> Vec<Cell> {
    let mut cells = Vec::new();
    for iommu in 0..IOMMU.len() {
        for grid in grids() {
            for mut job in grid.jobs() {
                if pass == Pass::OneOp {
                    job.n = 1;
                }
                cells.push(Cell { iommu, job });
            }
        }
    }
    cells
}

fn setup(iommu: IommuMode, seed: Option<u64>) -> BenchSetup {
    let s = BenchSetup::nfp6000_hsw().with_iommu(iommu);
    match seed {
        Some(seed) => s.with_seed(seed),
        None => s,
    }
}

fn bench(job: &SuiteJob) -> usize {
    match job.op {
        SuiteOp::Lat(LatOp::Rd) => 0,
        SuiteOp::Lat(LatOp::WrRd) => 1,
        SuiteOp::Bw(BwOp::Rd) => 2,
        SuiteOp::Bw(BwOp::Wr) => 3,
        SuiteOp::Bw(BwOp::RdWr) => 4,
    }
}

fn dmas(job: &SuiteJob) -> u64 {
    match job.op {
        SuiteOp::Lat(LatOp::WrRd) => 2 * job.n as u64,
        _ => job.n as u64,
    }
}

/// Runs every cell.
pub fn run(run: Run, out: &mut Vec<Outcome>, mut counts: Option<&mut Counts>) {
    let setups = IOMMU.map(|m| setup(m, run.seed));
    let cells = cells(run.pass);
    let mut scratch = BenchScratch::new();
    for (i, cell) in cells.iter().enumerate() {
        let setup = &setups[cell.iommu];
        let outcome = trace::config(i, "dma_sweep.cell", || {
            let entry = match counts.as_deref_mut() {
                None => trace::span("core.suite_job", || cell.job.run(setup, &mut scratch)),
                Some(counts) => counted(setup, &cell.job, counts),
            };
            Outcome {
                ops: dmas(&cell.job),
                digest: digest(&entry),
                check: check(&cell.job, &entry),
            }
        });
        out.push(outcome);
    }
}

/// The cell run through the telemetry-enabled entry points, whose
/// platform snapshot the suite path does not return. Results are
/// bit-identical to `SuiteJob::run`, so the digest still applies.
fn counted(setup: &BenchSetup, job: &SuiteJob, counts: &mut Counts) -> SuiteEntry {
    let setup = setup.clone().with_telemetry();
    let p = &job.params;
    let (bench, value, snap) = match job.op {
        SuiteOp::Lat(op) => {
            let r = run_latency(&setup, p, op, job.n, DmaPath::DmaEngine);
            let s = r.summary;
            let value = Measurement::LatencyNs {
                median: s.median,
                p95: s.p95,
                p99: s.p99,
            };
            (op.name(), value, r.telemetry)
        }
        SuiteOp::Bw(op) => {
            let r = run_bandwidth(&setup, p, op, job.n, DmaPath::DmaEngine);
            let value = Measurement::Bandwidth {
                gbps: r.gbps,
                mtps: r.mtps,
            };
            (op.name(), value, r.telemetry)
        }
    };
    let snap = snap.expect("telemetry-enabled setups return a snapshot");
    tally_platform(&snap, dmas(job), counts);
    SuiteEntry {
        bench,
        transfer: p.transfer,
        window: p.window,
        cache: p.cache,
        offset: p.offset,
        pattern: p.pattern,
        value,
    }
}

fn digest(e: &SuiteEntry) -> u64 {
    let mut h = Fnv::new();
    h.text(e.bench)
        .word(u64::from(e.transfer))
        .word(e.window)
        .word(e.cache as u64)
        .word(u64::from(e.offset))
        .word(e.pattern as u64);
    match e.value {
        Measurement::LatencyNs { median, p95, p99 } => h.float(median).float(p95).float(p99),
        Measurement::Bandwidth { gbps, mtps } => h.float(gbps).float(mtps),
    };
    h.finish()
}

/// The entry describes its cell, its latencies are ordered, and its
/// payload rate is its transaction rate times the bytes each moved,
/// so the cell ran the transactions it was configured with.
fn check(job: &SuiteJob, e: &SuiteEntry) -> Result<(), String> {
    let p = &job.params;
    let name = match job.op {
        SuiteOp::Lat(op) => op.name(),
        SuiteOp::Bw(op) => op.name(),
    };
    if (e.bench, e.transfer, e.window, e.cache, e.offset, e.pattern)
        != (name, p.transfer, p.window, p.cache, p.offset, p.pattern)
    {
        return Err(format!("entry {e:?} does not describe its cell"));
    }
    match e.value {
        Measurement::LatencyNs { median, p95, p99 } => {
            if !(median > 0.0 && median <= p95 && p95 <= p99 && p99.is_finite()) {
                return Err(format!("latencies out of order: {median} {p95} {p99}"));
            }
        }
        Measurement::Bandwidth { gbps, mtps } => {
            let n = job.n as u64;
            let bytes = match job.op {
                SuiteOp::Bw(BwOp::RdWr) => n * u64::from(p.transfer) / 2,
                _ => n * u64::from(p.transfer),
            };
            let expect = mtps * bytes as f64 / n as f64 * 8.0 / 1e3;
            if !(gbps > 0.0 && (gbps - expect).abs() <= 1e-9 * expect) {
                return Err(format!("{gbps} Gb/s at {mtps} Mt/s is not {n} transfers"));
            }
        }
    }
    Ok(())
}

/// The `core` layer's host cost by benchmark, IOMMU mode and window
/// class, the per-cell build cost, and the modelled counters below
/// `Platform`.
pub fn layer_metrics(t: &Traced) -> Vec<Metric> {
    let cells = cells(Pass::Full);
    let llc = BenchSetup::nfp6000_hsw().preset.llc_bytes;
    let per_dma = |pick: &dyn Fn(&Cell) -> bool| {
        t.ns_per_op("core.suite_job", false, |i| cells.get(i).is_some_and(pick))
    };
    let mut m = Vec::new();
    for (b, name) in BENCHES.iter().enumerate() {
        m.push(Metric::new(
            format!("core.{name}.host_ns_per_dma"),
            per_dma(&|c| bench(&c.job) == b),
            "ns",
        ));
    }
    for (k, name) in ["iommu_off", "iommu_4k"].iter().enumerate() {
        m.push(Metric::new(
            format!("core.{name}.host_ns_per_dma"),
            per_dma(&|c| c.iommu == k),
            "ns",
        ));
    }
    m.push(Metric::new(
        "core.window_cached.host_ns_per_dma",
        per_dma(&|c| c.job.params.window <= llc),
        "ns",
    ));
    m.push(Metric::new(
        "core.window_dram.host_ns_per_dma",
        per_dma(&|c| c.job.params.window > llc),
        "ns",
    ));
    m.push(Metric::new(
        "core.build.host_ns",
        t.setup_mean_ns("core.suite_job"),
        "ns",
    ));
    let tlps = crate::workload::get(t.counts, "link.tlps") * t.rep_count as f64;
    let job_ns = t.reps.totals("core.suite_job", |_| true).total_ns as f64;
    m.push(Metric::new(
        "core.host_ns_per_tlp",
        crate::workload::ratio(job_ns, tlps),
        "ns",
    ));
    m.extend(platform_metrics(t.counts));
    m
}
