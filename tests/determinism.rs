//! Cross-crate determinism: the whole stack — RNG, access patterns,
//! jitter, cache state, closed-loop scheduling — must be bit-for-bit
//! reproducible per seed. Reproducibility is the point of the suite.

use pcie_bench_repro::bench::{
    run_bandwidth, run_latency, BenchParams, BenchSetup, BwOp, CacheState, LatOp, Pattern,
};
use pcie_bench_repro::device::DmaPath;
use pcie_bench_repro::host::presets::NumaPlacement;

fn params() -> BenchParams {
    BenchParams {
        window: 64 * 1024,
        transfer: 64,
        offset: 0,
        pattern: Pattern::Random,
        cache: CacheState::HostWarm,
        placement: NumaPlacement::Local,
    }
}

#[test]
fn latency_runs_identical_per_seed() {
    let setup = BenchSetup::nfp6000_hsw();
    let a = run_latency(&setup, &params(), LatOp::Rd, 1_500, DmaPath::DmaEngine);
    let b = run_latency(&setup, &params(), LatOp::Rd, 1_500, DmaPath::DmaEngine);
    assert_eq!(a.samples_ns, b.samples_ns);
    assert_eq!(a.summary, b.summary);
}

#[test]
fn bandwidth_runs_identical_per_seed() {
    let setup = BenchSetup::netfpga_hsw();
    let a = run_bandwidth(&setup, &params(), BwOp::RdWr, 5_000, DmaPath::DmaEngine);
    let b = run_bandwidth(&setup, &params(), BwOp::RdWr, 5_000, DmaPath::DmaEngine);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.gbps.to_bits(), b.gbps.to_bits(), "bit-identical Gb/s");
}

#[test]
fn different_seeds_differ() {
    let a = run_latency(
        &BenchSetup::nfp6000_hsw(),
        &params(),
        LatOp::Rd,
        1_500,
        DmaPath::DmaEngine,
    );
    let b = run_latency(
        &BenchSetup::nfp6000_hsw().with_seed(999),
        &params(),
        LatOp::Rd,
        1_500,
        DmaPath::DmaEngine,
    );
    assert_ne!(a.samples_ns, b.samples_ns);
    // ...but the *distribution* is stable: medians within the NFP's
    // 19.2ns timestamp quantum plus one jitter step.
    assert!((a.summary.median - b.summary.median).abs() < 60.0);
}

#[test]
fn e3_tail_is_reproducible() {
    // Even the heavy-tailed E3 model must replay exactly.
    let setup = BenchSetup::nfp6000_hsw_e3();
    let a = run_latency(&setup, &params(), LatOp::Rd, 3_000, DmaPath::DmaEngine);
    let b = run_latency(&setup, &params(), LatOp::Rd, 3_000, DmaPath::DmaEngine);
    assert_eq!(a.samples_ns, b.samples_ns);
    assert!(a.summary.p999 > 2.0 * a.summary.median);
}
