//! Driver interaction-pattern edge cases (ISSUE 6 satellite): ring
//! backpressure, coalescing-timer partial batches, fill-ring
//! underruns, CQ overflow, pool determinism, and a pin that the
//! no-driver platform path is untouched by the `pcie-drivers` crate.

use pcie_bench_repro::bench::BenchSetup;
use pcie_bench_repro::device::DmaPath;
use pcie_bench_repro::drivers::{DriverConfig, DriverPattern, DriverSim, OfferedLoad, PATTERNS};
use pcie_bench_repro::fault::FaultPlan;
use pcie_bench_repro::host::buffer::BufferAllocator;
use pcie_bench_repro::par::Pool;
use pcie_bench_repro::sim::SimTime;

fn sim(pattern: DriverPattern, cfg: DriverConfig) -> DriverSim {
    DriverSim::new(pattern, cfg, BenchSetup::nfp6000_hsw().build_nic_platform())
}

/// Open-loop offered load far above every pattern's 64B capacity
/// (~12 Mpps for dpdk_poll): the free list must run dry and the MAC
/// must drop, with exact packet accounting.
#[test]
fn busy_poll_ring_full_backpressure_drops_and_accounts() {
    let cfg = DriverConfig::default().with_load(OfferedLoad::OpenLoopGbps(20.0));
    let mut s = sim(DriverPattern::DpdkPoll, cfg);
    let r = s.run(64, 20_000);
    assert!(
        s.counters.fill_underruns > 0,
        "overload must exhaust the free list"
    );
    assert_eq!(
        r.delivered + r.dropped + r.early_drops,
        r.offered,
        "every offered packet is delivered or accounted as a drop"
    );
    assert_eq!(r.offered, 20_000);
    // The ring bounds the backlog: delivery continues at capacity
    // rather than collapsing.
    assert!(r.mpps > 5.0, "backpressured pipeline still delivers");
}

/// Fewer packets than `irq_coalesce_frames`: the interrupt can only
/// come from the coalescing timer, and the partial batch must still
/// be delivered in full.
#[test]
fn coalescing_timer_fires_partial_batch() {
    let cfg = DriverConfig::default();
    assert!(cfg.irq_coalesce_frames > 8);
    for pattern in [DriverPattern::KernelIrq, DriverPattern::IoUring] {
        let mut s = sim(pattern, cfg);
        let r = s.run(64, 8);
        assert_eq!(
            r.delivered,
            8,
            "{}: partial batch delivered",
            pattern.name()
        );
        assert_eq!(s.counters.coalesce_frame_fires, 0);
        assert!(
            s.counters.coalesce_timer_fires >= 1,
            "{}: only the timer can fire below the frame threshold",
            pattern.name()
        );
        // The tail packet waited out the full coalescing window.
        let window_ns = (cfg.irq_coalesce_usecs as f64) * 1_000.0;
        assert!(
            r.p99_ns >= window_ns,
            "{}: p99 {:.0}ns must include the {:.0}ns timer window",
            pattern.name(),
            r.p99_ns,
            window_ns
        );
    }
}

/// AF_XDP under open-loop overload: the fill ring runs dry and frames
/// are dropped at the MAC (`fill_underruns`), never silently lost.
#[test]
fn af_xdp_fill_ring_underrun_under_overload() {
    let cfg = DriverConfig::default().with_load(OfferedLoad::OpenLoopGbps(20.0));
    let mut s = sim(DriverPattern::AfXdp, cfg);
    let r = s.run(64, 20_000);
    assert!(s.counters.fill_underruns > 0, "fill ring must underrun");
    assert_eq!(s.counters.fill_underruns, r.dropped);
    assert_eq!(r.delivered + r.dropped + r.early_drops, r.offered);
}

/// io_uring with a CQ smaller than the RX ring: completions overflow
/// under saturation, the device recycles those frames, and the
/// accounting still closes.
#[test]
fn io_uring_cq_overflow_drops_completions() {
    let cfg = DriverConfig {
        cq_size: 64,
        ..Default::default()
    };
    let mut s = sim(DriverPattern::IoUring, cfg);
    let r = s.run(64, 10_000);
    assert!(
        s.counters.cq_overflows > 0,
        "a 64-entry CQ must overflow under saturation"
    );
    assert_eq!(s.counters.cq_overflows, r.dropped);
    assert_eq!(r.delivered + r.dropped + r.early_drops, r.offered);
    // A roomy CQ on the same config eliminates the overflow.
    let mut roomy = cfg;
    roomy.cq_size = 1024;
    let mut s2 = sim(DriverPattern::IoUring, roomy);
    let r2 = s2.run(64, 10_000);
    assert_eq!(s2.counters.cq_overflows, 0);
    assert_eq!(r2.delivered, r2.offered);
}

/// The full pattern grid run through a 1-thread and a 4-thread pool
/// must produce bit-identical results — the `PCIE_BENCH_THREADS`
/// guarantee extends to the driver zoo.
#[test]
fn driver_grid_deterministic_across_pool_widths() {
    let run_grid = |pool: &Pool| -> Vec<(u64, u64, u64, u64)> {
        pool.run(PATTERNS.len(), |i| {
            let mut s = sim(PATTERNS[i], DriverConfig::default());
            let r = s.run(256, 3_000);
            (
                r.delivered,
                r.elapsed.as_ps(),
                r.mpps.to_bits(),
                r.p99_ns.to_bits(),
            )
        })
    };
    let seq = run_grid(&Pool::with_threads(1));
    let par = run_grid(&Pool::with_threads(4));
    assert_eq!(seq, par, "pool width must not change any result bit");
}

/// The plain platform path must be untouched by the driver crate: no
/// `driver.*` telemetry groups, no `msi_writes` counter, and two
/// identical runs must render byte-identical snapshots.
#[test]
fn no_driver_platform_snapshot_is_clean_and_reproducible() {
    let run_once = || {
        let setup = BenchSetup::nfp6000_hsw();
        let mut platform = setup.build_nic_platform();
        let buf = BufferAllocator::default_layout().alloc(64 * 1024, 0);
        platform.host.host_warm(&buf, 0, 64 * 1024);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let r = platform.dma_write(t, &buf, (i % 32) * 2048, 512, DmaPath::DmaEngine);
            t = platform
                .dma_read(r.absorbed, &buf, (i % 32) * 2048, 512, DmaPath::DmaEngine)
                .done;
        }
        platform.telemetry_snapshot("no-driver pin").to_json()
    };
    let a = run_once();
    assert!(
        !a.contains("driver."),
        "plain platform must not export driver groups"
    );
    assert!(
        !a.contains("msi_writes"),
        "msi counter must stay gated off when no MSI was sent"
    );
    let b = run_once();
    assert_eq!(a, b, "no-driver snapshot must be byte-identical per run");
}

/// Quiescence fast-forward pin, fault-free (BER = 0): a gentle open
/// loop leaves long idle gaps between packets, so nearly every
/// iteration declares quiescence and fast-forwards the event queue.
/// The results must be bit-identical run to run, and the exact values
/// are pinned so a fast-forward that skipped or reordered a coalescing
/// timer would show up as a changed delivery count or tail latency.
#[test]
fn fast_forward_pin_fault_free() {
    let run_once = || {
        let cfg = DriverConfig::default().with_load(OfferedLoad::OpenLoopGbps(1.0));
        let mut s = sim(DriverPattern::KernelIrq, cfg);
        let r = s.run(64, 2_000);
        (
            r.delivered,
            r.dropped,
            r.elapsed.as_ps(),
            r.p99_ns.to_bits(),
        )
    };
    let a = run_once();
    assert_eq!(a, run_once(), "fast-forwarded run must be deterministic");
    let (delivered, dropped, _, _) = a;
    assert_eq!(delivered, 2_000, "gentle load delivers everything");
    assert_eq!(dropped, 0);
}

/// The same quiescent low-load run with a lossy link (DLL replays
/// *and* fast-forwards in the same schedule): accounting must close and
/// the run must stay bit-deterministic — the fault injector's RNG
/// stream is part of the schedule, so a fast-forward that perturbed
/// event order would desynchronise the two runs.
#[test]
fn fast_forward_pin_under_faults() {
    let run_once = || {
        let cfg = DriverConfig::default().with_load(OfferedLoad::OpenLoopGbps(1.0));
        let mut platform = BenchSetup::nfp6000_hsw().build_nic_platform();
        platform.set_fault_plan(&FaultPlan::symmetric_ber(1e-8), 7);
        let mut s = DriverSim::new(DriverPattern::KernelIrq, cfg, platform);
        let r = s.run(64, 2_000);
        (
            r.delivered,
            r.dropped,
            r.elapsed.as_ps(),
            r.p99_ns.to_bits(),
        )
    };
    let a = run_once();
    assert_eq!(a, run_once(), "faulty run must be deterministic too");
    let (delivered, dropped, ..) = a;
    assert_eq!(
        delivered + dropped,
        2_000,
        "every packet delivered or accounted under faults"
    );
}
