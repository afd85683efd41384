//! Zero steady-state allocation, pinned.
//!
//! A counting `#[global_allocator]` (this test binary's own, so the
//! libraries keep `forbid(unsafe_code)`) counts every `alloc`,
//! `alloc_zeroed` and `realloc` on the calling thread, and the bytes
//! each asks for. Each check runs on its test's own thread, so tests
//! running beside it cannot move its count.
//!
//! - The event queue, once it has held its peak number of events,
//!   allocates nothing per push or pop.
//! - A platform from `BenchSetup::build` allocates nothing over its
//!   DMAs: every queue it keeps is sized when it is built.
//! - `QueueSim::run`, `RpcQueueSim::run` and `NicSim::run` make a
//!   fixed number of allocations (buffers growing to their working
//!   size), whatever the length of the schedule: none per packet or
//!   RPC.
//! - `FlowEngine::run` and `RpcEngine::run` reserve each queue's
//!   schedule once, so they too allocate as often for a long run as
//!   for a short one; a `QueuedPacket` is 12 bytes.
//! - `DriverSim::run` recycles its TX batch buffers, so only a new
//!   peak of batches in flight, or of a batch's length, allocates.
//! - The flow generator's state is sized once: `Rss::new` and
//!   `FlowEngine::new` (which keeps its `Rss` and its flow-length
//!   and packet-size samplers inline) allocate nothing, `FlowTable::with_capacity` once,
//!   and picks, completions and replacement inserts nothing.
//! - An `Iommu` allocates once when it is built, and its IO-TLB
//!   nothing per translation, eviction or flush.
//! - An `LlcCache` of the HSW hosts' geometry is one allocation of at
//!   most 1.5 MiB, and nothing after: not per probe, warm or clear,
//!   nor when a cache is rebuilt from a `CacheStorage` pool.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pcie_bench_repro::bench::{BenchParams, BenchSetup, IommuMode};
use pcie_bench_repro::device::DmaPath;
use pcie_bench_repro::drivers::{DriverConfig, DriverSim, OfferedLoad, PATTERNS};
use pcie_bench_repro::flows::{
    FlowEngine, FlowEngineConfig, FlowTable, QueueSim, QueuedPacket, Rss, RssKey, ServiceModel,
    TrafficProfile,
};
use pcie_bench_repro::host::cache::{CacheStorage, LlcCache, LINE};
use pcie_bench_repro::host::{HostPreset, Iommu};
use pcie_bench_repro::model::NicModelParams;
use pcie_bench_repro::nic::NicSim;
use pcie_bench_repro::par::Pool;
use pcie_bench_repro::rpc::engine::build_platform;
use pcie_bench_repro::rpc::{
    Datapath, QueuedRpc, RpcEngine, RpcEngineConfig, RpcProfile, RpcQueueSim,
};
use pcie_bench_repro::sim::{EventQueue, SimTime, SplitMix64};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and their bytes per
/// thread.
struct Counting;

fn note(bytes: usize) {
    // A const-initialised `Cell` needs no lazy set-up and has no
    // destructor, so counting never allocates (which would recurse).
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((allocs, _), r) = allocated(f);
    (allocs, r)
}

/// Allocations `f` makes on this thread and the bytes they ask for,
/// and its result.
fn allocated<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), r)
}

/// Pops the earliest event and schedules its successor 0–20 µs later,
/// `n` times: the queue's length stays where it is.
fn cycle(q: &mut EventQueue<u64>, rng: &mut SplitMix64, n: u32) {
    for _ in 0..n {
        let (at, id) = q.pop().expect("the cycle keeps the queue full");
        q.push(at + SimTime::from_ps(rng.next_u64() % 20_000_000), id);
    }
}

#[test]
fn event_queue_cycle_allocates_nothing() {
    let mut rng = SplitMix64::new(7);
    let mut q = EventQueue::new();
    for id in 0..1_024 {
        q.push(SimTime::from_ps(rng.next_u64() % 20_000_000), id);
    }
    cycle(&mut q, &mut rng, 200_000); // warm-up
    let (allocs, ()) = allocations(|| cycle(&mut q, &mut rng, 200_000));
    assert_eq!(allocs, 0, "200 000 pops and pushes after warm-up");
    assert_eq!(q.len(), 1_024);
}

/// 24 000 DMAs on a platform fresh from `BenchSetup::build`: reads,
/// writes and write-reads in turn, of 64 B to 2 KiB at random offsets
/// in a 1 MiB window (four times the IO-TLB's reach at 4 KiB pages),
/// each wanted at time zero or at the previous one's completion.
/// Returns the allocations the DMAs made.
fn dma_loop(iommu: IommuMode, chained: bool) -> u64 {
    const WINDOW: u64 = 1 << 20;
    let params = BenchParams {
        window: WINDOW,
        ..BenchParams::baseline(64)
    };
    let (mut platform, buf) = BenchSetup::nfp6000_hsw().with_iommu(iommu).build(&params);
    let mut rng = SplitMix64::new(24);
    let (allocs, ()) = allocations(|| {
        let mut want = SimTime::ZERO;
        for i in 0..24_000u32 {
            let len = 64 << (i / 3 % 6);
            let off = rng.next_u64() % (WINDOW - u64::from(len));
            let r = match i % 3 {
                0 => platform.dma_read(want, &buf, off, len, DmaPath::DmaEngine),
                1 => platform.dma_write(want, &buf, off, len, DmaPath::DmaEngine),
                _ => platform.dma_write_read(want, &buf, off, len, DmaPath::DmaEngine),
            };
            if chained {
                want = r.done;
            }
        }
    });
    allocs
}

#[test]
fn dma_loop_allocates_nothing_after_build() {
    for iommu in [IommuMode::Off, IommuMode::FourK] {
        for chained in [false, true] {
            assert_eq!(
                dma_loop(iommu, chained),
                0,
                "iommu {iommu:?}, chained {chained}: 24 000 DMAs after build"
            );
        }
    }
}

#[test]
fn queue_sim_allocations_do_not_grow_with_packets() {
    let counts: Vec<u64> = [5_000u64, 10_000, 20_000]
        .iter()
        .map(|&n| {
            let packets: Vec<QueuedPacket> = (0..n)
                .map(|i| QueuedPacket {
                    at: SimTime::from_ns(200 * i),
                    size: 128,
                })
                .collect();
            let sim = QueueSim::new(
                0,
                ServiceModel::default(),
                BenchSetup::nfp6000_hsw().build_nic_platform(),
            );
            let (allocs, report) = allocations(|| sim.run(&packets));
            assert_eq!(report.counters.offered, n);
            allocs
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations for 5k/10k/20k packets: {counts:?}"
    );
}

#[test]
fn rpc_queue_sim_allocations_do_not_grow_with_rpcs() {
    for datapath in [Datapath::HostBypass, Datapath::HostBounce] {
        let cfg = RpcEngineConfig {
            datapath,
            ..RpcEngineConfig::default()
        };
        let counts: Vec<u64> = [5_000u64, 10_000, 20_000]
            .iter()
            .map(|&n| {
                let rpcs: Vec<QueuedRpc> = (0..n)
                    .map(|i| QueuedRpc {
                        at: SimTime::from_ns(40 * i),
                        req: 128,
                        resp: 128,
                    })
                    .collect();
                let sim = RpcQueueSim::new(0, cfg.nic, cfg.accel, build_platform(&cfg, 0));
                let (allocs, report) = allocations(|| sim.run(&rpcs));
                assert_eq!(report.counters.offered, n);
                allocs
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{}: allocations for 5k/10k/20k RPCs: {counts:?}",
            datapath.name()
        );
    }
}

#[test]
fn queued_packet_is_12_bytes() {
    assert_eq!(std::mem::size_of::<QueuedPacket>(), 12);
}

#[test]
fn flow_engine_allocations_do_not_grow_with_packets() {
    // 8 queues and 110 000 flows, offered twice the queues' service
    // capacity: half the packets are dropped, which keeps the run short.
    let cfg = FlowEngineConfig::default();
    let pps = 2.0 * cfg.service.capacity_pps() * f64::from(cfg.queues);
    let counts: Vec<u64> = [100_000u64, 200_000, 400_000]
        .iter()
        .map(|&n| {
            let mut profile = TrafficProfile::million_flow(pps, n);
            profile.flows = 110_000;
            let engine = FlowEngine::new(cfg.clone(), profile);
            let (allocs, r) = allocations(|| {
                engine.run(&Pool::sequential(), |_| {
                    BenchSetup::nfp6000_hsw().build_nic_platform()
                })
            });
            assert_eq!(r.offered(), n);
            allocs
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations for 100k/200k/400k packets: {counts:?}"
    );
}

#[test]
fn rpc_engine_allocations_do_not_grow_with_rpcs() {
    // 4 queues, offered four times the accelerator's capacity.
    let cfg = RpcEngineConfig::default();
    let counts: Vec<u64> = [100_000u64, 200_000, 400_000]
        .iter()
        .map(|&n| {
            let engine = RpcEngine::new(cfg.clone(), RpcProfile::standard(320e6, n));
            let (allocs, r) = allocations(|| engine.run(&Pool::sequential()));
            assert_eq!(r.offered(), n);
            allocs
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations for 100k/200k/400k RPCs: {counts:?}"
    );
}

#[test]
fn nic_sim_allocations_do_not_grow_with_packets() {
    for (name, params) in [
        ("simple", NicModelParams::simple()),
        ("kernel", NicModelParams::kernel()),
        ("dpdk", NicModelParams::dpdk()),
    ] {
        let counts: Vec<(u64, u64)> = [5_000u32, 20_000]
            .iter()
            .map(|&n| {
                let mut sim = NicSim::new(params, BenchSetup::nfp6000_hsw().build_nic_platform());
                let (counts, r) = allocated(|| sim.run(1500, n));
                assert_eq!(r.packets, n);
                counts
            })
            .collect();
        assert_eq!(
            counts[0], counts[1],
            "{name}: (allocations, bytes) for 5k/20k packets"
        );
    }
}

#[test]
fn driver_sim_allocations_do_not_grow_with_packets() {
    for pattern in PATTERNS {
        for load in [OfferedLoad::Saturate, OfferedLoad::OpenLoopGbps(0.8)] {
            let counts: Vec<u64> = [5_000u32, 20_000]
                .iter()
                .map(|&n| {
                    let mut sim = DriverSim::new(
                        pattern,
                        DriverConfig::default().with_load(load),
                        BenchSetup::nfp6000_hsw().build_nic_platform(),
                    );
                    let (allocs, r) = allocations(|| sim.run(1500, n));
                    assert_eq!(r.offered, u64::from(n));
                    allocs
                })
                .collect();
            // A recycled batch buffer still grows on a new peak, which
            // a longer run may reach: a handful, never one per packet.
            assert!(
                counts[1] <= counts[0] + 16,
                "{} {load:?}: allocations for 5k/20k packets: {counts:?}",
                pattern.name()
            );
        }
    }
}

#[test]
fn flow_generator_state_is_sized_once() {
    let (allocs, rss) = allocations(|| Rss::new(RssKey::MICROSOFT_DEFAULT, 8));
    assert_eq!(allocs, 0, "Rss::new keeps its tables inline");
    assert_eq!(rss.queues(), 8);
    let (cfg, profile) = (
        FlowEngineConfig::default(),
        TrafficProfile::million_flow(8e6, 1_000),
    );
    let (allocs, engine) = allocations(|| FlowEngine::new(cfg, profile));
    assert_eq!(
        allocs, 0,
        "FlowEngine::new keeps its Rss and samplers inline"
    );
    assert_eq!(engine.profile().flows, 1_250_000);

    const FLOWS: usize = 100_000;
    let (allocs, mut table) = allocations(|| FlowTable::with_capacity(FLOWS));
    assert_eq!(allocs, 1, "FlowTable::with_capacity reserves one slab");
    let mut rng = SplitMix64::new(20);
    let packets = |rng: &mut SplitMix64| 1 + (rng.next_u64() % 64) as u32;
    let (allocs, ()) = allocations(|| {
        for q in 0..FLOWS {
            table.insert((q % 8) as u16, packets(&mut rng)).unwrap();
        }
        for _ in 0..1_000_000 {
            let pos = table.pick(&mut rng).expect("replacement keeps flows live");
            if table.note_packet(pos) {
                table.insert((pos % 8) as u16, packets(&mut rng)).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "ramp and 1 000 000 pick/complete/replace rounds");
    assert_eq!(table.stats().packets, 1_000_000);
    assert!(table.stats().completions > 10_000);
}

#[test]
fn iommu_is_sized_once() {
    let (allocs, mut m) = allocations(Iommu::intel_4k);
    assert_eq!(allocs, 1, "Iommu::intel_4k allocates its IO-TLB once");
    let mut rng = SplitMix64::new(21);
    let (allocs, ()) = allocations(|| {
        let mut now = SimTime::ZERO;
        for i in 0..100_000u32 {
            // 128 pages in two domains: twice the IO-TLB's capacity.
            let domain = i % 2;
            let addr = rng.next_u64() % (64 * 4096);
            now = m.translate_in(now, domain, addr, 256).ready_at;
            if i % 10_000 == 0 {
                m.flush_domain(domain);
            }
        }
    });
    assert_eq!(allocs, 0, "100 000 translations after build");
    let s = m.stats();
    assert!(s.tlb_hits > 0 && s.tlb_evictions > 0, "{s:?}");
}

/// The HSW hosts' LLC: 15 MiB, 20 ways, 12 288 sets.
fn hsw_llc(pool: &mut CacheStorage) -> LlcCache {
    let p = HostPreset::nfp6000_hsw();
    LlcCache::new_reusing(p.llc_bytes, p.llc_ways, p.ddio_ways, pool)
}

#[test]
fn llc_is_one_allocation_of_at_most_1_5_mib() {
    let mut pool = CacheStorage::new();
    let ((allocs, bytes), mut c) = allocated(|| hsw_llc(&mut pool));
    assert_eq!(allocs, 1, "the set records are one allocation");
    assert!(bytes <= 1_572_864, "{bytes} B");
    let mut rng = SplitMix64::new(22);
    let (allocs, ()) = allocations(|| {
        for i in 0..100_000u64 {
            // A 64 MiB window: four times the cache.
            let addr = rng.next_u64() % (64 << 20);
            match i % 3 {
                0 => _ = c.dma_read(addr),
                1 => _ = c.dma_write(addr),
                _ => c.host_touch(addr, i % 2 == 0),
            }
        }
        c.warm_lines(0, (4 << 20) / LINE - 1, true);
        c.clear();
    });
    assert_eq!(allocs, 0, "100 000 probes, a 4 MiB warm and a clear");
    let s = c.stats();
    assert!(s.read_hits > 0 && s.write_dirty_evictions > 0, "{s:?}");
    // The pool's own list allocates when it first takes a buffer.
    c.recycle_into(&mut pool);
    let (allocs, c) = allocations(|| hsw_llc(&mut pool));
    assert_eq!(allocs, 0, "a rebuild from the pool");
    assert!(!c.contains(0), "the rebuilt cache starts empty");
}

#[test]
#[should_panic(expected = "25 ways: a set record holds at most 24")]
fn llc_rejects_25_ways() {
    LlcCache::new(25 * 64 * LINE, 25, 2);
}

#[test]
#[should_panic(expected = "its tag needs more than 30 bits with 12288 sets")]
fn llc_rejects_a_tag_wider_than_30_bits() {
    let mut c = hsw_llc(&mut CacheStorage::new());
    // Line 2^30 * 12 288 is the first whose tag needs 31 bits.
    let first_too_wide = (1u64 << 30) * 12_288;
    c.dma_read((first_too_wide - 1) * LINE);
    c.dma_read(first_too_wide * LINE);
}
