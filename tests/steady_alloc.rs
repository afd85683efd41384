//! Zero steady-state allocation, pinned.
//!
//! A counting `#[global_allocator]` (this test binary's own, so the
//! libraries keep `forbid(unsafe_code)`) counts every `alloc`,
//! `alloc_zeroed` and `realloc` on the calling thread. Each check runs
//! on its test's own thread, so tests running beside it cannot move
//! its count.
//!
//! - The event queue, once it has held its peak number of events,
//!   allocates nothing per push or pop.
//! - `QueueSim::run` and `RpcQueueSim::run` make a fixed number of
//!   allocations (buffers growing to their working size), whatever
//!   the length of the schedule: none per packet or RPC.
//!
//! `DriverSim` is left out: each service round allocates the
//! `Vec<TxItem>` batch it carries through the TX phases, so its count
//! grows with the packet count. Batches cannot share one deque, since
//! a longer descriptor read can finish after a shorter one issued
//! later.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pcie_bench_repro::bench::BenchSetup;
use pcie_bench_repro::flows::{QueueSim, QueuedPacket, ServiceModel};
use pcie_bench_repro::rpc::engine::build_platform;
use pcie_bench_repro::rpc::{Datapath, QueuedRpc, RpcEngineConfig, RpcQueueSim};
use pcie_bench_repro::sim::{EventQueue, SimTime, SplitMix64};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn note() {
    // A const-initialised `Cell` needs no lazy set-up and has no
    // destructor, so counting never allocates (which would recurse).
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
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
