//! Absolute output pins for the device DMA datapath.
//!
//! `simbench`'s `dma_sweep` digest covers only the flat, fault-free,
//! untelemetered path. These pins cover the rest of it against values
//! recorded once: stage telemetry on, the command interface, DLL
//! replays and device-level read retries under fault injection, and a
//! switched device pair with peer-to-peer traffic. Each run folds
//! every `DmaResult` (`issued`, `done`, `absorbed` in ps), both
//! directions' wire counters, the host's byte ledger and the
//! telemetry snapshot JSON into an FNV-1a digest. A change to the
//! datapath must leave every digest unchanged. Two more pins drive the
//! LLC model on its own, on a DDIO host and on a host without DDIO,
//! and the IOMMU's IO-TLB on its own, at 4 KiB and 2 MiB pages.

mod common;

use common::Fnv;
use pcie_bench_repro::bench::{BenchParams, BenchSetup, CacheState, Pattern};
use pcie_bench_repro::device::platform::DmaResult;
use pcie_bench_repro::device::{DeviceParams, DmaPath, MultiPlatform, Platform};
use pcie_bench_repro::fault::{DirFaults, FaultPlan};
use pcie_bench_repro::host::buffer::BufferAllocator;
use pcie_bench_repro::host::cache::{CacheStorage, LlcCache, LINE};
use pcie_bench_repro::host::iommu::{Iommu, IommuStats};
use pcie_bench_repro::host::presets::{HostPreset, NumaPlacement};
use pcie_bench_repro::host::{HostBuffer, HostSystem, MemStats};
use pcie_bench_repro::link::{Direction, LinkTiming, WireCounters};
use pcie_bench_repro::model::LinkConfig;
use pcie_bench_repro::sim::{SimTime, SplitMix64};
use pcie_bench_repro::topo::SwitchConfig;

const WINDOW: u64 = 256 * 1024;
const OPS: usize = 1_000;

fn params() -> BenchParams {
    BenchParams {
        window: WINDOW,
        transfer: 2048,
        offset: 0,
        pattern: Pattern::Random,
        cache: CacheState::HostWarm,
        placement: NumaPlacement::Local,
    }
}

fn result(h: &mut Fnv, r: &DmaResult) {
    h.word(r.issued.as_ps())
        .word(r.done.as_ps())
        .word(r.absorbed.as_ps());
}

fn wire(h: &mut Fnv, c: &WireCounters) {
    h.word(c.tlps)
        .word(c.tlp_bytes)
        .word(c.payload_bytes)
        .word(c.dllps)
        .word(c.dllp_bytes);
}

fn ledger(h: &mut Fnv, s: &MemStats) {
    h.word(s.read_tlps)
        .word(s.write_tlps)
        .word(s.bytes_read)
        .word(s.bytes_written)
        .word(s.remote_tlps)
        .word(s.p2p_redirects);
}

/// Unaligned offsets and lengths of 1..=`max_len` bytes, so transfers
/// split into several requests and RCB-straddling completions.
fn geometry(rng: &mut SplitMix64, max_len: u32) -> (u64, u32) {
    let off = rng.range(0, WINDOW - 4096);
    let len = rng.range(1, u64::from(max_len) + 1) as u32;
    (off, len)
}

/// A seeded mix of reads, writes and write-reads on `path`. Wanted
/// times advance by less than one DMA's latency, so workers, tags and
/// credits contend.
fn sweep(p: &mut Platform, buf: &HostBuffer, path: DmaPath, max_len: u32) -> u64 {
    let mut rng = SplitMix64::new(0x9d15_ab1e);
    let mut h = Fnv::new();
    let mut want = SimTime::ZERO;
    for _ in 0..OPS {
        let (off, len) = geometry(&mut rng, max_len);
        let r = match rng.range(0, 3) {
            0 => p.dma_read(want, buf, off, len, path),
            1 => p.dma_write(want, buf, off, len, path),
            _ => p.dma_write_read(want, buf, off, len, path),
        };
        result(&mut h, &r);
        want += SimTime::from_ns(rng.range(0, 400));
    }
    for dir in [Direction::Upstream, Direction::Downstream] {
        wire(&mut h, p.link().counters(dir));
    }
    ledger(&mut h, &p.host.stats());
    h.snapshot(&p.telemetry_snapshot("dma"));
    h.0
}

/// Builds `setup`'s platform and sweeps it, returning both.
fn run(setup: &BenchSetup, path: DmaPath, max_len: u32) -> (Platform, u64) {
    let (mut p, buf) = setup.build(&params());
    let digest = sweep(&mut p, &buf, path, max_len);
    (p, digest)
}

/// Runs `setup`'s sweep with stage telemetry off, then on.
fn both_ways(setup: &BenchSetup, path: DmaPath, max_len: u32) -> [u64; 2] {
    [setup.clone(), setup.clone().with_telemetry()].map(|setup| {
        let (p, digest) = run(&setup, path, max_len);
        let recorded = p.stage_stats().is_some_and(|s| s.count() > 0);
        assert_eq!(recorded, setup.telemetry);
        digest
    })
}

/// Both paper devices through the DMA engine (1 B–4 KiB) and the
/// NFP's command interface (up to its 128 B limit), each with stage
/// telemetry off and on.
#[test]
fn platform_sweeps_are_pinned() {
    let pinned: [(&str, [u64; 2]); 3] = [
        ("nfp6000 dma", [0x1196fe5a5a35035e, 0xaff8988fb5c02a16]),
        ("netfpga dma", [0x6816ba656211b878, 0xaea16d8f73c2c093]),
        ("nfp6000 cmdif", [0x6960c819f11226aa, 0x52ffacf4a009b464]),
    ];
    let got = [
        (
            "nfp6000 dma",
            both_ways(&BenchSetup::nfp6000_hsw(), DmaPath::DmaEngine, 4096),
        ),
        (
            "netfpga dma",
            both_ways(&BenchSetup::netfpga_hsw(), DmaPath::DmaEngine, 4096),
        ),
        (
            "nfp6000 cmdif",
            both_ways(&BenchSetup::nfp6000_hsw(), DmaPath::CommandIf, 128),
        ),
    ];
    assert_eq!(got, pinned, "DMA datapath outputs moved");
}

/// Fault injection, telemetry off and on. A bit-error rate alone only
/// costs DLL replays (the `link.replay` groups); poisoned and dropped
/// TLPs on top of it drive the device's completion-timeout, retry and
/// lost-write paths (the `device.errors` group).
#[test]
fn faulted_sweeps_are_pinned() {
    let lossy = DirFaults {
        poison_rate: 0.01,
        ..FaultPlan::symmetric_ber(1e-5).upstream
    };
    let plan = FaultPlan {
        upstream: DirFaults {
            drop_nth: Some(40),
            ..lossy
        },
        downstream: DirFaults {
            drop_nth: Some(70),
            ..lossy
        },
        ..FaultPlan::symmetric_ber(1e-5)
    };
    let pinned: [(&str, [u64; 2]); 2] = [
        ("ber", [0x1b6749af422dbc6f, 0x5e8131db209a1fa8]),
        ("ber+loss", [0xd1e2b7b54801a36c, 0xdc57d77796e4ba97]),
    ];
    let mut got = Vec::new();
    for (name, setup) in [
        ("ber", BenchSetup::nfp6000_hsw().with_ber(1e-5)),
        ("ber+loss", BenchSetup::nfp6000_hsw().with_faults(plan)),
    ] {
        got.push((name, both_ways(&setup, DmaPath::DmaEngine, 4096)));
        // The same run once more, to check it reached the paths the
        // pin is meant to cover.
        let (p, _) = run(&setup, DmaPath::DmaEngine, 4096);
        let replays: u64 = [Direction::Upstream, Direction::Downstream]
            .map(|d| p.link().fault_counters(d).unwrap().replays)
            .iter()
            .sum();
        assert!(replays > 0, "{name}: no DLL replays");
        let e = p.device_errors();
        if name == "ber" {
            assert_eq!(e.read_retries, 0, "a BER alone never reaches the device");
        } else {
            assert!(
                e.read_retries > 0 && e.completion_timeouts > 0,
                "{name}: {e:?}"
            );
            assert!(e.dropped_writes + e.poisoned_writes > 0, "{name}: {e:?}");
        }
    }
    assert_eq!(got, pinned, "faulted DMA datapath outputs moved");
}

/// Two NFPs behind one switch — address-routed peer-to-peer, with ACS
/// redirect through the root complex, and with a BER on every link —
/// mixing host DMA reads and writes with peer reads and writes.
#[test]
fn switched_pair_is_pinned() {
    let pinned: [(&str, u64); 3] = [
        ("switch", 0x3ad655e610191e98),
        ("acs", 0xbe0d91775477624a),
        ("switch+ber", 0x1c9c3f5a6779b529),
    ];
    let mut got = Vec::new();
    for (name, sw_cfg, ber) in [
        ("switch", SwitchConfig::gen3_x8(), 0.0),
        ("acs", SwitchConfig::gen3_x8().with_acs_redirect(), 0.0),
        ("switch+ber", SwitchConfig::gen3_x8(), 1e-5),
    ] {
        let buf = BufferAllocator::default_layout().alloc(WINDOW, 0);
        let mut host = HostSystem::new(HostPreset::nfp6000_hsw(), 314);
        host.host_warm(&buf, 0, WINDOW);
        let mut m = MultiPlatform::homogeneous_switched(
            2,
            DeviceParams::nfp6000(),
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
            host,
            sw_cfg,
        );
        m.set_fault_plan(&FaultPlan::symmetric_ber(ber), 7);
        let mut rng = SplitMix64::new(0x5717_c4ed);
        let mut h = Fnv::new();
        let mut want = SimTime::ZERO;
        for _ in 0..OPS {
            let src = rng.range(0, 2) as usize;
            let (off, len) = geometry(&mut rng, 4096);
            let r = match rng.range(0, 4) {
                0 => m.dma_read(src, want, &buf, off, len, DmaPath::DmaEngine),
                1 => m.dma_write(src, want, &buf, off, len, DmaPath::DmaEngine),
                2 => m.p2p_read(src, 1 - src, want, off, len),
                _ => m.p2p_write(src, 1 - src, want, off, len),
            };
            result(&mut h, &r);
            want += SimTime::from_ns(rng.range(0, 400));
        }
        for i in 0..m.device_count() {
            for dir in [Direction::Upstream, Direction::Downstream] {
                wire(&mut h, m.engine(i).link().counters(dir));
            }
        }
        ledger(&mut h, &m.host.stats());
        h.snapshot(&m.telemetry_snapshot(name));
        got.push((name, h.0));
    }
    assert_eq!(got, pinned, "switched DMA datapath outputs moved");
}

/// A seeded stream of DMA reads and writes, CPU touches, bulk warms
/// and clears on one LLC geometry. Most addresses fall on 64 sets with
/// more candidate lines per set than ways, so DDIO allocations,
/// dirty evictions and LRU victims all occur; the rest spread over a
/// window twice the cache. Between phases the cache's buffers go
/// through a `CacheStorage` into a new cache, whose probes then meet
/// the previous phase's dead-epoch keys.
fn llc_stream(bytes: u64, ways: usize, ddio_ways: usize) -> u64 {
    const PHASES: usize = 4;
    const OPS: usize = 12_500;
    let n_sets = bytes / LINE / ways as u64;
    let span = 2 * bytes / LINE;
    let mut rng = SplitMix64::new(0x11c_ca4e);
    let mut h = Fnv::new();
    let mut pool = CacheStorage::new();
    for _ in 0..PHASES {
        let mut c = LlcCache::new_reusing(bytes, ways, ddio_ways, &mut pool);
        for _ in 0..OPS {
            let line = if rng.range(0, 4) == 0 {
                rng.range(0, span)
            } else {
                rng.range(0, 64) + rng.range(0, 2 * ways as u64 + 8) * n_sets
            };
            let addr = line * LINE + rng.range(0, LINE);
            match rng.range(0, 1000) {
                0..350 => {
                    h.word(c.dma_read(addr) as u64);
                }
                350..650 => {
                    h.word(c.dma_write(addr) as u64);
                }
                650..998 => c.host_touch(addr, rng.range(0, 2) == 1),
                998 => {
                    let count = if rng.range(0, 2) == 0 {
                        rng.range(1, 4096)
                    } else {
                        rng.range(1, 6 * n_sets)
                    };
                    let start = rng.range(0, span);
                    c.warm_lines(start, start + count - 1, rng.range(0, 2) == 1);
                }
                _ => c.clear(),
            }
        }
        let s = c.stats();
        h.word(s.read_hits)
            .word(s.read_misses)
            .word(s.write_hits)
            .word(s.write_allocs)
            .word(s.write_dirty_evictions)
            .word(s.write_uncached);
        c.recycle_into(&mut pool);
    }
    h.0
}

/// The LLC model on its own: the HSW preset's geometry, and the
/// Xeon E3's, which has no DDIO, so DMA writes invalidate resident
/// copies instead of allocating.
#[test]
fn llc_model_is_pinned() {
    let pinned: [(&str, u64); 2] = [
        ("hsw", 0xbe3bbde329345cf2),
        ("e3 no ddio", 0xb4a6f4bd4829f228),
    ];
    let got = [
        ("hsw", HostPreset::nfp6000_hsw()),
        ("e3 no ddio", HostPreset::nfp6000_hsw_e3()),
    ]
    .map(|(name, p)| (name, llc_stream(p.llc_bytes, p.llc_ways, p.ddio_ways)));
    assert_eq!(got, pinned, "LLC model outputs moved");
}

fn iommu_stats(h: &mut Fnv, s: IommuStats) {
    h.word(s.tlb_hits).word(s.tlb_misses).word(s.tlb_evictions);
}

/// A seeded stream of translations, domain flushes and resets on one
/// IOMMU: four domains, 70 % of touches from a hot set of 1.5 × the
/// IO-TLB's capacity in `(domain, page)` keys, a fifth of lengths
/// spanning pages. Folds every `Translation` and the statistics after
/// each call.
fn iotlb_stream(mut m: Iommu) -> u64 {
    let mut rng = SplitMix64::new(0x10_7eb);
    let mut h = Fnv::new();
    let page_size = m.page_size;
    let hot = (3 * m.tlb_entries() as u64).div_ceil(2);
    let mut now = SimTime::ZERO;
    for _ in 0..50_000 {
        match rng.range(0, 1000) {
            0..5 => m.flush_domain(rng.range(0, 4) as u32),
            5 => {
                iommu_stats(&mut h, m.stats());
                m.reset();
            }
            _ => {
                let (domain, page) = if rng.chance(0.7) {
                    let k = rng.range(0, hot);
                    ((k % 4) as u32, k / 4)
                } else {
                    (rng.range(0, 4) as u32, rng.range(0, 1 << 20))
                };
                let addr = page * page_size + rng.range(0, page_size);
                let max_len = if rng.chance(0.2) { 2 * page_size } else { 256 };
                let t = m.translate_in(now, domain, addr, rng.range(0, max_len) as u32);
                h.word(t.ready_at.as_ps()).word(u64::from(t.tlb_hit));
                now += SimTime::from_ns(rng.range(0, 400));
            }
        }
        iommu_stats(&mut h, m.stats());
    }
    h.0
}

/// The IO-TLB on its own: hits, walks, LRU evictions, walker queueing,
/// domain flushes and resets, with 4 KiB pages and with super-pages.
#[test]
fn iotlb_is_pinned() {
    let pinned: [(&str, u64); 2] = [
        ("4k", 0x12246307b05f8a9d),
        ("superpages", 0xbffc1ee90b83aae1),
    ];
    let got = [
        ("4k", Iommu::intel_4k()),
        ("superpages", Iommu::intel_superpages()),
    ]
    .map(|(name, m)| (name, iotlb_stream(m)));
    assert_eq!(got, pinned, "IO-TLB outcomes moved");
}
