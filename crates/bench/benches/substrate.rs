//! Criterion micro-benches of the simulator substrate's hot paths.
//!
//! These keep the figure-regeneration binaries honest about their cost
//! and catch performance regressions: a full paper-grade suite run
//! issues hundreds of millions of simulated TLPs through these paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pcie_host::cache::LlcCache;
use pcie_host::Iommu;
use pcie_sim::{EventQueue, SimTime, SplitMix64, Timeline};
use pcie_tlp::packet::{Packet, TlpRepr};
use pcie_tlp::split;
use pcie_tlp::types::{DeviceId, Tag};

fn bench_tlp(c: &mut Criterion) {
    let repr = TlpRepr::MemRead {
        requester: DeviceId::new(5, 0, 0),
        tag: Tag(17),
        addr: 0x1234_5678_0040,
        len_bytes: 512,
        addr64: true,
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    c.bench_function("tlp/emit_mrd64", |b| {
        b.iter(|| {
            let mut pkt = Packet::new_unchecked(black_box(&mut buf[..]));
            repr.emit(&mut pkt).unwrap();
        })
    });
    {
        let mut pkt = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt).unwrap();
    }
    c.bench_function("tlp/parse_mrd64", |b| {
        b.iter(|| {
            let pkt = Packet::new_checked(black_box(&buf[..])).unwrap();
            TlpRepr::parse(&pkt).unwrap()
        })
    });
    c.bench_function("tlp/completion_chunks_1500B", |b| {
        b.iter(|| split::completion_chunks(black_box(0x4008), 1500, 256, 64).count())
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/dma_rw_15MiB_llc", |b| {
        let mut cache = LlcCache::new(15 << 20, 20, 2);
        let mut rng = SplitMix64::new(7);
        b.iter(|| {
            let addr = rng.next_below(256 << 20) & !63;
            cache.dma_write(addr);
            cache.dma_read(black_box(addr ^ 0x40))
        })
    });
}

fn bench_iommu(c: &mut Criterion) {
    c.bench_function("iommu/translate_miss_heavy", |b| {
        let mut iommu = Iommu::intel_4k();
        let mut rng = SplitMix64::new(9);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimTime::from_ns(100);
            let addr = rng.next_below(1 << 30);
            iommu.translate(t, black_box(addr), 64)
        })
    });
}

fn bench_sim_primitives(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_1k", |b| {
        let mut rng = SplitMix64::new(3);
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.push(SimTime::from_ns(rng.next_below(1_000_000)), i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("sim/timeline_reserve", |b| {
        let mut tl = Timeline::new();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimTime::from_ns(5);
            tl.reserve(black_box(t), SimTime::from_ns(3))
        })
    });
    c.bench_function("sim/splitmix64", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| black_box(rng.next_u64()))
    });
}

fn bench_model(c: &mut Criterion) {
    use pcie_model::config::LinkConfig;
    use pcie_model::nic::{NicModel, NicModelParams};
    let link = LinkConfig::gen3_x8();
    let nic = NicModel::new(NicModelParams::kernel(), link);
    c.bench_function("model/nic_bidir_bandwidth", |b| {
        b.iter(|| nic.bidir_bandwidth(black_box(731)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tlp, bench_cache, bench_iommu, bench_sim_primitives, bench_model
);
criterion_main!(benches);
