//! ext_hotpath — the per-transaction cost budget, measured.
//!
//! Every simulated DMA transaction pays a fixed toll of simulator
//! work: a couple of gate acquires, one or two timeline reservations
//! per direction, an LLC probe, a jitter sample and (off the sim hot
//! path, but on the trace/bench path) a TLP serialisation. This
//! binary times each component in isolation with a differential
//! loop — wall time of the component loop minus the wall time of an
//! empty loop over the same trip count — so `scripts/bench.sh` can
//! record a `cost_budget` section in `BENCH_sim.json` and
//! `--compare` can flag a regression in one component even when the
//! end-to-end figure times hide it in noise.
//!
//! Machine-readable output, one line per component:
//!
//! ```text
//! # BENCH hotpath component=<name> ns_per_op=<float> iters=<count>
//! ```
//!
//! Usage: `cargo run --release --bin ext_hotpath` (`PCIE_BENCH_N`
//! scales trip counts like every other bench binary).

use std::hint::black_box;
use std::time::Instant;

use pcie_bench_harness::{header, n};
use pcie_device::{DmaPath, SlotGate};
use pcie_host::jitter::JitterModel;
use pcie_host::LlcCache;
use pcie_link::{Direction, Link, LinkTiming};
use pcie_model::config::LinkConfig;
use pcie_sim::{SimTime, SplitMix64, Timeline};
use pcie_tlp::types::{DeviceId, Tag};
use pcie_tlp::{Packet, TlpRepr, TlpType};
use pciebench::{BenchParams, BenchScratch, BenchSetup, LatOp};

/// Times `iters` trips of `f`, returning ns per trip (no baseline
/// subtraction — see [`differential`]).
fn raw_loop<F: FnMut(u64)>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Best-of-three differential measurement: component loop minus an
/// empty loop over the same trip count, clamped to a small positive
/// floor so downstream ratio math never divides by zero.
fn differential<F: FnMut(u64)>(iters: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let empty = raw_loop(iters, |i| {
            black_box(i);
        });
        let full = raw_loop(iters, &mut f);
        best = best.min(full - empty);
    }
    best.max(0.01)
}

struct Budget {
    rows: Vec<(&'static str, f64, u64)>,
}

impl Budget {
    fn record(&mut self, component: &'static str, iters: u64, ns: f64) {
        println!("{component:>24} {ns:>10.2} ns/op  ({iters} iters)");
        self.rows.push((component, ns, iters));
    }
}

fn bench_timeline(b: &mut Budget) {
    let iters = n(2_000_000) as u64;
    let mut tl = Timeline::new();
    let dur = SimTime::from_ns(10);
    let mut t = SimTime::ZERO;
    let ns = differential(iters, |_| {
        let r = tl.reserve(t, dur);
        t = black_box(r.end);
    });
    b.record("timeline_reserve", iters, ns);
}

fn bench_gate(b: &mut Budget) {
    let iters = n(2_000_000) as u64;
    let hold = SimTime::from_ns(100);
    let step = SimTime::from_ns(25);

    let mut g = SlotGate::new(8);
    let mut now = SimTime::ZERO;
    let ns = differential(iters, |_| {
        let at = g.acquire(now);
        g.release_at(at + hold);
        now = black_box(now + step);
    });
    b.record("device_gate", iters, ns);
}

fn bench_link(b: &mut Budget) {
    let iters = n(300_000) as u64;
    let mut link = Link::new(LinkConfig::gen3_x8(), LinkTiming::default());
    let mut now = SimTime::ZERO;
    let ns = differential(iters, |_| {
        let req = link.send_tlp(Direction::Upstream, TlpType::MRd64, 0, now);
        now = black_box(link.send_tlp(Direction::Downstream, TlpType::CplD, 64, req));
    });
    b.record("link_round_trip", iters, ns);
}

fn bench_llc(b: &mut Budget) {
    let iters = n(2_000_000) as u64;
    // An 8 KiB warmed window inside a small LLC: every probe hits,
    // which is the fig7 small-window regime the budget tracks.
    let mut llc = LlcCache::new(1 << 20, 16, 2);
    llc.warm_lines(0, 128, false);
    let ns = differential(iters, |i| {
        let addr = (i * 64) & 0x1fff;
        black_box(llc.dma_read(addr));
    });
    b.record("llc_probe", iters, ns);
}

fn bench_jitter(b: &mut Budget) {
    let iters = n(2_000_000) as u64;
    let model = JitterModel::xeon_e5();
    let mut rng = SplitMix64::new(0x5eed);
    let ns = differential(iters, |_| {
        black_box(model.sample(&mut rng));
    });
    b.record("jitter_sample", iters, ns);
}

fn bench_tlp_assembly(b: &mut Budget) {
    let iters = n(1_000_000) as u64;
    let dev = DeviceId::new(5, 0, 0);
    let repr_at = |i: u64| TlpRepr::MemRead {
        requester: dev,
        tag: Tag((i & 0xff) as u16),
        addr: 0x10_0000 + ((i * 64) & 0xfff),
        len_bytes: 64,
        addr64: true,
    };
    let mut buf = [0u8; 16];

    let ns = differential(iters, |i| {
        let r = repr_at(i);
        r.emit(&mut Packet::new_unchecked(&mut buf[..])).unwrap();
        black_box(buf[3]);
    });
    b.record("tlp_assembly", iters, ns);
}

fn bench_end_to_end(b: &mut Budget) {
    // The whole per-transaction toll at once: a closed-loop 8 B
    // LAT_RD over the §6.1 baseline geometry, wall time per txn.
    let txns = n(200_000);
    let setup = BenchSetup::nfp6000_snb();
    let params = BenchParams::baseline(8);
    let mut scratch = BenchScratch::new();
    // Warm-up run keeps the first-allocation cost out of the figure.
    pciebench::run_latency_summary(
        &setup,
        &params,
        LatOp::Rd,
        1024,
        DmaPath::CommandIf,
        &mut scratch,
    );
    let start = Instant::now();
    let summary = pciebench::run_latency_summary(
        &setup,
        &params,
        LatOp::Rd,
        txns,
        DmaPath::CommandIf,
        &mut scratch,
    );
    let ns = start.elapsed().as_nanos() as f64 / txns as f64;
    assert!(summary.median > 0.0, "latency run produced no samples");
    b.record("end_to_end_8b_read", txns as u64, ns);
}

fn main() {
    header("ext_hotpath: per-component cost budget (host ns per simulated op)");
    println!(
        "# differential loops: component minus empty-loop baseline, best of 3;\n\
         # 'op' is one reserve / acquire+release / round trip / probe / sample /\n\
         # emit / transaction respectively."
    );
    let mut b = Budget { rows: Vec::new() };
    bench_timeline(&mut b);
    bench_gate(&mut b);
    bench_link(&mut b);
    bench_llc(&mut b);
    bench_jitter(&mut b);
    bench_tlp_assembly(&mut b);
    bench_end_to_end(&mut b);

    println!("\n# Sanity checks:");
    for (name, ns, _) in &b.rows {
        assert!(
            ns.is_finite() && *ns > 0.0,
            "{name}: non-positive cost {ns}"
        );
    }
    println!("#  - all components positive and finite");

    println!();
    for (name, ns, iters) in &b.rows {
        println!("# BENCH hotpath component={name} ns_per_op={ns:.2} iters={iters}");
    }
}
