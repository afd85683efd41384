//! RSS and flow-engine properties: Toeplitz known-answer vectors, the
//! lookup-table hash against the bit-serial reference, steering
//! determinism, src/dst symmetry under the symmetric key, and
//! pool-width stability of the full engine — `threads:1` vs
//! `threads:N` runs must be bit-identical, over fault-free and
//! faulted platforms alike.

use pcie_bench_repro::bench::BenchSetup;
use pcie_bench_repro::device::Platform;
use pcie_bench_repro::flows::{
    toeplitz_hash, ArrivalProcess, FlowEngine, FlowEngineConfig, FlowKey, FlowLength, QueueRun,
    Rss, RssKey, ServiceModel, TrafficProfile,
};
use pcie_bench_repro::nic::traffic::Workload;
use pcie_bench_repro::par::Pool;
use pcie_bench_repro::sim::{SimTime, SplitMix64};

fn platform(_q: u32) -> Platform {
    BenchSetup::nfp6000_hsw().build_nic_platform()
}

/// The two IPv4 verification vectors published with the Microsoft RSS
/// specification, for both the full 4-tuple (L3L4) and the
/// address-only (L3) inputs.
#[test]
fn toeplitz_matches_microsoft_verification_suite() {
    let key = RssKey::MICROSOFT_DEFAULT;
    let cases = [
        // (src_ip, src_port, dst_ip, dst_port, l3l4, l3)
        (
            [66, 9, 149, 187],
            2794u16,
            [161, 142, 100, 80],
            1766u16,
            0x51cc_c178u32,
            0x323e_8fc2u32,
        ),
        (
            [199, 92, 111, 2],
            14230,
            [65, 69, 140, 83],
            4739,
            0xc626_b0ea,
            0xd718_262a,
        ),
    ];
    for (src, sport, dst, dport, l3l4, l3) in cases {
        let k = FlowKey {
            src_ip: u32::from_be_bytes(src),
            dst_ip: u32::from_be_bytes(dst),
            src_port: sport,
            dst_port: dport,
        };
        assert_eq!(toeplitz_hash(&key, &k.rss_input()), l3l4);
        let rss = Rss::new(key.clone(), 8);
        assert_eq!(rss.steer(&k), (l3l4, rss.queue_for_hash(l3l4)));
        let mut addrs = [0u8; 8];
        addrs[..4].copy_from_slice(&src);
        addrs[4..].copy_from_slice(&dst);
        assert_eq!(toeplitz_hash(&key, &addrs), l3);
    }
}

/// The 4-tuple whose RSS input is `input`.
fn flow_of(input: [u8; 12]) -> FlowKey {
    let [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, d0, d1] = input;
    FlowKey {
        src_ip: u32::from_be_bytes([a0, a1, a2, a3]),
        dst_ip: u32::from_be_bytes([b0, b1, b2, b3]),
        src_port: u16::from_be_bytes([c0, c1]),
        dst_port: u16::from_be_bytes([d0, d1]),
    }
}

/// `Rss::hash` reads a lookup table built from the key; the bit-serial
/// `toeplitz_hash` is its reference. Both are linear over GF(2) and
/// every 12-byte input is the XOR of its single-byte inputs, so
/// agreeing on each byte value at each position means agreeing on
/// every 4-tuple.
#[test]
fn table_hash_equals_bit_serial_toeplitz_on_every_input() {
    for key in [RssKey::MICROSOFT_DEFAULT, RssKey::SYMMETRIC] {
        let rss = Rss::new(key.clone(), 8);
        for pos in 0..12 {
            for b in 0..=255u8 {
                let mut input = [0u8; 12];
                input[pos] = b;
                let flow = flow_of(input);
                assert_eq!(flow.rss_input(), input);
                assert_eq!(
                    rss.hash(&flow),
                    toeplitz_hash(&key, &input),
                    "key {:02x?}, byte {b:#04x} at {pos}",
                    &key.bytes()[..2]
                );
            }
        }
    }
}

/// Steering is a pure function: the same flow key always lands on the
/// same queue, across separately constructed RSS instances.
#[test]
fn steering_is_deterministic_across_instances() {
    let mut rng = SplitMix64::new(0xf10e);
    for _ in 0..200 {
        let k = FlowKey::from_rng(&mut rng);
        let a = Rss::new(RssKey::MICROSOFT_DEFAULT, 8).steer(&k);
        let b = Rss::new(RssKey::MICROSOFT_DEFAULT, 8).steer(&k);
        assert_eq!(a, b);
    }
}

/// Under the 16-bit-periodic symmetric key both directions of a
/// connection hash identically, so request and response land on the
/// same queue; the Microsoft default key does not have this property.
#[test]
fn symmetric_key_steers_both_directions_together() {
    let sym = Rss::new(RssKey::SYMMETRIC, 16);
    let def = Rss::new(RssKey::MICROSOFT_DEFAULT, 16);
    let mut rng = SplitMix64::new(0x5e77);
    let mut default_diverged = false;
    for _ in 0..300 {
        let k = FlowKey::from_rng(&mut rng);
        assert_eq!(sym.steer(&k).0, sym.steer(&k.reversed()).0);
        if def.steer(&k).0 != def.steer(&k.reversed()).0 {
            default_diverged = true;
        }
    }
    assert!(
        default_diverged,
        "the default key is not direction-invariant"
    );
}

fn small_engine(queues: u32) -> FlowEngine {
    let cfg = FlowEngineConfig {
        queues,
        service: ServiceModel {
            rx_sw: SimTime::from_ns(400),
            app: SimTime::from_ns(100),
            ..ServiceModel::default()
        },
        ..FlowEngineConfig::default()
    };
    let profile = TrafficProfile {
        flows: 4_000,
        packets: 12_000,
        arrival: ArrivalProcess::Poisson { pps: 6.0e6 },
        flow_length: FlowLength::BoundedPareto {
            min: 1,
            max: 500,
            alpha: 1.3,
        },
        sizes: Workload::Fixed(128),
    };
    FlowEngine::new(cfg, profile)
}

/// The quick-tier Pareto profile keeps the quick scale but carries
/// the million-flow tail: valid parameters, heavier mean flow length
/// than the plain quick profile, Pareto (not fixed) wire sizes — and
/// the engine consumes it deterministically.
#[test]
fn quick_pareto_profile_smokes_the_heavy_tail() {
    let q = TrafficProfile::quick(6.0e6);
    let qp = TrafficProfile::quick_pareto(6.0e6);
    qp.validate().expect("quick_pareto must validate");
    assert_eq!((qp.flows, qp.packets), (q.flows, q.packets), "same scale");
    assert!(
        qp.flow_length.mean() > q.flow_length.mean(),
        "tail must be heavier: {} vs {}",
        qp.flow_length.mean(),
        q.flow_length.mean()
    );
    assert!(
        qp.offered_gbps() > q.offered_gbps(),
        "Pareto wire sizes outweigh fixed 128B"
    );
    let e = FlowEngine::new(FlowEngineConfig::default(), qp);
    let pool = Pool::sequential();
    let a = e.run(&pool, platform).fingerprint();
    let b = e.run(&pool, platform).fingerprint();
    assert_eq!(a, b, "heavy-tail quick profile must replay exactly");
}

/// The engine is reproducible run-to-run: two runs with the same
/// config and pool produce the same fingerprint.
#[test]
fn engine_is_reproducible_across_runs() {
    let e = small_engine(4);
    let pool = Pool::sequential();
    let a = e.run(&pool, platform).fingerprint();
    let b = e.run(&pool, platform).fingerprint();
    assert_eq!(a, b);
}

/// Pool width is unobservable: a sequential run and runs fanned over
/// 2 and 5 workers produce bit-identical fingerprints.
#[test]
fn engine_pool_width_is_unobservable() {
    let e = small_engine(4);
    let seq = e.run(&Pool::sequential(), platform).fingerprint();
    for threads in [2, 5] {
        let par = e.run(&Pool::with_threads(threads), platform).fingerprint();
        assert_eq!(seq, par, "threads:{threads} diverged from sequential");
    }
}

/// Changing only the engine seed changes the fingerprint — the seed
/// actually reaches the flow-key, length, arrival and pick streams.
#[test]
fn engine_seed_reaches_every_stream() {
    let base = small_engine(4);
    let mut cfg = base.config().clone();
    cfg.seed ^= 1;
    let reseeded = FlowEngine::new(cfg, base.profile().clone());
    let pool = Pool::sequential();
    assert_ne!(
        base.run(&pool, platform).fingerprint(),
        reseeded.run(&pool, platform).fingerprint()
    );
}

/// Every queue over a platform with a 1e-5 bit-error rate on its
/// link: each passes the end-of-run audit, the run replays exactly
/// and at any pool width, and the fault plan reaches the queues' DMAs,
/// so the fingerprint is not the fault-free run's.
#[test]
fn engine_runs_over_faulted_platforms() {
    let faulted = |_q: u32| {
        BenchSetup::nfp6000_hsw()
            .with_ber(1e-5)
            .build_nic_platform()
    };
    let e = small_engine(4);
    let r = e.run(&Pool::sequential(), faulted);
    for q in &r.queues {
        q.audit();
    }
    let digest = r.fingerprint();
    let again = e.run(&Pool::sequential(), faulted).fingerprint();
    assert_eq!(again, digest, "a faulted run replays");
    let wide = e.run(&Pool::with_threads(4), faulted).fingerprint();
    assert_eq!(wide, digest, "threads:4 diverged from sequential");
    let clean = e.run(&Pool::sequential(), platform).fingerprint();
    assert_ne!(clean, digest, "the fault plan never reached a queue");
}
