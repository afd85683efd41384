//! Cross-crate property tests: for arbitrary (valid) benchmark
//! geometries, physical invariants must hold — results bounded by the
//! wire, conservation of bytes, latency floors, monotonicity.
//!
//! Randomised with the in-tree, seedable [`SplitMix64`] (the workspace
//! builds with zero external dependencies), so every run explores the
//! same geometry sample and failures reproduce exactly.

use pcie_bench_repro::bench::{
    run_bandwidth, run_latency, BenchParams, BenchSetup, BwOp, CacheState, LatOp, Pattern,
};
use pcie_bench_repro::device::DmaPath;
use pcie_bench_repro::host::presets::NumaPlacement;
use pcie_bench_repro::model::LinkConfig;
use pcie_bench_repro::sim::SplitMix64;
use pcie_bench_repro::tlp::dllp::{
    seq_distance, seq_mask, seq_next, seq_precedes, Dllp, SEQ_MODULUS,
};
use pcie_bench_repro::tlp::packet::Error;
use pcie_bench_repro::tlp::{
    split, CplStatus, DeviceId, Packet, Tag, TlpOverheads, TlpRepr, TlpType,
};

const CASES: usize = 24;

/// Draws a valid benchmark geometry: window 8KiB–8MiB, transfer 8 or
/// 8–2048B, offset 0–63, any pattern/cache state, local placement —
/// the same distribution the earlier proptest strategy used.
fn arb_params(rng: &mut SplitMix64) -> BenchParams {
    loop {
        let transfer = if rng.chance(0.5) {
            8
        } else {
            rng.range(8, 2049) as u32
        };
        let p = BenchParams {
            window: 4096u64 << rng.range(1, 12),
            transfer,
            offset: rng.range(0, 64) as u32,
            pattern: if rng.chance(0.5) {
                Pattern::Sequential
            } else {
                Pattern::Random
            },
            cache: match rng.range(0, 3) {
                0 => CacheState::Cold,
                1 => CacheState::HostWarm,
                _ => CacheState::DeviceWarm,
            },
            placement: NumaPlacement::Local,
        };
        if p.validate().is_ok() {
            return p;
        }
    }
}

#[test]
fn bandwidth_bounded_by_physical_link() {
    let mut rng = SplitMix64::new(0xB0A7_10AD);
    for _ in 0..CASES {
        let params = arb_params(&mut rng);
        let setup = BenchSetup::netfpga_hsw();
        for op in [BwOp::Rd, BwOp::Wr] {
            let r = run_bandwidth(&setup, &params, op, 600, DmaPath::DmaEngine);
            assert!(r.gbps > 0.0);
            // Payload can never exceed the physical link rate.
            let phys = setup.link.phys_bw() / 1e9;
            assert!(
                r.gbps < phys,
                "{} {:?}: {} Gb/s exceeds the {phys} Gb/s wire",
                op.name(),
                params,
                r.gbps
            );
        }
    }
}

#[test]
fn latency_has_a_physical_floor() {
    let mut rng = SplitMix64::new(0xF1007);
    for _ in 0..CASES {
        let params = arb_params(&mut rng);
        let setup = BenchSetup::netfpga_hsw();
        let r = run_latency(&setup, &params, LatOp::Rd, 120, DmaPath::DmaEngine);
        // Round trip can never beat 2x propagation (300ns on this
        // platform) plus the host pipeline.
        assert!(
            r.summary.min >= 300.0,
            "min {} below physical floor ({params:?})",
            r.summary.min
        );
        assert!(r.summary.min <= r.summary.median);
        assert!(r.summary.median <= r.summary.p95);
        assert!(r.summary.p95 <= r.summary.max);
    }
}

#[test]
fn wrrd_never_faster_than_a_warm_read() {
    // Note: cold WRRD can beat cold RD — the DMA write warms the
    // line through DDIO before the read (visible in the paper's
    // Figure 7a). The true floor of WRRD is therefore the *warm*
    // read plus something for the write in front of it.
    let mut rng = SplitMix64::new(0x3A1AD);
    for _ in 0..CASES {
        let params = arb_params(&mut rng);
        let setup = BenchSetup::netfpga_hsw();
        let warm = BenchParams {
            cache: CacheState::HostWarm,
            ..params
        };
        let rd = run_latency(&setup, &warm, LatOp::Rd, 120, DmaPath::DmaEngine);
        let setup2 = BenchSetup::netfpga_hsw();
        let wrrd = run_latency(&setup2, &params, LatOp::WrRd, 120, DmaPath::DmaEngine);
        assert!(
            wrrd.summary.median >= rd.summary.median,
            "WRRD {} < warm RD {} ({params:?})",
            wrrd.summary.median,
            rd.summary.median
        );
    }
}

/// Byte-conservation check shared by the random sweep and the pinned
/// regression case below.
fn check_byte_conservation(params: &BenchParams) {
    let setup = BenchSetup::netfpga_hsw();
    let n = 400usize;
    let (mut platform, buf) = setup.build(params);
    let mut seq = pcie_bench_repro::bench::access::AccessSequence::new(params, 7);
    for _ in 0..n {
        let off = seq.next_offset();
        platform.dma_read(
            pcie_bench_repro::sim::SimTime::ZERO,
            &buf,
            off,
            params.transfer,
            DmaPath::DmaEngine,
        );
    }
    let stats = platform.host.stats();
    assert_eq!(
        stats.bytes_read,
        n as u64 * params.transfer as u64,
        "{params:?}"
    );
    // Each read chunk becomes at least one request TLP.
    assert!(stats.read_tlps >= n as u64, "{params:?}");
}

#[test]
fn host_accounting_conserves_bytes() {
    let mut rng = SplitMix64::new(0xC0_15E7);
    for _ in 0..CASES {
        check_byte_conservation(&arb_params(&mut rng));
    }
}

#[test]
fn host_accounting_conserves_bytes_regression_min_sequential_cold() {
    // Shrunk failure case from an earlier proptest run (formerly kept
    // in tests/properties.proptest-regressions): the smallest cold
    // sequential geometry.
    check_byte_conservation(&BenchParams {
        window: 8192,
        transfer: 8,
        offset: 0,
        pattern: Pattern::Sequential,
        cache: CacheState::Cold,
        placement: NumaPlacement::Local,
    });
}

#[test]
fn ack_nak_dllps_round_trip_for_any_sequence() {
    // Any 12-bit sequence number survives the wire encoding of the
    // DLLPs the replay protocol exchanges; out-of-range values are
    // masked into the space, never silently corrupted elsewhere.
    let mut rng = SplitMix64::new(0xD11F_5EED);
    for _ in 0..CASES * 16 {
        let raw = rng.next_u64() as u16;
        let seq = seq_mask(raw);
        for d in [Dllp::Ack { seq }, Dllp::Nak { seq }] {
            assert_eq!(Dllp::from_bytes(d.to_bytes()), Some(d), "{d:?}");
        }
        // Encoding an unmasked value lands on the masked one.
        assert_eq!(
            Dllp::from_bytes(Dllp::Nak { seq: raw }.to_bytes()),
            Some(Dllp::Nak { seq }),
            "raw {raw:#x}"
        );
    }
}

#[test]
fn sequence_ordering_survives_wraparound() {
    // For any start point — including ones that straddle the 4095 -> 0
    // wrap — walking k < 2048 steps forward preserves modular order and
    // distance. This is the comparison the DLL receiver relies on to
    // tell a replayed TLP from a new one.
    let mut rng = SplitMix64::new(0x5E0_0E5);
    for _ in 0..CASES * 8 {
        let start = seq_mask(rng.next_u64() as u16);
        let k = rng.range(1, u64::from(SEQ_MODULUS) / 2) as u16;
        let mut cur = start;
        for _ in 0..k {
            let nxt = seq_next(cur);
            assert!(seq_precedes(cur, nxt), "{cur} must precede {nxt}");
            assert!(!seq_precedes(nxt, cur), "{nxt} must not precede {cur}");
            cur = nxt;
        }
        assert_eq!(seq_distance(start, cur), k, "distance from {start}");
        assert!(seq_precedes(start, cur));
        assert!(!seq_precedes(cur, start));
        // A full wrap returns to the start and is not "ahead".
        assert!(!seq_precedes(start, start));
        assert_eq!(seq_mask(start.wrapping_add(SEQ_MODULUS)), start);
    }
}

#[test]
fn fault_injection_never_improves_bandwidth() {
    // Replays only ever add wire time: for arbitrary geometries, a
    // faulty link can at best tie the fault-free run.
    let mut rng = SplitMix64::new(0xBE2_FA17);
    for _ in 0..6 {
        let params = arb_params(&mut rng);
        let clean = run_bandwidth(
            &BenchSetup::netfpga_hsw(),
            &params,
            BwOp::Rd,
            600,
            DmaPath::DmaEngine,
        );
        let faulty = run_bandwidth(
            &BenchSetup::netfpga_hsw().with_ber(1e-5),
            &params,
            BwOp::Rd,
            600,
            DmaPath::DmaEngine,
        );
        assert!(
            faulty.gbps <= clean.gbps + 1e-9,
            "BER=1e-5 sped reads up: {} -> {} ({params:?})",
            clean.gbps,
            faulty.gbps
        );
    }
}

#[test]
fn larger_windows_never_speed_up_warm_reads() {
    // Monotonicity: growing the working set can only hurt (or not
    // affect) warm-cache read bandwidth.
    let setup = BenchSetup::netfpga_hsw();
    let bw = |window: u64| {
        let p = BenchParams {
            window,
            ..BenchParams::baseline(64)
        };
        run_bandwidth(&setup, &p, BwOp::Rd, 1_500, DmaPath::DmaEngine).gbps
    };
    let small = bw(64 << 10);
    for shift in 0u64..8 {
        let large = bw((64 << 10) << shift);
        assert!(
            large <= small * 1.03,
            "window growth sped reads up: {small} -> {large} (shift {shift})"
        );
    }
}

/// An MWr64 header whose length field says one DW while its last-DW
/// byte enable is set: malformed, and once an integer underflow in the
/// parser's length arithmetic.
const ONE_DW_WITH_LAST_BE: [u8; 20] = {
    let mut b = [0u8; 20];
    b[0] = 0x60; // fmt 4DW with data, type MWr
    b[3] = 0x01; // length: 1 DW
    b[7] = 0x1f; // last BE 0x1, first BE 0xf
    b
};

/// A 3-DW MWr32 header with first BE 0b0001 and last BE 0b1111: its 9
/// enabled bytes are not contiguous, and it was once read as a 12-byte
/// write.
const GAP_BEFORE_LAST_BE: [u8; 24] = {
    let mut b = [0u8; 24];
    b[0] = 0x40; // fmt 3DW with data, type MWr
    b[3] = 0x03; // length: 3 DW
    b[7] = 0xf1; // last BE 0xf, first BE 0x1
    b
};

/// Encoded fmt/type bytes of every TLP type the codec knows.
const TLP_TYPE_BYTES: [u8; 8] = [0x00, 0x20, 0x40, 0x60, 0x04, 0x44, 0x0a, 0x4a];

/// Untrusted bytes never panic either parser. Random 0–79 B buffers go
/// through `Packet::new_checked` and `TlpRepr::parse`, and every header
/// the parser accepts must emit and parse back to itself; the first
/// four bytes of each buffer go through `Dllp::from_bytes` likewise.
/// Half the buffers get a known TLP type and a short length field, so
/// a good share of them reach the field decoders.
#[test]
fn tlp_and_dllp_parsers_survive_random_bytes() {
    for header in [&ONE_DW_WITH_LAST_BE[..], &GAP_BEFORE_LAST_BE[..]] {
        let pkt = Packet::new_checked(header).expect("long enough");
        assert_eq!(TlpRepr::parse(&pkt), Err(Error::Malformed), "{header:02x?}");
    }

    let mut rng = SplitMix64::new(0xF022_B17E);
    let mut buf = [0u8; 79];
    let mut out = [0u8; 16 + 4096];
    let mut accepted = 0;
    for _ in 0..2_000_000 {
        let len = rng.range(0, 80) as usize;
        for b in &mut buf[..len] {
            *b = rng.next_u64() as u8;
        }
        if len >= 4 && rng.chance(0.5) {
            buf[0] = TLP_TYPE_BYTES[rng.range(0, 8) as usize];
            buf[2] &= !0x3;
            buf[3] &= 0xf;
        }
        let bytes = &buf[..len];
        if let Ok(repr) = Packet::new_checked(bytes).and_then(|p| TlpRepr::parse(&p)) {
            accepted += 1;
            let n = repr.buffer_len();
            repr.emit(&mut Packet::new_unchecked(&mut out[..n]))
                .unwrap_or_else(|e| panic!("{repr:?} parsed from {bytes:02x?} but emit: {e}"));
            let again = Packet::new_checked(&out[..n]).and_then(|p| TlpRepr::parse(&p));
            assert_eq!(again, Ok(repr), "from {bytes:02x?}");
        }
        if let Some(body) = bytes.first_chunk::<4>() {
            if let Some(d) = Dllp::from_bytes(*body) {
                assert_eq!(Dllp::from_bytes(d.to_bytes()), Some(d), "from {body:02x?}");
            }
        }
    }
    assert!(accepted > 100_000, "only {accepted} headers parsed");
}

/// Eq. 1 checked against the TLP codec. Every TLP the datapath sends —
/// MWr64 for writes, MRd64 and CplD for reads, split by MPS, MRRS and
/// RCB from random addresses and lengths, plus the configuration
/// path's CfgRd0, CfgWr0, CplD and Cpl — costs `wire_cost` bytes in the
/// model and framing + DLL header + `TlpRepr::buffer_len` on the wire.
/// The two agree except where a data TLP starts off a DW boundary: the
/// wire then carries every DW the byte range touches, the model only
/// the length rounded up to whole DWs.
#[test]
fn wire_cost_matches_the_tlp_codec() {
    let o = TlpOverheads::default();
    let dev = DeviceId::new(1, 0, 0);
    let rc = DeviceId::new(0, 0, 0);
    let mut out = [0u8; 16 + 4096];
    // Emits `repr`, parses it back and returns its bytes on the wire.
    let mut wire = |repr: TlpRepr| {
        let n = repr.buffer_len();
        repr.emit(&mut Packet::new_unchecked(&mut out[..n]))
            .unwrap_or_else(|e| panic!("{repr:?}: {e}"));
        let back = Packet::new_checked(&out[..n]).and_then(|p| TlpRepr::parse(&p));
        assert_eq!(back, Ok(repr));
        o.framing + o.dll_header + n as u32
    };
    let model = |ty: TlpType, len: u32| o.wire_cost(ty, len).total();
    // DWs the wire carries beyond Eq. 1's for `len` bytes at `addr`.
    let gap = |addr: u64, len: u32| 4 * ((addr as u32 % 4 + len).div_ceil(4) - len.div_ceil(4));

    let cfg_rd = TlpRepr::ConfigRead {
        requester: rc,
        completer: dev,
        tag: Tag(1),
        register: 4,
    };
    let cfg_wr = TlpRepr::ConfigWrite {
        requester: rc,
        completer: dev,
        tag: Tag(2),
        register: 4,
    };
    let cpl = |len_dw| TlpRepr::Completion {
        completer: dev,
        requester: rc,
        tag: Tag(1),
        status: CplStatus::Success,
        byte_count: 4,
        lower_addr: 0x10,
        len_dw,
    };
    assert_eq!(wire(cfg_rd), model(TlpType::CfgRd0, 0));
    assert_eq!(wire(cpl(1)), model(TlpType::CplD, 4));
    assert_eq!(wire(cfg_wr), model(TlpType::CfgWr0, 4));
    assert_eq!(wire(cpl(0)), model(TlpType::Cpl, 0));

    let mwr = |addr, len_bytes| TlpRepr::MemWrite {
        requester: dev,
        addr,
        len_bytes,
        addr64: true,
    };
    // The gap's size: a 64 B write at offset 1 is 17 DWs on the wire,
    // an 8 B one 3 DWs.
    assert_eq!(wire(mwr(1, 64)), model(TlpType::MWr64, 64) + 4);
    assert_eq!(wire(mwr(1, 8)), model(TlpType::MWr64, 8) + 4);

    let links = [
        BenchSetup::nfp6000_hsw().link,
        BenchSetup::netfpga_hsw().link,
        LinkConfig::gen4_x16(),
    ];
    let mut rng = SplitMix64::new(0xE0_1C0DEC);
    for _ in 0..4_000 {
        let link = links[rng.range(0, links.len() as u64) as usize];
        let addr = rng.range(0, 1 << 40);
        let len = rng.range(1, 4097) as u32;
        for c in split::write_chunks(addr, len, link.mps) {
            assert_eq!(
                wire(mwr(c.addr, c.len)),
                model(TlpType::MWr64, c.len) + gap(c.addr, c.len),
                "MWr {c:?}"
            );
        }
        for r in split::read_request_chunks(addr, len, link.mrrs) {
            let mrd = TlpRepr::MemRead {
                requester: dev,
                tag: Tag(7),
                addr: r.addr,
                len_bytes: r.len,
                addr64: true,
            };
            assert_eq!(wire(mrd), model(TlpType::MRd64, 0), "MRd {r:?}");
            let mut remaining = r.len;
            for c in split::completion_chunks(r.addr, r.len, link.mps, link.rcb) {
                let cpld = TlpRepr::Completion {
                    completer: rc,
                    requester: dev,
                    tag: Tag(7),
                    status: CplStatus::Success,
                    byte_count: remaining as u16,
                    lower_addr: (c.addr & 0x7f) as u8,
                    len_dw: (c.addr as u32 % 4 + c.len).div_ceil(4) as u16,
                };
                assert_eq!(
                    wire(cpld),
                    model(TlpType::CplD, c.len) + gap(c.addr, c.len),
                    "CplD {c:?} of {r:?}"
                );
                remaining -= c.len;
            }
            assert_eq!(remaining, 0);
        }
    }
}
