//! Receive-side scaling: Toeplitz hashing and queue steering.
//!
//! Multi-queue NICs spread incoming flows across RX queues by hashing
//! the IP 4-tuple with the Toeplitz construction (Microsoft's RSS
//! specification, implemented by every mainstream NIC) and indexing an
//! *indirection table* with the hash's low bits. The hash is a linear
//! map over GF(2): each set bit of the input XORs in a 32-bit window
//! of the 320-bit secret key, the window sliding one bit per input
//! bit. Steering is therefore per-flow sticky (same 4-tuple, same
//! queue) and, with the right key, symmetric (both directions of a
//! connection land on the same queue).

use pcie_sim::SplitMix64;

/// Number of entries in the RSS indirection table (the low 7 hash
/// bits select an entry, as on most hardware).
pub const INDIRECTION_ENTRIES: usize = 128;

/// A 40-byte (320-bit) Toeplitz secret key — enough key bits for a
/// 32-bit window over the 12-byte IPv4 4-tuple input with room to
/// spare (up to 36 input bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RssKey {
    bytes: [u8; 40],
}

impl RssKey {
    /// The verification key from Microsoft's RSS specification, used
    /// as the default by most NIC drivers and by DPDK's test vectors.
    pub const MICROSOFT_DEFAULT: RssKey = RssKey {
        bytes: [
            0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3,
            0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3,
            0x80, 0x30, 0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
        ],
    };

    /// The symmetric key of Woo & Park (`0x6d5a` repeated): because
    /// the key is periodic with a 16-bit period, the 32-bit window at
    /// bit offset `b` equals the window at `b + 32` (IP fields) and at
    /// `b + 16` (port fields), so exchanging src/dst IPs *and* src/dst
    /// ports leaves the hash unchanged — both directions of a
    /// connection steer to the same queue.
    pub const SYMMETRIC: RssKey = {
        let mut bytes = [0u8; 40];
        let mut i = 0;
        while i < 40 {
            bytes[i] = if i % 2 == 0 { 0x6d } else { 0x5a };
            i += 1;
        }
        RssKey { bytes }
    };

    /// The raw key bytes.
    pub fn bytes(&self) -> &[u8; 40] {
        &self.bytes
    }
}

/// An IPv4 4-tuple identifying one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address (host byte order).
    pub src_ip: u32,
    /// Destination IPv4 address (host byte order).
    pub dst_ip: u32,
    /// Source TCP/UDP port.
    pub src_port: u16,
    /// Destination TCP/UDP port.
    pub dst_port: u16,
}

impl FlowKey {
    /// The 12-byte RSS hash input in specification order: source IP,
    /// destination IP, source port, destination port, each
    /// big-endian (network order).
    pub fn rss_input(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        out[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out
    }

    /// The reverse direction of the same connection.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Draws a uniformly random 4-tuple (exactly two RNG draws).
    pub fn from_rng(rng: &mut SplitMix64) -> FlowKey {
        let a = rng.next_u64();
        let b = rng.next_u64();
        FlowKey {
            src_ip: (a >> 32) as u32,
            dst_ip: a as u32,
            src_port: (b >> 16) as u16,
            dst_port: b as u16,
        }
    }
}

/// Toeplitz hash of `data` under `key`: for each set input bit
/// (MSB-first), XOR in the 32-bit key window starting at that bit
/// position.
///
/// # Panics
/// Panics if `data` is longer than 36 bytes (the window would run off
/// the 40-byte key).
pub fn toeplitz_hash(key: &RssKey, data: &[u8]) -> u32 {
    assert!(data.len() <= 36, "input longer than the key supports");
    let k = key.bytes();
    let mut hash = 0u32;
    for (i, &byte) in data.iter().enumerate() {
        // 32-bit key window at bit offset 8*i, then slid one bit per
        // input bit; the 5th byte feeds bits in from the right.
        let mut window = u32::from_be_bytes([k[i], k[i + 1], k[i + 2], k[i + 3]]);
        let feed = k[i + 4];
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                hash ^= window;
            }
            window = (window << 1) | ((feed >> (7 - bit)) & 1) as u32;
        }
    }
    hash
}

/// Input bytes [`Rss::hash`] reads: the IPv4 4-tuple.
const INPUT_BYTES: usize = 12;

/// The RSS steering function of one multi-queue NIC: Toeplitz key +
/// indirection table mapping hash low bits to RX queue numbers.
///
/// The key is compiled into a lookup table when the steering function
/// is built: row `i` holds the hash of every 12-byte input that is
/// zero except for byte `i`. The hash is linear over GF(2), so the
/// hash of a 4-tuple is the XOR of one entry per input byte — 12 loads
/// instead of 96 data-dependent branches. Everything is inline, so
/// building one allocates nothing.
#[derive(Clone)]
pub struct Rss {
    /// `lut[i][b]`: the Toeplitz hash of byte value `b` at input
    /// position `i`.
    lut: [[u32; 256]; INPUT_BYTES],
    /// [`INDIRECTION_ENTRIES`] queue numbers, indexed by the hash's
    /// low 7 bits.
    table: [u16; INDIRECTION_ENTRIES],
    queues: u32,
}

impl std::fmt::Debug for Rss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The 3 072 table entries say nothing a reader can use.
        f.debug_struct("Rss")
            .field("queues", &self.queues)
            .finish_non_exhaustive()
    }
}

impl Rss {
    /// A steering function over `queues` RX queues with the default
    /// round-robin indirection table (entry `i` → queue `i % queues`,
    /// how drivers initialise the table before any rebalancing).
    ///
    /// # Panics
    /// Panics if `queues` is zero or exceeds `u16::MAX`.
    pub fn new(key: RssKey, queues: u32) -> Rss {
        assert!(queues > 0, "need at least one queue");
        assert!(queues <= u16::MAX as u32, "queue id must fit u16");
        let k = key.bytes();
        let mut lut = [[0u32; 256]; INPUT_BYTES];
        for (i, row) in lut.iter_mut().enumerate() {
            // The 40 key bits from bit 8*i: input bit 0x80 >> j XORs in
            // the 32 of them that start j bits further on, so byte
            // value 1 << t takes the window `window >> (t + 1)`.
            let window =
                u64::from_be_bytes([0, 0, 0, k[i], k[i + 1], k[i + 2], k[i + 3], k[i + 4]]);
            // Linearity: b's hash is that of b without its lowest set
            // bit, XOR that bit's window.
            for b in 1..256usize {
                row[b] = row[b & (b - 1)] ^ (window >> (b.trailing_zeros() + 1)) as u32;
            }
        }
        let mut table = [0u16; INDIRECTION_ENTRIES];
        for (i, q) in table.iter_mut().enumerate() {
            *q = (i as u32 % queues) as u16;
        }
        Rss { lut, table, queues }
    }

    /// Number of RX queues steered to.
    pub fn queues(&self) -> u32 {
        self.queues
    }

    /// The Toeplitz hash of `flow`'s 4-tuple: equal to
    /// [`toeplitz_hash`] of [`FlowKey::rss_input`].
    pub fn hash(&self, flow: &FlowKey) -> u32 {
        let input = flow.rss_input();
        self.lut
            .iter()
            .zip(input)
            .fold(0, |h, (row, b)| h ^ row[usize::from(b)])
    }

    /// The queue a hash value steers to (indirection-table lookup on
    /// the low bits).
    pub fn queue_for_hash(&self, hash: u32) -> u16 {
        self.table[hash as usize % INDIRECTION_ENTRIES]
    }

    /// Hash + steer in one step: `(hash, queue)`.
    pub fn steer(&self, flow: &FlowKey) -> (u32, u16) {
        let h = self.hash(flow);
        (h, self.queue_for_hash(h))
    }

    /// Capacity to reserve for each queue's schedule when `items`
    /// packets or RPCs are steered over the queues: an even share plus
    /// a sixteenth, plus 64. Over the even indirection table a queue's
    /// share strays from even by about 1 % at the engines' scales
    /// (`flow_rx`'s fullest queue holds 0.8 % more than an even share
    /// of 1 M packets), so a schedule reserved this way never regrows,
    /// and the headroom a queue never writes is never made resident.
    pub fn queue_reserve(&self, items: u64) -> usize {
        let share = usize::try_from(items / u64::from(self.queues)).unwrap_or(usize::MAX);
        share.saturating_add(share / 16).saturating_add(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Verification vectors from the Microsoft RSS specification
    // (also shipped as DPDK's `test_thash` vectors): 12-byte IPv4
    // 4-tuple input under the default key.
    const VECTORS: &[(FlowKey, u32)] = &[
        (
            // src 66.9.149.187:2794 -> dst 161.142.100.80:1766
            FlowKey {
                src_ip: 0x4209_95bb,
                dst_ip: 0xa18e_6450,
                src_port: 2794,
                dst_port: 1766,
            },
            0x51cc_c178,
        ),
        (
            // src 199.92.111.2:14230 -> dst 65.69.140.83:4739
            FlowKey {
                src_ip: 0xc75c_6f02,
                dst_ip: 0x4145_8c53,
                src_port: 14230,
                dst_port: 4739,
            },
            0xc626_b0ea,
        ),
    ];

    #[test]
    fn microsoft_verification_vectors() {
        let rss = Rss::new(RssKey::MICROSOFT_DEFAULT, 8);
        for &(flow, expect) in VECTORS {
            let got = toeplitz_hash(&RssKey::MICROSOFT_DEFAULT, &flow.rss_input());
            assert_eq!(got, expect, "flow {flow:?}");
            assert_eq!(rss.hash(&flow), expect, "table hash of {flow:?}");
        }
    }

    #[test]
    fn l3_only_verification_vectors() {
        // The same spec vectors hashed over the 8-byte src+dst IP
        // prefix (the L3-only RSS mode).
        let l3 = [(0u32, 0x323e_8fc2u32), (1, 0xd718_262a)];
        for (i, expect) in l3 {
            let input = VECTORS[i as usize].0.rss_input();
            let got = toeplitz_hash(&RssKey::MICROSOFT_DEFAULT, &input[..8]);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn symmetric_key_is_direction_invariant() {
        let mut rng = SplitMix64::new(0x57);
        for _ in 0..500 {
            let f = FlowKey::from_rng(&mut rng);
            let fwd = toeplitz_hash(&RssKey::SYMMETRIC, &f.rss_input());
            let rev = toeplitz_hash(&RssKey::SYMMETRIC, &f.reversed().rss_input());
            assert_eq!(fwd, rev, "symmetric key must ignore direction: {f:?}");
        }
    }

    #[test]
    fn default_key_is_not_symmetric() {
        // Sanity check that the symmetry above is a property of the
        // key, not of the hash: the default key distinguishes
        // directions for essentially every flow.
        let mut rng = SplitMix64::new(9);
        let asymmetric = (0..100)
            .filter(|_| {
                let f = FlowKey::from_rng(&mut rng);
                toeplitz_hash(&RssKey::MICROSOFT_DEFAULT, &f.rss_input())
                    != toeplitz_hash(&RssKey::MICROSOFT_DEFAULT, &f.reversed().rss_input())
            })
            .count();
        assert!(asymmetric > 95, "{asymmetric}/100");
    }

    #[test]
    fn steering_is_sticky_and_in_range() {
        let rss = Rss::new(RssKey::MICROSOFT_DEFAULT, 8);
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let f = FlowKey::from_rng(&mut rng);
            let (h, q) = rss.steer(&f);
            assert!(u32::from(q) < 8);
            assert_eq!(rss.steer(&f), (h, q), "same flow, same queue");
        }
    }

    #[test]
    fn indirection_spreads_across_all_queues() {
        let rss = Rss::new(RssKey::MICROSOFT_DEFAULT, 7);
        let mut hit = vec![0u32; 7];
        let mut rng = SplitMix64::new(4);
        for _ in 0..7000 {
            let (_, q) = rss.steer(&FlowKey::from_rng(&mut rng));
            hit[q as usize] += 1;
        }
        for (q, &n) in hit.iter().enumerate() {
            assert!(n > 500, "queue {q} starved: {hit:?}");
        }
    }
}
