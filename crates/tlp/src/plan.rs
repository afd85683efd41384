//! Split-plan memoisation: replaying TLP split geometry without
//! re-deriving it per transaction.
//!
//! The chunk sequence produced by [`crate::split`] is a pure function
//! of the transfer geometry — and because every mask in the split
//! rules sees only the address bits *below* the quantum, it is a pure
//! function of the **aligned offset** `(addr % quantum, len)` rather
//! than the full address. A sweep replays a handful of geometries
//! millions of times, so the per-transaction derivation is almost
//! always recomputing a plan the simulator just produced. This module
//! provides:
//!
//! * closed-form **single-chunk predicates** — the common case (small
//!   DMA, aligned ring descriptor) needs one branch, not an iterator
//!   or a cache probe;
//! * a [`PlanCache`] — a small LRU (the `BenchScratch::orders` idiom)
//!   memoising the completion-length sequence of multi-chunk reads so
//!   hot paths replay it allocation-free as a slice.
//!
//! Exactness: a cached plan is byte-for-byte the sequence the
//! [`crate::split`] iterators produce — the cache stores what the
//! iterator yielded and replays it verbatim; the predicates are proved
//! against the iterator in the tests below (and the device-level pin
//! in `tests/properties.rs` holds cache-on vs cache-off runs to
//! identical wire counters and latency bytes).

use crate::split;

/// True iff a quantised split ([`split::write_chunks`] /
/// [`split::read_request_chunks`]) of `len` bytes at `addr` yields
/// exactly one chunk `(addr, len)`: the transfer fits between `addr`
/// and the next `quantum` boundary.
#[inline]
pub fn single_quantized_chunk(addr: u64, len: u32, quantum: u32) -> bool {
    debug_assert!(len > 0 && quantum.is_power_of_two());
    (addr & (quantum as u64 - 1)) + len as u64 <= quantum as u64
}

/// True iff the completion stream ([`split::completion_chunks`]) of a
/// read of `len` bytes at `addr` is a single CplD `(addr, len)`.
///
/// Mirrors the iterator's first-step rule: an RCB-unaligned start may
/// only run to the next RCB boundary; an aligned start may run to the
/// next MPS boundary.
#[inline]
pub fn single_completion_chunk(addr: u64, len: u32, mps: u32, rcb: u32) -> bool {
    debug_assert!(len > 0 && mps.is_power_of_two() && rcb.is_power_of_two());
    let rcb_off = addr & (rcb as u64 - 1);
    let cap = if rcb_off != 0 {
        rcb as u64 - rcb_off
    } else {
        mps as u64 - (addr & (mps as u64 - 1))
    };
    len as u64 <= cap
}

/// Cached plans kept per cache (geometries live in a sweep at once:
/// a couple of transfer sizes × cold/warm offsets).
const PLAN_CACHE_CAP: usize = 8;

#[derive(Debug)]
struct PlanEntry {
    /// `(addr % mps, len, mps, rcb)` — the full address is irrelevant
    /// to the length sequence (see module docs).
    key: (u64, u32, u32, u32),
    lens: Vec<u32>,
    /// Logical timestamp of last use (LRU victim = smallest).
    used: u64,
}

/// A small LRU memoising completion-split length sequences.
///
/// `completion_lens` returns the exact sequence
/// `completion_chunks(addr, len, mps, rcb).map(|c| c.len)` as a slice,
/// deriving it at most once per geometry. `set_enabled(false)` turns
/// the cache into a passthrough that re-derives every call into a
/// scratch buffer — the determinism pin runs a sweep both ways and
/// holds the outputs identical.
#[derive(Debug)]
pub struct PlanCache {
    entries: Vec<PlanEntry>,
    clock: u64,
    enabled: bool,
    /// Passthrough buffer for the disabled mode.
    scratch: Vec<u32>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        PlanCache {
            entries: Vec::with_capacity(PLAN_CACHE_CAP),
            clock: 0,
            enabled: true,
            scratch: Vec::new(),
        }
    }

    /// Enables or disables memoisation (disabled = re-derive per call;
    /// timing-identical, used by the determinism pin).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.entries.clear();
        }
    }

    /// Whether memoisation is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The completion-length sequence for a read of `len` bytes at
    /// `addr` under `(mps, rcb)` — exactly
    /// `completion_chunks(addr, len, mps, rcb).map(|c| c.len)`.
    pub fn completion_lens(&mut self, addr: u64, len: u32, mps: u32, rcb: u32) -> &[u32] {
        let key = (addr & (mps as u64 - 1), len, mps, rcb);
        if !self.enabled {
            self.scratch.clear();
            self.scratch
                .extend(split::completion_chunks(addr, len, mps, rcb).map(|c| c.len));
            return &self.scratch;
        }
        self.clock += 1;
        let clock = self.clock;
        // Linear scan: the population is tiny and the hit is usually
        // the most recent entry.
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.entries[i].used = clock;
            return &self.entries[i].lens;
        }
        let lens: Vec<u32> = split::completion_chunks(addr, len, mps, rcb)
            .map(|c| c.len)
            .collect();
        if self.entries.len() >= PLAN_CACHE_CAP {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.used)
                .map(|(i, _)| i)
                .expect("cache non-empty at capacity");
            self.entries.swap_remove(victim);
        }
        self.entries.push(PlanEntry {
            key,
            lens,
            used: clock,
        });
        &self.entries.last().expect("just pushed").lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::SplitMix64;

    #[test]
    fn single_chunk_predicates_match_iterators() {
        let mut rng = SplitMix64::new(0x51_AB5E);
        for _ in 0..2000 {
            let addr = rng.next_below(1 << 20);
            let len = rng.range(1, 4096) as u32;
            let q = 1u32 << rng.range(5, 10); // 32..512
            let chunks: Vec<_> = split::write_chunks(addr, len, q).collect();
            assert_eq!(
                single_quantized_chunk(addr, len, q),
                chunks.len() == 1,
                "addr={addr:#x} len={len} q={q}"
            );
            let (mps, rcb) = (q.max(64), 64u32.min(q));
            let cpls: Vec<_> = split::completion_chunks(addr, len, mps, rcb).collect();
            assert_eq!(
                single_completion_chunk(addr, len, mps, rcb),
                cpls.len() == 1,
                "addr={addr:#x} len={len} mps={mps} rcb={rcb}"
            );
        }
    }

    #[test]
    fn cached_plans_replay_iterator_exactly() {
        let mut cache = PlanCache::new();
        let mut rng = SplitMix64::new(0xCAC_4E);
        // Few geometries, many probes: exercises hits, misses and LRU
        // eviction (more than PLAN_CACHE_CAP distinct keys).
        let geoms: Vec<(u64, u32)> = (0..12)
            .map(|_| (rng.next_below(1 << 16), rng.range(1, 2048) as u32))
            .collect();
        for _ in 0..200 {
            let (addr, len) = geoms[rng.next_below(geoms.len() as u64) as usize];
            let want: Vec<u32> = split::completion_chunks(addr, len, 256, 64)
                .map(|c| c.len)
                .collect();
            assert_eq!(cache.completion_lens(addr, len, 256, 64), &want[..]);
        }
        assert!(cache.entries.len() <= PLAN_CACHE_CAP);
    }

    #[test]
    fn offset_keying_is_sound() {
        // Two addresses congruent mod MPS must share a plan — and the
        // shared plan must be right for both.
        let mut cache = PlanCache::new();
        let a = cache.completion_lens(0x4008, 256, 256, 64).to_vec();
        let b = cache.completion_lens(0x1_0008, 256, 256, 64).to_vec();
        assert_eq!(a, b);
        assert_eq!(cache.entries.len(), 1, "congruent addresses share an entry");
        let direct: Vec<u32> = split::completion_chunks(0x1_0008, 256, 256, 64)
            .map(|c| c.len)
            .collect();
        assert_eq!(b, direct);
    }

    #[test]
    fn disabled_cache_is_a_passthrough() {
        let mut cache = PlanCache::new();
        cache.set_enabled(false);
        for (addr, len) in [(0x4008u64, 256u32), (0x4000, 64), (0x7fc0, 600)] {
            let want: Vec<u32> = split::completion_chunks(addr, len, 256, 64)
                .map(|c| c.len)
                .collect();
            assert_eq!(cache.completion_lens(addr, len, 256, 64), &want[..]);
        }
        assert!(cache.entries.is_empty(), "disabled mode must not retain");
    }
}
