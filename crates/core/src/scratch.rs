//! Reusable per-worker scratch buffers for the benchmark hot path.
//!
//! Every grid point of the §5.4 suite builds its own [`Platform`]
//! (that cost is the experiment), but two per-test costs are pure
//! waste when repeated thousands of times: the *driver-side* work
//! (generating the access-order stream and allocating the sample
//! journal) and the *host-side* LLC set records — a 15 MiB cache is
//! 12 288 records, 1.5 MiB, allocated and written per platform. A
//! [`BenchScratch`] owns the driver buffers, an `OrderCache` of
//! memoised access-order offsets, and a [`CacheStorage`] pool of retired
//! record buffers; each pool worker keeps one and threads it through
//! every test it executes, so after the largest test in a worker's
//! share has run, that worker allocates nothing more. Reuse recycles
//! only capacity and *deterministic* derived data (cache buffers come
//! back epoch-invalidated; memoised offset streams are pure functions
//! of their key), so results stay bit-identical to the allocate-fresh
//! path.
//!
//! [`Platform`]: pcie_device::Platform

use crate::access::AccessSequence;
use crate::params::{BenchParams, Pattern};
use pcie_host::cache::CacheStorage;

/// Entries retained by [`OrderCache`] before least-recently-used
/// eviction. LRU misses on every lookup of a cycle longer than the
/// cap, so the cap covers `dma_sweep`'s longest one: 46 keys per
/// IOMMU pass, where one window's 14 recur in each of its three cache
/// states. An entry keeps only its offsets, at most `n` × 8 bytes.
const ORDER_CACHE_CAP: usize = 64;

/// Everything an offset stream depends on: window geometry (`window`,
/// `transfer`, `offset` determine unit size and count), access
/// pattern, and RNG seed.
type OrderKey = (u64, u32, u32, Pattern, u64);

struct OrderEntry {
    key: OrderKey,
    /// Offsets drawn so far, in draw order.
    offsets: Vec<u64>,
    /// LRU clock value of the last hit.
    used: u64,
}

/// Memoised access-order streams keyed by the full set of inputs that
/// determine them.
///
/// [`AccessSequence`] is deterministic: the `n`-th offset is a pure
/// function of `(window, transfer, offset, pattern, seed)`. Grid
/// sweeps re-draw the *same* stream for every cell that shares a
/// geometry — figure 7 runs Rd/WrRd × Cold/HostWarm over one window
/// with one per-benchmark seed, so four cells out of four share each
/// stream. Caching the drawn prefix replaces a Fisher–Yates shuffle
/// plus per-draw index arithmetic with a slice replay, and is exact
/// by construction: on a miss (including re-generation after LRU
/// eviction) the entry is redrawn from a fresh `AccessSequence` with
/// the same key, which yields the same stream.
///
/// Entries keep offsets only. The one live generator is the last one
/// drawn from, so a longer request for its key extends that entry
/// incrementally; any other longer request redraws its entry from the
/// start. Each new generator takes over the previous one's permutation
/// buffer, so the cache holds one permutation, sized to the largest
/// window it has seen (4 MiB at 64 MiB in 64 B units), however many
/// entries it keeps.
#[derive(Default)]
pub(crate) struct OrderCache {
    entries: Vec<OrderEntry>,
    /// The live generator; its permutation buffer is recycled into the
    /// next one.
    seq: Option<AccessSequence>,
    /// The key of the entry whose offsets are exactly `seq`'s draws,
    /// if that entry is still cached.
    seq_key: Option<OrderKey>,
    clock: u64,
    /// Offsets drawn from generators so far.
    draws: u64,
}

impl std::fmt::Debug for OrderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderCache")
            .field("entries", &self.entries.len())
            .field("cached_offsets", &self.cached_offsets())
            .field("permutation_units", &self.permutation_units())
            .field("draws", &self.draws)
            .finish()
    }
}

impl OrderCache {
    /// The first `n` offsets a fresh
    /// [`AccessSequence::new`]`(params, seed)` would draw, memoised.
    pub(crate) fn offsets(&mut self, params: &BenchParams, seed: u64, n: usize) -> &[u64] {
        let key = (
            params.window,
            params.transfer,
            params.offset,
            params.pattern,
            seed,
        );
        self.clock += 1;
        let idx = match self.entries.iter().position(|e| e.key == key) {
            Some(i) => i,
            None => {
                if self.entries.len() >= ORDER_CACHE_CAP {
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.used)
                        .map(|(i, _)| i)
                        .expect("cache non-empty at capacity");
                    let evicted = self.entries.swap_remove(lru);
                    if self.seq_key == Some(evicted.key) {
                        self.seq_key = None;
                    }
                }
                self.entries.push(OrderEntry {
                    key,
                    offsets: Vec::new(),
                    used: 0,
                });
                self.entries.len() - 1
            }
        };
        let e = &mut self.entries[idx];
        e.used = self.clock;
        if e.offsets.len() < n {
            let seq = match &mut self.seq {
                Some(seq) if self.seq_key == Some(key) => seq,
                live => {
                    let buf = live.take().map(AccessSequence::into_buffer);
                    e.offsets.clear();
                    self.seq_key = Some(key);
                    live.insert(AccessSequence::with_buffer(
                        params,
                        seed,
                        buf.unwrap_or_default(),
                    ))
                }
            };
            e.offsets.reserve(n - e.offsets.len());
            self.draws += (n - e.offsets.len()) as u64;
            while e.offsets.len() < n {
                e.offsets.push(seq.next_offset());
            }
        }
        &e.offsets[..n]
    }

    /// Total offsets held across entries (observability for tests).
    fn cached_offsets(&self) -> usize {
        self.entries.iter().map(|e| e.offsets.capacity()).sum()
    }

    /// Units the permutation buffer holds room for.
    fn permutation_units(&self) -> usize {
        self.seq.as_ref().map_or(0, AccessSequence::buffer_capacity)
    }
}

/// Reusable buffers for [`run_latency_summary`](crate::lat::run_latency_summary)
/// and [`run_bandwidth_with`](crate::bw::run_bandwidth_with).
#[derive(Debug, Default)]
pub struct BenchScratch {
    /// Memoised access-order streams, shared across tests.
    pub(crate) orders: OrderCache,
    /// Per-transaction latency journal, in issue order.
    pub(crate) samples: Vec<f64>,
    /// Retired LLC record buffers, recycled into the next platform.
    pub(crate) cache_pool: CacheStorage,
}

impl BenchScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacities `(cached order offsets, order permutation
    /// units, samples, pooled cache buffers)` — observability for
    /// tests asserting that reuse actually sticks.
    pub fn capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.orders.cached_offsets(),
            self.orders.permutation_units(),
            self.samples.capacity(),
            self.cache_pool.pooled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(window: u64, transfer: u32, pattern: Pattern) -> BenchParams {
        BenchParams {
            window,
            transfer,
            pattern,
            ..BenchParams::baseline(transfer)
        }
    }

    fn fresh_draws(p: &BenchParams, seed: u64, n: usize) -> Vec<u64> {
        let mut s = AccessSequence::new(p, seed);
        (0..n).map(|_| s.next_offset()).collect()
    }

    #[test]
    fn starts_empty_and_reports_capacity() {
        let s = BenchScratch::new();
        assert_eq!(s.capacities(), (0, 0, 0, 0));
    }

    #[test]
    fn order_cache_replays_extends_and_shrinks_exactly() {
        let p = params(8 * 1024, 64, Pattern::Random);
        let expect = fresh_draws(&p, 7, 300);
        let mut s = BenchScratch::new();
        // First request generates; a longer one extends the same
        // stream; a shorter one replays the memoised prefix.
        assert_eq!(s.orders.offsets(&p, 7, 100), &expect[..100]);
        assert_eq!(s.orders.offsets(&p, 7, 300), &expect[..]);
        assert_eq!(s.orders.offsets(&p, 7, 50), &expect[..50]);
        assert_eq!(s.orders.entries.len(), 1, "one key, one entry");
    }

    #[test]
    fn order_cache_keys_on_geometry_pattern_and_seed() {
        let mut s = BenchScratch::new();
        let a = params(8 * 1024, 64, Pattern::Random);
        let b = params(8 * 1024, 128, Pattern::Random);
        let got_a = s.orders.offsets(&a, 7, 64).to_vec();
        let got_b = s.orders.offsets(&b, 7, 64).to_vec();
        let got_a2 = s.orders.offsets(&a, 9, 64).to_vec();
        assert_eq!(s.orders.entries.len(), 3);
        assert_eq!(got_a, fresh_draws(&a, 7, 64));
        assert_eq!(got_b, fresh_draws(&b, 7, 64));
        assert_eq!(got_a2, fresh_draws(&a, 9, 64));
        assert_ne!(got_a, got_a2, "seed is part of the key");
    }

    #[test]
    fn order_cache_evicts_lru_and_regenerates_identically() {
        let mut s = BenchScratch::new();
        let first = params(8 * 1024, 64, Pattern::Random);
        let before = s.orders.offsets(&first, 1, 128).to_vec();
        // Flood the cache with distinct keys until `first` is evicted.
        for seed in 100..100 + ORDER_CACHE_CAP as u64 {
            s.orders.offsets(&first, seed, 8);
        }
        assert_eq!(s.orders.entries.len(), ORDER_CACHE_CAP);
        assert!(
            !s.orders.entries.iter().any(|e| e.key.4 == 1),
            "oldest entry evicted"
        );
        // A longer re-request draws the fresh stream, past its first
        // reshuffle; so does a longer request for a cached key that is
        // no longer the live one.
        let expect = fresh_draws(&first, 1, 400);
        assert_eq!(s.orders.offsets(&first, 1, 300), &expect[..300]);
        assert_eq!(&expect[..128], &before[..]);
        s.orders.offsets(&first, 2, 8);
        assert_eq!(s.orders.offsets(&first, 1, 400), &expect[..]);
    }

    #[test]
    fn a_64_mib_window_keeps_its_offsets_and_one_permutation() {
        let mut s = BenchScratch::new();
        let big = params(64 << 20, 64, Pattern::Random);
        let units = big.units() as usize;
        assert_eq!(units, 1 << 20);
        assert_eq!(
            s.orders.offsets(&big, 3, 1_000),
            &fresh_draws(&big, 3, 1_000)[..]
        );
        assert_eq!(s.capacities(), (1_000, units, 0, 0));
        // A second window of the same size and a small one recycle the
        // one permutation buffer; each entry keeps its offsets alone.
        let small = params(64 << 10, 64, Pattern::Random);
        s.orders.offsets(&big, 4, 1_000);
        s.orders.offsets(&small, 3, 500);
        assert_eq!(s.capacities(), (2_500, units, 0, 0));
        assert_eq!(
            s.orders.offsets(&big, 3, 1_000),
            &fresh_draws(&big, 3, 1_000)[..]
        );
    }

    #[test]
    fn a_dma_sweep_window_cycle_draws_only_on_its_first_pass() {
        use crate::params::CacheState;
        use crate::setup::BenchSetup;
        use crate::suite::SuiteConfig;
        // One window of `dma_sweep`'s grid: 4 latency and 3 bandwidth
        // sizes at offsets 0 and 1 are 14 keys, met once per cache
        // state. Transaction counts do not enter the key.
        let grid = SuiteConfig {
            lat_sizes: vec![8, 64, 512, 2048],
            bw_sizes: vec![64, 256, 2048],
            windows: vec![64 << 10],
            states: vec![
                CacheState::Cold,
                CacheState::HostWarm,
                CacheState::DeviceWarm,
            ],
            offsets: vec![0, 1],
            patterns: vec![Pattern::Random],
            n_lat: 4,
            n_bw: 4,
        };
        let jobs = grid.jobs();
        let setup = BenchSetup::nfp6000_hsw();
        let mut s = BenchScratch::new();
        let mut draws = Vec::new();
        for pass in jobs.chunks(jobs.len() / 3) {
            for job in pass {
                job.run(&setup, &mut s);
            }
            draws.push(s.orders.draws);
        }
        assert_eq!(s.orders.entries.len(), 14);
        assert_eq!(draws, [14 * 4; 3], "draws after each cache state");
    }
}
