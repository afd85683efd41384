//! Last-level cache with a DDIO way-partition.
//!
//! A physically-indexed, set-associative cache with true-LRU
//! replacement. Intel's Data Direct I/O steers inbound DMA writes into
//! a restricted subset of ways — about 10 % of the LLC (§6.3) — so a
//! DMA working set larger than that subset evicts *its own* dirty
//! lines, which is exactly the knee the paper measures in Figure 7.
//!
//! Three kinds of agent touch the cache:
//!
//! * **DMA reads** ([`LlcCache::dma_read`]): served from the cache on
//!   hit; on miss they fall through to memory *without allocating*.
//! * **DMA writes** ([`LlcCache::dma_write`]): update a resident line
//!   in place (any way); on miss they allocate within the DDIO ways
//!   only (or don't allocate at all when DDIO is absent, e.g. Xeon E3).
//! * **The CPU** ([`LlcCache::host_touch`]): allocates anywhere, used
//!   for cache warming and thrashing.
//!
//! ## Representation
//!
//! This model sits on the per-TLP hot path (one lookup per 64 B line
//! of every DMA), so line metadata is split into two parallel arrays:
//! `keys` (`tag<<2 | dirty<<1 | present`) and `lru` stamps. A probe
//! scans only the key array — 8 B per way — and loads a line's stamp
//! only on a tag match, so the dominant read-miss case touches half
//! the bytes a packed array-of-structs layout would.
//!
//! *Validity is epoch-based*: a line is valid iff its present bit is
//! set **and** its stamp is from the current epoch. That turns
//! [`LlcCache::clear`] into a counter bump instead of a multi-megabyte
//! memset, and lets [`CacheStorage`] recycle line buffers between
//! simulations without zeroing: stale contents are from a dead epoch
//! and therefore indistinguishable from an empty cache. A stale key
//! can collide with the probed tag, which is why the match must still
//! confirm the stamp — but that is a rare extra load, not a per-way
//! one.

/// Outcome of a DMA read lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Line resident: served from LLC.
    Hit,
    /// Line absent: served from DRAM (no allocation).
    Miss,
}

/// Outcome of a DMA write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Line was resident (any way): updated in place.
    Hit,
    /// Allocated into a DDIO way whose victim was clean or invalid.
    Allocated,
    /// Allocated into a DDIO way, evicting a dirty victim that must be
    /// flushed to memory first (the paper's ~70 ns write penalty).
    AllocatedDirtyEviction,
    /// DDIO absent or disabled: the write went straight to memory.
    Uncached,
}

const PRESENT: u64 = 1;
const DIRTY: u64 = 2;

#[inline]
fn key_of(tag: u64, dirty: bool) -> u64 {
    tag << 2 | u64::from(dirty) << 1 | PRESENT
}

/// Recycled line-buffer pool shared by successive [`LlcCache`]s.
///
/// Building a 15 MiB cache means allocating and zeroing ~250k lines;
/// a benchmark sweep builds one per cell. The pool keeps retired
/// buffers *and the running LRU stamp*: a cache built from the pool
/// starts its epoch above every stamp any pooled buffer ever wrote,
/// so the recycled contents are dead on arrival and need no zeroing.
#[derive(Debug, Default)]
pub struct CacheStorage {
    bufs: Vec<(Vec<u64>, Vec<u64>)>,
    stamp: u64,
}

impl CacheStorage {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently pooled (diagnostics).
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// DMA read lookups that hit.
    pub read_hits: u64,
    /// DMA read lookups that missed.
    pub read_misses: u64,
    /// DMA writes that hit a resident line.
    pub write_hits: u64,
    /// DMA writes that allocated without a dirty eviction.
    pub write_allocs: u64,
    /// DMA writes that evicted a dirty line.
    pub write_dirty_evictions: u64,
    /// DMA writes that bypassed the cache (no DDIO).
    pub write_uncached: u64,
}

/// A set-associative LLC model. Line size is fixed at 64 B.
#[derive(Debug, Clone)]
pub struct LlcCache {
    /// Per-line `tag<<2 | dirty<<1 | present`, grouped by set.
    keys: Vec<u64>,
    /// Per-line LRU stamp (also the validity epoch carrier).
    lru: Vec<u64>,
    n_sets: usize,
    ways: usize,
    ddio_ways: usize,
    stamp: u64,
    /// Lines with `lru < epoch` are invalid regardless of their
    /// present bit (they predate the last clear / buffer reuse).
    epoch: u64,
    /// `n_sets` factored as `2^k * odd`: set lookup replaces the
    /// hardware-division `line % n_sets` with a mask plus a
    /// multiply-high reduction by the small odd factor.
    set_mask: u64,
    set_shift: u32,
    set_odd: u64,
    /// `ceil(2^64 / set_odd)` — exact reciprocal for line numbers
    /// below 2^32 (see [`LlcCache::set_of`]).
    odd_magic: u64,
    stats: CacheStats,
}

/// Cache line size in bytes (x86 LLC).
pub const LINE: u64 = 64;

impl LlcCache {
    /// Builds a cache of `size_bytes` with `ways` ways, of which the
    /// first `ddio_ways` accept DMA-write allocations (0 = no DDIO).
    pub fn new(size_bytes: u64, ways: usize, ddio_ways: usize) -> Self {
        Self::new_reusing(size_bytes, ways, ddio_ways, &mut CacheStorage::new())
    }

    /// [`LlcCache::new`] drawing the line buffers from `pool` instead
    /// of allocating and zeroing fresh ones (see [`CacheStorage`]).
    pub fn new_reusing(
        size_bytes: u64,
        ways: usize,
        ddio_ways: usize,
        pool: &mut CacheStorage,
    ) -> Self {
        assert!(ways > 0 && ddio_ways <= ways);
        let lines = (size_bytes / LINE) as usize;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "cache size must be a multiple of ways*64B"
        );
        let (mut keys, mut lru) = pool.bufs.pop().unwrap_or_default();
        keys.resize(lines, 0);
        lru.resize(lines, 0);
        let stamp = pool.stamp;
        let n_sets = lines / ways;
        let set_shift = (n_sets as u64).trailing_zeros();
        let set_odd = (n_sets as u64) >> set_shift;
        LlcCache {
            keys,
            lru,
            n_sets,
            ways,
            ddio_ways,
            stamp,
            epoch: stamp + 1,
            set_mask: (1u64 << set_shift) - 1,
            set_shift,
            set_odd,
            odd_magic: if set_odd > 1 {
                // ceil(2^64 / odd) for odd >= 3, computed without u128
                // overflow: 2^64 = odd * floor(2^64/odd) + rem.
                (u64::MAX / set_odd) + 1
            } else {
                0
            },
            stats: CacheStats::default(),
        }
    }

    /// Retires this cache's line buffers into `pool` for reuse. The
    /// cache is left empty and must not be used afterwards.
    pub fn recycle_into(&mut self, pool: &mut CacheStorage) {
        pool.stamp = pool.stamp.max(self.stamp);
        pool.bufs.push((
            std::mem::take(&mut self.keys),
            std::mem::take(&mut self.lru),
        ));
        self.n_sets = 0;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.keys.len() as u64) * LINE
    }

    /// Capacity of the DDIO partition in bytes.
    pub fn ddio_capacity(&self) -> u64 {
        (self.n_sets * self.ddio_ways) as u64 * LINE
    }

    /// Whether DMA writes may allocate.
    pub fn has_ddio(&self) -> bool {
        self.ddio_ways > 0
    }

    /// `line % n_sets`, with `n_sets = 2^k * odd`: the power-of-two
    /// part is a mask and the odd part a multiply-high reduction —
    /// exactly the value `%` produces, without the ~25-cycle divide.
    ///
    /// For `x = q*n_sets + r`: `r & mask == x & mask` and
    /// `r >> k == (x >> k) % odd`, so the two parts compose. The
    /// reciprocal `q' = (x * ceil(2^64/odd)) >> 64` is exact for
    /// `x < 2^32` (error term `x*rem/(odd*2^64) < 2^-32 < 1/odd`);
    /// larger line numbers fall back to the hardware divide.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        let low = line & self.set_mask;
        let high = if self.set_odd == 1 {
            0
        } else {
            let x = line >> self.set_shift;
            if x < (1 << 32) {
                let q = ((x as u128 * self.odd_magic as u128) >> 64) as u64;
                x - q * self.set_odd
            } else {
                x % self.set_odd
            }
        };
        ((high << self.set_shift) | low) as usize
    }

    fn set_range(&self, addr: u64) -> (usize, usize) {
        let base = self.set_of(addr / LINE) * self.ways;
        (base, base + self.ways)
    }

    fn tick(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// DMA read of one line.
    pub fn dma_read(&mut self, addr: u64) -> ReadOutcome {
        let want = key_of(addr / LINE, true);
        let (lo, hi) = self.set_range(addr);
        let epoch = self.epoch;
        let stamp = self.tick();
        // A stale (dead-epoch) key may carry the probed tag, so a key
        // match still confirms the stamp, loaded only then. The
        // subslice iteration keeps the dominant all-miss scan free of
        // per-way bounds checks.
        for (off, &k) in self.keys[lo..hi].iter().enumerate() {
            if (k | DIRTY) == want {
                let i = lo + off;
                if self.lru[i] >= epoch {
                    self.lru[i] = stamp;
                    self.stats.read_hits += 1;
                    return ReadOutcome::Hit;
                }
            }
        }
        self.stats.read_misses += 1;
        ReadOutcome::Miss
    }

    /// DMA write of one line (DDIO semantics).
    pub fn dma_write(&mut self, addr: u64) -> WriteOutcome {
        let tag = addr / LINE;
        let want = key_of(tag, true);
        let (lo, hi) = self.set_range(addr);
        let epoch = self.epoch;
        let stamp = self.tick();
        if self.ddio_ways == 0 {
            // No DDIO: the DMA write goes to memory; a resident copy is
            // *invalidated* (classic coherent-DMA behaviour before
            // Data Direct I/O).
            for i in lo..hi {
                if (self.keys[i] | DIRTY) == want && self.lru[i] >= epoch {
                    self.keys[i] &= !PRESENT;
                }
            }
            self.stats.write_uncached += 1;
            return WriteOutcome::Uncached;
        }
        // Hit detection over the whole set.
        for (off, &k) in self.keys[lo..hi].iter().enumerate() {
            if (k | DIRTY) == want {
                let i = lo + off;
                if self.lru[i] >= epoch {
                    // Hit anywhere in the set: update in place.
                    self.lru[i] = stamp;
                    self.keys[i] |= DIRTY;
                    self.stats.write_hits += 1;
                    return WriteOutcome::Hit;
                }
            }
        }
        // Miss: LRU victim among the DDIO ways only (typically the
        // first 2 — one key and one stamp line, already touched).
        let mut victim = lo;
        let mut victim_key = u64::MAX;
        for i in lo..lo + self.ddio_ways {
            // Invalid lines sort before every valid one (valid
            // stamps are >= epoch >= 1), ties broken by position.
            let vk = if self.keys[i] & PRESENT != 0 && self.lru[i] >= epoch {
                self.lru[i]
            } else {
                0
            };
            if vk < victim_key {
                victim_key = vk;
                victim = i;
            }
        }
        let vkey = self.keys[victim];
        let evict_dirty = vkey & PRESENT != 0 && self.lru[victim] >= epoch && vkey & DIRTY != 0;
        self.keys[victim] = key_of(tag, true);
        self.lru[victim] = stamp;
        if evict_dirty {
            self.stats.write_dirty_evictions += 1;
            WriteOutcome::AllocatedDirtyEviction
        } else {
            self.stats.write_allocs += 1;
            WriteOutcome::Allocated
        }
    }

    /// CPU-side touch of one line: allocates anywhere in the set
    /// (true-LRU victim over all ways).
    pub fn host_touch(&mut self, addr: u64, dirty: bool) {
        let stamp = self.tick();
        self.touch_with_stamp(addr, dirty, stamp);
    }

    fn touch_with_stamp(&mut self, addr: u64, dirty: bool, stamp: u64) {
        let tag = addr / LINE;
        let want = key_of(tag, true);
        let (lo, hi) = self.set_range(addr);
        let epoch = self.epoch;
        let mut victim = lo;
        let mut victim_key = u64::MAX;
        for i in lo..hi {
            let k = self.keys[i];
            if (k | DIRTY) == want && self.lru[i] >= epoch {
                self.lru[i] = stamp;
                self.keys[i] = k | u64::from(dirty) << 1;
                return;
            }
            let vk = if k & PRESENT != 0 && self.lru[i] >= epoch {
                self.lru[i]
            } else {
                0
            };
            if vk < victim_key {
                victim_key = vk;
                victim = i;
            }
        }
        self.keys[victim] = key_of(tag, dirty);
        self.lru[victim] = stamp;
    }

    /// Bulk CPU-side warm of the line range `[start_line, end_line]`
    /// (inclusive, in units of 64 B lines), equivalent to calling
    /// [`LlcCache::host_touch`] once per line in ascending order.
    ///
    /// Warming a multi-megabyte buffer is a setup cost paid per
    /// benchmark cell, so sets that are currently empty take a direct
    /// fill: with unique ascending tags every touch misses, victims
    /// rotate round-robin from slot 0, and the set's final contents —
    /// the last `ways` touches mapping to it, stamped as if touched
    /// individually — can be written without scanning per touch.
    /// Non-empty sets (possible hits, LRU-ordered victims) fall back
    /// to the exact per-touch path. Only the sets the range maps to
    /// are visited, `min(lines, n_sets)` of them, so a short range
    /// costs what its lines do.
    pub fn warm_lines(&mut self, start_line: u64, end_line: u64, dirty: bool) {
        let total = end_line - start_line + 1;
        let stamp0 = self.stamp;
        let n_sets = self.n_sets as u64;
        let ways = self.ways as u64;
        let epoch = self.epoch;
        // Only the sets the range touches: the first `min(total,
        // n_sets)` lines each map to a different one.
        let mut set = self.set_of(start_line);
        for first in start_line..start_line + total.min(n_sets) {
            // Lines ≡ first (mod n_sets) within the warm range.
            let m = (end_line - first) / n_sets + 1;
            let lo = set * self.ways;
            let hi = lo + self.ways;
            set = if set + 1 == self.n_sets { 0 } else { set + 1 };
            if (lo..hi).any(|i| self.keys[i] & PRESENT != 0 && self.lru[i] >= epoch) {
                // Occupied set: possible hits / LRU victims — replay
                // the touches exactly.
                for k in 0..m {
                    let line = first + k * n_sets;
                    let stamp = stamp0 + (line - start_line) + 1;
                    self.touch_with_stamp(line * LINE, dirty, stamp);
                }
                continue;
            }
            // Empty set: touch k lands in slot (k mod ways); slot j's
            // final occupant is the last touch ≡ j (mod ways).
            let filled = m.min(ways);
            for j in 0..filled {
                let k = if m <= ways {
                    j
                } else {
                    m - 1 - ((m - 1 - j) % ways)
                };
                let line = first + k * n_sets;
                let stamp = stamp0 + (line - start_line) + 1;
                self.keys[lo + j as usize] = key_of(line, dirty);
                self.lru[lo + j as usize] = stamp;
            }
        }
        self.stamp = stamp0 + total;
    }

    /// Whether a line is currently resident (test/diagnostic helper).
    pub fn contains(&self, addr: u64) -> bool {
        let want = key_of(addr / LINE, true);
        let (lo, hi) = self.set_range(addr);
        (lo..hi).any(|i| (self.keys[i] | DIRTY) == want && self.lru[i] >= self.epoch)
    }

    /// Invalidates everything — the "cold cache" state. (Benchmarks
    /// thrash the cache between runs; modelling that as invalidation
    /// gives the same observable behaviour without simulating the
    /// thrash traffic.) O(1): lines stamped before the new epoch are
    /// invalid by definition.
    pub fn clear(&mut self) {
        self.epoch = self.stamp + 1;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small cache for focused tests: 64 sets * 8 ways * 64B = 32 KiB,
    /// 2 DDIO ways (8 KiB DDIO partition).
    fn small() -> LlcCache {
        LlcCache::new(32 * 1024, 8, 2)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.capacity(), 32 * 1024);
        assert_eq!(c.ddio_capacity(), 8 * 1024);
        assert!(c.has_ddio());
    }

    #[test]
    fn set_of_matches_hardware_modulo() {
        // Power-of-two, 2^k*3, 2^k*5 and odd-heavy geometries, across
        // small and huge line numbers (the > 2^32 fallback path too).
        for n_sets in [64usize, 96, 160, 12288, 20480, 24] {
            let c = LlcCache::new((n_sets * 4) as u64 * 64, 4, 2);
            assert_eq!(c.n_sets, n_sets);
            for line in (0u64..10_000)
                .chain((1u64 << 32) - 1000..(1u64 << 32) + 1000)
                .chain(u64::MAX - 1000..=u64::MAX)
            {
                assert_eq!(
                    c.set_of(line),
                    (line % n_sets as u64) as usize,
                    "line {line} n_sets {n_sets}"
                );
            }
        }
    }

    #[test]
    fn read_does_not_allocate() {
        let mut c = small();
        assert_eq!(c.dma_read(0x1000), ReadOutcome::Miss);
        assert_eq!(c.dma_read(0x1000), ReadOutcome::Miss, "still absent");
        assert!(!c.contains(0x1000));
    }

    #[test]
    fn host_warm_makes_reads_hit() {
        let mut c = small();
        c.host_touch(0x1000, false);
        assert_eq!(c.dma_read(0x1000), ReadOutcome::Hit);
        assert_eq!(c.dma_read(0x1040), ReadOutcome::Miss, "different line");
    }

    #[test]
    fn dma_write_allocates_in_ddio_then_hits() {
        let mut c = small();
        assert_eq!(c.dma_write(0x2000), WriteOutcome::Allocated);
        assert_eq!(c.dma_write(0x2000), WriteOutcome::Hit);
        assert_eq!(
            c.dma_read(0x2000),
            ReadOutcome::Hit,
            "DDIO-written line readable"
        );
    }

    #[test]
    fn ddio_working_set_larger_than_partition_self_evicts() {
        let mut c = small();
        // DDIO partition: 64 sets * 2 ways = 128 lines = 8 KiB. Write a
        // 16 KiB working set twice: second pass must evict dirty lines.
        let lines = 256u64;
        for i in 0..lines {
            c.dma_write(i * 64);
        }
        let mut dirty_evictions = 0;
        for i in 0..lines {
            match c.dma_write(i * 64) {
                WriteOutcome::AllocatedDirtyEviction => dirty_evictions += 1,
                WriteOutcome::Hit => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            dirty_evictions > (lines as usize) / 2,
            "most second-pass writes should evict dirty lines, got {dirty_evictions}"
        );
    }

    #[test]
    fn ddio_working_set_within_partition_always_hits_after_first_pass() {
        let mut c = small();
        // 4 KiB working set fits in the 8 KiB DDIO partition.
        for i in 0..64u64 {
            c.dma_write(i * 64);
        }
        for i in 0..64u64 {
            assert_eq!(c.dma_write(i * 64), WriteOutcome::Hit, "line {i}");
        }
        assert_eq!(c.stats().write_dirty_evictions, 0);
    }

    #[test]
    fn no_ddio_means_uncached_writes() {
        let mut c = LlcCache::new(32 * 1024, 8, 0);
        assert_eq!(c.dma_write(0x3000), WriteOutcome::Uncached);
        assert!(!c.contains(0x3000));
        // A host-resident copy is invalidated, not updated: without
        // DDIO, inbound DMA writes to memory.
        c.host_touch(0x4000, false);
        assert_eq!(c.dma_write(0x4000), WriteOutcome::Uncached);
        assert!(!c.contains(0x4000), "DMA write invalidates the copy");
    }

    #[test]
    fn dma_write_hits_non_ddio_ways() {
        let mut c = small();
        // Host fills all 8 ways of set 0; DMA write to one of those
        // lines must hit in place even if it sits outside the DDIO ways.
        for w in 0..8u64 {
            c.host_touch(w * 64 * 64, false); // same set (64 sets stride)
        }
        for w in 0..8u64 {
            assert_eq!(c.dma_write(w * 64 * 64), WriteOutcome::Hit);
        }
    }

    #[test]
    fn lru_within_full_set() {
        let mut c = small();
        // Fill set 0's 8 ways via host touches, then touch line 0 to
        // make it MRU; allocating a 9th line must evict line 1 (LRU).
        for w in 0..8u64 {
            c.host_touch(w * 4096, false);
        }
        c.host_touch(0, false); // refresh line 0
        c.host_touch(8 * 4096, false); // evicts LRU = line at 1*4096
        assert!(c.contains(0));
        assert!(!c.contains(4096));
        assert!(c.contains(8 * 4096));
    }

    #[test]
    fn clear_invalidates() {
        let mut c = small();
        c.host_touch(0x1000, true);
        c.clear();
        assert!(!c.contains(0x1000));
        assert_eq!(c.dma_read(0x1000), ReadOutcome::Miss);
    }

    #[test]
    fn clear_resets_replacement_state_exactly() {
        // After clear, allocation order must match a factory-fresh
        // cache (victims taken in slot order), even though the line
        // buffer still holds dead-epoch garbage.
        let mut c = small();
        for i in 0..512u64 {
            c.dma_write(i * 64);
            c.host_touch(i * 64 + 7 * 4096, true);
        }
        c.clear();
        let mut fresh = small();
        for i in 0..256u64 {
            assert_eq!(c.dma_write(i * 64), fresh.dma_write(i * 64), "line {i}");
        }
        for i in 0..64u64 {
            assert_eq!(c.dma_read(i * 64), fresh.dma_read(i * 64));
        }
    }

    #[test]
    fn recycled_buffer_behaves_like_fresh() {
        let mut pool = CacheStorage::new();
        let mut first = LlcCache::new_reusing(32 * 1024, 8, 2, &mut pool);
        for i in 0..1024u64 {
            first.dma_write(i * 64);
            first.host_touch(i * 64, true);
        }
        first.recycle_into(&mut pool);
        assert_eq!(pool.pooled(), 1);

        let mut reused = LlcCache::new_reusing(32 * 1024, 8, 2, &mut pool);
        assert_eq!(pool.pooled(), 0, "buffer drawn from the pool");
        let mut fresh = small();
        for i in 0..512u64 {
            assert_eq!(reused.dma_write(i * 64), fresh.dma_write(i * 64));
            assert_eq!(reused.dma_read(i * 64), fresh.dma_read(i * 64));
        }
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn recycling_across_geometries_resizes() {
        let mut pool = CacheStorage::new();
        let mut big = LlcCache::new_reusing(64 * 1024, 8, 2, &mut pool);
        big.host_touch(0, true);
        big.recycle_into(&mut pool);
        let small_reused = LlcCache::new_reusing(32 * 1024, 8, 2, &mut pool);
        assert_eq!(small_reused.capacity(), 32 * 1024);
        assert!(!small_reused.contains(0));
    }

    #[test]
    fn bulk_warm_matches_per_touch_reference() {
        // The direct-fill warm must leave the cache bit-equivalent to
        // per-line host_touch calls: same residency, same future
        // replacement decisions. Checked over empty and pre-occupied
        // caches, ranges below and above capacity, odd offsets.
        for (start, count, occupied) in [
            (0u64, 4096u64, true), // 4x capacity, aligned
            (13, 2048, true),      // 2x capacity, odd offset
            (7, 100, true),        // under capacity
            (64, 512, true),       // exactly capacity
            (50, 40, true),        // fewer lines than sets, wrapping past set 63
            (50, 40, false),
            (63, 2, true), // the last set and the first
            (63, 2, false),
        ] {
            let mut fast = small();
            let mut slow = small();
            // Pre-occupy some sets so both paths exercise the
            // occupied-set fallback.
            let pre = if occupied { 32u64 } else { 0 };
            for i in 0..pre {
                fast.dma_write(i * 64 * 3);
                slow.dma_write(i * 64 * 3);
            }
            fast.warm_lines(start, start + count - 1, true);
            for line in start..start + count {
                slow.host_touch(line * LINE, true);
            }
            // Same residency...
            for line in start.saturating_sub(8)..start + count + 8 {
                assert_eq!(
                    fast.contains(line * LINE),
                    slow.contains(line * LINE),
                    "residency diverged at line {line} (start {start} count {count})"
                );
            }
            // ...and same replacement behaviour afterwards.
            for i in 0..1024u64 {
                assert_eq!(
                    fast.dma_write(i * 64 * 5),
                    slow.dma_write(i * 64 * 5),
                    "write {i} diverged (start {start} count {count})"
                );
            }
            assert_eq!(fast.stats(), slow.stats());
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut c = small();
        c.dma_read(0);
        c.host_touch(0, false);
        c.dma_read(0);
        c.dma_write(64);
        c.dma_write(64);
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_allocs, 1);
        assert_eq!(s.write_hits, 1);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        LlcCache::new(1000, 7, 2);
    }
}
