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
//! of every DMA), and every platform build allocates one, so each set
//! is one 128-byte record, all of them in one allocation:
//!
//! * [`MAX_WAYS`] `u32` keys, `tag<<2 | dirty<<1 | present`, where the
//!   tag is `line / n_sets`: the quotient the set index already
//!   computes, which names the line within its set;
//! * [`MAX_WAYS`] `u8` recency ranks, whose first `ways` are a
//!   permutation of `0..ways`, the most recently used way on top;
//! * a `u64` epoch.
//!
//! A probe scans the keys and stops at the first match. Using a line
//! moves it to the top rank and every way above its old rank down one.
//! An allocation takes the first empty candidate way, else the
//! candidate of lowest rank. Within a set, the ranks therefore order
//! the valid lines exactly as per-line stamps from one global counter
//! would, so every victim is the one a stamp-based LRU picks. A
//! 15 MiB, 20-way LLC is 12 288 records, 1.5 MiB.
//!
//! *Validity is epoch-based*: a set whose epoch is not the cache's is
//! empty, whatever its keys hold. That turns [`LlcCache::clear`] into a
//! counter bump instead of a megabyte memset, and lets
//! [`CacheStorage`] recycle records between simulations without
//! zeroing them. The first write to a dead set resets its record.

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

/// The most ways a set may have: the key and rank lanes of one record.
pub const MAX_WAYS: usize = 24;

/// Bits a key keeps of a line's tag (`line / n_sets`).
const TAG_BITS: u32 = 30;

const PRESENT: u32 = 1;
const DIRTY: u32 = 2;

/// The key of a tag below `2^TAG_BITS`.
#[inline]
fn key_of(tag: u64, dirty: bool) -> u32 {
    (tag as u32) << 2 | u32::from(dirty) << 1 | PRESENT
}

/// One set's lines: 128 bytes.
#[derive(Debug, Clone, Copy)]
struct Set {
    /// Per-way `tag<<2 | dirty<<1 | present`; the lanes past the
    /// cache's ways stay 0.
    keys: [u32; MAX_WAYS],
    /// Per-way recency rank, `ways − 1` for the most recently used;
    /// the lanes past the cache's ways mean nothing.
    ranks: [u8; MAX_WAYS],
    /// The cache epoch this record was last reset in. Under any other
    /// epoch the set is empty.
    epoch: u64,
}

const _: () = assert!(std::mem::size_of::<Set>() == 128);

impl Set {
    /// Empty, in order, and dead under every cache epoch (they start
    /// at 1).
    const DEAD: Set = {
        let mut ranks = [0u8; MAX_WAYS];
        let mut i = 0;
        while i < MAX_WAYS {
            ranks[i] = i as u8;
            i += 1;
        }
        Set {
            keys: [0; MAX_WAYS],
            ranks,
            epoch: 0,
        }
    };

    /// Empties the record and moves it to `epoch`, unless it is from
    /// `epoch` already.
    #[inline]
    fn reset_if_dead(&mut self, epoch: u64) {
        if self.epoch != epoch {
            *self = Set { epoch, ..Set::DEAD };
        }
    }

    /// The way whose key, dirty bit aside, is `want`.
    #[inline]
    fn find(&self, ways: usize, want: u32) -> Option<usize> {
        self.keys[..ways].iter().position(|&k| k | DIRTY == want)
    }

    /// Makes `way` the most recently used of `ways`.
    #[inline]
    fn promote(&mut self, ways: usize, way: usize) {
        let r = self.ranks[way];
        // All lanes, so the loop is two fixed-width vector steps.
        for x in &mut self.ranks {
            *x -= u8::from(*x > r);
        }
        self.ranks[way] = (ways - 1) as u8;
    }

    /// The victim among the first `n` ways: the first empty one, else
    /// the least recently used.
    #[inline]
    fn victim(&self, n: usize) -> usize {
        let mut victim = 0;
        let mut oldest = u8::MAX;
        for (w, (&k, &r)) in self.keys[..n].iter().zip(&self.ranks[..n]).enumerate() {
            if k & PRESENT == 0 {
                return w;
            }
            if r < oldest {
                (victim, oldest) = (w, r);
            }
        }
        victim
    }

    /// A CPU touch of the line keyed `key`: a hit ORs in its dirty
    /// bit, a miss replaces the LRU victim over all ways.
    #[inline]
    fn touch(&mut self, ways: usize, key: u32) {
        let way = match self.find(ways, key | DIRTY) {
            Some(w) => {
                self.keys[w] |= key & DIRTY;
                w
            }
            None => {
                let v = self.victim(ways);
                self.keys[v] = key;
                v
            }
        };
        self.promote(ways, way);
    }
}

/// Recycled record pool shared by successive [`LlcCache`]s.
///
/// Building a 15 MiB cache means allocating and writing 12 288 set
/// records; a benchmark sweep builds one per cell. The pool keeps
/// retired record buffers *and the highest epoch they were used in*: a
/// cache built from the pool starts one epoch above it, so the recycled
/// records are dead on arrival and need no zeroing.
#[derive(Debug, Default)]
pub struct CacheStorage {
    bufs: Vec<Vec<Set>>,
    epoch: u64,
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
    /// One record per set.
    sets: Vec<Set>,
    ways: usize,
    ddio_ways: usize,
    /// Sets whose record carries another epoch are empty (they predate
    /// the last clear or buffer reuse).
    epoch: u64,
    /// `n_sets` factored as `2^k * odd`: set lookup replaces the
    /// hardware-division `line % n_sets` with a mask plus a
    /// multiply-high reduction by the small odd factor.
    set_mask: u64,
    set_shift: u32,
    set_odd: u64,
    /// `ceil(2^64 / set_odd)` — exact reciprocal for line numbers
    /// below 2^32 (see [`LlcCache::split`]).
    odd_magic: u64,
    stats: CacheStats,
}

/// Cache line size in bytes (x86 LLC).
pub const LINE: u64 = 64;

impl LlcCache {
    /// Builds a cache of `size_bytes` with `ways` ways, of which the
    /// first `ddio_ways` accept DMA-write allocations (0 = no DDIO).
    ///
    /// # Panics
    /// If `ways` is 0 or above [`MAX_WAYS`], `ddio_ways` above `ways`,
    /// or the size not a multiple of `ways` lines.
    pub fn new(size_bytes: u64, ways: usize, ddio_ways: usize) -> Self {
        Self::new_reusing(size_bytes, ways, ddio_ways, &mut CacheStorage::new())
    }

    /// [`LlcCache::new`] drawing its records from `pool` instead of
    /// allocating and writing fresh ones (see [`CacheStorage`]).
    pub fn new_reusing(
        size_bytes: u64,
        ways: usize,
        ddio_ways: usize,
        pool: &mut CacheStorage,
    ) -> Self {
        assert!(ways > 0 && ddio_ways <= ways);
        assert!(
            ways <= MAX_WAYS,
            "{ways} ways: a set record holds at most {MAX_WAYS}"
        );
        let lines = (size_bytes / LINE) as usize;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "cache size must be a multiple of ways*64B"
        );
        let n_sets = lines / ways;
        let mut sets = pool.bufs.pop().unwrap_or_default();
        sets.resize(n_sets, Set::DEAD);
        let set_shift = (n_sets as u64).trailing_zeros();
        let set_odd = (n_sets as u64) >> set_shift;
        LlcCache {
            sets,
            ways,
            ddio_ways,
            epoch: pool.epoch + 1,
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

    /// Retires this cache's records into `pool` for reuse. The cache
    /// is left empty and must not be used afterwards.
    pub fn recycle_into(&mut self, pool: &mut CacheStorage) {
        pool.epoch = pool.epoch.max(self.epoch);
        pool.bufs.push(std::mem::take(&mut self.sets));
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets.len() * self.ways) as u64 * LINE
    }

    /// Capacity of the DDIO partition in bytes.
    pub fn ddio_capacity(&self) -> u64 {
        (self.sets.len() * self.ddio_ways) as u64 * LINE
    }

    /// Whether DMA writes may allocate.
    pub fn has_ddio(&self) -> bool {
        self.ddio_ways > 0
    }

    /// `(line % n_sets, line / n_sets)`, the set and the tag, with
    /// `n_sets = 2^k * odd`: the power-of-two part is a mask and a
    /// shift, the odd part a multiply-high reduction — exactly what `%`
    /// and `/` produce, without the ~25-cycle divide.
    ///
    /// For `x = q*n_sets + r`: `r & mask == x & mask` and
    /// `(q, r >> k) == ((x >> k) / odd, (x >> k) % odd)`, so the two
    /// parts compose. The reciprocal `q' = (x * ceil(2^64/odd)) >> 64`
    /// is exact for `x < 2^32` (error term `x*rem/(odd*2^64) < 2^-32 <
    /// 1/odd`); larger line numbers fall back to the hardware divide.
    #[inline]
    fn split(&self, line: u64) -> (usize, u64) {
        let x = line >> self.set_shift;
        let tag = if self.set_odd == 1 {
            x
        } else if x < (1 << 32) {
            ((x as u128 * self.odd_magic as u128) >> 64) as u64
        } else {
            x / self.set_odd
        };
        let high = x - tag * self.set_odd;
        (
            ((high << self.set_shift) | (line & self.set_mask)) as usize,
            tag,
        )
    }

    /// [`LlcCache::split`], for a line that can be cached.
    ///
    /// # Panics
    /// If the tag is wider than a key holds, rather than let two lines
    /// of one set share a key.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u64) {
        let (set, tag) = self.split(line);
        assert!(
            tag < 1 << TAG_BITS,
            "line {line:#x}: its tag needs more than {TAG_BITS} bits with {} sets",
            self.sets.len()
        );
        (set, tag)
    }

    /// DMA read of one line.
    pub fn dma_read(&mut self, addr: u64) -> ReadOutcome {
        let (set, tag) = self.locate(addr / LINE);
        let ways = self.ways;
        let s = &mut self.sets[set];
        if s.epoch == self.epoch {
            if let Some(w) = s.find(ways, key_of(tag, true)) {
                s.promote(ways, w);
                self.stats.read_hits += 1;
                return ReadOutcome::Hit;
            }
        }
        self.stats.read_misses += 1;
        ReadOutcome::Miss
    }

    /// DMA write of one line (DDIO semantics).
    pub fn dma_write(&mut self, addr: u64) -> WriteOutcome {
        let (set, tag) = self.locate(addr / LINE);
        let want = key_of(tag, true);
        let ways = self.ways;
        let s = &mut self.sets[set];
        if self.ddio_ways == 0 {
            // No DDIO: the DMA write goes to memory; a resident copy is
            // *invalidated* (classic coherent-DMA behaviour before
            // Data Direct I/O).
            if s.epoch == self.epoch {
                for k in &mut s.keys[..ways] {
                    if *k | DIRTY == want {
                        *k &= !PRESENT;
                    }
                }
            }
            self.stats.write_uncached += 1;
            return WriteOutcome::Uncached;
        }
        s.reset_if_dead(self.epoch);
        // Hit anywhere in the set: update in place.
        if let Some(w) = s.find(ways, want) {
            s.keys[w] |= DIRTY;
            s.promote(ways, w);
            self.stats.write_hits += 1;
            return WriteOutcome::Hit;
        }
        // Miss: LRU victim among the DDIO ways only.
        let v = s.victim(self.ddio_ways);
        let evict_dirty = s.keys[v] & (PRESENT | DIRTY) == PRESENT | DIRTY;
        s.keys[v] = want;
        s.promote(ways, v);
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
        let (set, tag) = self.locate(addr / LINE);
        let s = &mut self.sets[set];
        s.reset_if_dead(self.epoch);
        s.touch(self.ways, key_of(tag, dirty));
    }

    /// Bulk CPU-side warm of the line range `[start_line, end_line]`
    /// (inclusive, in units of 64 B lines; a reversed range,
    /// `end_line < start_line`, is empty and warms nothing),
    /// equivalent to calling [`LlcCache::host_touch`] once per line in
    /// ascending order.
    ///
    /// Warming a multi-megabyte buffer is a setup cost paid per
    /// benchmark cell, so sets that are currently empty take a direct
    /// fill: with unique ascending tags every touch misses, victims
    /// rotate round-robin from way 0, and the set's final contents —
    /// the last `ways` touches mapping to it, ranked in touch order —
    /// can be written without scanning per touch. Non-empty sets
    /// (possible hits, LRU-ordered victims) fall back to the exact
    /// per-touch path. Only the sets the range maps to are visited,
    /// `min(lines, n_sets)` of them, so a short range costs what its
    /// lines do.
    pub fn warm_lines(&mut self, start_line: u64, end_line: u64, dirty: bool) {
        let Some(span) = end_line.checked_sub(start_line) else {
            return;
        };
        let total = span + 1;
        let n_sets = self.sets.len() as u64;
        let ways = self.ways;
        // Tags grow with lines, so the last line's fitting covers all.
        self.locate(end_line);
        let (mut set, mut tag) = self.locate(start_line);
        // Only the sets the range touches: the first `min(total,
        // n_sets)` lines each map to a different one. Set i of them
        // receives `m` lines, the k-th tagged `tag + k`.
        let (q, rem) = (total / n_sets, total % n_sets);
        for i in 0..total.min(n_sets) {
            let m = q + u64::from(i < rem);
            let s = &mut self.sets[set];
            s.reset_if_dead(self.epoch);
            // Lanes past `ways` are 0, so one OR over all of them.
            if s.keys.iter().fold(0, |acc, &k| acc | k) & PRESENT != 0 {
                // Occupied set: possible hits / LRU victims — replay
                // the touches exactly.
                for k in 0..m {
                    s.touch(ways, key_of(tag + k, dirty));
                }
            } else {
                // Empty set: touch k lands in way k mod ways, the last
                // one in way `r` (no divide when m <= ways, the usual
                // case). Way j holds the last touch ≡ j (mod ways),
                // `(r − j) mod ways` touches before the end, and ranks
                // `(j − r − 1) mod ways`.
                let r = if m <= ways as u64 {
                    m - 1
                } else {
                    (m - 1) % ways as u64
                } as usize;
                for j in 0..(m as usize).min(ways) {
                    let back = if j <= r { r - j } else { r + ways - j };
                    s.keys[j] = key_of(tag + m - 1 - back as u64, dirty);
                }
                // All lanes, so the loop vectorises.
                let (lift, w) = ((ways - 1 - r) as u8, ways as u8);
                for (x, &j) in s.ranks.iter_mut().zip(&Set::DEAD.ranks) {
                    let t = j + lift;
                    *x = if t >= w { t - w } else { t };
                }
            }
            set += 1;
            if set == n_sets as usize {
                (set, tag) = (0, tag + 1);
            }
        }
    }

    /// Whether a line is currently resident (test/diagnostic helper).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr / LINE);
        let s = &self.sets[set];
        s.epoch == self.epoch && s.find(self.ways, key_of(tag, true)).is_some()
    }

    /// Invalidates everything — the "cold cache" state. (Benchmarks
    /// thrash the cache between runs; modelling that as invalidation
    /// gives the same observable behaviour without simulating the
    /// thrash traffic.) O(1): sets reset under an older epoch are
    /// empty by definition.
    pub fn clear(&mut self) {
        self.epoch += 1;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::SplitMix64;

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
    fn split_matches_hardware_division() {
        // Power-of-two, 2^k*3, 2^k*5 and odd-heavy geometries, across
        // small and huge line numbers (the > 2^32 fallback path too).
        for n_sets in [64usize, 96, 160, 12288, 20480, 24] {
            let c = LlcCache::new((n_sets * 4) as u64 * 64, 4, 2);
            assert_eq!(c.sets.len(), n_sets);
            let n = n_sets as u64;
            for line in (0u64..10_000)
                .chain((1u64 << 32) - 1000..(1u64 << 32) + 1000)
                .chain(u64::MAX - 1000..=u64::MAX)
            {
                assert_eq!(
                    c.split(line),
                    ((line % n) as usize, line / n),
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
        // cache (victims taken in way order), even though the records
        // still hold dead-epoch keys and ranks.
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

    /// A reversed range is empty: on an occupied cache it changes no
    /// statistic, no residency and no LRU order.
    #[test]
    fn reversed_warm_range_is_a_no_op() {
        let mut c = small();
        for i in 0..1024u64 {
            c.dma_write(i * 64 * 3);
            c.host_touch(i * 64 * 5, i % 2 == 0);
        }
        let mut before = c.clone();
        c.warm_lines(10, 9, true);
        c.warm_lines(u64::MAX, 0, false);
        assert_eq!(c.stats(), before.stats());
        for line in 0..6 * 1024 {
            assert_eq!(
                c.contains(line * LINE),
                before.contains(line * LINE),
                "line {line}"
            );
        }
        for i in 0..1024u64 {
            assert_eq!(c.dma_write(i * 64 * 7), before.dma_write(i * 64 * 7));
        }
        assert_eq!(c.stats(), before.stats());
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

    /// The two-array, stamp-based model the set records replaced: per
    /// line a `u64` key (`line<<2 | dirty<<1 | present`) and a `u64`
    /// stamp from one global counter. A line is valid if present and
    /// stamped in the live epoch, which a clear moves past every stamp.
    /// A victim is the first invalid candidate, else the one with the
    /// smallest stamp; a warm touches line by line.
    struct StampLru {
        keys: Vec<u64>,
        lru: Vec<u64>,
        n_sets: u64,
        ways: usize,
        ddio_ways: usize,
        stamp: u64,
        epoch: u64,
        stats: CacheStats,
    }

    impl StampLru {
        fn new(size_bytes: u64, ways: usize, ddio_ways: usize) -> Self {
            let lines = (size_bytes / LINE) as usize;
            StampLru {
                keys: vec![0; lines],
                lru: vec![0; lines],
                n_sets: (lines / ways) as u64,
                ways,
                ddio_ways,
                stamp: 0,
                epoch: 1,
                stats: CacheStats::default(),
            }
        }

        fn valid(&self, i: usize) -> bool {
            self.keys[i] & 1 != 0 && self.lru[i] >= self.epoch
        }

        /// The index of `addr`'s set's first line, and of the valid
        /// line holding `addr`.
        fn find(&self, addr: u64) -> (usize, Option<usize>) {
            let line = addr / LINE;
            let lo = (line % self.n_sets) as usize * self.ways;
            let hit = (lo..lo + self.ways).find(|&i| self.keys[i] >> 2 == line && self.valid(i));
            (lo, hit)
        }

        fn tick(&mut self) -> u64 {
            self.stamp += 1;
            self.stamp
        }

        fn victim(&self, lo: usize, n: usize) -> usize {
            (lo..lo + n)
                .min_by_key(|&i| if self.valid(i) { self.lru[i] } else { 0 })
                .unwrap()
        }

        fn dma_read(&mut self, addr: u64) -> ReadOutcome {
            let stamp = self.tick();
            if let (_, Some(i)) = self.find(addr) {
                self.lru[i] = stamp;
                self.stats.read_hits += 1;
                ReadOutcome::Hit
            } else {
                self.stats.read_misses += 1;
                ReadOutcome::Miss
            }
        }

        fn dma_write(&mut self, addr: u64) -> WriteOutcome {
            let stamp = self.tick();
            let (lo, hit) = self.find(addr);
            if self.ddio_ways == 0 {
                if let Some(i) = hit {
                    self.keys[i] &= !1;
                }
                self.stats.write_uncached += 1;
                return WriteOutcome::Uncached;
            }
            if let Some(i) = hit {
                self.lru[i] = stamp;
                self.keys[i] |= 2;
                self.stats.write_hits += 1;
                return WriteOutcome::Hit;
            }
            let v = self.victim(lo, self.ddio_ways);
            let evict_dirty = self.valid(v) && self.keys[v] & 2 != 0;
            self.keys[v] = (addr / LINE) << 2 | 3;
            self.lru[v] = stamp;
            if evict_dirty {
                self.stats.write_dirty_evictions += 1;
                WriteOutcome::AllocatedDirtyEviction
            } else {
                self.stats.write_allocs += 1;
                WriteOutcome::Allocated
            }
        }

        fn host_touch(&mut self, addr: u64, dirty: bool) {
            let stamp = self.tick();
            let dirty = u64::from(dirty) << 1;
            let i = match self.find(addr) {
                (_, Some(i)) => {
                    self.keys[i] |= dirty;
                    i
                }
                (lo, None) => {
                    let v = self.victim(lo, self.ways);
                    self.keys[v] = (addr / LINE) << 2 | dirty | 1;
                    v
                }
            };
            self.lru[i] = stamp;
        }

        fn warm_lines(&mut self, start_line: u64, end_line: u64, dirty: bool) {
            for line in start_line..=end_line {
                self.host_touch(line * LINE, dirty);
            }
        }

        fn contains(&self, addr: u64) -> bool {
            self.find(addr).1.is_some()
        }

        fn clear(&mut self) {
            self.epoch = self.stamp + 1;
        }

        /// Every way's valid line and dirty bit, set by set.
        fn placement(&self) -> Vec<Option<(u64, bool)>> {
            (0..self.keys.len())
                .map(|i| {
                    self.valid(i)
                        .then(|| (self.keys[i] >> 2, self.keys[i] & 2 != 0))
                })
                .collect()
        }
    }

    /// [`StampLru::placement`] of the set records.
    fn placement(c: &LlcCache) -> Vec<Option<(u64, bool)>> {
        let n_sets = c.sets.len() as u64;
        let mut out = Vec::new();
        for (set, s) in c.sets.iter().enumerate() {
            for &k in &s.keys[..c.ways] {
                let valid = s.epoch == c.epoch && k & PRESENT != 0;
                let line = u64::from(k >> 2) * n_sets + set as u64;
                out.push(valid.then_some((line, k & DIRTY != 0)));
            }
        }
        out
    }

    /// 3 000 seeded calls on `c` and the oracle `o`, every outcome and
    /// `stats()` compared call by call, residency sampled after every
    /// call and every way's line every 50: DMA reads and writes, CPU
    /// touches, clears, and warms shorter than `n_sets`, wrapping, and
    /// several times capacity, onto empty and occupied sets. Three
    /// lines in four fall on the first four sets, with more candidate
    /// tags than ways.
    fn replay(c: &mut LlcCache, o: &mut StampLru, rng: &mut SplitMix64, what: &str) {
        let (n_sets, ways) = (o.n_sets, o.ways as u64);
        let lines = n_sets * ways;
        for call in 0..3_000 {
            let line = if rng.range(0, 4) == 0 {
                rng.range(0, 4 * lines)
            } else {
                rng.range(0, n_sets.min(4)) + rng.range(0, 2 * ways + 4) * n_sets
            };
            let addr = line * LINE + rng.range(0, LINE);
            let what = format!("{what}, call {call}");
            match rng.range(0, 1000) {
                0..350 => assert_eq!(c.dma_read(addr), o.dma_read(addr), "{what}"),
                350..650 => assert_eq!(c.dma_write(addr), o.dma_write(addr), "{what}"),
                650..995 => {
                    let dirty = rng.range(0, 2) == 1;
                    c.host_touch(addr, dirty);
                    o.host_touch(addr, dirty);
                }
                995..998 => {
                    let count = match rng.range(0, 3) {
                        0 => rng.range(1, n_sets + 1),
                        1 => rng.range(n_sets, lines + 1),
                        _ => rng.range(lines, 4 * lines + 1),
                    };
                    let dirty = rng.range(0, 2) == 1;
                    c.warm_lines(line, line + count - 1, dirty);
                    o.warm_lines(line, line + count - 1, dirty);
                }
                _ => {
                    c.clear();
                    o.clear();
                }
            }
            assert_eq!(c.stats(), o.stats, "{what}");
            for a in [addr, rng.range(0, 4 * lines) * LINE] {
                assert_eq!(c.contains(a), o.contains(a), "{what}, addr {a:#x}");
            }
            if call % 50 == 49 {
                assert_eq!(placement(c), o.placement(), "{what}");
            }
        }
    }

    /// [`replay`] on 1 to 24 ways with 0, 1, 2 and all of them DDIO
    /// ways, over power-of-two and 3·2^k set counts. Every cache is
    /// built from one pool and retired into it halfway through its
    /// geometry's stream, so each starts on records another geometry
    /// or an earlier epoch left.
    #[test]
    fn matches_the_stamp_lru() {
        let mut pool = CacheStorage::new();
        let mut rng = SplitMix64::new(0x11c_0a1e);
        let mut seen = CacheStats::default();
        for n_sets in [1u64, 3, 64, 96] {
            for ways in [1usize, 2, 8, 20, 24] {
                let mut ddio = vec![0, 1, 2, ways];
                ddio.retain(|&d| d <= ways);
                ddio.dedup();
                for ddio_ways in ddio {
                    let bytes = n_sets * ways as u64 * LINE;
                    for half in 0..2 {
                        let mut c = LlcCache::new_reusing(bytes, ways, ddio_ways, &mut pool);
                        let mut o = StampLru::new(bytes, ways, ddio_ways);
                        let what =
                            format!("{n_sets} sets, {ways} ways, {ddio_ways} DDIO, half {half}");
                        replay(&mut c, &mut o, &mut rng, &what);
                        let s = c.stats();
                        seen.read_hits += s.read_hits;
                        seen.write_hits += s.write_hits;
                        seen.write_dirty_evictions += s.write_dirty_evictions;
                        seen.write_uncached += s.write_uncached;
                        c.recycle_into(&mut pool);
                    }
                }
            }
        }
        // The streams reach every outcome.
        assert!(
            seen.read_hits > 0
                && seen.write_hits > 0
                && seen.write_dirty_evictions > 0
                && seen.write_uncached > 0,
            "{seen:?}"
        );
    }
}
