//! IOMMU with IO-TLB and page-walk cost model.
//!
//! Every inbound DMA address is translated. Translations hit a small,
//! fully-associative, LRU IO-TLB; misses pay a multi-level page-table
//! walk and occupy the (finitely parallel) page-walk machinery. The
//! paper infers an IO-TLB of 64 entries on Intel systems (window knee
//! at 64 × 4 KiB = 256 KiB) and a walk cost of ≈ 330 ns (§6.5); both
//! are parameters here, as is the page size — the paper forces 4 KiB
//! pages with `sp_off`, and recommends super-pages (2 MiB) as the
//! mitigation, which this model also supports.
//!
//! The IO-TLB is one table, allocated when the `Iommu` is built. Its
//! entries sit in slots threaded on a recency list (most recently
//! used at the head), and an open-addressed index maps each
//! `(domain, page)` to its slot: linear probing over a power of two of
//! at least twice as many buckets as entries, with backward-shift
//! deletion, so no tombstones. A hit, a miss and an eviction each cost
//! O(1) whatever the capacity: a hit moves its slot to the head, and a
//! miss at capacity reuses the tail's, the least recently used entry.

use pcie_sim::{SimTime, Timeline};

/// Result of one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// When the translated request may proceed.
    pub ready_at: SimTime,
    /// Whether the IO-TLB hit.
    pub tlb_hit: bool,
}

/// IOMMU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// IO-TLB hits.
    pub tlb_hits: u64,
    /// IO-TLB misses (page walks).
    pub tlb_misses: u64,
    /// Misses that displaced a live entry (the TLB was full) — the
    /// §6.5 contention signal: a lone device sweeping a working set
    /// that fits the TLB never evicts, co-located devices do.
    pub tlb_evictions: u64,
}

/// An empty bucket, and the end of the recency and free lists.
const NIL: u32 = u32::MAX;

/// Row `i` of the IO-TLB's table: bucket `i` of the index and, for
/// `i < tlb_entries`, slot `i`. Sharing rows keeps the whole IO-TLB in
/// one allocation.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The slot this bucket indexes, or `NIL`.
    bucket: u32,
    /// The slot's protection domain.
    domain: u32,
    /// The slot's page number.
    page: u64,
    /// The next more recently used slot, or `NIL` at the head.
    newer: u32,
    /// The next less recently used slot, or `NIL` at the tail. A free
    /// slot links the next free one here.
    older: u32,
}

/// The IOMMU model.
#[derive(Debug, Clone)]
pub struct Iommu {
    /// Page size used for mappings (4 KiB with `sp_off`, 2 MiB with
    /// super-pages).
    pub page_size: u64,
    /// Latency of a full page-table walk (≈ 330 ns, §6.5).
    pub walk_latency: SimTime,
    /// Minimum spacing between walks through the walk machinery —
    /// models the finite number of concurrent walkers.
    pub walker_gap: SimTime,
    /// Cost of a TLB hit.
    pub hit_latency: SimTime,
    /// IO-TLB capacity in entries; the index is sized from it.
    tlb_entries: usize,
    /// The IO-TLB: index buckets and entry slots (see [`Row`]). It is
    /// shared between all devices/domains behind the IOMMU — the
    /// paper's §9 asks exactly whether entries are shared; on Intel
    /// parts they are, so co-located devices evict each other.
    rows: Vec<Row>,
    /// `64 − log2(rows.len())`: a key's home bucket is the top bits of
    /// its multiplicative hash.
    shift: u32,
    /// Most and least recently used slots, or `NIL` when empty.
    head: u32,
    tail: u32,
    /// First free slot, or `NIL` when the IO-TLB is full.
    free: u32,
    walker: Timeline,
    stats: IommuStats,
}

impl Iommu {
    /// Builds an IOMMU. See field docs for parameter meanings.
    pub fn new(
        page_size: u64,
        tlb_entries: usize,
        walk_latency: SimTime,
        walker_gap: SimTime,
        hit_latency: SimTime,
    ) -> Self {
        assert!(page_size.is_power_of_two() && page_size >= 4096);
        // Slots and buckets are addressed by `u32`, `NIL` excluded.
        assert!(tlb_entries > 0 && tlb_entries <= 1 << 30);
        let buckets = (2 * tlb_entries).next_power_of_two();
        let empty = Row {
            bucket: NIL,
            domain: 0,
            page: 0,
            newer: NIL,
            older: NIL,
        };
        let mut m = Iommu {
            page_size,
            walk_latency,
            walker_gap,
            hit_latency,
            tlb_entries,
            rows: vec![empty; buckets],
            shift: 64 - buckets.trailing_zeros(),
            head: NIL,
            tail: NIL,
            free: NIL,
            walker: Timeline::new(),
            stats: IommuStats::default(),
        };
        m.clear();
        m
    }

    /// Intel-like defaults with 4 KiB pages (the paper's `sp_off`
    /// configuration): 64-entry IO-TLB, 330 ns walks.
    pub fn intel_4k() -> Self {
        Iommu::new(
            4096,
            64,
            SimTime::from_ns(330),
            SimTime::from_ns(45),
            SimTime::from_ns(2),
        )
    }

    /// The same IOMMU with 2 MiB super-pages — the paper's recommended
    /// mitigation (§7): the IO-TLB then covers 128 MiB.
    pub fn intel_superpages() -> Self {
        Iommu::new(
            2 * 1024 * 1024,
            64,
            SimTime::from_ns(330),
            SimTime::from_ns(45),
            SimTime::from_ns(2),
        )
    }

    /// IO-TLB capacity in entries (Intel: 64, inferred in §6.5).
    pub fn tlb_entries(&self) -> usize {
        self.tlb_entries
    }

    /// Address range covered by the IO-TLB.
    pub fn tlb_reach(&self) -> u64 {
        self.page_size * self.tlb_entries as u64
    }

    /// Translates the access `[addr, addr+len)` at time `now`, in the
    /// default domain (single-device setups).
    pub fn translate(&mut self, now: SimTime, addr: u64, len: u32) -> Translation {
        self.translate_in(now, 0, addr, len)
    }

    /// Translates within an explicit protection `domain` (one per
    /// device function). Accesses spanning a page boundary require all
    /// translations; the returned time covers them in sequence.
    pub fn translate_in(&mut self, now: SimTime, domain: u32, addr: u64, len: u32) -> Translation {
        let first = addr / self.page_size;
        let last = (addr + len.max(1) as u64 - 1) / self.page_size;
        let mut ready = now;
        let mut all_hit = true;
        for page in first..=last {
            let t = self.translate_page(ready, domain, page);
            ready = t.ready_at;
            all_hit &= t.tlb_hit;
        }
        Translation {
            ready_at: ready,
            tlb_hit: all_hit,
        }
    }

    fn translate_page(&mut self, now: SimTime, domain: u32, page: u64) -> Translation {
        if let Ok(b) = self.probe(domain, page) {
            let slot = self.rows[b].bucket;
            if slot != self.head {
                self.unlink(slot);
                self.push_head(slot);
            }
            self.stats.tlb_hits += 1;
            return Translation {
                ready_at: now + self.hit_latency,
                tlb_hit: true,
            };
        }
        // Miss: occupy the walker, pay the walk latency, install entry.
        self.stats.tlb_misses += 1;
        let res = self.walker.reserve(now, self.walker_gap);
        let ready = res.start + self.walk_latency;
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.rows[slot as usize].older;
            slot
        } else {
            self.stats.tlb_evictions += 1;
            let slot = self.tail;
            self.remove(slot);
            slot
        };
        let row = &mut self.rows[slot as usize];
        row.domain = domain;
        row.page = page;
        // Probed after any eviction, whose backward shift may have
        // emptied a bucket on this key's probe path.
        let Err(b) = self.probe(domain, page) else {
            unreachable!("a missed key is not indexed")
        };
        self.rows[b].bucket = slot;
        self.push_head(slot);
        Translation {
            ready_at: ready,
            tlb_hit: false,
        }
    }

    /// Invalidates every IO-TLB entry of `domain` (an unmap /
    /// domain-flush, as an OS IOMMU driver issues). The survivors keep
    /// their recency order.
    pub fn flush_domain(&mut self, domain: u32) {
        let mut slot = self.tail;
        while slot != NIL {
            let row = self.rows[slot as usize];
            if row.domain == domain {
                self.remove(slot);
                self.rows[slot as usize].older = self.free;
                self.free = slot;
            }
            slot = row.newer;
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Flushes the IO-TLB and clears statistics/queueing.
    pub fn reset(&mut self) {
        self.clear();
        self.stats = IommuStats::default();
        self.walker.reset();
    }

    /// Empties the index and the recency list, and chains every slot
    /// onto the free list.
    fn clear(&mut self) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            row.bucket = NIL;
            row.older = if i + 1 < self.tlb_entries {
                i as u32 + 1
            } else {
                NIL
            };
        }
        self.head = NIL;
        self.tail = NIL;
        self.free = 0;
    }

    /// The bucket a key's probe starts from (Fibonacci hashing).
    fn home(&self, domain: u32, page: u64) -> usize {
        let key = page ^ (u64::from(domain) << 48);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// `Ok` with the bucket indexing `(domain, page)`, or `Err` with
    /// the empty bucket that ends its probe.
    fn probe(&self, domain: u32, page: u64) -> Result<usize, usize> {
        let mask = self.rows.len() - 1;
        let mut b = self.home(domain, page);
        loop {
            let slot = self.rows[b].bucket;
            if slot == NIL {
                return Err(b);
            }
            let row = &self.rows[slot as usize];
            if row.page == page && row.domain == domain {
                return Ok(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Takes `slot` off the recency list and its key out of the index,
    /// shifting later entries of its probe run back over the hole.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        let Row { domain, page, .. } = self.rows[slot as usize];
        let Ok(mut hole) = self.probe(domain, page) else {
            unreachable!("a listed slot is indexed")
        };
        let mask = self.rows.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let moved = self.rows[b].bucket;
            if moved == NIL {
                break;
            }
            let Row { domain, page, .. } = self.rows[moved as usize];
            let home = self.home(domain, page);
            // The entry may fill the hole unless its home lies
            // cyclically after the hole.
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.rows[hole].bucket = moved;
                hole = b;
            }
        }
        self.rows[hole].bucket = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Row { newer, older, .. } = self.rows[slot as usize];
        match newer {
            NIL => self.head = older,
            n => self.rows[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.rows[o as usize].newer = newer,
        }
    }

    fn push_head(&mut self, slot: u32) {
        let row = &mut self.rows[slot as usize];
        row.newer = NIL;
        row.older = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.rows[h as usize].newer = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::SplitMix64;

    #[test]
    fn first_access_misses_then_hits() {
        let mut m = Iommu::intel_4k();
        let t0 = m.translate(SimTime::ZERO, 0x1000, 64);
        assert!(!t0.tlb_hit);
        assert_eq!(t0.ready_at, SimTime::from_ns(330));
        let t1 = m.translate(SimTime::ZERO, 0x1040, 64);
        assert!(t1.tlb_hit, "same page");
        assert_eq!(t1.ready_at, SimTime::from_ns(2));
    }

    #[test]
    fn capacity_is_64_pages() {
        let mut m = Iommu::intel_4k();
        assert_eq!(m.tlb_reach(), 256 * 1024); // the paper's 256KiB knee
                                               // Touch 64 distinct pages, then re-touch: all hits.
        for p in 0..64u64 {
            m.translate(SimTime::ZERO, p * 4096, 8);
        }
        let mut t = SimTime::ZERO;
        for p in 0..64u64 {
            let tr = m.translate(t, p * 4096, 8);
            assert!(tr.tlb_hit, "page {p}");
            t = tr.ready_at;
        }
        // 65th page evicts; a sweep over 65 pages re-misses everything.
        m.reset();
        for _round in 0..3 {
            for p in 0..65u64 {
                m.translate(SimTime::ZERO, p * 4096, 8);
            }
        }
        let s = m.stats();
        assert_eq!(s.tlb_hits, 0, "LRU + sequential sweep = pathological");
        assert_eq!(s.tlb_misses, 3 * 65);
    }

    #[test]
    fn page_spanning_access_translates_twice() {
        let mut m = Iommu::intel_4k();
        let t = m.translate(SimTime::ZERO, 4096 - 32, 64);
        assert!(!t.tlb_hit);
        assert_eq!(m.stats().tlb_misses, 2);
    }

    #[test]
    fn superpages_extend_reach() {
        let mut m = Iommu::intel_superpages();
        assert_eq!(m.tlb_reach(), 128 * 1024 * 1024);
        // A 64 MiB working set fits: after the first sweep, all hits.
        let window = 64 * 1024 * 1024u64;
        let step = 2 * 1024 * 1024u64;
        for a in (0..window).step_by(step as usize) {
            m.translate(SimTime::ZERO, a, 64);
        }
        for a in (0..window).step_by(step as usize) {
            assert!(m.translate(SimTime::ZERO, a, 64).tlb_hit);
        }
    }

    #[test]
    fn walker_serialises_bursts() {
        let mut m = Iommu::intel_4k();
        // 10 misses arriving simultaneously: the k-th starts k*gap later.
        let mut last = SimTime::ZERO;
        for p in 0..10u64 {
            let t = m.translate(SimTime::ZERO, p * 4096, 8);
            assert!(t.ready_at > last);
            last = t.ready_at;
        }
        let expect = SimTime::from_ns(9 * 45 + 330);
        assert_eq!(last, expect);
    }

    #[test]
    fn zero_len_translates_one_page() {
        let mut m = Iommu::intel_4k();
        m.translate(SimTime::ZERO, 0, 0);
        assert_eq!(m.stats().tlb_misses, 1);
    }

    /// The linear-scan LRU the index and recency list replaced: a
    /// `(domain, page, stamp)` list searched on every touch, whose
    /// minimum stamp is the victim of a miss at capacity. Same walker,
    /// same latencies.
    struct LinearLru {
        page_size: u64,
        capacity: usize,
        tlb: Vec<(u32, u64, u64)>,
        stamp: u64,
        walker: Timeline,
        stats: IommuStats,
    }

    impl LinearLru {
        fn new(page_size: u64, capacity: usize) -> Self {
            LinearLru {
                page_size,
                capacity,
                tlb: Vec::new(),
                stamp: 0,
                walker: Timeline::new(),
                stats: IommuStats::default(),
            }
        }

        fn translate_in(&mut self, now: SimTime, domain: u32, addr: u64, len: u32) -> Translation {
            let first = addr / self.page_size;
            let last = (addr + len.max(1) as u64 - 1) / self.page_size;
            let mut ready = now;
            let mut all_hit = true;
            for page in first..=last {
                self.stamp += 1;
                let stamp = self.stamp;
                if let Some(e) = self
                    .tlb
                    .iter_mut()
                    .find(|(d, p, _)| *d == domain && *p == page)
                {
                    e.2 = stamp;
                    self.stats.tlb_hits += 1;
                    ready += SimTime::from_ns(2);
                    continue;
                }
                self.stats.tlb_misses += 1;
                all_hit = false;
                ready =
                    self.walker.reserve(ready, SimTime::from_ns(45)).start + SimTime::from_ns(330);
                if self.tlb.len() < self.capacity {
                    self.tlb.push((domain, page, stamp));
                } else {
                    self.stats.tlb_evictions += 1;
                    let victim = self.tlb.iter_mut().min_by_key(|e| e.2).unwrap();
                    *victim = (domain, page, stamp);
                }
            }
            Translation {
                ready_at: ready,
                tlb_hit: all_hit,
            }
        }

        fn flush_domain(&mut self, domain: u32) {
            self.tlb.retain(|(d, _, _)| *d != domain);
        }

        fn reset(&mut self) {
            self.tlb.clear();
            self.stats = IommuStats::default();
            self.walker.reset();
        }
    }

    /// A seeded stream against the oracle, every `Translation` and
    /// every `stats()` compared call by call: four domains, 70 % of
    /// touches from a hot set of 1.5 × capacity `(domain, page)` keys,
    /// a fifth of lengths spanning pages, and occasional domain
    /// flushes and resets.
    #[test]
    fn matches_the_linear_scan_lru() {
        for page_size in [4096, 2 << 20] {
            for capacity in [1, 2, 64, 65] {
                let mut m = Iommu::new(
                    page_size,
                    capacity,
                    SimTime::from_ns(330),
                    SimTime::from_ns(45),
                    SimTime::from_ns(2),
                );
                let mut o = LinearLru::new(page_size, capacity);
                let mut rng = SplitMix64::new(capacity as u64 ^ page_size);
                let hot = (3 * capacity as u64).div_ceil(2);
                let mut now = SimTime::ZERO;
                // Hits and evictions over the whole stream, resets
                // included, to show the stream reaches both.
                let mut seen = (0, 0);
                for call in 0..20_000 {
                    let what = format!("{page_size} B pages, {capacity} entries, call {call}");
                    match rng.range(0, 1000) {
                        0..5 => {
                            let d = rng.range(0, 4) as u32;
                            m.flush_domain(d);
                            o.flush_domain(d);
                        }
                        5 => {
                            seen.0 += m.stats().tlb_hits;
                            seen.1 += m.stats().tlb_evictions;
                            m.reset();
                            o.reset();
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
                            let len = rng.range(0, max_len) as u32;
                            let got = m.translate_in(now, domain, addr, len);
                            assert_eq!(got, o.translate_in(now, domain, addr, len), "{what}");
                            now += SimTime::from_ns(rng.range(0, 400));
                        }
                    }
                    assert_eq!(m.stats(), o.stats, "{what}");
                }
                seen.0 += m.stats().tlb_hits;
                seen.1 += m.stats().tlb_evictions;
                assert!(seen.0 > 0 && seen.1 > 0, "{page_size} {capacity}: {seen:?}");
            }
        }
    }
}
