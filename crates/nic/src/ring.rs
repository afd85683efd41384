//! Descriptor rings.
//!
//! Every NIC/driver interaction the paper models (§3) revolves around
//! descriptor rings in host memory: the driver produces TX/freelist
//! descriptors and consumes completions; the device does the reverse.
//! [`DescriptorRing`] captures the index arithmetic — head/tail
//! pointers, wrap-around, free/used accounting — over a region of a
//! [`HostBuffer`], so simulations DMA real ring addresses instead of
//! ad-hoc offsets.

use pcie_host::HostBuffer;

/// A circular descriptor ring living in a host buffer.
///
/// The *producer* advances `tail` (enqueues descriptors); the
/// *consumer* advances `head`. The ring holds at most `capacity - 1`
/// entries, the classic distinguishing-full-from-empty convention.
#[derive(Debug, Clone)]
pub struct DescriptorRing {
    base_offset: u64,
    entry_size: u32,
    capacity: u32,
    head: u32,
    tail: u32,
    produced: u64,
    consumed: u64,
    /// High-water mark of `used()` (ring occupancy).
    max_used: u32,
}

impl DescriptorRing {
    /// Creates a ring of `capacity` entries of `entry_size` bytes at
    /// `base_offset` within `buf`.
    ///
    /// # Panics
    /// If the ring does not fit in the buffer, or capacity < 2, or the
    /// entry size is 0.
    pub fn new(buf: &HostBuffer, base_offset: u64, entry_size: u32, capacity: u32) -> Self {
        assert!(capacity >= 2, "ring needs at least 2 slots");
        assert!(entry_size > 0);
        let bytes = entry_size as u64 * capacity as u64;
        assert!(
            base_offset + bytes <= buf.len(),
            "ring [{base_offset}, +{bytes}) exceeds buffer of {}",
            buf.len()
        );
        DescriptorRing {
            base_offset,
            entry_size,
            capacity,
            head: 0,
            tail: 0,
            produced: 0,
            consumed: 0,
            max_used: 0,
        }
    }

    /// Entries currently enqueued.
    pub fn used(&self) -> u32 {
        (self.tail + self.capacity - self.head) % self.capacity
    }

    /// Free slots (capacity - 1 - used).
    pub fn free(&self) -> u32 {
        self.capacity - 1 - self.used()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Ring capacity in slots (one is always kept unused).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Buffer offset of slot `i`.
    pub fn slot_offset(&self, i: u32) -> u64 {
        assert!(i < self.capacity);
        self.base_offset + i as u64 * self.entry_size as u64
    }

    /// Producer: claims up to `n` slots; returns the indices claimed
    /// (possibly fewer than `n` if the ring is nearly full).
    pub fn produce(&mut self, n: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.produce_into(n, &mut out);
        out
    }

    /// [`DescriptorRing::produce`] writing into caller scratch —
    /// `out` is cleared, then filled. The hot-path variant: a driver
    /// loop reuses one `Vec` instead of allocating per batch (the
    /// `BenchScratch` pattern).
    pub fn produce_into(&mut self, n: u32, out: &mut Vec<u32>) {
        out.clear();
        let take = n.min(self.free());
        out.extend((0..take).map(|i| (self.tail + i) % self.capacity));
        self.tail = (self.tail + take) % self.capacity;
        self.produced += take as u64;
        self.max_used = self.max_used.max(self.used());
    }

    /// Consumer: releases up to `n` used slots; returns the indices
    /// consumed, in order.
    pub fn consume(&mut self, n: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.consume_into(n, &mut out);
        out
    }

    /// [`DescriptorRing::consume`] writing into caller scratch (`out`
    /// is cleared, then filled).
    pub fn consume_into(&mut self, n: u32, out: &mut Vec<u32>) {
        out.clear();
        let take = n.min(self.used());
        out.extend((0..take).map(|i| (self.head + i) % self.capacity));
        self.head = (self.head + take) % self.capacity;
        self.consumed += take as u64;
    }

    /// Descriptors produced over the ring's lifetime.
    pub fn total_produced(&self) -> u64 {
        self.produced
    }

    /// Descriptors consumed over the ring's lifetime.
    pub fn total_consumed(&self) -> u64 {
        self.consumed
    }

    /// High-water mark of ring occupancy.
    pub fn max_used(&self) -> u32 {
        self.max_used
    }

    /// Lifetime counters as a telemetry group named
    /// `nic.ring.<name>`.
    pub fn telemetry_group(&self, name: &str) -> pcie_telemetry::CounterGroup {
        let mut g = pcie_telemetry::CounterGroup::new(format!("nic.ring.{name}"));
        g.push("capacity", self.capacity as u64)
            .push("produced", self.produced)
            .push("consumed", self.consumed)
            .push("in_flight", self.used() as u64)
            .push("max_used", self.max_used as u64);
        g
    }

    /// Contiguous byte ranges `(offset, len)` covering `slots` —
    /// adjacent slots coalesce into one DMA, as batching drivers do.
    pub fn dma_ranges(&self, slots: &[u32]) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        self.dma_ranges_into(slots, &mut out);
        out
    }

    /// [`DescriptorRing::dma_ranges`] writing into caller scratch
    /// (`out` is cleared, then filled).
    pub fn dma_ranges_into(&self, slots: &[u32], out: &mut Vec<(u64, u32)>) {
        out.clear();
        for &s in slots {
            let off = self.slot_offset(s);
            match out.last_mut() {
                Some((o, l)) if *o + *l as u64 == off => *l += self.entry_size,
                _ => out.push((off, self.entry_size)),
            }
        }
    }

    /// Byte ranges covering the `n` consecutive slots from `first`,
    /// wrapping past the last slot: what
    /// [`DescriptorRing::dma_ranges`] returns for those slots (one
    /// range, or two where the span wraps), without a slot list. A
    /// scheduled fetch can carry `(first, n)` instead of a `Vec`.
    pub fn span_ranges(&self, first: u32, n: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        let head = n.min(self.capacity - first);
        [(first, head), (0, n - head)]
            .into_iter()
            .filter(|&(_, k)| k > 0)
            .map(move |(slot, k)| (self.slot_offset(slot), k * self.entry_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> HostBuffer {
        HostBuffer::new(0x10000, 64 * 1024, 0)
    }

    #[test]
    fn geometry_and_slots() {
        let b = buf();
        let r = DescriptorRing::new(&b, 4096, 16, 256);
        assert_eq!(r.capacity(), 256);
        assert_eq!(r.free(), 255);
        assert_eq!(r.slot_offset(0), 4096);
        assert_eq!(r.slot_offset(255), 4096 + 255 * 16);
    }

    #[test]
    fn produce_consume_round() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 8);
        assert!(r.is_empty());
        let p = r.produce(3);
        assert_eq!(p, vec![0, 1, 2]);
        assert_eq!(r.used(), 3);
        let c = r.consume(2);
        assert_eq!(c, vec![0, 1]);
        assert_eq!(r.used(), 1);
        assert_eq!(r.free(), 6);
    }

    #[test]
    fn full_ring_stops_producing() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 4);
        assert_eq!(r.produce(10).len(), 3, "capacity-1 slots max");
        assert_eq!(r.free(), 0);
        assert!(r.produce(1).is_empty());
        r.consume(1);
        assert_eq!(r.produce(5), vec![3]);
    }

    #[test]
    fn wrap_around() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 4);
        r.produce(3);
        r.consume(3);
        let p = r.produce(3);
        assert_eq!(p, vec![3, 0, 1], "indices wrap");
        assert_eq!(r.consume(3), vec![3, 0, 1]);
    }

    #[test]
    fn dma_ranges_coalesce_contiguous_slots() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 8);
        let slots = r.produce(4); // 0..3, contiguous
        let ranges = r.dma_ranges(&slots);
        assert_eq!(ranges, vec![(0, 64)]);
        // Wrapped batch splits into two ranges.
        r.consume(4);
        r.produce(3); // 4,5,6
        r.consume(3);
        let slots = r.produce(3); // 7, 0, 1
        let ranges = r.dma_ranges(&slots);
        assert_eq!(ranges, vec![(7 * 16, 16), (0, 32)]);
    }

    #[test]
    fn span_ranges_match_dma_ranges_of_the_produced_slots() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 256, 16, 8);
        let mut rng = pcie_sim::SplitMix64::new(9);
        for _ in 0..500 {
            r.consume(rng.next_below(8) as u32);
            let slots = r.produce(rng.next_below(8) as u32);
            let first = slots.first().copied().unwrap_or(0);
            let span: Vec<(u64, u32)> = r.span_ranges(first, slots.len() as u32).collect();
            assert_eq!(span, r.dma_ranges(&slots));
        }
    }

    #[test]
    fn lifetime_counters_and_telemetry() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 8);
        r.produce(5);
        r.consume(2);
        r.produce(2);
        assert_eq!(r.total_produced(), 7);
        assert_eq!(r.total_consumed(), 2);
        assert_eq!(r.max_used(), 5);
        let g = r.telemetry_group("tx");
        assert_eq!(g.component, "nic.ring.tx");
        assert_eq!(g.get("produced"), Some(7));
        assert_eq!(g.get("consumed"), Some(2));
        assert_eq!(g.get("in_flight"), Some(5));
        assert_eq!(g.get("max_used"), Some(5));
    }

    #[test]
    fn into_variants_reuse_scratch_and_match_allocating_api() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 8);
        let mut shadow = DescriptorRing::new(&b, 0, 16, 8);
        let mut slots = Vec::new();
        let mut ranges: Vec<(u64, u32)> = vec![(999, 999); 4]; // stale
        r.produce_into(4, &mut slots);
        assert_eq!(slots, shadow.produce(4), "produce_into matches produce");
        r.dma_ranges_into(&slots, &mut ranges);
        assert_eq!(ranges, shadow.dma_ranges(&slots), "stale scratch cleared");
        let cap_slots = slots.capacity();
        let cap_ranges = ranges.capacity();
        for _ in 0..100 {
            r.consume_into(4, &mut slots);
            r.produce_into(4, &mut slots);
            r.dma_ranges_into(&slots, &mut ranges);
        }
        assert_eq!(slots.capacity(), cap_slots, "steady state: no regrowth");
        assert_eq!(ranges.capacity(), cap_ranges, "steady state: no regrowth");
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn oversized_ring_rejected() {
        let b = buf();
        DescriptorRing::new(&b, 0, 64, 2048); // 128KiB > 64KiB buffer
    }

    #[test]
    fn long_run_invariants() {
        let b = buf();
        let mut r = DescriptorRing::new(&b, 0, 16, 16);
        let mut produced = 0u64;
        let mut consumed = 0u64;
        let mut rng = pcie_sim::SplitMix64::new(5);
        for _ in 0..10_000 {
            let p = r.produce(rng.next_below(6) as u32).len() as u64;
            let c = r.consume(rng.next_below(6) as u32).len() as u64;
            produced += p;
            consumed += c;
            assert!(r.used() <= 15);
            assert_eq!(produced - consumed, r.used() as u64);
        }
    }
}
