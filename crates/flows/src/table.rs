//! Dense per-flow state, sized for millions of concurrent flows.
//!
//! The engine tracks one 8-byte record per live flow — packets
//! remaining and the RX queue its RSS hash steered it to — in one
//! dense `Vec`. A flow's *position* in that `Vec` is its handle:
//! [`FlowTable::pick`] samples a position uniformly ("which flow does
//! the next packet belong to?"), and a completion `swap_remove`s its
//! record, moving the last live flow into the freed position. Insert,
//! pick and remove are O(1), and nothing on the per-packet path
//! allocates: the `Vec` is reserved at the concurrency target once.
//! At 10⁶–10⁷ flows a per-packet `HashMap` or `Box` would dominate the
//! generator's cost and wreck run-to-run layout determinism, and each
//! extra array or pointer between the sampled index and the record is
//! another cache miss per packet.
//!
//! The flow's 4-tuple is not stored: the engine derives flow *n*'s
//! 4-tuple from (seed, *n*), and needs it only to steer the flow when
//! it is inserted.

use pcie_sim::SplitMix64;
use pcie_telemetry::CounterGroup;

/// One live flow: 8 bytes, so 10⁷ flows fit in ~80 MB and the
/// 10⁶-flow benchmark configuration in ~8 MB.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Packets left before the flow completes.
    remaining: u32,
    /// RX queue the flow's RSS hash steers to (fixed at insert).
    queue: u16,
}

/// Lifetime statistics of one [`FlowTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Flows inserted over the table's lifetime.
    pub inserts: u64,
    /// Flows that ran out of packets and were removed.
    pub completions: u64,
    /// Packets attributed to flows via [`FlowTable::note_packet`].
    pub packets: u64,
    /// High-water mark of concurrently live flows.
    pub peak_active: u32,
}

/// A fixed-capacity dense table of live flows with O(1) insert,
/// uniform sample, and remove.
///
/// Flows are addressed by position, `0..active()`. A position stays
/// valid until the next completion: [`FlowTable::note_packet`] on a
/// flow's last packet moves the last live flow into the freed
/// position, so any other position held across it may now name a
/// different flow (or none).
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Live flows, densely packed.
    slots: Vec<Slot>,
    /// Most concurrent flows; `slots` never grows past it.
    capacity: usize,
    stats: FlowTableStats,
}

impl FlowTable {
    /// A table holding at most `capacity` concurrent flows. Its one
    /// allocation is made here, none on the packet path; the memory is
    /// reserved, not written, so pages are touched only as flows fill
    /// them.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or exceeds `u32::MAX` flows.
    pub fn with_capacity(capacity: usize) -> FlowTable {
        assert!(capacity > 0, "need room for at least one flow");
        assert!(capacity <= u32::MAX as usize, "positions are u32");
        FlowTable {
            slots: Vec::with_capacity(capacity),
            capacity,
            stats: FlowTableStats::default(),
        }
    }

    /// Maximum concurrent flows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently live flows.
    pub fn active(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Inserts a flow with `packets` packets to live for, steered to
    /// `queue`, at position `active()`. Returns that position, or
    /// `None` if the table is full.
    ///
    /// # Panics
    /// Panics if `packets` is zero (a flow must carry traffic).
    pub fn insert(&mut self, queue: u16, packets: u32) -> Option<u32> {
        assert!(packets > 0, "zero-packet flow");
        let pos = self.slots.len();
        if pos == self.capacity {
            return None;
        }
        self.slots.push(Slot {
            remaining: packets,
            queue,
        });
        self.stats.inserts += 1;
        self.stats.peak_active = self.stats.peak_active.max(pos as u32 + 1);
        Some(pos as u32)
    }

    /// Samples a live flow's position uniformly (one RNG draw), or
    /// `None` if the table is empty.
    pub fn pick(&self, rng: &mut SplitMix64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        Some(rng.next_below(self.slots.len() as u64) as u32)
    }

    /// The RX queue the flow at `pos` steers to.
    pub fn queue(&self, pos: u32) -> u16 {
        self.slots[pos as usize].queue
    }

    /// Packets the flow at `pos` still has to send.
    pub fn remaining(&self, pos: u32) -> u32 {
        self.slots[pos as usize].remaining
    }

    /// Reads the records at `positions` and discards them, ignoring
    /// any position past the live flows. A caller that is about to
    /// visit those records in turn takes their cache misses here
    /// together, overlapped, instead of one after another; the crate
    /// forbids `unsafe`, so this stands in for a prefetch. Changes
    /// nothing.
    pub fn touch(&self, positions: &[u32]) {
        let mut seen = 0u32;
        for &pos in positions {
            if let Some(s) = self.slots.get(pos as usize) {
                seen ^= s.remaining;
            }
        }
        std::hint::black_box(seen);
    }

    /// Attributes one packet to the flow at `pos`. Returns `true` if
    /// that was the flow's last packet: the flow is removed and the
    /// last live flow moves into `pos` (O(1) swap-remove).
    pub fn note_packet(&mut self, pos: u32) -> bool {
        self.stats.packets += 1;
        let s = &mut self.slots[pos as usize];
        s.remaining -= 1;
        if s.remaining > 0 {
            return false;
        }
        self.slots.swap_remove(pos as usize);
        self.stats.completions += 1;
        true
    }

    /// The table's counters as the `flows.table` telemetry group.
    pub fn telemetry_group(&self) -> CounterGroup {
        let mut g = CounterGroup::new("flows.table");
        g.push("capacity", self.capacity() as u64)
            .push("active", u64::from(self.active()))
            .push("peak_active", u64::from(self.stats.peak_active))
            .push("inserts", self.stats.inserts)
            .push("completions", self.stats.completions)
            .push("packets", self.stats.packets);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_sample_complete_roundtrip() {
        let mut t = FlowTable::with_capacity(4);
        let a = t.insert(2, 1).unwrap();
        let b = t.insert(5, 3).unwrap();
        assert_eq!((a, b), (0, 1), "inserts append");
        assert_eq!(t.active(), 2);
        assert_eq!(t.queue(a), 2);
        assert_eq!(t.remaining(b), 3);
        assert!(t.note_packet(a), "single-packet flow completes");
        assert_eq!(t.active(), 1);
        // `b` was the last live flow, so `a`'s completion moved it
        // into position `a`; position `b` is no longer valid.
        let b = a;
        assert_eq!((t.queue(b), t.remaining(b)), (5, 3));
        assert!(!t.note_packet(b));
        assert!(!t.note_packet(b));
        assert!(t.note_packet(b), "third packet finishes the flow");
        assert_eq!(t.active(), 0);
        let s = t.stats();
        assert_eq!((s.inserts, s.completions, s.packets), (2, 2, 4));
        assert_eq!(s.peak_active, 2);
    }

    #[test]
    fn completion_moves_the_last_flow_into_the_freed_position() {
        let mut t = FlowTable::with_capacity(8);
        for q in 0..4 {
            t.insert(q, 1 + u32::from(q)).unwrap();
        }
        assert!(t.note_packet(0), "flow 0 has one packet");
        assert_eq!(t.active(), 3);
        let flows: Vec<(u16, u32)> = (0..3).map(|p| (t.queue(p), t.remaining(p))).collect();
        assert_eq!(
            flows,
            [(3, 4), (1, 2), (2, 3)],
            "last flow fills position 0"
        );
        // Completing the flow in the last position moves nothing.
        assert!(!t.note_packet(2));
        assert!(!t.note_packet(2));
        assert!(t.note_packet(2));
        let flows: Vec<(u16, u32)> = (0..2).map(|p| (t.queue(p), t.remaining(p))).collect();
        assert_eq!(flows, [(3, 4), (1, 2)]);
    }

    #[test]
    fn capacity_is_enforced_and_slots_recycle() {
        let mut t = FlowTable::with_capacity(2);
        let a = t.insert(0, 1).unwrap();
        t.insert(0, 1).unwrap();
        assert!(t.insert(0, 1).is_none(), "full table rejects");
        t.note_packet(a);
        assert_eq!(t.insert(0, 1), Some(1), "room came back");
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn uniform_pick_touches_every_flow() {
        let mut t = FlowTable::with_capacity(64);
        for _ in 0..64 {
            t.insert(0, 1).unwrap();
        }
        let mut rng = SplitMix64::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4000 {
            seen.insert(t.pick(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 64, "every live flow reachable");
    }

    #[test]
    fn heavy_churn_preserves_accounting() {
        // 100k flows through a 1k-flow table: swap-remove bookkeeping
        // must survive arbitrary interleaving of removals.
        let cap = 1_000;
        let mut t = FlowTable::with_capacity(cap);
        let mut rng = SplitMix64::new(42);
        let mut next = 0u32;
        for _ in 0..cap {
            t.insert((next % 8) as u16, 1 + next % 7).unwrap();
            next += 1;
        }
        let mut left: u64 = (0..t.active()).map(|p| u64::from(t.remaining(p))).sum();
        for _ in 0..100_000 {
            let pos = t.pick(&mut rng).unwrap();
            left -= 1;
            if t.note_packet(pos) {
                t.insert((next % 8) as u16, 1 + next % 7).unwrap();
                left += u64::from(1 + next % 7);
                next += 1;
            }
        }
        assert_eq!(t.active(), cap as u32, "replacement keeps occupancy");
        let s = t.stats();
        assert_eq!(s.inserts, u64::from(next));
        assert_eq!(s.completions, u64::from(next) - u64::from(t.active()));
        assert_eq!(s.packets, 100_000);
        assert_eq!(s.peak_active, cap as u32);
        // No record was lost or duplicated by the moves.
        let live: u64 = (0..t.active()).map(|p| u64::from(t.remaining(p))).sum();
        assert_eq!(live, left);
        let g = t.telemetry_group();
        assert_eq!(g.get("active"), Some(u64::from(t.active())));
    }

    #[test]
    fn empty_table_pick_is_none() {
        let mut t = FlowTable::with_capacity(1);
        let mut rng = SplitMix64::new(1);
        assert!(t.pick(&mut rng).is_none());
        let a = t.insert(0, 1).unwrap();
        t.note_packet(a);
        assert!(t.pick(&mut rng).is_none());
    }

    #[test]
    fn touch_ignores_dead_positions_and_changes_nothing() {
        let mut t = FlowTable::with_capacity(8);
        for q in 0..3 {
            t.insert(q, 2).unwrap();
        }
        let before = t.stats();
        t.touch(&[0, 2, 3, 7, u32::MAX]);
        t.touch(&[]);
        assert_eq!(t.stats(), before);
        let flows: Vec<(u16, u32)> = (0..3).map(|p| (t.queue(p), t.remaining(p))).collect();
        assert_eq!(flows, [(0, 2), (1, 2), (2, 2)]);
    }
}
