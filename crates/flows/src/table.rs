//! Slab-backed per-flow state, sized for millions of concurrent flows.
//!
//! The engine tracks one compact record per live flow — 4-tuple,
//! steered queue, packets remaining — in a preallocated slab with a
//! free list, plus a dense array of live slot ids for O(1) uniform
//! sampling ("which flow does the next packet belong to?") and O(1)
//! swap-remove on completion. Nothing on the per-packet path
//! allocates: at 10⁶–10⁷ flows a per-packet `HashMap` or `Box` would
//! dominate the generator's cost and wreck run-to-run layout
//! determinism.

use crate::rss::FlowKey;
use pcie_sim::SplitMix64;
use pcie_telemetry::CounterGroup;

/// One live flow: 24 bytes, so 10⁷ flows fit in ~240 MB and the
/// 10⁶-flow benchmark configuration in ~24 MB.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: FlowKey,
    /// Packets left before the flow completes.
    remaining: u32,
    /// RX queue the flow's RSS hash steers to (fixed at insert).
    queue: u16,
    /// Index of this slot's entry in the dense live list (kept in
    /// sync so completion can swap-remove without searching).
    dense: u32,
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

/// A fixed-capacity slab of live flows with O(1) insert, uniform
/// sample, and remove.
#[derive(Debug, Clone)]
pub struct FlowTable {
    slots: Vec<Slot>,
    /// Slot indices currently free.
    free: Vec<u32>,
    /// Slot indices currently live (dense, order-irrelevant).
    live: Vec<u32>,
    stats: FlowTableStats,
}

impl FlowTable {
    /// A table holding at most `capacity` concurrent flows. All
    /// memory is allocated here, none on the packet path.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or exceeds `u32::MAX` slots.
    pub fn with_capacity(capacity: usize) -> FlowTable {
        assert!(capacity > 0, "need room for at least one flow");
        assert!(capacity <= u32::MAX as usize, "slot ids are u32");
        let dead = Slot {
            key: FlowKey {
                src_ip: 0,
                dst_ip: 0,
                src_port: 0,
                dst_port: 0,
            },
            remaining: 0,
            queue: 0,
            dense: 0,
        };
        FlowTable {
            slots: vec![dead; capacity],
            // Pop order counts down from the back; any fixed order
            // works, this one keeps early slots hot.
            free: (0..capacity as u32).rev().collect(),
            live: Vec::with_capacity(capacity),
            stats: FlowTableStats::default(),
        }
    }

    /// Maximum concurrent flows.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Currently live flows.
    pub fn active(&self) -> u32 {
        self.live.len() as u32
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Inserts a flow with `packets` packets to live for, steered to
    /// `queue`. Returns the slot id, or `None` if the table is full.
    ///
    /// # Panics
    /// Panics if `packets` is zero (a flow must carry traffic).
    pub fn insert(&mut self, key: FlowKey, queue: u16, packets: u32) -> Option<u32> {
        assert!(packets > 0, "zero-packet flow");
        let slot = self.free.pop()?;
        let dense = self.live.len() as u32;
        self.live.push(slot);
        self.slots[slot as usize] = Slot {
            key,
            remaining: packets,
            queue,
            dense,
        };
        self.stats.inserts += 1;
        self.stats.peak_active = self.stats.peak_active.max(self.live.len() as u32);
        Some(slot)
    }

    /// Samples a live flow uniformly (one RNG draw), or `None` if the
    /// table is empty.
    pub fn pick(&self, rng: &mut SplitMix64) -> Option<u32> {
        if self.live.is_empty() {
            return None;
        }
        Some(self.live[rng.next_below(self.live.len() as u64) as usize])
    }

    /// The 4-tuple of a live slot.
    pub fn key(&self, slot: u32) -> FlowKey {
        self.slots[slot as usize].key
    }

    /// The RX queue a live slot steers to.
    pub fn queue(&self, slot: u32) -> u16 {
        self.slots[slot as usize].queue
    }

    /// Packets the slot's flow still has to send.
    pub fn remaining(&self, slot: u32) -> u32 {
        self.slots[slot as usize].remaining
    }

    /// Attributes one packet to the flow in `slot`. Returns `true` if
    /// that was the flow's last packet: the flow is removed and the
    /// slot recycled (O(1) swap-remove from the live list).
    pub fn note_packet(&mut self, slot: u32) -> bool {
        self.stats.packets += 1;
        let s = &mut self.slots[slot as usize];
        s.remaining -= 1;
        if s.remaining > 0 {
            return false;
        }
        let dense = s.dense as usize;
        self.live.swap_remove(dense);
        if let Some(&moved) = self.live.get(dense) {
            self.slots[moved as usize].dense = dense as u32;
        }
        self.free.push(slot);
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

    fn key(n: u32) -> FlowKey {
        FlowKey {
            src_ip: n,
            dst_ip: !n,
            src_port: n as u16,
            dst_port: 80,
        }
    }

    #[test]
    fn insert_sample_complete_roundtrip() {
        let mut t = FlowTable::with_capacity(4);
        let a = t.insert(key(1), 2, 1).unwrap();
        let b = t.insert(key(2), 5, 3).unwrap();
        assert_eq!(t.active(), 2);
        assert_eq!(t.queue(a), 2);
        assert_eq!(t.key(b), key(2));
        assert!(t.note_packet(a), "single-packet flow completes");
        assert_eq!(t.active(), 1);
        assert!(!t.note_packet(b));
        assert!(!t.note_packet(b));
        assert!(t.note_packet(b), "third packet finishes the flow");
        assert_eq!(t.active(), 0);
        let s = t.stats();
        assert_eq!((s.inserts, s.completions, s.packets), (2, 2, 4));
        assert_eq!(s.peak_active, 2);
    }

    #[test]
    fn capacity_is_enforced_and_slots_recycle() {
        let mut t = FlowTable::with_capacity(2);
        let a = t.insert(key(1), 0, 1).unwrap();
        t.insert(key(2), 0, 1).unwrap();
        assert!(t.insert(key(3), 0, 1).is_none(), "full table rejects");
        t.note_packet(a);
        assert!(t.insert(key(3), 0, 1).is_some(), "slot came back");
    }

    #[test]
    fn uniform_pick_touches_every_flow() {
        let mut t = FlowTable::with_capacity(64);
        for n in 0..64 {
            t.insert(key(n), 0, 1).unwrap();
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
        // 100k flows through a 1k-slot table: dense-list bookkeeping
        // must survive arbitrary interleaving of removals.
        let cap = 1_000;
        let mut t = FlowTable::with_capacity(cap);
        let mut rng = SplitMix64::new(42);
        let mut next = 0u32;
        for _ in 0..cap {
            t.insert(key(next), (next % 8) as u16, 1 + next % 7)
                .unwrap();
            next += 1;
        }
        for _ in 0..100_000 {
            let slot = t.pick(&mut rng).unwrap();
            if t.note_packet(slot) {
                t.insert(key(next), (next % 8) as u16, 1 + next % 7)
                    .unwrap();
                next += 1;
            }
        }
        assert_eq!(t.active(), cap as u32, "replacement keeps occupancy");
        let s = t.stats();
        assert_eq!(s.inserts, u64::from(next));
        assert_eq!(s.completions, u64::from(next) - u64::from(t.active()));
        assert_eq!(s.packets, 100_000);
        assert_eq!(s.peak_active, cap as u32);
        // Live list and slabs agree.
        let g = t.telemetry_group();
        assert_eq!(g.get("active"), Some(u64::from(t.active())));
    }

    #[test]
    fn empty_table_pick_is_none() {
        let mut t = FlowTable::with_capacity(1);
        let mut rng = SplitMix64::new(1);
        assert!(t.pick(&mut rng).is_none());
        let a = t.insert(key(1), 0, 1).unwrap();
        t.note_packet(a);
        assert!(t.pick(&mut rng).is_none());
    }
}
