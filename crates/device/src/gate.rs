//! Bounded-concurrency gates.
//!
//! A [`SlotGate`] models any resource with a fixed number of slots that
//! are held for a time and released: DMA tags, flow-control header
//! credits, firmware worker threads. `acquire` returns the earliest
//! time a slot is available; the caller computes when the slot frees
//! and reports it via `release_at`. Because releases are known at
//! acquire time in a timeline-style simulation, the gate keeps the
//! future release instants sorted.
//!
//! Releases are registered in almost-nondecreasing order (simulated
//! time only moves forward), so the sorted list is kept in a
//! `VecDeque`: the common append is O(1) at the back, the minimum is
//! a pop from the front, and only a genuinely out-of-order release
//! pays an insertion shift. This beats a binary heap on the per-TLP
//! path, where every transaction passes through two or three gates.
//!
//! The list is allocated once, when the gate is built, with room for
//! up to 128 held slots: every gate of the paper's two devices fits
//! (the NFP's 96 workers all fill in a bandwidth run), so their DMA
//! path allocates nothing per transaction. A larger gate (the NIC
//! profile's 2 048 workers) grows its list only on a rare peak that
//! holds more: sizing it to the full capacity up front made the
//! driver zoo slower (DESIGN.md §11), since a list that slides
//! through a large ring touches more cache lines.

use pcie_sim::SimTime;
use std::collections::VecDeque;

/// Held slots a gate's release list has room for when it is built.
const PREALLOC_SLOTS: usize = 128;

/// A resource with `capacity` slots held until explicit future release
/// instants.
#[derive(Debug, Clone)]
pub struct SlotGate {
    capacity: usize,
    /// Release times of currently-held slots, sorted ascending.
    releases: VecDeque<u64>,
    /// Total waiting time accumulated by acquires (diagnostics).
    wait_accum: SimTime,
    acquires: u64,
    /// Acquires that had to wait for a release (stalled).
    stalls: u64,
}

impl SlotGate {
    /// A gate with `capacity` slots (must be ≥ 1). Its release list
    /// starts with room for `capacity`, or 128 slots if that is fewer.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "gate needs at least one slot");
        SlotGate {
            capacity,
            releases: VecDeque::with_capacity(capacity.min(PREALLOC_SLOTS)),
            wait_accum: SimTime::ZERO,
            acquires: 0,
            stalls: 0,
        }
    }

    /// Acquires a slot for a request arriving at `now`; returns the
    /// time the slot is actually obtained. The caller **must** follow
    /// up with [`SlotGate::release_at`].
    pub fn acquire(&mut self, now: SimTime) -> SimTime {
        self.acquires += 1;
        // Every registered release at or before `now` can never delay
        // this or any later acquire (future `now`s only grow), so once
        // the *newest* release has expired the whole list can go. This
        // keeps closed-loop workloads — where each transaction's slots
        // expire before the next begins — off the pop/insert path.
        if self.releases.back().is_some_and(|&b| b <= now.as_ps()) {
            self.releases.clear();
        }
        if self.releases.len() < self.capacity {
            return now;
        }
        let earliest = self.releases.pop_front().expect("non-empty at capacity");
        let t = now.max(SimTime::from_ps(earliest));
        if t > now {
            self.stalls += 1;
        }
        self.wait_accum += t.saturating_sub(now);
        t
    }

    /// Declares that the most recently acquired slot frees at `t`.
    pub fn release_at(&mut self, t: SimTime) {
        assert!(
            self.releases.len() < self.capacity,
            "release_at without matching acquire"
        );
        let ps = t.as_ps();
        // Simulated time moves forward, so the overwhelmingly common
        // case is an append; anything else keeps the list sorted via
        // a binary-searched insert.
        if self.releases.back().is_none_or(|&b| ps >= b) {
            self.releases.push_back(ps);
        } else {
            let at = self.releases.partition_point(|&r| r <= ps);
            self.releases.insert(at, ps);
        }
    }

    /// Convenience: acquire at `now` and immediately register the
    /// release at `release`, returning the acquisition time.
    pub fn acquire_until(&mut self, now: SimTime, release: SimTime) -> SimTime {
        let t = self.acquire(now);
        self.release_at(release.max(t));
        t
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        self.releases.len()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean wait per acquire (diagnostics).
    pub fn mean_wait(&self) -> SimTime {
        match self.wait_accum.as_ps().checked_div(self.acquires) {
            Some(ps) => SimTime::from_ps(ps),
            None => SimTime::ZERO,
        }
    }

    /// Total acquires (diagnostics).
    pub fn acquires(&self) -> u64 {
        self.acquires
    }

    /// Acquires that stalled waiting for a slot (diagnostics).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total time spent waiting across all acquires (diagnostics).
    pub fn total_wait(&self) -> SimTime {
        self.wait_accum
    }

    /// Empties the gate (all slots free, stats cleared).
    pub fn reset(&mut self) {
        self.releases.clear();
        self.wait_accum = SimTime::ZERO;
        self.acquires = 0;
        self.stalls = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn free_slots_acquire_immediately() {
        let mut g = SlotGate::new(2);
        assert_eq!(g.acquire_until(ns(5), ns(100)), ns(5));
        assert_eq!(g.acquire_until(ns(5), ns(200)), ns(5));
        assert_eq!(g.in_use(), 2);
    }

    #[test]
    fn full_gate_waits_for_earliest_release() {
        let mut g = SlotGate::new(2);
        g.acquire_until(ns(0), ns(100));
        g.acquire_until(ns(0), ns(50));
        // Third request at t=10 waits for the t=50 release.
        assert_eq!(g.acquire_until(ns(10), ns(300)), ns(50));
        // Fourth waits for t=100.
        assert_eq!(g.acquire_until(ns(60), ns(400)), ns(100));
    }

    #[test]
    fn throughput_equals_capacity_over_holding_time() {
        // 4 slots held 100ns each: steady state = 1 acquisition / 25ns.
        let mut g = SlotGate::new(4);
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let t = g.acquire(SimTime::ZERO);
            last = t + ns(100);
            g.release_at(last);
        }
        // 1000 txns * 100ns / 4 slots = 25us.
        assert_eq!(last, SimTime::from_ns(996 * 25 + 100));
    }

    #[test]
    fn mean_wait_tracks_contention() {
        let mut g = SlotGate::new(1);
        g.acquire_until(ns(0), ns(100));
        g.acquire_until(ns(0), ns(200));
        assert_eq!(g.mean_wait(), ns(50)); // (0 + 100) / 2
        assert_eq!(g.acquires(), 2);
        assert_eq!(g.stalls(), 1, "only the second acquire waited");
        assert_eq!(g.total_wait(), ns(100));
    }

    #[test]
    fn reset_frees_everything() {
        let mut g = SlotGate::new(1);
        g.acquire_until(ns(0), ns(1_000_000));
        g.reset();
        assert_eq!(g.acquire(ns(0)), ns(0));
        assert_eq!(g.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "without matching acquire")]
    fn unbalanced_release_panics() {
        let mut g = SlotGate::new(1);
        g.release_at(ns(10));
        g.release_at(ns(20));
    }

    #[test]
    fn release_never_before_acquire_time() {
        let mut g = SlotGate::new(1);
        g.acquire_until(ns(0), ns(100));
        // acquire at t=100 (waiting), release claimed at t=50 is clamped.
        let t = g.acquire_until(ns(0), ns(50));
        assert_eq!(t, ns(100));
        let t2 = g.acquire(ns(0));
        assert_eq!(t2, ns(100), "clamped release keeps time monotone");
        g.release_at(t2);
    }
}
