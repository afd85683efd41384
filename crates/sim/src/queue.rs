//! The event queue: a hierarchical timing wheel.
//!
//! Delivers events in non-decreasing time order, breaking ties in
//! insertion (FIFO) order. FIFO tie-breaking matters for determinism:
//! PCIe transactions issued "simultaneously" (same picosecond) must
//! retire in issue order, as they would on a real serial link.
//!
//! # Structure
//!
//! The queue is a frame-aligned hierarchical timing wheel (the shape
//! used by OS timer subsystems), chosen over a binary heap because the
//! simulator's schedules are overwhelmingly near-future and bursty:
//!
//! * Time is quantised into *ticks* of 2^`TICK_SHIFT` ps (≈4 ns).
//!   Events inside one tick are ordered exactly by their stored
//!   `(time, seq)` key, so the quantisation affects placement only,
//!   never ordering.
//! * `LEVELS` wheel levels of `SLOTS` slots each. Level *k* holds
//!   events that share the cursor's level-*(k+1)* frame but not its
//!   level-*k* frame, indexed by bits `k*SLOT_BITS..` of the tick.
//!   Because frames are aligned, slot indices never wrap: within a
//!   level the first occupied slot (found by a one-word bit scan) is
//!   always the earliest.
//! * Far-future events beyond the top frame (replay timers, coalescing
//!   deadlines scheduled 10s of ms out) fall back to an unordered
//!   *calendar overflow* list; when the wheel drains, the cursor
//!   re-anchors at the overflow minimum and the list redistributes.
//!
//! Push and pop are O(1) amortised (pop settles at most one cascade
//! per level per frame). The cursor *jumps* — an empty stretch of
//! virtual time costs one bit-scan per level, not one step per slot,
//! which is what makes quiescent fast-forward cheap (see
//! [`EventQueue::fast_forward`]).

use crate::time::SimTime;

/// log2 of picoseconds per wheel tick (2^12 ps ≈ 4.1 ns).
const TICK_SHIFT: u32 = 12;
/// log2 of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level (one occupancy bit per `u64` word).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; the top frame spans 2^(12+4·6) ps ≈ 69 ms of
/// relative time, beyond which events go to the calendar overflow.
const LEVELS: usize = 4;

/// One scheduled entry: ordered by `(time, seq)` ascending.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Generic over the event payload `T`; higher layers define their own
/// event enums. See the crate-level docs for an example.
pub struct EventQueue<T> {
    /// `levels[k][slot]` holds entries for that slot, unsorted; pops
    /// extract the `(time, seq)` minimum by scanning the (small) slot.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level occupancy bitmaps (bit `s` set ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Far-future entries beyond the top-level frame, unordered.
    overflow: Vec<Entry<T>>,
    /// Wheel position in ticks. Invariant: every stored entry except
    /// same-slot stragglers has `tick >= cursor`.
    cursor: u64,
    len: usize,
    next_seq: u64,
    /// Time of the most recently popped event; pops are checked to be
    /// monotone, which catches scheduling-in-the-past bugs early.
    last_popped: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn tick_of(time: SimTime) -> u64 {
    time.as_ps() >> TICK_SHIFT
}

/// Level-`k` frame index of a tick (which aligned block of
/// `SLOTS^(k+1)` ticks it falls in).
#[inline]
fn frame(tick: u64, k: u32) -> u64 {
    tick >> (SLOT_BITS * (k + 1))
}

/// Slot index of a tick at level `k`.
#[inline]
fn slot_of(tick: u64, k: u32) -> usize {
    ((tick >> (SLOT_BITS * k)) as usize) & (SLOTS - 1)
}

/// The cheap monotonicity check's failure path, kept out of line so
/// `push` stays a compare-and-branch.
#[cold]
#[inline(never)]
fn past_event_panic(label: &str, time: SimTime, last_popped: SimTime) -> ! {
    panic!(
        "event '{label}' scheduled in the past: {time} < {last_popped} \
         (event time vs. last popped)"
    );
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event: the past
    /// is immutable in a discrete-event simulation, and silently
    /// reordering would corrupt results.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.push_labeled(time, "event", payload);
    }

    /// [`EventQueue::push`] with a debug label that names the event in
    /// the scheduled-in-the-past panic message.
    #[inline]
    pub fn push_labeled(&mut self, time: SimTime, label: &'static str, payload: T) {
        if time < self.last_popped {
            past_event_panic(label, time, self.last_popped);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Entry { time, seq, payload });
    }

    /// Files an entry into its wheel slot (or the overflow list),
    /// relative to the current cursor.
    fn place(&mut self, e: Entry<T>) {
        let tick = tick_of(e.time);
        // A straggler behind the cursor (legal: the cursor may run
        // ahead of `last_popped` after a cascade) files into the
        // cursor's own level-0 slot, which pops scan first.
        let tick = tick.max(self.cursor);
        for k in 0..LEVELS as u32 {
            if frame(tick, k) == frame(self.cursor, k) {
                let s = slot_of(tick, k);
                self.levels[k as usize][s].push(e);
                self.occupied[k as usize] |= 1 << s;
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: the lowest occupied slot is the earliest (slot
            // indices within the aligned frame never wrap).
            if self.occupied[0] != 0 {
                let s = self.occupied[0].trailing_zeros() as usize;
                let slot = &mut self.levels[0][s];
                let mut best = 0;
                for i in 1..slot.len() {
                    let (b, c) = (&slot[best], &slot[i]);
                    if (c.time, c.seq) < (b.time, b.seq) {
                        best = i;
                    }
                }
                let e = slot.swap_remove(best);
                if slot.is_empty() {
                    self.occupied[0] &= !(1 << s);
                }
                self.len -= 1;
                debug_assert!(e.time >= self.last_popped);
                self.last_popped = e.time;
                self.cursor = self.cursor.max(tick_of(e.time));
                return Some((e.time, e.payload));
            }
            self.cascade();
        }
    }

    /// Advances the cursor to the next occupied frame and redistributes
    /// one higher-level slot (or the overflow list) downwards.
    fn cascade(&mut self) {
        for k in 1..LEVELS {
            if self.occupied[k] != 0 {
                let s = self.occupied[k].trailing_zeros() as usize;
                // Jump the cursor to the slot's frame base: level-k
                // index = s, all lower-level bits zero.
                let span = SLOT_BITS * k as u32;
                self.cursor = ((self.cursor >> (span + SLOT_BITS)) << SLOT_BITS | s as u64) << span;
                let entries = std::mem::take(&mut self.levels[k][s]);
                self.occupied[k] &= !(1 << s);
                for e in entries {
                    self.place(e);
                }
                return;
            }
        }
        // Wheel empty: re-anchor at the calendar overflow's minimum and
        // redistribute. Entries still beyond the new top frame stay in
        // the overflow for a later re-anchor.
        debug_assert!(!self.overflow.is_empty(), "len > 0 with empty wheel");
        let min_tick = self
            .overflow
            .iter()
            .map(|e| tick_of(e.time))
            .min()
            .expect("non-empty overflow");
        self.cursor = min_tick;
        for e in std::mem::take(&mut self.overflow) {
            self.place(e);
        }
    }

    /// Pops the earliest event if it is due at or before `until`;
    /// `None` once every event ≤ `until` has been popped. Ties pop in
    /// insertion order.
    ///
    /// This is the loop of *deferred issuance*, which every serving
    /// engine uses. A device's issue ports and wire timelines are FIFO
    /// [`Timeline`](crate::Timeline)s, so a transaction issued out of
    /// call order at a future time pushes every later-issued,
    /// earlier-wanted transaction behind it, which under load
    /// compounds into unbounded artificial queueing. An engine
    /// therefore *schedules* each follow-on phase when it decides on
    /// it and *issues* it here, in event-time order, with every
    /// platform call carrying the event's own time:
    ///
    /// ```text
    /// while let Some((at, phase)) = queue.pop_before(until) {
    ///     // issue the phase's platform calls with want == at
    /// }
    /// ```
    pub fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Levels hold disjoint, increasing time ranges, so the first
        // occupied slot of the first occupied level has the minimum.
        for k in 0..LEVELS {
            if self.occupied[k] != 0 {
                let s = self.occupied[k].trailing_zeros() as usize;
                return self.levels[k][s].iter().map(|e| e.time).min();
            }
        }
        self.overflow.iter().map(|e| e.time).min()
    }

    /// Declares virtual time quiescent up to `to`: the caller promises
    /// no event will be scheduled before it. Advances the past-check
    /// watermark, and — when the queue is empty — jumps the wheel
    /// cursor in O(1), so the next schedule lands in a fresh frame
    /// instead of cascading up from an ancient one.
    ///
    /// # Panics
    /// If an event earlier than `to` is already pending (jumping over
    /// it would reorder the schedule).
    pub fn fast_forward(&mut self, to: SimTime) {
        if let Some(t) = self.peek_time() {
            assert!(
                t >= to,
                "fast-forward to {to} would skip an event pending at {t}"
            );
        } else {
            self.cursor = self.cursor.max(tick_of(to));
        }
        self.last_popped = self.last_popped.max(to);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events, keeping the monotonicity watermark.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), "a");
        q.push(SimTime::from_ns(2), "b1");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_ns(2), "b2");
        assert_eq!(q.pop().unwrap().1, "b1");
        assert_eq!(q.pop().unwrap().1, "b2");
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    #[should_panic(expected = "event 'replay-timer' scheduled in the past")]
    fn past_event_panic_names_the_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push_labeled(SimTime::from_ns(5), "replay-timer", ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), ());
        q.push(SimTime::from_ns(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_stops_at_until() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        q.push(SimTime::from_ns(20), 4);
        let mut seen = Vec::new();
        while let Some((at, v)) = q.pop_before(SimTime::from_ns(20)) {
            seen.push((at.as_ns(), v));
        }
        assert_eq!(seen, [(10, 1), (20, 2), (20, 4)], "inclusive, FIFO ties");
        assert!(q.pop_before(SimTime::from_ns(29)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime::MAX), Some((SimTime::from_ns(30), 3)));
        assert!(q.pop_before(SimTime::MAX).is_none());
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q = EventQueue::new();
        // Beyond the 69 ms top frame: lands in the calendar overflow.
        q.push(SimTime::from_us(200_000), "far");
        q.push(SimTime::from_ns(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fast_forward_is_transparent_when_empty() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.pop();
        q.fast_forward(SimTime::from_us(500));
        q.push(SimTime::from_us(500), 2);
        assert_eq!(q.pop(), Some((SimTime::from_us(500), 2)));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn fast_forward_refuses_to_skip_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.fast_forward(SimTime::from_ns(20));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn fast_forward_advances_the_past_check() {
        let mut q = EventQueue::new();
        q.fast_forward(SimTime::from_ns(100));
        q.push(SimTime::from_ns(50), ());
    }

    // ----- reference-model property tests --------------------------

    /// The old `BinaryHeap`-based queue, kept as the ordering oracle.
    struct HeapQueue<T> {
        heap: BinaryHeap<(std::cmp::Reverse<(SimTime, u64)>, T)>,
        next_seq: u64,
    }

    impl<T: Ord> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push((std::cmp::Reverse((time, seq)), payload));
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|(std::cmp::Reverse((t, _)), p)| (t, p))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|(std::cmp::Reverse((t, _)), _)| *t)
        }
    }

    /// Random interleaved push/pop schedules: the wheel must be
    /// bit-identical to the heap, including same-tick ties (many
    /// events inside one 4 ns tick) and far-future replay-timer-style
    /// pushes that exercise the calendar overflow.
    #[test]
    fn wheel_matches_binary_heap_on_random_schedules() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            for _ in 0..4_000 {
                match rng.next_u64() % 10 {
                    // 60%: push near-future (including exact ties).
                    0..=5 => {
                        let dt = match rng.next_u64() % 4 {
                            0 => 0,                           // same time as `now`
                            1 => rng.next_u64() % 100,        // sub-tick
                            2 => rng.next_u64() % 100_000,    // ~100 ns
                            _ => rng.next_u64() % 50_000_000, // ~50 µs
                        };
                        let t = now + SimTime::from_ps(dt);
                        wheel.push(t, id);
                        heap.push(t, id);
                        id += 1;
                    }
                    // 10%: push far-future (overflow territory).
                    6 => {
                        let t = now + SimTime::from_us(100_000 + rng.next_u64() % 1_000_000);
                        wheel.push(t, id);
                        heap.push(t, id);
                        id += 1;
                    }
                    // 30%: pop.
                    _ => {
                        assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
                        let (w, h) = (wheel.pop(), heap.pop());
                        assert_eq!(w, h, "seed {seed}");
                        if let Some((t, _)) = w {
                            now = t;
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.heap.len(), "seed {seed}");
            }
            // Drain: the full remaining order must match.
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h, "seed {seed} drain");
                if w.is_none() {
                    break;
                }
            }
        }
    }

    /// Dense same-tick bursts: hundreds of events inside single ticks,
    /// popped strictly in insertion order.
    #[test]
    fn same_tick_bursts_stay_fifo() {
        let mut rng = SplitMix64::new(42);
        let mut q = EventQueue::new();
        let base = SimTime::from_us(3);
        let mut expect = Vec::new();
        for i in 0..500u32 {
            // All within one ~4 ns tick, several exact-duplicate times.
            let t = base + SimTime::from_ps(rng.next_u64() % 4_000);
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i)); // seq == insertion index
        let got: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }
}
