//! The event queue: a binary heap keyed on `(time, seq)`.
//!
//! Delivers events in non-decreasing time order, breaking ties in
//! insertion (FIFO) order: PCIe transactions issued "simultaneously"
//! (same picosecond) must retire in issue order, as on a real serial
//! link. Push and pop are O(log n); the heap's buffer grows to the most
//! events ever pending and is reused, so steady state allocates nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled entry. It orders by `(time, seq)` *reversed*, so the
/// max-heap pops the earliest entry and the payload needs no `Ord`.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}

/// A time-ordered event queue with FIFO tie-breaking, generic over the
/// event payload `T` (see the crate-level docs for an example).
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    /// Time of the last pop or [`EventQueue::fast_forward`]; pushes
    /// before it panic, which catches scheduling-in-the-past bugs.
    last_popped: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
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
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// If `time` is before the last pop or fast-forward: the past is
    /// immutable, and silently reordering it would corrupt results.
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
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.last_popped);
        self.last_popped = e.time;
        Some((e.time, e.payload))
    }

    /// Pops the earliest event if it is due at or before `until`;
    /// `None` once every event ≤ `until` has been popped.
    ///
    /// This is the loop of *deferred issuance* every serving engine
    /// uses. Issue ports and wire timelines are FIFO
    /// [`Timeline`](crate::Timeline)s, so a transaction issued out of
    /// call order at a future time queues every later-issued,
    /// earlier-wanted one behind it. An engine therefore *schedules*
    /// each follow-on phase when it decides on it and *issues* it here,
    /// in event-time order, each platform call carrying the event's time:
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
        self.heap.peek().map(|e| e.time)
    }

    /// Declares virtual time quiescent up to `to`: raises the
    /// scheduled-in-the-past watermark, so a later push before `to`
    /// panics.
    ///
    /// # Panics
    /// If an event earlier than `to` is already pending.
    pub fn fast_forward(&mut self, to: SimTime) {
        let next = self.peek_time().unwrap_or(SimTime::MAX);
        assert!(
            next >= to,
            "fast-forward to {to} would skip an event pending at {next}"
        );
        self.last_popped = self.last_popped.max(to);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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
        q.pop();
        q.pop();
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
    fn far_future_pops_after_near() {
        let mut q = EventQueue::new();
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

    /// The ordering oracle: an unsorted `Vec` whose pop removes the
    /// `(time, seq)` minimum by linear scan.
    struct ScanQueue<T> {
        items: Vec<(SimTime, u64, T)>,
        next_seq: u64,
    }

    impl<T> ScanQueue<T> {
        fn new() -> Self {
            ScanQueue {
                items: Vec::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: T) {
            self.items.push((time, self.next_seq, payload));
            self.next_seq += 1;
        }
        fn min(&self) -> Option<usize> {
            (0..self.items.len()).min_by_key(|&i| (self.items[i].0, self.items[i].1))
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            let (t, _, p) = self.items.swap_remove(self.min()?);
            Some((t, p))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.min().map(|i| self.items[i].0)
        }
    }

    /// Random interleaved push/pop schedules: the heap must pop exactly
    /// what the linear scan pops, including exact-time ties, many
    /// events inside a few nanoseconds, and far-future
    /// replay-timer-style pushes.
    #[test]
    fn heap_matches_linear_scan_on_random_schedules() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
            let mut q = EventQueue::new();
            let mut scan = ScanQueue::new();
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            for _ in 0..4_000 {
                match rng.next_u64() % 10 {
                    // 60%: push near-future (including exact ties).
                    0..=5 => {
                        let dt = match rng.next_u64() % 4 {
                            0 => 0,                           // same time as `now`
                            1 => rng.next_u64() % 100,        // sub-ns
                            2 => rng.next_u64() % 100_000,    // ~100 ns
                            _ => rng.next_u64() % 50_000_000, // ~50 µs
                        };
                        let t = now + SimTime::from_ps(dt);
                        q.push(t, id);
                        scan.push(t, id);
                        id += 1;
                    }
                    // 10%: push far-future (100 ms to 1.1 s out).
                    6 => {
                        let t = now + SimTime::from_us(100_000 + rng.next_u64() % 1_000_000);
                        q.push(t, id);
                        scan.push(t, id);
                        id += 1;
                    }
                    // 30%: pop.
                    _ => {
                        assert_eq!(q.peek_time(), scan.peek_time(), "seed {seed}");
                        let (h, s) = (q.pop(), scan.pop());
                        assert_eq!(h, s, "seed {seed}");
                        if let Some((t, _)) = h {
                            now = t;
                        }
                    }
                }
                assert_eq!(q.len(), scan.items.len(), "seed {seed}");
            }
            // Drain: the full remaining order must match.
            loop {
                let (h, s) = (q.pop(), scan.pop());
                assert_eq!(h, s, "seed {seed} drain");
                if h.is_none() {
                    break;
                }
            }
        }
    }

    /// Dense bursts: hundreds of events inside 4 ns, several at exactly
    /// the same time, popped in `(time, insertion)` order.
    #[test]
    fn dense_bursts_stay_fifo() {
        let mut rng = SplitMix64::new(42);
        let mut q = EventQueue::new();
        let base = SimTime::from_us(3);
        let mut expect = Vec::new();
        for i in 0..500u32 {
            let t = base + SimTime::from_ps(rng.next_u64() % 4_000);
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i)); // seq == insertion index
        let got: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }
}
