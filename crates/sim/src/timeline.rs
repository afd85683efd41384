//! Busy-until resource timelines.
//!
//! A [`Timeline`] models a serial FIFO resource — a PCIe link
//! direction, a DMA engine issue port, a DRAM channel — as a
//! "busy-until" reservation horizon. A request arriving at time `t`
//! that occupies the resource for `d` starts at `max(t, busy_until)`
//! and finishes at `start + d`. For strictly FIFO resources this is an
//! *exact* queueing model, and it is what lets the simulator produce
//! correct bandwidth saturation behaviour without simulating every
//! cycle.

use crate::time::SimTime;

/// A serial FIFO resource with a busy-until horizon and utilisation
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy_until: SimTime,
    busy_accum: SimTime,
    reservations: u64,
    queue_accum: SimTime,
}

/// The outcome of a reservation: when service started and completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually began serving the request.
    pub start: SimTime,
    /// When the request finished occupying the resource.
    pub end: SimTime,
}

impl Timeline {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `duration`, for a request arriving at
    /// `arrival`. Returns the start/end of service.
    pub fn reserve(&mut self, arrival: SimTime, duration: SimTime) -> Reservation {
        let start = arrival.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy_accum += duration;
        self.reservations += 1;
        self.queue_accum += start.saturating_sub(arrival);
        Reservation { start, end }
    }

    /// Total time requests spent queued behind the resource.
    pub fn queue_time(&self) -> SimTime {
        self.queue_accum
    }

    /// The time at which the resource next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated over all reservations.
    pub fn busy_time(&self) -> SimTime {
        self.busy_accum
    }

    /// Number of reservations made.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Utilisation over `[0, horizon]`: busy time / horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_accum.as_ps() as f64 / horizon.as_ps() as f64
    }

    /// Resets the timeline to idle, clearing statistics.
    pub fn reset(&mut self) {
        *self = Timeline::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut tl = Timeline::new();
        let r = tl.reserve(ns(100), ns(10));
        assert_eq!(r.start, ns(100));
        assert_eq!(r.end, ns(110));
    }

    #[test]
    fn busy_resource_queues() {
        let mut tl = Timeline::new();
        tl.reserve(ns(0), ns(50));
        let r = tl.reserve(ns(10), ns(5));
        assert_eq!(r.start, ns(50));
        assert_eq!(r.end, ns(55));
    }

    #[test]
    fn gap_leaves_idle_time_unaccounted() {
        let mut tl = Timeline::new();
        tl.reserve(ns(0), ns(10));
        tl.reserve(ns(100), ns(10)); // 90ns idle gap
        assert_eq!(tl.busy_time(), ns(20));
        assert_eq!(tl.busy_until(), ns(110));
        assert!((tl.utilization(ns(110)) - 20.0 / 110.0).abs() < 1e-12);
        assert_eq!(tl.reservations(), 2);
    }

    #[test]
    fn back_to_back_saturates() {
        // 1000 reservations of 10ns arriving all at t=0 must finish at
        // exactly 10us: the FIFO model is work-conserving.
        let mut tl = Timeline::new();
        let mut last = Reservation {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        };
        for _ in 0..1000 {
            last = tl.reserve(SimTime::ZERO, ns(10));
        }
        assert_eq!(last.end, SimTime::from_us(10));
        assert!((tl.utilization(last.end) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_time_accumulates() {
        let mut tl = Timeline::new();
        tl.reserve(ns(0), ns(50));
        tl.reserve(ns(10), ns(5)); // waits 40ns
        tl.reserve(ns(55), ns(5)); // no wait
        assert_eq!(tl.queue_time(), ns(40));
    }

    #[test]
    fn reset_idles_the_resource() {
        let mut tl = Timeline::new();
        tl.reserve(ns(0), ns(10));
        tl.reset();
        assert_eq!(tl.busy_until(), SimTime::ZERO);
        assert_eq!(tl.busy_time(), SimTime::ZERO);
    }
}
