//! The serving harness `FlowEngine` and `pcie-rpc`'s `RpcEngine`
//! share: steer → fan out → merge → audit.
//!
//! An engine generates its whole run sequentially, steering each
//! arrival onto a queue's [`Schedules`]; [`Schedules::run`] simulates
//! every queue over a private platform on a `pcie-par` pool, and the
//! reports are read in queue order ([`merged`], [`RunTotals`]). So
//! pool width is unobservable: `threads:1` and `threads:N` runs are
//! bit-identical. Each queue simulation ends with [`QueueRun::audit`].

use crate::rss::{Rss, INDIRECTION_ENTRIES};
use pcie_par::Pool;
use pcie_sim::SimTime;
use pcie_telemetry::{LatencyHistogram, StageSet, StageStats};

/// Checks a queue count: 1 to [`INDIRECTION_ENTRIES`]. The RSS
/// indirection table deals its entries to the queues round-robin, so
/// a queue past the last entry would never be offered anything.
pub fn check_queues(queues: u32) -> Result<(), String> {
    if queues == 0 || queues as usize > INDIRECTION_ENTRIES {
        return Err(format!(
            "queues {queues} out of range 1..={INDIRECTION_ENTRIES}"
        ));
    }
    Ok(())
}

/// What the harness reads of one queue's report.
pub trait QueueRun {
    /// The stages the queue attributes latency to.
    type Stage: StageSet;
    /// Queue number (RSS indirection target).
    fn queue(&self) -> u32;
    /// Arrivals steered to the queue, drops included.
    fn offered(&self) -> u64;
    /// Arrivals served to the end of the pipeline.
    fn served(&self) -> u64;
    /// Arrivals dropped on a full ring (open loop).
    fn dropped(&self) -> u64;
    /// Virtual time from the first arrival to the last event.
    fn elapsed(&self) -> SimTime;
    /// Per-stage latency attribution of the served arrivals.
    fn stages(&self) -> &StageStats<Self::Stage>;

    /// End-to-end latency histogram of the served arrivals.
    fn e2e(&self) -> &LatencyHistogram {
        self.stages().end_to_end()
    }

    /// The conservation laws a queue run keeps: offered = served +
    /// dropped, one stage sample per served arrival, and stage totals
    /// that add up to the end-to-end total within rounding (each
    /// arrival's stages are differences of its own timestamps).
    ///
    /// # Panics
    /// On a broken law, naming the law and the queue.
    fn audit(&self) {
        let q = self.queue();
        let (offered, served, dropped) = (self.offered(), self.served(), self.dropped());
        assert!(
            offered == served + dropped,
            "queue {q} breaks offered = served + dropped: {offered} != {served} + {dropped}"
        );
        let samples = self.stages().count();
        assert!(
            samples == served,
            "queue {q} breaks stage samples = served: {samples} != {served}"
        );
        let grand = self.stages().grand_total_ns();
        let e2e = self.e2e().total_ns();
        assert!(
            (grand - e2e).abs() <= 1e-6 * grand.max(1.0),
            "queue {q} breaks stage totals = end-to-end total: {grand} vs {e2e} ns"
        );
    }
}

/// A run's per-queue schedules, in arrival order, and its last
/// arrival.
#[derive(Debug, PartialEq)]
pub struct Schedules<T> {
    per_queue: Vec<Vec<T>>,
    window: SimTime,
}

impl<T> Schedules<T> {
    /// Empty schedules over `rss`'s queues for a run of `items`
    /// arrivals, each reserved once at an even share plus a sixteenth,
    /// plus 64. Over the even indirection table a queue's share strays
    /// from even by about 1 % at the engines' scales (`flow_rx`'s
    /// fullest queue holds 0.8 % more than an even share of 1 M
    /// packets), so no schedule regrows, and headroom a queue never
    /// writes is never made resident.
    pub fn new(rss: &Rss, items: u64) -> Self {
        let share = usize::try_from(items / u64::from(rss.queues())).unwrap_or(usize::MAX);
        let reserve = share.saturating_add(share / 16).saturating_add(64);
        Schedules {
            per_queue: (0..rss.queues())
                .map(|_| Vec::with_capacity(reserve))
                .collect(),
            window: SimTime::ZERO,
        }
    }

    /// Appends the next arrival, `item` at `at`, to `queue`'s schedule.
    pub fn push(&mut self, queue: u16, at: SimTime, item: T) {
        self.window = at;
        self.per_queue[usize::from(queue)].push(item);
    }

    /// Arrivals steered to each queue.
    pub fn lens(&self) -> Vec<u64> {
        self.per_queue.iter().map(|s| s.len() as u64).collect()
    }

    /// Time of the last arrival (the offered window).
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Runs `serve(queue, schedule)` for every queue on `pool`, each in
    /// the worker that runs its queue; reports come back in queue order.
    pub fn run<R, F>(&self, pool: &Pool, serve: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(u32, &[T]) -> R + Sync,
    {
        pool.run(self.per_queue.len(), |q| {
            serve(q as u32, &self.per_queue[q])
        })
    }
}

/// Queue 0's `part` with every later queue's merged in, in queue
/// order: exact whole-run totals and quantiles.
pub fn merged<R, T: Clone>(queues: &[R], part: impl Fn(&R) -> &T, merge: impl Fn(&mut T, &T)) -> T {
    let (first, rest) = queues.split_first().expect("a run has a queue");
    let mut all = part(first).clone();
    for q in rest {
        merge(&mut all, part(q));
    }
    all
}

/// A run report's totals, rates and RSS shares, read from its
/// per-queue reports. The reports also keep `offered`, `dropped` and
/// their served count as inherent methods, for callers without it.
pub trait RunTotals {
    /// The per-queue report.
    type Queue: QueueRun;
    /// Per-queue reports, in queue order.
    fn queues(&self) -> &[Self::Queue];
    /// Time of the last arrival (the offered window).
    fn window(&self) -> SimTime;

    /// Arrivals offered across all queues.
    fn offered(&self) -> u64 {
        self.queues().iter().map(QueueRun::offered).sum()
    }

    /// Arrivals served across all queues.
    fn served(&self) -> u64 {
        self.queues().iter().map(QueueRun::served).sum()
    }

    /// Arrivals dropped across all queues.
    fn dropped(&self) -> u64 {
        self.queues().iter().map(QueueRun::dropped).sum()
    }

    /// Fraction of offered arrivals dropped.
    fn drop_rate(&self) -> f64 {
        ratio(self.dropped(), self.offered())
    }

    /// Virtual time to drain every queue: the largest per-queue
    /// elapsed time.
    fn elapsed(&self) -> SimTime {
        let each = self.queues().iter().map(QueueRun::elapsed);
        each.fold(SimTime::ZERO, SimTime::max)
    }

    /// Offered rate over the window, millions per second.
    fn offered_mps(&self) -> f64 {
        per_us(self.offered(), self.window())
    }

    /// Served rate over the drain time, millions per second.
    fn served_mps(&self) -> f64 {
        per_us(self.served(), self.elapsed())
    }

    /// Fewest and most arrivals offered to one queue.
    fn offered_range(&self) -> (u64, u64) {
        let each = || self.queues().iter().map(QueueRun::offered);
        (each().min().unwrap_or(0), each().max().unwrap_or(0))
    }

    /// Smallest and largest per-queue shares of offered arrivals
    /// (1/queues is perfectly fair).
    fn share_range(&self) -> (f64, f64) {
        let ((lo, hi), all) = (self.offered_range(), self.offered());
        (ratio(lo, all), ratio(hi, all))
    }
}

/// `n / of`, or 0 of nothing.
fn ratio(n: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

/// `n` per microsecond of `span` (millions per second); 0 over an
/// empty span.
fn per_us(n: u64, span: SimTime) -> f64 {
    let secs = span.as_secs_f64();
    if secs > 0.0 {
        n as f64 / secs / 1e6
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_telemetry::{RpcStage, StageSample};

    /// A queue report whose counts and ledgers a test sets at will.
    struct Fake {
        offered: u64,
        served: u64,
        dropped: u64,
        stages: StageStats<RpcStage>,
        /// Stands in for the stages' own end-to-end histogram.
        e2e: LatencyHistogram,
    }

    impl Fake {
        /// A queue that kept every law: 10 offered, 8 served.
        fn lawful() -> Fake {
            let mut stages = StageStats::new();
            let mut sample = StageSample::default();
            sample
                .set(RpcStage::Steer, 25.0)
                .set(RpcStage::AccelService, 400.0);
            for _ in 0..8 {
                stages.record(&sample);
            }
            let e2e = stages.end_to_end().clone();
            Fake {
                offered: 10,
                served: 8,
                dropped: 2,
                stages,
                e2e,
            }
        }
    }

    impl QueueRun for Fake {
        type Stage = RpcStage;
        fn queue(&self) -> u32 {
            7
        }
        fn offered(&self) -> u64 {
            self.offered
        }
        fn served(&self) -> u64 {
            self.served
        }
        fn dropped(&self) -> u64 {
            self.dropped
        }
        fn elapsed(&self) -> SimTime {
            SimTime::ZERO
        }
        fn stages(&self) -> &StageStats<RpcStage> {
            &self.stages
        }
        fn e2e(&self) -> &LatencyHistogram {
            &self.e2e
        }
    }

    #[test]
    fn the_audit_names_each_broken_law_and_the_queue() {
        Fake::lawful().audit();
        type Break = fn(&mut Fake);
        let breaks: [(&str, Break); 3] = [
            ("offered = served + dropped", |f| f.dropped = 1),
            ("stage samples = served", |f| {
                f.served = 9;
                f.dropped = 1;
            }),
            ("stage totals = end-to-end total", |f| f.e2e.record_ns(1e3)),
        ];
        for (law, break_it) in breaks {
            let mut fake = Fake::lawful();
            break_it(&mut fake);
            let panic = std::panic::catch_unwind(|| fake.audit()).expect_err(law);
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.contains(&format!("queue 7 breaks {law}:")),
                "{law}: {msg}"
            );
        }
    }

    #[test]
    fn queue_counts_are_bounded_by_the_indirection_table() {
        for ok in [1, 2, 127, 128] {
            check_queues(ok).unwrap();
        }
        for bad in [0, 129, 256, u32::MAX] {
            let e = check_queues(bad).unwrap_err();
            assert!(e.contains("1..=128"), "{bad}: {e}");
        }
    }
}
