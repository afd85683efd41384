//! One RX queue: an open-loop, RX-terminating driver simulation.
//!
//! Each RSS queue owns a descriptor ring, a completion ring, a packet
//! buffer and a dedicated service core, and is driven by the packet
//! schedule the engine steered to it. The device side is
//! `pcie_drivers::DriverSim`'s own RX ring path
//! ([`RxPath`]) — payload DMA writes, completion write-backs,
//! descriptor fetches and doorbells through the full link/host model —
//! but the path terminates at the application (no TX echo): the engine
//! measures *ingest* capacity and tail latency per queue, which is
//! what RSS fans out.
//!
//! Telemetry telescopes over four of the six driver stages
//! (`rx_dma → notify → rx_sw → app`; the TX stages record zero), so
//! per-queue breakdowns remain comparable with the driver zoo's.

use pcie_device::Platform;
use pcie_drivers::rx::{poll_tick_at_or_after, Refill, RxOutcome, RxPath, RX_SLOTS, SLOT_BYTES};
use pcie_drivers::{DriverConfig, DriverPattern};
use pcie_sim::{EventQueue, SimTime};
use pcie_telemetry::{CounterGroup, DriverStage, LatencyHistogram, StageSample, StageStats};

/// Per-queue software service costs and ring geometry.
///
/// The queue core busy-polls its completion ring on a fixed iteration
/// grid and spends `rx_sw + app` per delivered packet; the knobs are
/// the subset of [`DriverConfig`] that matters for an RX-terminating
/// path, so [`ServiceModel::from_driver`] can borrow any zoo
/// pattern's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Cost of one poll-loop iteration (also the notification
    /// granularity: a packet is noticed by the first iteration at or
    /// after its host-memory visibility).
    pub poll_iter: SimTime,
    /// Max packets drained per poll iteration.
    pub burst: u32,
    /// Per-packet driver RX software cost.
    pub rx_sw: SimTime,
    /// Per-packet application cost.
    pub app: SimTime,
    /// Buffers consumed before the driver posts a refill batch.
    pub refill_batch: u32,
    /// RX and completion ring capacity in slots.
    pub ring_size: u32,
}

impl Default for ServiceModel {
    /// DPDK-flavoured defaults (`DriverConfig::default`'s poll/burst/
    /// refill knobs with the `dpdk_rx` software cost).
    fn default() -> Self {
        ServiceModel::from_driver(DriverPattern::DpdkPoll, &DriverConfig::default())
    }
}

impl ServiceModel {
    /// Derives a service model from a driver-zoo pattern's constants.
    ///
    /// Polling patterns keep their iteration grid; interrupt-driven
    /// patterns are approximated as pollers whose iteration cost is
    /// the hardirq entry latency — the coarser notification grid is
    /// what matters for an RX-only path, not the MSI write itself.
    pub fn from_driver(pattern: DriverPattern, cfg: &DriverConfig) -> ServiceModel {
        let (poll_iter, rx_sw) = match pattern {
            DriverPattern::KernelIrq => (cfg.irq_entry, cfg.kernel_rx),
            DriverPattern::DpdkPoll => (cfg.poll_iter, cfg.dpdk_rx),
            DriverPattern::AfXdp => (cfg.poll_iter, cfg.xdp_verdict + cfg.afxdp_rx),
            DriverPattern::IoUring => (cfg.irq_entry, cfg.iouring_cqe),
        };
        ServiceModel {
            poll_iter,
            burst: cfg.burst,
            rx_sw,
            app: cfg.app,
            refill_batch: cfg.refill_batch,
            ring_size: cfg.ring_size,
        }
    }

    /// Per-packet service capacity of one queue core, packets per
    /// second (ignores poll and refill overhead, so it is an upper
    /// bound — the saturation knee sits slightly below it).
    pub fn capacity_pps(&self) -> f64 {
        1e9 / (self.rx_sw + self.app).as_ns_f64().max(1.0)
    }

    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.ring_size < 2 || self.ring_size > 1024 {
            return Err(format!(
                "ring_size {} out of range 2..=1024",
                self.ring_size
            ));
        }
        if self.burst == 0 || self.refill_batch == 0 {
            return Err("burst and refill_batch must be nonzero".into());
        }
        if self.poll_iter == SimTime::ZERO {
            return Err("poll_iter must be nonzero".into());
        }
        Ok(())
    }
}

/// One steered packet: arrival time on the wire and payload size.
///
/// A run's schedule holds one per offered packet, so the record is
/// packed to 12 bytes: aligned to 8, it would carry 4 bytes of padding.
/// Read its fields by value; a reference to `at` would be unaligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct QueuedPacket {
    /// Wire arrival time.
    pub at: SimTime,
    /// Payload bytes.
    pub size: u32,
}

/// Event counters for one queue's run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Packets steered to this queue (arrivals, including drops).
    pub offered: u64,
    /// Packets delivered to the application.
    pub delivered: u64,
    /// Packets dropped for lack of a posted RX buffer (open loop:
    /// the wire does not wait).
    pub dropped: u64,
    /// Payload bytes offered.
    pub bytes_offered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Poll iterations that found at least one packet.
    pub polls: u64,
    /// Poll iterations that found nothing.
    pub empty_polls: u64,
    /// Doorbell (PIO) writes.
    pub doorbells: u64,
    /// Refill batches posted.
    pub refills: u64,
}

/// Result of one [`QueueSim::run`].
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Queue number (RSS indirection target).
    pub queue: u32,
    /// Event counters.
    pub counters: QueueCounters,
    /// Per-stage latency attribution for delivered packets (TX
    /// stages are zero on this RX-terminating path).
    pub stages: StageStats<DriverStage>,
    /// Virtual time from first arrival to last delivery/DMA.
    pub elapsed: SimTime,
    /// High-water mark of RX descriptor-ring occupancy.
    pub ring_peak: u32,
}

impl QueueReport {
    /// Delivered packets per second, in millions.
    pub fn mpps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.counters.delivered as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Fraction of offered packets dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.counters.offered == 0 {
            0.0
        } else {
            self.counters.dropped as f64 / self.counters.offered as f64
        }
    }

    /// End-to-end (arrival → application) latency histogram.
    pub fn e2e(&self) -> &LatencyHistogram {
        self.stages.end_to_end()
    }

    /// 99th-percentile end-to-end latency, ns.
    pub fn p99_ns(&self) -> f64 {
        self.e2e().quantile_ns(0.99)
    }

    /// 99.9th-percentile end-to-end latency, ns.
    pub fn p999_ns(&self) -> f64 {
        self.e2e().quantile_ns(0.999)
    }

    /// Counters as the `flows.queue<N>` telemetry group.
    pub fn telemetry_group(&self) -> CounterGroup {
        let c = &self.counters;
        let mut g = CounterGroup::new(format!("flows.queue{}", self.queue));
        g.push("offered", c.offered)
            .push("delivered", c.delivered)
            .push("dropped", c.dropped)
            .push("bytes_offered", c.bytes_offered)
            .push("bytes_delivered", c.bytes_delivered)
            .push("polls", c.polls)
            .push("empty_polls", c.empty_polls)
            .push("doorbells", c.doorbells)
            .push("refills", c.refills)
            .push("ring_peak", u64::from(self.ring_peak))
            .push("p99_ns", self.p99_ns() as u64)
            .push("p999_ns", self.p999_ns() as u64);
        g
    }
}

/// One RX queue bound to its own platform. Build, [`QueueSim::run`]
/// the steered schedule, read the report.
pub struct QueueSim {
    queue: u32,
    model: ServiceModel,
    platform: Platform,
    rx: RxPath,
    /// Refill phases not yet issued to the platform (deferred
    /// issuance, as in `DriverSim`).
    refills: EventQueue<Refill>,
    cpu_free: SimTime,
    next_poll: SimTime,
    counters: QueueCounters,
    stages: StageStats<DriverStage>,
    done_max: SimTime,
    /// Packets accepted so far: picks each one's buffer slot.
    rx_seq: u32,
}

impl QueueSim {
    /// Builds queue `queue` of a multi-queue NIC over a freshly
    /// constructed `platform`, posts the initial fill, and leaves the
    /// queue ready for traffic.
    ///
    /// # Panics
    /// On an invalid [`ServiceModel`].
    pub fn new(queue: u32, model: ServiceModel, mut platform: Platform) -> QueueSim {
        model.validate().expect("invalid service model");
        // 2 MiB of RX slots; the CQ is as deep as the RX ring, so it
        // never overflows.
        let pkt_buf_bytes = u64::from(RX_SLOTS) * SLOT_BYTES;
        let (rx, fill_done) = RxPath::new(
            &mut platform,
            pkt_buf_bytes,
            model.ring_size,
            model.ring_size,
        );
        QueueSim {
            queue,
            model,
            platform,
            rx,
            refills: EventQueue::new(),
            cpu_free: SimTime::ZERO,
            next_poll: SimTime::ZERO,
            // The initial fill's tail write.
            counters: QueueCounters {
                doorbells: 1,
                ..QueueCounters::default()
            },
            stages: StageStats::new(),
            done_max: fill_done,
            rx_seq: 0,
        }
    }

    /// Offers `packets` (non-decreasing arrival times) to the queue
    /// and drains everything, consuming the simulation.
    ///
    /// # Panics
    /// Panics if arrival times decrease.
    pub fn run(mut self, packets: &[QueuedPacket]) -> QueueReport {
        let mut arrivals = packets.iter().peekable();
        let mut last = SimTime::ZERO;
        loop {
            // Everything due by the next arrival runs first, in time
            // order; once the schedule is exhausted everything drains.
            // Scheduled refill phases win ties with service rounds (they
            // were decided by earlier rounds), which win ties with the
            // arrival.
            let until = arrivals.peek().map_or(SimTime::MAX, |p| p.at);
            let trigger = self.next_service_time().filter(|&t| t <= until);
            if let Some((at, refill)) = self.refills.pop_before(trigger.unwrap_or(until)) {
                self.issue(at, refill);
            } else if let Some(t) = trigger {
                self.service(t);
            } else if let Some(p) = arrivals.next() {
                let at = p.at;
                assert!(at >= last, "arrivals must be time-ordered");
                last = at;
                self.arrive(p);
            } else {
                break;
            }
        }
        QueueReport {
            queue: self.queue,
            counters: self.counters,
            elapsed: self.done_max,
            ring_peak: self.rx.rx_ring().max_used(),
            stages: self.stages,
        }
    }

    /// Read access to the underlying platform (for snapshots).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// One packet off the wire: into a posted buffer, or dropped when
    /// none is posted (open loop: the wire does not wait).
    fn arrive(&mut self, p: &QueuedPacket) {
        self.rx.apply_refills(p.at);
        if self.refills.is_empty() {
            // Quiescent gap: raise the queue's scheduled-in-the-past
            // watermark to the arrival, so a refill wrongly scheduled
            // before it panics.
            self.refills.fast_forward(p.at);
        }
        self.counters.offered += 1;
        self.counters.bytes_offered += u64::from(p.size);
        if self.rx.buffers_avail() == 0 {
            self.counters.dropped += 1;
            return;
        }
        match self
            .rx
            .device_rx(&mut self.platform, p.at, p.size, self.rx_seq)
        {
            RxOutcome::Visible(hw) => self.done_max = self.done_max.max(hw),
            RxOutcome::CqOverflow(_) => unreachable!("the CQ is as deep as the RX ring"),
        }
        self.rx_seq = self.rx_seq.wrapping_add(1);
    }

    // ----- driver side ---------------------------------------------

    /// The first poll-grid tick that notices the oldest pending
    /// packet, or `None` if nothing is pending.
    fn next_service_time(&self) -> Option<SimTime> {
        let first = self.rx.pending().front()?;
        let base = self.next_poll.max(self.cpu_free);
        Some(poll_tick_at_or_after(base, self.model.poll_iter, first.hw))
    }

    /// One poll round at `t`: drain up to `burst` visible packets.
    fn service(&mut self, t: SimTime) {
        self.rx.apply_refills(t);
        let base = self.next_poll.max(self.cpu_free);
        if t > base {
            let gap = t.saturating_sub(base).as_ns();
            self.counters.empty_polls += gap / self.model.poll_iter.as_ns().max(1);
        }
        self.counters.polls += 1;
        let aware = t + self.model.poll_iter;
        let start = aware.max(self.cpu_free);

        let mut served = 0u32;
        let mut now = start;
        while served < self.model.burst {
            let Some(p) = self.rx.take_visible(start) else {
                break;
            };
            let proc_done = now + self.model.rx_sw;
            let app_done = proc_done + self.model.app;
            now = app_done;
            let mut sample = StageSample::default();
            sample
                .set(DriverStage::RxDma, p.hw.ns_since(p.arr))
                .set(DriverStage::Notify, aware.ns_since(p.hw))
                .set(DriverStage::RxSoftware, proc_done.ns_since(aware))
                .set(DriverStage::App, app_done.ns_since(proc_done));
            self.stages.record(&sample);
            self.counters.delivered += 1;
            self.counters.bytes_delivered += u64::from(p.size);
            self.done_max = self.done_max.max(app_done);
            served += 1;
        }
        debug_assert!(served > 0, "service round found nothing");
        self.cpu_free = now;
        self.next_poll = now;

        // Buffers return only after their packets are processed.
        if let Some(n) = self.rx.release(served, self.model.refill_batch) {
            self.refills
                .push_labeled(self.cpu_free, "queue-refill", Refill::Post { n });
        }
    }

    /// Issues one scheduled refill phase at its event time `at`; all
    /// platform calls carry `want == at`. The refill doorbell is a
    /// tail write: the device learns of the batch when it lands.
    fn issue(&mut self, at: SimTime, refill: Refill) {
        match refill {
            Refill::Post { n } => {
                self.counters.refills += 1;
                let first = self.rx.post_refill(n);
                self.counters.doorbells += 1;
                let fetch_at = self.platform.pio_write(at, 4);
                self.refills
                    .push_labeled(fetch_at, "queue-refill", Refill::Fetch { first, n });
            }
            Refill::Fetch { first, n } => {
                self.rx.fetch_refill(&mut self.platform, at, first, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_telemetry::StageSet;
    use pciebench::BenchSetup;

    fn platform() -> Platform {
        BenchSetup::nfp6000_hsw().build_nic_platform()
    }

    fn paced(n: usize, gap_ns: u64, size: u32) -> Vec<QueuedPacket> {
        (0..n as u64)
            .map(|i| QueuedPacket {
                at: SimTime::from_ns(i * gap_ns),
                size,
            })
            .collect()
    }

    #[test]
    fn underload_delivers_everything() {
        let sim = QueueSim::new(0, ServiceModel::default(), platform());
        // 2 Mpps against an ~11 Mpps core: zero drops.
        let r = sim.run(&paced(5_000, 500, 128));
        assert_eq!(r.counters.offered, 5_000);
        assert_eq!(r.counters.delivered, 5_000);
        assert_eq!(r.counters.dropped, 0);
        assert!(r.mpps() > 1.0);
        assert!(r.p99_ns() > 0.0);
        assert!(r.p999_ns() >= r.p99_ns());
    }

    #[test]
    fn overload_drops_open_loop() {
        let model = ServiceModel::default();
        let sim = QueueSim::new(0, model, platform());
        // Offer ~3x the service capacity: the ring must fill and the
        // excess must drop, with exact accounting.
        let gap = ((model.rx_sw + model.app).as_ns() / 3).max(1);
        let r = sim.run(&paced(20_000, gap, 128));
        assert_eq!(r.counters.offered, 20_000);
        assert!(r.counters.dropped > 5_000, "dropped {}", r.counters.dropped);
        assert_eq!(
            r.counters.delivered + r.counters.dropped,
            r.counters.offered
        );
        // The ring keeps a one-slot producer/consumer gap, so the
        // fullest it gets is capacity - 1.
        assert_eq!(r.ring_peak, model.ring_size - 1, "ring hit its capacity");
    }

    #[test]
    fn stage_sums_telescope_with_zero_tx() {
        let sim = QueueSim::new(0, ServiceModel::default(), platform());
        let r = sim.run(&paced(2_000, 300, 256));
        let grand = r.stages.grand_total_ns();
        let per_stage: f64 = DriverStage::ALL.iter().map(|&s| r.stages.total_ns(s)).sum();
        assert!((grand - per_stage).abs() < 1e-6 * grand.max(1.0));
        assert_eq!(r.stages.total_ns(DriverStage::TxPost), 0.0);
        assert_eq!(r.stages.total_ns(DriverStage::TxDma), 0.0);
        assert_eq!(r.stages.count(), 2_000);
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let run =
            || QueueSim::new(3, ServiceModel::default(), platform()).run(&paced(3_000, 120, 64));
        let (a, b) = (run(), run());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.e2e(), b.e2e());
    }

    #[test]
    fn from_driver_patterns_rank_sensibly() {
        let cfg = DriverConfig::default();
        let dpdk = ServiceModel::from_driver(DriverPattern::DpdkPoll, &cfg);
        let kern = ServiceModel::from_driver(DriverPattern::KernelIrq, &cfg);
        assert!(dpdk.capacity_pps() > kern.capacity_pps());
        dpdk.validate().unwrap();
        kern.validate().unwrap();
    }

    #[test]
    fn service_model_validation() {
        for m in [
            ServiceModel {
                ring_size: 1,
                ..ServiceModel::default()
            },
            ServiceModel {
                burst: 0,
                ..ServiceModel::default()
            },
            ServiceModel {
                poll_iter: SimTime::ZERO,
                ..ServiceModel::default()
            },
        ] {
            assert!(m.validate().is_err());
        }
    }
}
