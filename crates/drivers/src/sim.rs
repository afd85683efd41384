//! The driver simulation proper: one state machine, four patterns.
//!
//! [`DriverSim`] drives a live [`Platform`] (built via
//! `BenchSetup::build_nic_platform` in `pcie-core`) through the full
//! RX → software → TX echo path of a single-core driver. All four
//! [`DriverPattern`]s share the same device-side machinery — payload
//! DMA writes, completion write-backs, descriptor fetches, doorbells —
//! issued through the same `pcie-device` ports and credit gates as
//! every other simulation in the workspace. Only the *notification*
//! edge (MSI vs. memory polling) and the per-packet software costs
//! differ, so differences in the results are attributable to the
//! interaction pattern, not to a forked hot path.
//!
//! # Timing model
//!
//! The simulation is event-driven in virtual time. Each delivered
//! packet walks six telescoping stages (see
//! `pcie_telemetry::DriverStage`):
//!
//! 1. `rx_dma` — wire arrival to host-memory visibility (payload +
//!    completion write-back absorbed by the root complex).
//! 2. `notify` — visibility to driver awareness: MSI delivery +
//!    hardirq entry (+ optional register read) for interrupt-driven
//!    patterns; residual poll-loop latency for busy pollers.
//! 3. `rx_sw` — driver RX processing, serialised on the one core
//!    (skb / mbuf / XDP verdict / CQE reap).
//! 4. `app` — application turnaround, including the payload copy for
//!    patterns without zero-copy delivery.
//! 5. `tx_post` — TX descriptor publish to doorbell arrival at the
//!    device (doorbells are batched, so this includes batch wait).
//! 6. `tx_dma` — doorbell to TX payload read completion on the wire.
//!
//! The stage sums reconcile exactly with end-to-end latency per
//! packet (asserted in tests and by the `ext_drivers` benchmark).

use crate::config::{DriverConfig, DriverPattern, OfferedLoad};
use crate::rx::{poll_tick_at_or_after, Pending, Refill, RxOutcome, RxPath, RX_SLOTS, SLOT_BYTES};
use pcie_device::{DmaPath, Platform};
use pcie_sim::{EventQueue, SimTime, SplitMix64};
use pcie_telemetry::{CounterGroup, DriverStage, Snapshot, StageSample, StageStats};

use self::ring_offsets::{DESC_ENTRY, MSI_VECTOR_OFF, TXWB_OFF, TX_RING_OFF};

/// Descriptor-buffer layout constants shared by the simulation and its
/// documentation (DESIGN.md §10).
pub mod ring_offsets {
    /// RX/fill ring base offset within the descriptor buffer.
    pub const RX_RING_OFF: u64 = 0;
    /// TX ring base offset.
    pub const TX_RING_OFF: u64 = 16 * 1024;
    /// Completion ring base offset.
    pub const CQ_RING_OFF: u64 = 32 * 1024;
    /// MSI/MSI-X vector target address offset.
    pub const MSI_VECTOR_OFF: u64 = 48 * 1024;
    /// TX completion write-back cell offset.
    pub const TXWB_OFF: u64 = 48 * 1024 + 64;
    /// Descriptor entry size in bytes (16 B, the common hardware
    /// format: address + length + flags).
    pub const DESC_ENTRY: u32 = 16;
}

/// Time between device polls of a host-resident fill/buffer ring when
/// no doorbell is required (AF_XDP fill ring in need-wakeup mode with
/// entries available, io_uring registered buffer rings).
const FILL_POLL: SimTime = SimTime::from_ns(200);

/// Salt folded into the config seed (via [`SplitMix64::salted`]) so
/// the XDP verdict stream never collides with the fault, flow or
/// host-jitter stream families derived from the same master seed.
const DRIVER_STREAM_SALT: u64 = 0x000D_D1E7_5EED_0DD5;

/// Lifetime event counters for one simulation run. Every field is a
/// plain count; the set is exported as the `driver.<pattern>`
/// telemetry group by [`DriverSim::snapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverCounters {
    /// Packets offered by the MAC (arrivals, including drops).
    pub offered: u64,
    /// Packets delivered through the full RX → app → TX echo path.
    pub delivered: u64,
    /// Packets dropped for lack of a posted RX buffer (open-loop
    /// overload): the AF_XDP fill-ring underrun, the kernel freelist
    /// empty case.
    pub fill_underruns: u64,
    /// Packets whose payload was DMAed but whose completion was lost
    /// to a full completion queue (io_uring CQ overflow semantics).
    pub cq_overflows: u64,
    /// Packets dropped early by the XDP verdict (`XDP_DROP`) — these
    /// consumed PCIe bandwidth and verdict CPU but skipped delivery.
    pub early_drops: u64,
    /// MSI/MSI-X interrupts raised.
    pub irqs: u64,
    /// Interrupts fired because the frame-count threshold was met.
    pub coalesce_frame_fires: u64,
    /// Interrupts fired by the coalescing timer with a partial batch.
    pub coalesce_timer_fires: u64,
    /// Device register (PIO) reads by the driver.
    pub pio_reads: u64,
    /// Poll-loop iterations that found at least one packet.
    pub polls: u64,
    /// Poll-loop iterations that found nothing (pure CPU burn).
    pub empty_polls: u64,
    /// Doorbell (PIO) writes: TX tails and RX/fill tails.
    pub doorbells: u64,
    /// RX buffer refill batches posted.
    pub refills: u64,
    /// Explicit wakeup doorbells (AF_XDP `XDP_USE_NEED_WAKEUP` path:
    /// only rung when the device drained the fill ring).
    pub wakeups: u64,
    /// Completion-queue entries reaped by the driver (io_uring).
    pub cqes: u64,
    /// TX submission batches (one doorbell each).
    pub tx_batches: u64,
}

impl DriverCounters {
    /// All counters as a telemetry group named `driver.<pattern>`.
    pub fn telemetry_group(&self, pattern: DriverPattern) -> CounterGroup {
        let mut g = CounterGroup::new(format!("driver.{}", pattern.name()));
        g.push("offered", self.offered)
            .push("delivered", self.delivered)
            .push("fill_underruns", self.fill_underruns)
            .push("cq_overflows", self.cq_overflows)
            .push("early_drops", self.early_drops)
            .push("irqs", self.irqs)
            .push("coalesce_frame_fires", self.coalesce_frame_fires)
            .push("coalesce_timer_fires", self.coalesce_timer_fires)
            .push("pio_reads", self.pio_reads)
            .push("polls", self.polls)
            .push("empty_polls", self.empty_polls)
            .push("doorbells", self.doorbells)
            .push("refills", self.refills)
            .push("wakeups", self.wakeups)
            .push("cqes", self.cqes)
            .push("tx_batches", self.tx_batches);
        g
    }

    /// Total packets dropped (no-buffer + CQ overflow), excluding XDP
    /// early drops, which are a deliberate program verdict.
    pub fn dropped(&self) -> u64 {
        self.fill_underruns + self.cq_overflows
    }
}

/// Result of one [`DriverSim::run`].
#[derive(Debug, Clone, Copy)]
pub struct DriverRunResult {
    /// Pattern simulated.
    pub pattern: DriverPattern,
    /// Packet size in bytes.
    pub pkt_size: u32,
    /// Packets offered.
    pub offered: u64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Packets dropped (buffer exhaustion + CQ overflow).
    pub dropped: u64,
    /// Packets dropped early by the XDP verdict.
    pub early_drops: u64,
    /// Virtual time from first arrival to last TX completion.
    pub elapsed: SimTime,
    /// Delivered packets per second, in millions.
    pub mpps: f64,
    /// Delivered payload rate in Gb/s.
    pub gbps: f64,
    /// Mean end-to-end latency (arrival to TX wire completion), ns.
    pub mean_ns: f64,
    /// Median end-to-end latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: f64,
}

/// A processed packet awaiting TX issuance, with its stage boundaries.
#[derive(Debug, Clone, Copy)]
struct TxItem {
    p: Pending,
    /// When the driver became aware of the packet (notify end).
    aware: SimTime,
    /// RX software processing end.
    proc_done: SimTime,
    /// Application echo end.
    app_done: SimTime,
}

/// One phase of a driver/device interaction whose platform
/// transactions have not been issued yet.
///
/// The platform's issue ports and wire timelines are FIFO: a
/// transaction issued *out of call order* at a future want time pushes
/// every later-issued earlier-want transaction behind it, which under
/// load compounds into unbounded artificial queueing. Driver and
/// device follow-on actions (TX batches, refills) are therefore
/// *scheduled* when decided and *issued* phase by phase, each phase's
/// platform calls carrying a want time equal to the phase's own event
/// time — the same "issue at or behind now" discipline as `NicSim`'s
/// lag, generalised to an event queue (see
/// [`EventQueue::pop_before`]). RX refill phases share the queue, so
/// they keep their FIFO tie order with the TX phases.
///
/// Each TX batch owns its item buffer from `TxDoorbell` to
/// `TxPayload`, because batches need not reach `TxPayload` in batch
/// order: a longer descriptor read can finish after a shorter one
/// issued later. The buffers come from, and go back to,
/// `DriverSim::tx_spare`, so a run allocates them only while the
/// number of batches in flight, or a batch's length, reaches a new
/// peak.
#[derive(Debug, Clone)]
enum Deferred {
    /// Driver publishes TX descriptors and rings the doorbell.
    TxDoorbell {
        /// The batch, in processing order.
        items: Vec<TxItem>,
    },
    /// The doorbell has arrived; the device fetches the descriptors.
    TxDescFetch {
        /// Doorbell arrival at the device (TX-post stage boundary).
        db_arr: SimTime,
        /// First TX ring slot of the batch.
        first: u32,
        /// The batch, carried through to completion.
        items: Vec<TxItem>,
    },
    /// Descriptors fetched; the device streams the payload reads and
    /// the packets leave on the wire.
    TxPayload {
        /// Doorbell arrival (TX-DMA stage base).
        db_arr: SimTime,
        /// The batch, carried through to completion.
        items: Vec<TxItem>,
    },
    /// Coalesced TX completion write-back retiring `n` descriptors.
    TxWriteback {
        /// Descriptors to retire.
        n: u32,
    },
    /// An RX refill phase.
    Refill(Refill),
}

/// A driver interaction-pattern simulation bound to a platform.
///
/// Build one per (pattern, config) pair, call [`DriverSim::run`], then
/// [`DriverSim::snapshot`] for telemetry. Runs accumulate: a second
/// `run` continues on warm rings and merged histograms, which is
/// intended for multi-size sweeps that want combined stats; build a
/// fresh sim for independent measurements.
pub struct DriverSim {
    /// The pattern being simulated.
    pub pattern: DriverPattern,
    /// The knobs in force.
    pub cfg: DriverConfig,
    platform: Platform,
    /// The RX ring path: packet buffer (RX slots in the lower half,
    /// TX in the upper, 2 KiB each), descriptor buffer (rings + MSI
    /// vector, see [`ring_offsets`]), RX and completion rings.
    rx: RxPath,
    /// TX ring (driver produces, device consumes).
    tx_ring: pcie_nic::DescriptorRing,
    /// Scheduled interaction phases not yet issued to the platform,
    /// on the simulator's event queue: time-ordered with FIFO
    /// tie-breaking (see [`Deferred`]), with the queue's
    /// scheduled-in-the-past check guarding the driver's event logic.
    deferred: EventQueue<Deferred>,
    /// When the driver core becomes free.
    cpu_free: SimTime,
    /// Earliest next poll-loop iteration (busy-polling patterns).
    next_poll: SimTime,
    /// Payload size of the in-progress [`DriverSim::run`].
    run_pkt_size: u32,
    /// Event counters.
    pub counters: DriverCounters,
    /// Per-stage latency attribution for delivered packets.
    pub stages: StageStats<DriverStage>,
    /// XDP verdict stream (forked from the config seed).
    rng: SplitMix64,
    /// Latest TX wire completion.
    done_max: SimTime,
    slot_scratch: Vec<u32>,
    /// Empty TX batch buffers (see [`Deferred`]): `service` takes one,
    /// `TxPayload` clears it and puts it back.
    tx_spare: Vec<Vec<TxItem>>,
}

impl DriverSim {
    /// Builds a simulation of `pattern` with knobs `cfg` over a
    /// freshly constructed `platform` (use
    /// `BenchSetup::build_nic_platform` from `pcie-core`).
    ///
    /// # Panics
    /// On an invalid config (see [`DriverConfig::validate`]).
    pub fn new(pattern: DriverPattern, cfg: DriverConfig, mut platform: Platform) -> Self {
        cfg.validate().expect("invalid driver config");
        let cq_size = match pattern {
            DriverPattern::IoUring => cfg.cq_size,
            _ => cfg.ring_size,
        };
        // 4 MiB: RX slots in the lower half, TX slots in the upper.
        let pkt_buf_bytes = 2 * u64::from(RX_SLOTS) * SLOT_BYTES;
        let (rx, fill_done) = RxPath::new(&mut platform, pkt_buf_bytes, cfg.ring_size, cq_size);
        let tx_ring =
            pcie_nic::DescriptorRing::new(rx.desc_buf(), TX_RING_OFF, DESC_ENTRY, cfg.ring_size);
        DriverSim {
            pattern,
            cfg,
            platform,
            rx,
            tx_ring,
            deferred: EventQueue::new(),
            cpu_free: SimTime::ZERO,
            next_poll: SimTime::ZERO,
            run_pkt_size: 0,
            // The initial fill's tail write.
            counters: DriverCounters {
                doorbells: 1,
                ..DriverCounters::default()
            },
            stages: StageStats::new(),
            rng: SplitMix64::salted(cfg.seed, DRIVER_STREAM_SALT).fork(),
            done_max: fill_done,
            slot_scratch: Vec::with_capacity(1024),
            tx_spare: Vec::new(),
        }
    }

    /// Offers `n` packets of `pkt_size` bytes under the configured
    /// load and echoes delivered ones back out the TX path.
    pub fn run(&mut self, pkt_size: u32, n: u32) -> DriverRunResult {
        assert!((60..=2048).contains(&pkt_size), "unrealistic packet");
        assert!(n > 0);
        self.run_pkt_size = pkt_size;
        let wire = SimTime::from_ns_f64(pkt_size as f64 * 8.0 / self.cfg.mac_gbps);
        let inter = match self.cfg.load {
            OfferedLoad::Saturate => wire,
            OfferedLoad::OpenLoopGbps(g) => {
                SimTime::from_ns_f64(pkt_size as f64 * 8.0 / g).max(wire)
            }
        };
        let mut next_arr = SimTime::ZERO;
        for i in 0..n {
            let mut arr = next_arr;
            self.advance_driver(arr);
            self.rx.apply_refills(arr);
            if self.deferred.is_empty() {
                // Quiescent: every interaction phase at or before `arr`
                // has been issued and nothing later is pending, and all
                // follow-on work is scheduled at ≥ the times it is
                // decided at (≥ `arr`). Declaring the gap raises the
                // queue's scheduled-in-the-past watermark to `arr`, so
                // a phase wrongly scheduled before it panics.
                self.deferred.fast_forward(arr);
            }
            if self.rx.buffers_avail() == 0 {
                match self.cfg.load {
                    OfferedLoad::OpenLoopGbps(_) => {
                        // Open loop: the wire does not wait. No posted
                        // buffer means the MAC drops the frame.
                        self.counters.offered += 1;
                        self.counters.fill_underruns += 1;
                        next_arr += inter;
                        continue;
                    }
                    OfferedLoad::Saturate => {
                        // Closed loop: stall the MAC until the driver
                        // catches up and a refill lands.
                        arr = self.wait_for_buffer(arr);
                        next_arr = arr;
                    }
                }
            }
            self.counters.offered += 1;
            // The packet's ordinal in the run picks its buffer slot,
            // so a dropped packet still uses up a slot index.
            let rx = self.rx.device_rx(&mut self.platform, arr, pkt_size, i);
            if let RxOutcome::CqOverflow(payload_done) = rx {
                self.counters.cq_overflows += 1;
                self.done_max = self.done_max.max(payload_done);
            }
            next_arr += inter;
        }
        // Drain: service everything still pending. Coalescing timers
        // fire their partial batches here.
        self.advance_driver(SimTime::MAX);

        let elapsed = self.done_max;
        let secs = elapsed.as_ns_f64() * 1e-9;
        let delivered = self.counters.delivered;
        let e2e = self.stages.end_to_end();
        DriverRunResult {
            pattern: self.pattern,
            pkt_size,
            offered: self.counters.offered,
            delivered,
            dropped: self.counters.dropped(),
            early_drops: self.counters.early_drops,
            elapsed,
            mpps: if secs > 0.0 {
                delivered as f64 / secs / 1e6
            } else {
                0.0
            },
            gbps: if elapsed > SimTime::ZERO {
                delivered as f64 * pkt_size as f64 * 8.0 / elapsed.as_ns_f64()
            } else {
                0.0
            },
            mean_ns: if delivered > 0 {
                self.stages.grand_total_ns() / delivered as f64
            } else {
                0.0
            },
            p50_ns: e2e.quantile_ns(0.50),
            p99_ns: e2e.quantile_ns(0.99),
        }
    }

    /// Full cross-layer telemetry snapshot: the platform's link/host/
    /// engine groups plus the driver counters, ring counters and the
    /// six-stage driver latency breakdown.
    pub fn snapshot(&self, label: impl Into<String>) -> Snapshot {
        let mut snap = self.platform.telemetry_snapshot(label);
        snap.add_group(self.counters.telemetry_group(self.pattern));
        snap.add_group(self.stages.telemetry_group("driver.stages"));
        snap.add_group(self.rx.rx_ring().telemetry_group("rx"));
        snap.add_group(self.tx_ring.telemetry_group("tx"));
        snap.add_group(self.rx.cq_ring().telemetry_group("cq"));
        snap
    }

    /// Read access to the underlying platform (wire counters etc.).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Blocks (in virtual time) until a posted buffer is available;
    /// returns the adjusted arrival time.
    fn wait_for_buffer(&mut self, mut arr: SimTime) -> SimTime {
        let mut guard = 0u32;
        while self.rx.buffers_avail() == 0 {
            // The earliest thing that can make progress: a refill
            // fetch landing, a scheduled interaction phase, or a
            // notification trigger.
            let mut next = self.rx.next_refill_time();
            for cand in [self.deferred.peek_time(), self.next_action_time()]
                .into_iter()
                .flatten()
            {
                next = Some(next.map_or(cand, |t: SimTime| t.min(cand)));
            }
            let Some(t) = next else {
                panic!(
                    "driver deadlock: no buffers, no refills, nothing pending \
                     (ring_size {}, refill_batch {})",
                    self.cfg.ring_size, self.cfg.refill_batch
                );
            };
            arr = arr.max(t);
            self.advance_driver(arr);
            self.rx.apply_refills(arr);
            guard += 1;
            assert!(guard < 1_000_000, "livelock in buffer wait");
        }
        arr
    }

    // ----- driver side ---------------------------------------------

    /// Schedules `action` at `at` on the deferred-phase queue.
    fn schedule(&mut self, at: SimTime, action: Deferred) {
        self.deferred.push_labeled(at, "driver-phase", action);
    }

    /// Runs every driver event — scheduled interaction phases and
    /// notification triggers — whose time is ≤ `until`, in time order.
    fn advance_driver(&mut self, until: SimTime) {
        loop {
            let trigger = self.next_action_time().filter(|&t| t <= until);
            // Scheduled phases win ties: they were decided by an
            // earlier round.
            if let Some((at, action)) = self.deferred.pop_before(trigger.unwrap_or(until)) {
                self.issue(at, action);
            } else if let Some(t) = trigger {
                self.service(t);
            } else {
                break;
            }
        }
    }

    /// When the driver next notices pending work, or `None` if nothing
    /// is pending.
    fn next_action_time(&self) -> Option<SimTime> {
        let pending = self.rx.pending();
        let first = pending.front()?;
        Some(match self.pattern {
            DriverPattern::DpdkPoll | DriverPattern::AfXdp => {
                // The poll loop runs on a fixed-cost iteration grid
                // starting when the core last went idle; the packet is
                // noticed by the first iteration at or after its
                // host-memory visibility.
                let base = self.next_poll.max(self.cpu_free);
                poll_tick_at_or_after(base, self.cfg.poll_iter, first.hw)
            }
            DriverPattern::KernelIrq | DriverPattern::IoUring => {
                let frames = self.cfg.irq_coalesce_frames as usize;
                if pending.len() >= frames {
                    pending[frames - 1].hw
                } else {
                    first.hw + SimTime::from_us(self.cfg.irq_coalesce_usecs as u64)
                }
            }
        })
    }

    /// Runs one notification + processing round triggered at `t`.
    fn service(&mut self, t: SimTime) {
        self.rx.apply_refills(t);
        let aware = match self.pattern {
            DriverPattern::DpdkPoll | DriverPattern::AfXdp => {
                // Count iterations that found nothing between the last
                // processing end and this hit (O(1), not simulated
                // one-by-one).
                let base = self.next_poll.max(self.cpu_free);
                if t > base {
                    let gap = t.saturating_sub(base).as_ns();
                    self.counters.empty_polls += gap / self.cfg.poll_iter.as_ns().max(1);
                }
                self.counters.polls += 1;
                t + self.cfg.poll_iter
            }
            DriverPattern::KernelIrq | DriverPattern::IoUring => {
                let frames = self.cfg.irq_coalesce_frames as usize;
                let pending = self.rx.pending();
                if pending.len() >= frames && pending[frames - 1].hw <= t {
                    self.counters.coalesce_frame_fires += 1;
                } else {
                    self.counters.coalesce_timer_fires += 1;
                }
                self.counters.irqs += 1;
                // The MSI is a real 4 B posted write through the same
                // issue port and credit gates as the data path.
                let msi_at = self.platform.msi(t, self.rx.desc_buf(), MSI_VECTOR_OFF);
                let mut wake = msi_at + self.cfg.irq_entry;
                if self.cfg.driver_reads_registers && self.pattern == DriverPattern::KernelIrq {
                    // Legacy drivers re-read the ring head register
                    // before trusting write-backs: one PIO round trip
                    // on the critical path (the paper's §4 LAT_RD
                    // argument for why drivers should not do this).
                    wake = self.platform.pio_read(wake, 4);
                    self.counters.pio_reads += 1;
                }
                wake
            }
        };
        let aware = aware.max(self.cpu_free);

        // The batch: everything visible by the time the handler
        // actually runs, bounded by the burst size for the polling
        // patterns (interrupt handlers drain NAPI-style). Driver
        // software — RX processing, app echo, TX submission — is
        // serialised on the single driver core.
        let limit = match self.pattern {
            DriverPattern::DpdkPoll | DriverPattern::AfXdp => self.cfg.burst,
            DriverPattern::KernelIrq | DriverPattern::IoUring => u32::MAX,
        };
        let cfg = self.cfg;
        let mut t = aware;
        let mut tx_queue = self
            .tx_spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.rx.pending().len().min(limit as usize)));
        let mut taken = 0u32;
        while taken < limit {
            let Some(p) = self.rx.take_visible(aware) else {
                break;
            };
            taken += 1;
            if self.pattern == DriverPattern::IoUring {
                self.counters.cqes += 1;
            }
            let (cost, delivered) = match self.pattern {
                DriverPattern::KernelIrq => (cfg.kernel_rx, true),
                DriverPattern::DpdkPoll => (cfg.dpdk_rx, true),
                DriverPattern::AfXdp => {
                    if cfg.xdp_drop_frac > 0.0 && self.rng.chance(cfg.xdp_drop_frac) {
                        (cfg.xdp_verdict, false)
                    } else {
                        (cfg.xdp_verdict + cfg.afxdp_rx, true)
                    }
                }
                DriverPattern::IoUring => (cfg.iouring_cqe, true),
            };
            let proc_done = t + cost;
            t = proc_done;
            if !delivered {
                self.counters.early_drops += 1;
                continue;
            }
            let copy = if self.pattern == DriverPattern::KernelIrq {
                // The socket path copies the payload to userspace and
                // back; the three zero-copy patterns skip this.
                SimTime::from_ns_f64(cfg.copy_ns_per_byte * self.run_pkt_size as f64 * 2.0)
            } else {
                SimTime::ZERO
            };
            let app_done = proc_done + cfg.app + copy;
            t = app_done;
            tx_queue.push(TxItem {
                p,
                aware,
                proc_done,
                app_done,
            });
        }
        debug_assert!(taken > 0, "service round found nothing");
        self.cpu_free = t;
        self.next_poll = t;

        // Schedule (not issue) the device interactions this round
        // decided on; `advance_driver` issues them when the clock gets
        // there, in order with the arrival stream.
        if tx_queue.is_empty() {
            self.tx_spare.push(tx_queue);
        } else {
            self.schedule(self.cpu_free, Deferred::TxDoorbell { items: tx_queue });
        }
        // Buffers return to the free list only after the driver has
        // processed their packets (the frame is in use until then) —
        // this is what bounds the completion queue in closed loop.
        if let Some(n) = self.rx.release(taken, self.cfg.refill_batch) {
            self.schedule(self.cpu_free, Deferred::Refill(Refill::Post { n }));
        }
    }

    /// Issues one scheduled interaction phase at its event time `at`.
    /// Every platform call below carries `want == at`, so issuance
    /// stays chronological with the arrival stream; latency chains
    /// (doorbell → fetch → payload → write-back) are expressed by
    /// scheduling the follow-on phase at this phase's completion time.
    fn issue(&mut self, at: SimTime, action: Deferred) {
        match action {
            Deferred::TxDoorbell { items } => {
                self.counters.tx_batches += 1;
                self.tx_ring
                    .produce_into(items.len() as u32, &mut self.slot_scratch);
                debug_assert_eq!(self.slot_scratch.len(), items.len(), "TX ring full");
                self.counters.doorbells += 1;
                let db_arr = self.platform.pio_write(at, 4);
                let first = self.slot_scratch.first().copied().unwrap_or(0);
                self.schedule(
                    db_arr,
                    Deferred::TxDescFetch {
                        db_arr,
                        first,
                        items,
                    },
                );
            }
            Deferred::TxDescFetch {
                db_arr,
                first,
                items,
            } => {
                let mut desc_done = at;
                for (off, len) in self.tx_ring.span_ranges(first, items.len() as u32) {
                    let r = self.platform.dma_read(
                        at,
                        self.rx.desc_buf(),
                        off,
                        len,
                        DmaPath::DmaEngine,
                    );
                    desc_done = desc_done.max(r.done);
                }
                self.schedule(desc_done, Deferred::TxPayload { db_arr, items });
            }
            Deferred::TxPayload { db_arr, mut items } => {
                // TX slots mirror the RX slots in the buffer's upper half.
                let tx_base = u64::from(RX_SLOTS) * SLOT_BYTES;
                let pkt_size = self.run_pkt_size;
                let n = items.len() as u32;
                let mut last_done = at;
                for &TxItem {
                    p,
                    aware,
                    proc_done,
                    app_done,
                } in &items
                {
                    let tx_off = tx_base + u64::from(p.slot) * SLOT_BYTES;
                    let r = self.platform.dma_read(
                        at,
                        self.rx.pkt_buf(),
                        tx_off,
                        pkt_size,
                        DmaPath::DmaEngine,
                    );
                    last_done = last_done.max(r.done);
                    let mut sample = StageSample::default();
                    sample
                        .set(DriverStage::RxDma, p.hw.ns_since(p.arr))
                        .set(DriverStage::Notify, aware.ns_since(p.hw))
                        .set(DriverStage::RxSoftware, proc_done.ns_since(aware))
                        .set(DriverStage::App, app_done.ns_since(proc_done))
                        .set(DriverStage::TxPost, db_arr.ns_since(app_done))
                        .set(DriverStage::TxDma, r.done.ns_since(db_arr));
                    self.stages.record(&sample);
                    self.counters.delivered += 1;
                    self.done_max = self.done_max.max(r.done);
                }
                items.clear();
                self.tx_spare.push(items);
                // One TX completion write-back per batch (write-back
                // coalescing, one of §5's descriptor optimisations).
                self.schedule(last_done, Deferred::TxWriteback { n });
            }
            Deferred::TxWriteback { n } => {
                let wb = self.platform.dma_write(
                    at,
                    self.rx.desc_buf(),
                    TXWB_OFF,
                    DESC_ENTRY,
                    DmaPath::DmaEngine,
                );
                self.done_max = self.done_max.max(wb.absorbed);
                self.tx_ring.consume_into(n, &mut self.slot_scratch);
            }
            Deferred::Refill(Refill::Post { n }) => {
                self.counters.refills += 1;
                let first = self.rx.post_refill(n);
                let fetch_at = match self.pattern {
                    DriverPattern::KernelIrq | DriverPattern::DpdkPoll => {
                        // Tail-pointer doorbell: the device learns
                        // immediately.
                        self.counters.doorbells += 1;
                        self.platform.pio_write(at, 4)
                    }
                    DriverPattern::AfXdp => {
                        // Need-wakeup mode: a doorbell only when the
                        // device drained the fill ring; otherwise the
                        // device's fill poller picks the entries up on
                        // its next pass.
                        if self.rx.device_starved() {
                            self.counters.wakeups += 1;
                            self.platform.pio_write(at, 4)
                        } else {
                            at + FILL_POLL
                        }
                    }
                    DriverPattern::IoUring => at + FILL_POLL,
                };
                self.schedule(fetch_at, Deferred::Refill(Refill::Fetch { first, n }));
            }
            Deferred::Refill(Refill::Fetch { first, n }) => {
                self.rx.fetch_refill(&mut self.platform, at, first, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PATTERNS;
    use pciebench::BenchSetup;

    fn sim(pattern: DriverPattern, cfg: DriverConfig) -> DriverSim {
        DriverSim::new(pattern, cfg, BenchSetup::nfp6000_hsw().build_nic_platform())
    }

    #[test]
    fn all_patterns_deliver_everything_in_closed_loop() {
        for pattern in PATTERNS {
            let mut s = sim(pattern, DriverConfig::default());
            let r = s.run(128, 2_000);
            assert_eq!(r.offered, 2_000, "{}", pattern.name());
            assert_eq!(r.delivered, 2_000, "{}", pattern.name());
            assert_eq!(r.dropped, 0, "{}", pattern.name());
            assert!(r.mpps > 0.0 && r.p99_ns > 0.0, "{}", pattern.name());
        }
    }

    #[test]
    fn stage_sums_telescope_to_end_to_end() {
        for pattern in PATTERNS {
            let mut s = sim(pattern, DriverConfig::default());
            s.run(256, 1_000);
            let grand = s.stages.grand_total_ns();
            let per_stage: f64 = <DriverStage as pcie_telemetry::StageSet>::ALL
                .iter()
                .map(|&st| s.stages.total_ns(st))
                .sum();
            assert!(
                (grand - per_stage).abs() < 1e-6 * grand.max(1.0),
                "{}: stages must sum to the grand total",
                pattern.name()
            );
            assert_eq!(s.stages.count(), 1_000);
        }
    }

    #[test]
    fn polling_beats_interrupts_on_notify_latency() {
        // Low open-loop rate: queues stay empty, so `notify` isolates
        // the notification edge itself (poll grid vs. MSI + coalesce).
        let cfg = DriverConfig::default().with_load(OfferedLoad::OpenLoopGbps(1.0));
        let mut dpdk = sim(DriverPattern::DpdkPoll, cfg);
        let mut irq = sim(DriverPattern::KernelIrq, cfg);
        dpdk.run(64, 2_000);
        irq.run(64, 2_000);
        let dpdk_notify = dpdk.stages.mean_ns(DriverStage::Notify);
        let irq_notify = irq.stages.mean_ns(DriverStage::Notify);
        assert!(
            dpdk_notify < irq_notify,
            "poll notify {dpdk_notify:.0} ns should beat IRQ {irq_notify:.0} ns"
        );
        assert!(irq.counters.irqs > 0);
        assert_eq!(dpdk.counters.irqs, 0, "pollers never interrupt");
        assert_eq!(dpdk.counters.pio_reads, 0, "pollers never read registers");
    }

    #[test]
    fn xdp_early_drops_skip_delivery() {
        let cfg = DriverConfig {
            xdp_drop_frac: 0.5,
            ..DriverConfig::default()
        };
        let mut s = sim(DriverPattern::AfXdp, cfg);
        let r = s.run(64, 4_000);
        assert_eq!(r.offered, 4_000);
        assert!(r.early_drops > 1_000 && r.early_drops < 3_000, "~half drop");
        assert_eq!(r.delivered + r.early_drops, 4_000);
        // Verdict stream is deterministic per seed.
        let mut s2 = sim(DriverPattern::AfXdp, cfg);
        let r2 = s2.run(64, 4_000);
        assert_eq!(r.early_drops, r2.early_drops);
        assert_eq!(r.elapsed, r2.elapsed);
    }

    #[test]
    fn msi_traffic_shows_in_telemetry_only_for_irq_patterns() {
        for pattern in PATTERNS {
            let mut s = sim(pattern, DriverConfig::default());
            s.run(128, 1_000);
            let snap = s.snapshot("t");
            let engine = snap
                .groups()
                .iter()
                .find(|g| g.component == "device.engine")
                .expect("engine group");
            if pattern.interrupt_driven() {
                assert!(
                    engine.get("msi_writes").unwrap_or(0) > 0,
                    "{}",
                    pattern.name()
                );
            } else {
                assert_eq!(engine.get("msi_writes"), None, "{}", pattern.name());
            }
            assert!(snap
                .groups()
                .iter()
                .any(|g| g.component == format!("driver.{}", pattern.name())));
            assert!(snap.groups().iter().any(|g| g.component == "driver.stages"));
        }
    }

    #[test]
    fn saturation_is_reproducible() {
        for pattern in PATTERNS {
            let mut a = sim(pattern, DriverConfig::default());
            let mut b = sim(pattern, DriverConfig::default());
            let ra = a.run(512, 1_500);
            let rb = b.run(512, 1_500);
            assert_eq!(ra.elapsed, rb.elapsed, "{}", pattern.name());
            assert_eq!(ra.p99_ns, rb.p99_ns, "{}", pattern.name());
        }
    }
}
