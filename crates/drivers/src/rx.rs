//! The RX ring path: one implementation for every receive-side engine.
//!
//! A NIC receives the same way under every driver: the driver posts
//! empty buffers on the RX (free-list / fill) ring, the device fetches
//! their descriptors, each arriving packet consumes one, its payload is
//! DMAed into the buffer and a completion entry is written back, and
//! the driver later reaps the completion and returns the buffer in a
//! refill batch. [`RxPath`] owns that state — packet and descriptor
//! buffers, the RX and completion rings, the buffers the device holds,
//! refill batches in flight and the packets visible to the driver —
//! and is shared by [`DriverSim`](crate::DriverSim) and the per-queue
//! `QueueSim` of `pcie-flows`.
//!
//! Whatever differs between those engines is an argument, never a mode:
//! the packet-buffer size, the CQ capacity, the slot ordinal of each
//! packet, and when the device learns of a refill. Refill phases run
//! on the owning engine's own event queue as [`Refill`] events, so
//! their tie order with the engine's other phases is the engine's.

use crate::sim::ring_offsets::{CQ_RING_OFF, DESC_ENTRY, RX_RING_OFF};
use pcie_device::{DmaPath, Platform};
use pcie_host::buffer::BufferAllocator;
use pcie_host::HostBuffer;
use pcie_nic::DescriptorRing;
use pcie_sim::SimTime;
use std::collections::VecDeque;

/// RX buffer slots at the start of the packet buffer.
pub const RX_SLOTS: u32 = 1024;
/// Bytes per packet-buffer slot.
pub const SLOT_BYTES: u64 = 2048;
/// Size of the descriptor buffer holding the rings (see
/// [`ring_offsets`](crate::sim::ring_offsets)).
const DESC_BYTES: u64 = 64 * 1024;

/// One received packet visible in host memory, awaiting the driver.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Wire arrival time.
    pub arr: SimTime,
    /// Host-memory visibility (payload and completion absorbed).
    pub hw: SimTime,
    /// Packet-buffer slot holding the payload.
    pub slot: u32,
    /// Payload bytes.
    pub size: u32,
}

/// What [`RxPath::device_rx`] did with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Payload and completion entry are visible in host memory at
    /// this time; the packet is queued for the driver.
    Visible(SimTime),
    /// The completion queue was full: the payload DMA (wasted wire
    /// work) finished at this time, and the device recycled the frame
    /// to its free list with no host involvement (io_uring CQ-overflow
    /// semantics).
    CqOverflow(SimTime),
}

/// A refill phase, scheduled on the owning engine's event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refill {
    /// The driver returns `n` buffers to the RX ring.
    Post {
        /// Buffers returned.
        n: u32,
    },
    /// The device fetches the `n` descriptors from ring slot `first`
    /// on; the buffers become usable when the fetch completes.
    Fetch {
        /// First ring slot of the batch.
        first: u32,
        /// Buffers credited on completion.
        n: u32,
    },
}

/// The RX ring path of one receive queue over a [`Platform`].
#[derive(Debug)]
pub struct RxPath {
    pkt_buf: HostBuffer,
    desc_buf: HostBuffer,
    rx_ring: DescriptorRing,
    cq_ring: DescriptorRing,
    /// Packets visible in host memory, oldest first.
    pending: VecDeque<Pending>,
    /// RX buffers the *device* currently holds (posted and fetched).
    buffers_avail: u32,
    /// Refill batches in flight: (device-visible time, buffer count).
    refill_events: VecDeque<(SimTime, u32)>,
    /// Buffers the driver has finished with since the last refill.
    consumed_since_refill: u32,
    slot_scratch: Vec<u32>,
}

impl RxPath {
    /// Allocates a `pkt_buf_bytes` packet buffer (the RX slots come
    /// first) and the descriptor buffer after it, builds an RX ring of
    /// `ring_size` and a completion ring of `cq_size` slots, warms
    /// both buffers into the host cache (drivers touch them
    /// continuously), and posts the initial fill: the whole free list,
    /// one tail doorbell, one coalesced descriptor fetch. Returns the
    /// path and the time the fill fetch completes; traffic starts
    /// after it.
    ///
    /// # Panics
    /// If the packet buffer cannot hold [`RX_SLOTS`] slots, or a ring
    /// does not fit its place in the descriptor buffer.
    pub fn new(
        platform: &mut Platform,
        pkt_buf_bytes: u64,
        ring_size: u32,
        cq_size: u32,
    ) -> (RxPath, SimTime) {
        assert!(pkt_buf_bytes >= u64::from(RX_SLOTS) * SLOT_BYTES);
        let mut alloc = BufferAllocator::default_layout();
        let pkt_buf = alloc.alloc(pkt_buf_bytes, 0);
        let desc_buf = alloc.alloc(DESC_BYTES, 0);
        let mut rx = RxPath {
            rx_ring: DescriptorRing::new(&desc_buf, RX_RING_OFF, DESC_ENTRY, ring_size),
            cq_ring: DescriptorRing::new(&desc_buf, CQ_RING_OFF, DESC_ENTRY, cq_size),
            pkt_buf,
            desc_buf,
            pending: VecDeque::new(),
            buffers_avail: 0,
            refill_events: VecDeque::new(),
            consumed_since_refill: 0,
            slot_scratch: Vec::with_capacity(1024),
        };
        platform.host.host_warm(&rx.desc_buf, 0, DESC_BYTES);
        platform.host.host_warm(&rx.pkt_buf, 0, pkt_buf_bytes);
        let initial = rx.rx_ring.free();
        let first = rx.post_refill(initial);
        let t0 = platform.pio_write(SimTime::ZERO, 4);
        let done = rx.fetch_descriptors(platform, t0, first, initial);
        rx.buffers_avail = initial;
        (rx, done)
    }

    /// The packet buffer.
    pub fn pkt_buf(&self) -> &HostBuffer {
        &self.pkt_buf
    }

    /// The descriptor buffer holding the rings.
    pub fn desc_buf(&self) -> &HostBuffer {
        &self.desc_buf
    }

    /// The RX free-list / fill ring (driver produces, device consumes).
    pub fn rx_ring(&self) -> &DescriptorRing {
        &self.rx_ring
    }

    /// The completion ring (device produces, driver consumes).
    pub fn cq_ring(&self) -> &DescriptorRing {
        &self.cq_ring
    }

    /// Packets visible in host memory, oldest first.
    pub fn pending(&self) -> &VecDeque<Pending> {
        &self.pending
    }

    /// RX buffers the device holds right now.
    pub fn buffers_avail(&self) -> u32 {
        self.buffers_avail
    }

    /// True when the device holds no buffer and no refill is on its
    /// way: the moment an AF_XDP need-wakeup driver must ring.
    pub fn device_starved(&self) -> bool {
        self.buffers_avail == 0 && self.refill_events.is_empty()
    }

    /// Earliest completion of a refill fetch still in flight.
    pub fn next_refill_time(&self) -> Option<SimTime> {
        self.refill_events.iter().map(|&(t, _)| t).min()
    }

    /// One packet of `size` bytes off the wire at `arr`: consume a
    /// posted buffer, DMA the payload into slot `ordinal %`
    /// [`RX_SLOTS`], write the completion entry. The caller checks
    /// [`RxPath::buffers_avail`] first.
    pub fn device_rx(
        &mut self,
        platform: &mut Platform,
        arr: SimTime,
        size: u32,
        ordinal: u32,
    ) -> RxOutcome {
        debug_assert!(self.buffers_avail > 0);
        self.rx_ring.consume_into(1, &mut self.slot_scratch);
        debug_assert!(!self.slot_scratch.is_empty());
        self.buffers_avail -= 1;

        let slot = ordinal % RX_SLOTS;
        let off = u64::from(slot) * SLOT_BYTES;
        let payload = platform.dma_write(arr, &self.pkt_buf, off, size, DmaPath::DmaEngine);
        if self.cq_ring.free() == 0 {
            self.rx_ring.produce_into(1, &mut self.slot_scratch);
            self.buffers_avail += 1;
            return RxOutcome::CqOverflow(payload.done);
        }
        self.cq_ring.produce_into(1, &mut self.slot_scratch);
        let cq_off = self.cq_ring.slot_offset(self.slot_scratch[0]);
        let wb = platform.dma_write(arr, &self.desc_buf, cq_off, DESC_ENTRY, DmaPath::DmaEngine);
        let hw = payload.absorbed.max(wb.absorbed);
        self.pending.push_back(Pending {
            arr,
            hw,
            slot,
            size,
        });
        RxOutcome::Visible(hw)
    }

    /// Pops the oldest pending packet if it is visible by `by`, and
    /// reaps its completion entry.
    pub fn take_visible(&mut self, by: SimTime) -> Option<Pending> {
        if self.pending.front()?.hw > by {
            return None;
        }
        self.cq_ring.consume_into(1, &mut self.slot_scratch);
        self.pending.pop_front()
    }

    /// The driver has finished with `n` more packets, so their buffers
    /// may return to the free list. Once `refill_batch` have gathered
    /// (capped at half the ring, so small rings still refill before
    /// the free list runs dry in closed loop), returns the batch size
    /// to schedule as [`Refill::Post`].
    pub fn release(&mut self, n: u32, refill_batch: u32) -> Option<u32> {
        self.consumed_since_refill += n;
        let threshold = refill_batch.min(self.rx_ring.capacity() / 2).max(1);
        if self.consumed_since_refill < threshold {
            return None;
        }
        Some(std::mem::take(&mut self.consumed_since_refill))
    }

    /// [`Refill::Post`]: the driver writes `n` descriptors to the RX
    /// ring. Returns the first slot, for the [`Refill::Fetch`] the
    /// caller schedules when the device learns of the batch.
    pub fn post_refill(&mut self, n: u32) -> u32 {
        self.rx_ring.produce_into(n, &mut self.slot_scratch);
        debug_assert_eq!(self.slot_scratch.len() as u32, n, "freelist accounting");
        self.slot_scratch.first().copied().unwrap_or(0)
    }

    /// [`Refill::Fetch`] at `at`: the device reads the descriptors;
    /// the buffers are credited once the read completes (see
    /// [`RxPath::apply_refills`]).
    pub fn fetch_refill(&mut self, platform: &mut Platform, at: SimTime, first: u32, n: u32) {
        let done = self.fetch_descriptors(platform, at, first, n);
        self.refill_events.push_back((done, n));
    }

    /// Issues the descriptor reads of `n` ring slots from `first` at
    /// `at`; returns when the last one completes.
    fn fetch_descriptors(
        &self,
        platform: &mut Platform,
        at: SimTime,
        first: u32,
        n: u32,
    ) -> SimTime {
        let mut done = at;
        for (off, len) in self.rx_ring.span_ranges(first, n) {
            let r = platform.dma_read(at, &self.desc_buf, off, len, DmaPath::DmaEngine);
            done = done.max(r.done);
        }
        done
    }

    /// Credits refill batches whose descriptor fetch completed by
    /// `now` back to the device. Fetch completions are not guaranteed
    /// monotone across batches, so this scans the whole (short) queue.
    pub fn apply_refills(&mut self, now: SimTime) {
        let mut credited = 0u32;
        self.refill_events.retain(|&(t, n)| {
            if t <= now {
                credited += n;
                false
            } else {
                true
            }
        });
        self.buffers_avail += credited;
    }
}

/// First tick of a `step`-spaced grid anchored at `base` that is at or
/// after `target`.
pub fn poll_tick_at_or_after(base: SimTime, step: SimTime, target: SimTime) -> SimTime {
    if base >= target {
        return base;
    }
    let gap = target.saturating_sub(base).as_ps();
    let step_ps = step.as_ps().max(1);
    let k = gap.div_ceil(step_ps);
    base.saturating_add(SimTime::from_ps(k.saturating_mul(step_ps)))
}
