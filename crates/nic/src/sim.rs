//! Discrete full-duplex NIC simulation (Figure 1, dynamically).
//!
//! [`NicSim`] replays the per-packet PCIe transaction pattern of a
//! [`pcie_model::NicModelParams`] through a live [`Platform`]: packet
//! data, descriptor fetches and write-backs, doorbells and interrupts
//! all contend for the same link directions, root-complex pipe and
//! DDIO ways. The analytic curves of `pcie-model` are the predictions;
//! this module is the measurement.

use crate::ring::DescriptorRing;
use pcie_device::{DmaPath, Platform};
use pcie_host::buffer::BufferAllocator;
use pcie_host::HostBuffer;
use pcie_model::nic::NicModelParams;
use pcie_sim::SimTime;

/// Result of a NIC throughput simulation.
#[derive(Debug, Clone, Copy)]
pub struct NicSimResult {
    /// Packet size simulated.
    pub pkt_size: u32,
    /// Packets moved per direction.
    pub packets: u32,
    /// Achieved full-duplex payload rate, per direction, in Gb/s.
    pub gbps: f64,
    /// Simulated duration.
    pub elapsed: SimTime,
}

/// A NIC + driver simulation bound to a platform.
pub struct NicSim {
    /// Interaction-pattern parameters (batching, interrupts, ...).
    pub params: NicModelParams,
    platform: Platform,
    /// Packet buffers (the window packets are DMAed to/from).
    pkt_buf: HostBuffer,
    /// Descriptor rings (small, host-resident, typically cache-hot).
    desc_buf: HostBuffer,
    /// TX descriptor ring over the low half of `desc_buf`.
    tx_ring: DescriptorRing,
    /// RX descriptor ring over the upper half of `desc_buf`.
    rx_ring: DescriptorRing,
    /// Hot-path scratch: slot indices claimed/released per batch.
    slot_scratch: Vec<u32>,
    /// Hot-path scratch: coalesced DMA ranges per batch.
    range_scratch: Vec<(u64, u32)>,
}

impl NicSim {
    /// Builds a simulation. `platform` should be freshly constructed,
    /// typically over [`pcie_device::DeviceParams::nic_dma_engine`]:
    /// NIC DMA engines stream requests from deep descriptor queues
    /// rather than parking a worker thread per round trip.
    pub fn new(params: NicModelParams, platform: Platform) -> Self {
        params.validate().expect("invalid NIC model parameters");
        let mut alloc = BufferAllocator::default_layout();
        let pkt_buf = alloc.alloc(4 << 20, 0);
        let desc_buf = alloc.alloc(64 * 1024, 0);
        let desc = params.desc_size.max(1);
        let cap = 1024.min(16384 / desc).max(2);
        let tx_ring = DescriptorRing::new(&desc_buf, 0, desc, cap);
        let rx_ring = DescriptorRing::new(&desc_buf, 16384, desc, cap);
        let mut sim = NicSim {
            params,
            platform,
            pkt_buf,
            desc_buf,
            tx_ring,
            rx_ring,
            slot_scratch: Vec::with_capacity(64),
            range_scratch: Vec::with_capacity(8),
        };
        // Descriptor rings are written by the driver continuously and
        // stay cache-resident; packet headers likewise for TX.
        sim.platform.host.host_warm(&sim.desc_buf, 0, 64 * 1024);
        sim.platform.host.host_warm(&sim.pkt_buf, 0, 4 << 20);
        sim
    }

    /// Simulates `n` packets full duplex (`n` TX + `n` RX) of
    /// `pkt_size` bytes and reports the per-direction payload rate.
    ///
    /// Notification traffic (interrupts, register reads) is issued
    /// concurrently with the data path, as on real systems where the
    /// driver thread and the DMA engines run in parallel.
    pub fn run(&mut self, pkt_size: u32, n: u32) -> NicSimResult {
        assert!((60..=4096).contains(&pkt_size), "unrealistic packet");
        let p = self.params;
        let mut last = SimTime::ZERO;
        let pkt_slots = (self.pkt_buf.len() / 2 / 2048) as u32;
        // The NIC keeps a deep but finite pipeline of packets in
        // flight; pacing each packet's transactions behind the
        // completion of the packet WINDOW positions earlier keeps the
        // engine busy without unbounded queue build-up (and keeps the
        // timeline reservations time-ordered).
        const WINDOW: usize = 128;
        // Completion of packet `j` in slot `j % (2 * WINDOW)`: the ring
        // holds the last 2 * WINDOW packets, and a slot not yet written
        // reads as time zero, the base of the first packets.
        let mut dones = [SimTime::ZERO; 2 * WINDOW];
        for i in 0..n {
            let slot = i as usize % (2 * WINDOW);
            // Packet i - WINDOW.
            let want = dones[(slot + WINDOW) % (2 * WINDOW)];
            // Bookkeeping (descriptor fetches are prefetched well ahead
            // of need; write-backs, interrupts and register reads refer
            // to packets completed earlier), so it is issued against an
            // older time base: packet i - 2 * WINDOW. This both matches
            // reality and keeps the FIFO wire timelines time-ordered.
            let lag = dones[slot];
            let tx_off = (i % pkt_slots) as u64 * 2048;
            let rx_off = self.pkt_buf.len() / 2 + tx_off;
            let mut pkt_done = want;

            // --- TX path (device reads packets from host) ---
            if i % p.tx_doorbell_batch == 0 {
                self.platform.pio_write(lag, 4);
            }
            if i % p.tx_desc_fetch_batch == 0 {
                // The driver enqueues a batch of TX descriptors; the
                // device fetches the claimed slots (coalesced ranges).
                self.tx_ring
                    .produce_into(p.tx_desc_fetch_batch, &mut self.slot_scratch);
                self.tx_ring
                    .dma_ranges_into(&self.slot_scratch, &mut self.range_scratch);
                for &(off, len) in &self.range_scratch {
                    self.platform
                        .dma_read(lag, &self.desc_buf, off, len, DmaPath::DmaEngine);
                }
                if p.tx_desc_wb_batch == 0 {
                    // No write-back traffic: the device retires the
                    // descriptors silently so the ring never fills.
                    let taken = self.slot_scratch.len() as u32;
                    self.tx_ring.consume_into(taken, &mut self.slot_scratch);
                }
            }
            let tx =
                self.platform
                    .dma_read(want, &self.pkt_buf, tx_off, pkt_size, DmaPath::DmaEngine);
            pkt_done = pkt_done.max(tx.done);
            if p.tx_desc_wb_batch > 0 && i % p.tx_desc_wb_batch == 0 {
                // Completion write-back releases the consumed slots.
                self.tx_ring
                    .consume_into(p.tx_desc_wb_batch, &mut self.slot_scratch);
                self.tx_ring
                    .dma_ranges_into(&self.slot_scratch, &mut self.range_scratch);
                for &(off, len) in &self.range_scratch {
                    self.platform
                        .dma_write(lag, &self.desc_buf, off, len, DmaPath::DmaEngine);
                }
            }

            // --- RX path (device writes packets to host) ---
            if i % p.rx_doorbell_batch == 0 {
                self.platform.pio_write(lag, 4);
            }
            if i % p.rx_desc_fetch_batch == 0 {
                // Freelist refill: the driver posts RX descriptors and
                // the device fetches them.
                self.rx_ring
                    .produce_into(p.rx_desc_fetch_batch, &mut self.slot_scratch);
                self.rx_ring
                    .dma_ranges_into(&self.slot_scratch, &mut self.range_scratch);
                for &(off, len) in &self.range_scratch {
                    self.platform
                        .dma_read(lag, &self.desc_buf, off, len, DmaPath::DmaEngine);
                }
            }
            let rx =
                self.platform
                    .dma_write(want, &self.pkt_buf, rx_off, pkt_size, DmaPath::DmaEngine);
            pkt_done = pkt_done.max(rx.done);
            if i % p.rx_desc_wb_batch == 0 {
                // RX completion write-back releases filled slots.
                self.rx_ring
                    .consume_into(p.rx_desc_wb_batch, &mut self.slot_scratch);
                self.rx_ring
                    .dma_ranges_into(&self.slot_scratch, &mut self.range_scratch);
                for &(off, len) in &self.range_scratch {
                    self.platform
                        .dma_write(lag, &self.desc_buf, off, len, DmaPath::DmaEngine);
                }
            }

            // --- notifications (shared) ---
            if p.pkts_per_interrupt > 0 && i % p.pkts_per_interrupt == 0 {
                // MSI for TX and RX queues.
                self.platform
                    .dma_write(lag, &self.desc_buf, 32768, 4, DmaPath::DmaEngine);
                if p.driver_reads_registers {
                    self.platform.pio_read(lag, 4);
                }
            }
            dones[slot] = pkt_done;
            last = last.max(pkt_done);
        }
        let elapsed = last;
        let gbps = n as f64 * pkt_size as f64 * 8.0 / elapsed.as_secs_f64() / 1e9;
        NicSimResult {
            pkt_size,
            packets: n,
            gbps,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_device::DeviceParams;
    use pcie_host::presets::HostPreset;
    use pcie_host::HostSystem;
    use pcie_link::LinkTiming;
    use pcie_model::config::LinkConfig;
    use pcie_model::nic::NicModel;

    fn fresh_platform() -> Platform {
        let host = HostSystem::new(HostPreset::netfpga_hsw(), 2024);
        Platform::new(
            DeviceParams::nic_dma_engine(),
            host,
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
        )
    }

    fn sim_gbps(params: NicModelParams, pkt: u32) -> f64 {
        let mut sim = NicSim::new(params, fresh_platform());
        sim.run(pkt, 4000).gbps
    }

    #[test]
    fn figure1_ordering_reproduced_dynamically() {
        for pkt in [128u32, 512, 1024] {
            let s = sim_gbps(NicModelParams::simple(), pkt);
            let k = sim_gbps(NicModelParams::kernel(), pkt);
            let d = sim_gbps(NicModelParams::dpdk(), pkt);
            assert!(s < k, "pkt={pkt}: simple {s} !< kernel {k}");
            assert!(k < d * 1.02, "pkt={pkt}: kernel {k} !<~ dpdk {d}");
        }
    }

    #[test]
    fn dynamic_sim_tracks_analytic_model() {
        let link = LinkConfig::gen3_x8();
        for (params, name) in [
            (NicModelParams::kernel(), "kernel"),
            (NicModelParams::dpdk(), "dpdk"),
        ] {
            for pkt in [256u32, 1024] {
                let sim = sim_gbps(params, pkt);
                let model = NicModel::new(params, link).bidir_bandwidth(pkt) / 1e9;
                let err = (sim - model).abs() / model;
                assert!(
                    err < 0.25,
                    "{name} pkt={pkt}: sim {sim:.1} vs model {model:.1} ({err:.2})"
                );
            }
        }
    }

    #[test]
    fn simple_nic_cannot_do_40g_at_small_packets() {
        let s = sim_gbps(NicModelParams::simple(), 128);
        assert!(s < 30.0, "simple NIC at 128B: {s}");
        let s = sim_gbps(NicModelParams::simple(), 1024);
        assert!(s > 35.0, "simple NIC at 1024B: {s}");
    }

    #[test]
    #[should_panic(expected = "unrealistic")]
    fn rejects_tiny_packets() {
        let mut sim = NicSim::new(NicModelParams::simple(), fresh_platform());
        sim.run(32, 10);
    }
}
