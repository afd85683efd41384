//! Driver interaction patterns and their tuning knobs.

use pcie_sim::SimTime;

/// The four driver/NIC interaction patterns the zoo simulates.
///
/// Each pattern drives the same `pcie-device` platform and the same
/// `pcie-nic` descriptor rings; only the *notification* and *software*
/// machinery differ — which is exactly the paper's Figure 1 argument,
/// grown from an analytic model into a discrete simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverPattern {
    /// Kernel-style interrupt-driven RX/TX: the device coalesces
    /// completions (frames + usecs thresholds), raises an MSI write
    /// TLP, and a NAPI-like handler processes the pending batch,
    /// reading a device register and ringing batched doorbells.
    KernelIrq,
    /// DPDK-style busy polling: a dedicated core spins on write-back
    /// descriptors in host memory (no interrupts, no register reads),
    /// processing bursts and batching doorbells; descriptor rings are
    /// prefetched in batches.
    DpdkPoll,
    /// AF_XDP-style: the driver posts frame addresses on a fill ring,
    /// the device completes onto an RX ring, and an XDP program issues
    /// an early drop/redirect verdict per packet before the (zero
    /// copy) socket delivery.
    AfXdp,
    /// io_uring-style: submissions batched through a submission queue,
    /// completions posted as CQEs on a bounded completion queue, with
    /// RX buffers provided zero-copy through a buffer ring. The NIC
    /// side stays interrupt-driven (coalesced), but per-packet
    /// software cost is a CQE, not an skb.
    IoUring,
}

/// All patterns, in presentation order.
pub const PATTERNS: [DriverPattern; 4] = [
    DriverPattern::KernelIrq,
    DriverPattern::DpdkPoll,
    DriverPattern::AfXdp,
    DriverPattern::IoUring,
];

impl DriverPattern {
    /// Stable snake_case name (used in telemetry component paths:
    /// `driver.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            DriverPattern::KernelIrq => "kernel_irq",
            DriverPattern::DpdkPoll => "dpdk_poll",
            DriverPattern::AfXdp => "af_xdp",
            DriverPattern::IoUring => "io_uring",
        }
    }

    /// Parses a pattern from its [`DriverPattern::name`].
    pub fn from_name(s: &str) -> Option<DriverPattern> {
        PATTERNS.into_iter().find(|p| p.name() == s)
    }

    /// Whether the device raises interrupts for this pattern (the
    /// polling patterns never touch the MSI block).
    pub fn interrupt_driven(self) -> bool {
        matches!(self, DriverPattern::KernelIrq | DriverPattern::IoUring)
    }
}

/// How packets are offered to the NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OfferedLoad {
    /// Closed-loop saturation: the MAC always has the next packet and
    /// stalls only on line-rate pacing or RX-buffer exhaustion. No
    /// packet is ever dropped; measures capacity (PPS).
    Saturate,
    /// Open-loop arrivals at a fixed rate in Gb/s of packet payload.
    /// Packets arriving with no posted RX buffer (or no completion
    /// queue space) are dropped — measures latency at a controlled
    /// rate, and loss under overload.
    OpenLoopGbps(f64),
}

/// Tuning knobs shared by all four patterns (each pattern reads the
/// subset that applies to it).
///
/// The software-cost constants are single-core order-of-magnitude
/// figures from the kernel-bypass literature (see DESIGN.md §10 for
/// the per-constant rationale); all are overridable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// RX descriptor/fill ring capacity in slots (also the TX ring and
    /// — except for io_uring — the completion ring capacity).
    pub ring_size: u32,
    /// Max packets processed per poll iteration / NAPI run segment.
    pub burst: u32,
    /// RX buffers consumed before the driver posts a refill batch
    /// (fill-ring or freelist tail update + descriptor fetch).
    pub refill_batch: u32,
    /// IRQ coalescing: fire when this many completions are pending
    /// (interrupt-driven patterns only).
    pub irq_coalesce_frames: u32,
    /// IRQ coalescing: fire this long after the first pending
    /// completion even if the frame threshold was not met.
    pub irq_coalesce_usecs: u32,
    /// Hardirq entry + NAPI/task scheduling latency.
    pub irq_entry: SimTime,
    /// Whether the IRQ handler reads a device register (head pointer)
    /// before trusting the write-back descriptors (kernel pattern).
    pub driver_reads_registers: bool,
    /// Cost of one empty poll-loop iteration (busy-polling patterns).
    pub poll_iter: SimTime,
    /// Per-packet kernel RX software cost (skb allocation, protocol
    /// demux, socket queue).
    pub kernel_rx: SimTime,
    /// Per-packet DPDK RX software cost (mbuf + burst bookkeeping,
    /// with descriptor prefetch hiding most of the ring walk).
    pub dpdk_rx: SimTime,
    /// Per-packet XDP program verdict cost (runs on every packet).
    pub xdp_verdict: SimTime,
    /// Per-packet AF_XDP delivery cost after a redirect verdict
    /// (fill/completion ring bookkeeping, zero-copy).
    pub afxdp_rx: SimTime,
    /// Fraction of packets the XDP program drops early (`XDP_DROP`);
    /// the rest are redirected to the socket. Deterministic per seed.
    pub xdp_drop_frac: f64,
    /// Per-CQE io_uring kernel cost (completion posting + reap).
    pub iouring_cqe: SimTime,
    /// io_uring completion-queue capacity in CQEs (may be smaller
    /// than `ring_size`; overflow drops the completion).
    pub cq_size: u32,
    /// Per-packet application turnaround (echo) cost, excluding the
    /// copy below.
    pub app: SimTime,
    /// Application copy cost per payload byte — paid only by patterns
    /// without zero-copy delivery (the kernel socket path).
    pub copy_ns_per_byte: f64,
    /// MAC line rate in Gb/s (arrival pacing floor in both load
    /// modes).
    pub mac_gbps: f64,
    /// Offered-load mode.
    pub load: OfferedLoad,
    /// Seed for the XDP verdict stream (forked; bit-reproducible).
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ring_size: 512,
            burst: 32,
            refill_batch: 32,
            irq_coalesce_frames: 32,
            irq_coalesce_usecs: 20,
            irq_entry: SimTime::from_ns(1_500),
            driver_reads_registers: true,
            poll_iter: SimTime::from_ns(40),
            kernel_rx: SimTime::from_ns(450),
            dpdk_rx: SimTime::from_ns(35),
            xdp_verdict: SimTime::from_ns(25),
            afxdp_rx: SimTime::from_ns(60),
            xdp_drop_frac: 0.0,
            iouring_cqe: SimTime::from_ns(150),
            cq_size: 1024,
            app: SimTime::from_ns(50),
            copy_ns_per_byte: 0.05,
            mac_gbps: 40.0,
            load: OfferedLoad::Saturate,
            seed: 0x5eed_d81f,
        }
    }
}

impl DriverConfig {
    /// With a different offered-load mode.
    pub fn with_load(mut self, load: OfferedLoad) -> Self {
        self.load = load;
        self
    }

    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("ring_size", self.ring_size),
            ("burst", self.burst),
            ("refill_batch", self.refill_batch),
            ("irq_coalesce_frames", self.irq_coalesce_frames),
            ("cq_size", self.cq_size),
        ] {
            if v < 2 {
                return Err(format!("{name} must be >= 2"));
            }
        }
        if self.ring_size > 1024 || self.cq_size > 1024 {
            return Err("rings larger than 1024 slots do not fit the descriptor buffer".into());
        }
        if !(0.0..=1.0).contains(&self.xdp_drop_frac) {
            return Err("xdp_drop_frac must be in [0, 1]".into());
        }
        if self.mac_gbps <= 0.0 {
            return Err("mac_gbps must be positive".into());
        }
        if let OfferedLoad::OpenLoopGbps(g) = self.load {
            if g <= 0.0 {
                return Err("open-loop rate must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in PATTERNS {
            assert_eq!(DriverPattern::from_name(p.name()), Some(p));
        }
        assert_eq!(DriverPattern::from_name("niantic"), None);
    }

    #[test]
    fn default_config_valid() {
        DriverConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_knobs_rejected() {
        for cfg in [
            DriverConfig {
                ring_size: 1,
                ..DriverConfig::default()
            },
            DriverConfig {
                xdp_drop_frac: 1.5,
                ..DriverConfig::default()
            },
            DriverConfig {
                load: OfferedLoad::OpenLoopGbps(0.0),
                ..DriverConfig::default()
            },
        ] {
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn interrupt_driven_split() {
        assert!(DriverPattern::KernelIrq.interrupt_driven());
        assert!(DriverPattern::IoUring.interrupt_driven());
        assert!(!DriverPattern::DpdkPoll.interrupt_driven());
        assert!(!DriverPattern::AfXdp.interrupt_driven());
    }
}
