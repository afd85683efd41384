//! # pcie-drivers — the driver interaction-pattern zoo
//!
//! The paper's Figure 1 derives, analytically, how the *driver/NIC
//! interaction pattern* — not just the PCIe link — bounds achievable
//! packet rates: descriptor fetches, doorbells, write-backs and
//! interrupts all spend link bandwidth and host CPU that the naive
//! "effective bandwidth" number hides. This crate grows that argument
//! into a discrete simulation of four real interaction disciplines,
//! all driving the *same* `pcie-device` platform and the *same*
//! `pcie-nic` descriptor rings:
//!
//! * **kernel IRQ** ([`DriverPattern::KernelIrq`]) — interrupt-driven
//!   RX/TX with configurable MSI coalescing (frames + usecs), an
//!   optional head-register read in the handler, skb-cost software
//!   and a userspace copy;
//! * **DPDK poll** ([`DriverPattern::DpdkPoll`]) — busy polling on
//!   host-memory write-back descriptors, batched doorbells,
//!   prefetched descriptor rings, no interrupts anywhere;
//! * **AF_XDP** ([`DriverPattern::AfXdp`]) — fill/completion ring
//!   pair, early per-packet XDP verdicts (`XDP_DROP` or redirect),
//!   need-wakeup doorbells, zero-copy delivery;
//! * **io_uring** ([`DriverPattern::IoUring`]) — submission/completion
//!   queues with a bounded CQ (overflow drops completions) and
//!   zero-copy RX buffer rings, interrupt-driven but CQE-cheap.
//!
//! Because the device-side transactions are identical across
//! patterns, every throughput and latency difference the `ext_drivers`
//! benchmark reports is attributable to the interaction discipline:
//! when the driver learns about packets (MSI vs. poll grid), what each
//! packet costs in software, and how notification work (interrupts,
//! register reads, doorbells) rides the same credit-gated link as the
//! data path. DESIGN.md §10 documents the state machines and every
//! cost constant.
//!
//! ## Quickstart
//!
//! ```
//! use pcie_drivers::{DriverConfig, DriverPattern, DriverSim};
//! use pciebench::BenchSetup;
//!
//! let platform = BenchSetup::nfp6000_hsw().build_nic_platform();
//! let mut sim = DriverSim::new(DriverPattern::DpdkPoll,
//!                              DriverConfig::default(), platform);
//! let r = sim.run(64, 2_000);
//! assert_eq!(r.delivered, 2_000);          // closed loop never drops
//! assert!(r.mpps > 8.0);                   // poll-mode small-packet rate
//! let snap = sim.snapshot("dpdk 64B");     // full cross-layer telemetry
//! assert!(snap.groups().iter().any(|g| g.component == "driver.dpdk_poll"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod rx;
pub mod sim;

pub use config::{DriverConfig, DriverPattern, OfferedLoad, PATTERNS};
pub use sim::{DriverCounters, DriverRunResult, DriverSim};
