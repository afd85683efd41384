//! # pcie-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate for the `pcie-bench`
//! reproduction: a picosecond-resolution clock ([`SimTime`]), a
//! FIFO-tie-broken event queue ([`EventQueue`], a binary heap keyed on
//! time and insertion order), busy-until resource timelines
//! ([`Timeline`]) for modelling serial resources such as PCIe link
//! directions, and a small, seedable, portable RNG ([`SplitMix64`]) so
//! that every simulation run is bit-for-bit reproducible.
//!
//! The engine is deliberately synchronous and single-threaded: the
//! simulated systems (PCIe links, DMA engines, root complexes) are
//! themselves serial resources, and determinism is a hard requirement
//! for a measurement-reproduction suite. This mirrors the design
//! philosophy of event-driven network stacks such as smoltcp:
//! simplicity and robustness over concurrency tricks.
//!
//! ## Quick example
//!
//! ```
//! use pcie_sim::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_ns(10), "b");
//! q.push(SimTime::from_ns(5), "a");
//! q.push(SimTime::from_ns(10), "c"); // same time as "b": FIFO order kept
//!
//! assert_eq!(q.pop(), Some((SimTime::from_ns(5), "a")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(10), "b")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(10), "c")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod time;
pub mod timeline;

pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use time::SimTime;
pub use timeline::Timeline;
