//! # pcie-tlp — PCIe transaction-layer wire formats
//!
//! Byte-accurate representations of the PCIe packets that matter for
//! end-host networking performance (paper §3):
//!
//! * **TLPs** — Memory Read (`MRd`), Memory Write (`MWr`) and
//!   Completion with Data (`CplD`), with real header layouts
//!   (3DW/4DW, requester/completer IDs, tags, byte enables, length in
//!   double-words) following the smoltcp `Packet`/`Repr` idiom: a
//!   zero-copy [`packet::Packet`] view over bytes plus a high-level
//!   [`packet::TlpRepr`] that can `parse`/`emit`.
//! * **DLLPs** — the data-link-layer packets (ACK/NAK, flow-control
//!   updates) whose bandwidth cost the paper's model estimates.
//! * **Overhead accounting** ([`sizes`]) — the paper's Eq. 1–3:
//!   bytes-on-wire for any transfer given MPS/MRRS and addressing mode.
//! * **Transfer splitting** ([`split`]) — how DMA engines and root
//!   complexes actually chop transfers: MRRS-bounded read requests and
//!   MPS-bounded writes that never cross 4 KiB boundaries, and
//!   completions split on the Read Completion Boundary (RCB).
//!
//! Everything here is pure data manipulation — no timing. Timing lives
//! in `pcie-link` and above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dllp;
pub mod packet;
pub mod sizes;
pub mod split;
pub mod types;

pub use packet::{Packet, TlpRepr};
pub use sizes::{TlpOverheads, WireCost};
pub use types::{CplStatus, DeviceId, Tag, TlpType};
