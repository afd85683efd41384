//! Data Link Layer Packets (DLLPs).
//!
//! DLLPs carry link maintenance traffic: TLP acknowledgments (Ack/Nak)
//! and flow-control credit updates. They are fixed 8-byte quantities on
//! the wire (2 B framing + 4 B body + 2 B CRC-16) and are the source of
//! the ~8–10 % data-link-layer overhead the paper folds into its
//! 57.88 Gb/s TLP-layer budget (§3). The simulator generates them
//! explicitly so DLL overhead *emerges* instead of being assumed.

use core::fmt;

/// Flow-control credit class.
///
/// PCIe accounts credits separately for posted requests (P),
/// non-posted requests (NP) and completions (CPL); each class has
/// header credits (1 per TLP) and data credits (1 per 16 B of payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcClass {
    /// Posted requests (memory writes).
    Posted,
    /// Non-posted requests (memory reads).
    NonPosted,
    /// Completions.
    Completion,
}

impl fmt::Display for FcClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FcClass::Posted => f.write_str("P"),
            FcClass::NonPosted => f.write_str("NP"),
            FcClass::Completion => f.write_str("CPL"),
        }
    }
}

/// A data link layer packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dllp {
    /// Acknowledges all TLPs up to and including `seq`.
    Ack {
        /// Highest acknowledged TLP sequence number (12 bits).
        seq: u16,
    },
    /// Requests replay of TLPs after `seq`.
    Nak {
        /// Last correctly received sequence number (12 bits).
        seq: u16,
    },
    /// Initial or update flow-control credit advertisement.
    UpdateFc {
        /// Which credit class this update advertises.
        class: FcClass,
        /// Cumulative header credits granted (8 bits on wire).
        hdr_credits: u16,
        /// Cumulative data credits granted (12 bits on wire), 16 B units.
        data_credits: u16,
    },
}

impl Dllp {
    /// Every DLLP occupies 8 bytes on the wire.
    pub const WIRE_BYTES: u32 = 8;

    /// Encodes the 4-byte DLLP body (type byte + 3 payload bytes).
    ///
    /// This is a faithful-enough encoding for byte accounting and
    /// deterministic round-tripping; the CRC-16 and framing symbols are
    /// represented by the fixed [`Self::WIRE_BYTES`] size.
    pub fn to_bytes(self) -> [u8; 4] {
        match self {
            Dllp::Ack { seq } => [0x00, 0, (seq >> 8) as u8 & 0xf, seq as u8],
            Dllp::Nak { seq } => [0x10, 0, (seq >> 8) as u8 & 0xf, seq as u8],
            Dllp::UpdateFc {
                class,
                hdr_credits,
                data_credits,
            } => {
                let ty = match class {
                    FcClass::Posted => 0x80,
                    FcClass::NonPosted => 0x90,
                    FcClass::Completion => 0xa0,
                };
                // [type][hdr credits][data credit hi nibble][data credit lo]
                [
                    ty,
                    (hdr_credits & 0xff) as u8,
                    (data_credits >> 8) as u8 & 0xf,
                    data_credits as u8,
                ]
            }
        }
    }

    /// Decodes a DLLP body produced by [`Self::to_bytes`].
    pub fn from_bytes(b: [u8; 4]) -> Option<Dllp> {
        match b[0] {
            0x00 => Some(Dllp::Ack {
                seq: ((b[2] as u16 & 0xf) << 8) | b[3] as u16,
            }),
            0x10 => Some(Dllp::Nak {
                seq: ((b[2] as u16 & 0xf) << 8) | b[3] as u16,
            }),
            0x80 | 0x90 | 0xa0 => {
                let class = match b[0] {
                    0x80 => FcClass::Posted,
                    0x90 => FcClass::NonPosted,
                    _ => FcClass::Completion,
                };
                Some(Dllp::UpdateFc {
                    class,
                    hdr_credits: b[1] as u16,
                    data_credits: ((b[2] as u16 & 0xf) << 8) | b[3] as u16,
                })
            }
            _ => None,
        }
    }
}

/// The modulus of the 12-bit TLP sequence-number space carried by
/// ACK/NAK DLLPs and the TLP sequence prefix (Eq. 1's 2 B field).
pub const SEQ_MODULUS: u16 = 1 << 12;

/// Masks a value into the 12-bit sequence space.
#[inline]
pub const fn seq_mask(seq: u16) -> u16 {
    seq & (SEQ_MODULUS - 1)
}

/// The sequence number following `seq`, with 12-bit wraparound.
#[inline]
pub const fn seq_next(seq: u16) -> u16 {
    seq_mask(seq.wrapping_add(1))
}

/// Distance from `from` forward to `to` in the 12-bit space.
#[inline]
pub const fn seq_distance(from: u16, to: u16) -> u16 {
    seq_mask(to.wrapping_sub(from))
}

/// Whether `a` precedes `b` in modular order — i.e. `b` is within the
/// forward half-window (2048) of `a`. This is the comparison a DLL
/// receiver uses to tell a duplicate (replayed) TLP from a new one,
/// and it stays correct across the 4095 → 0 wrap as long as fewer than
/// half the space is in flight (the replay buffer bound guarantees it).
#[inline]
pub const fn seq_precedes(a: u16, b: u16) -> bool {
    let d = seq_distance(a, b);
    d != 0 && d < SEQ_MODULUS / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all() {
        let cases = [
            Dllp::Ack { seq: 0xabc },
            Dllp::Nak { seq: 0x123 },
            Dllp::UpdateFc {
                class: FcClass::Posted,
                hdr_credits: 0x7f,
                data_credits: 0xfff,
            },
            Dllp::UpdateFc {
                class: FcClass::NonPosted,
                hdr_credits: 1,
                data_credits: 0,
            },
            Dllp::UpdateFc {
                class: FcClass::Completion,
                hdr_credits: 0,
                data_credits: 0x800,
            },
        ];
        for d in cases {
            assert_eq!(Dllp::from_bytes(d.to_bytes()), Some(d), "{d:?}");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(Dllp::from_bytes([0xff, 0, 0, 0]), None);
    }

    #[test]
    fn sequence_wraparound() {
        assert_eq!(seq_next(0), 1);
        assert_eq!(seq_next(4094), 4095);
        assert_eq!(seq_next(4095), 0, "12-bit wrap");
        assert_eq!(seq_distance(4095, 0), 1);
        assert_eq!(seq_distance(0, 4095), 4095);
        assert!(seq_precedes(4095, 0));
        assert!(seq_precedes(100, 101));
        assert!(!seq_precedes(101, 100));
        assert!(!seq_precedes(7, 7));
        // Beyond the half-window the order flips (modular ambiguity).
        assert!(!seq_precedes(0, 2048));
        assert!(seq_precedes(0, 2047));
    }

    #[test]
    fn class_display() {
        assert_eq!(FcClass::Posted.to_string(), "P");
        assert_eq!(FcClass::NonPosted.to_string(), "NP");
        assert_eq!(FcClass::Completion.to_string(), "CPL");
    }
}
