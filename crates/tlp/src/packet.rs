//! TLP header wire format: zero-copy [`Packet`] view + high-level
//! [`TlpRepr`], in the style of smoltcp's `Packet`/`Repr` pairs.
//!
//! Layouts follow the PCIe Base Specification (rev 3.x), §2.2. All
//! multi-byte fields are big-endian within their double-word, as on the
//! wire.

use crate::types::{CplStatus, DeviceId, Tag, TlpType};
use core::fmt;

/// Errors from parsing or emitting TLP headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the header (or header + payload).
    Truncated,
    /// The fmt/type combination is not one we understand.
    UnknownType,
    /// A field held a value that violates the spec (e.g. status bits).
    Malformed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => f.write_str("truncated TLP"),
            Error::UnknownType => f.write_str("unknown TLP fmt/type"),
            Error::Malformed => f.write_str("malformed TLP field"),
        }
    }
}

impl std::error::Error for Error {}

/// A read/write view over a byte buffer containing a TLP.
///
/// Field accessors decode directly from the buffer; setters encode into
/// it. Use [`TlpRepr`] for a validated, high-level representation.
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without checking it. Accessors may panic on short
    /// buffers; use [`Packet::new_checked`] for untrusted input.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wraps a buffer, verifying it is long enough for its header and
    /// payload.
    pub fn new_checked(buffer: T) -> Result<Packet<T>, Error> {
        let p = Packet::new_unchecked(buffer);
        p.check_len()?;
        Ok(p)
    }

    /// Verifies the buffer length against the encoded header/payload.
    pub fn check_len(&self) -> Result<(), Error> {
        let data = self.buffer.as_ref();
        if data.len() < 12 {
            return Err(Error::Truncated);
        }
        let ty = self.tlp_type().ok_or(Error::UnknownType)?;
        let mut need = ty.header_len();
        if ty.has_data() {
            need += self.length_dw() as usize * 4;
        }
        if data.len() < need {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    fn dw0(&self) -> [u8; 4] {
        let d = self.buffer.as_ref();
        [d[0], d[1], d[2], d[3]]
    }

    /// The decoded TLP type, if recognised.
    pub fn tlp_type(&self) -> Option<TlpType> {
        let b0 = self.buffer.as_ref()[0];
        TlpType::from_fields(b0 >> 5, b0 & 0x1f)
    }

    /// Traffic class (0–7).
    pub fn traffic_class(&self) -> u8 {
        (self.dw0()[1] >> 4) & 0x7
    }

    /// Payload length in double-words. The wire encodes 1024 as 0.
    pub fn length_dw(&self) -> u16 {
        let d = self.dw0();
        let raw = (((d[2] & 0x3) as u16) << 8) | d[3] as u16;
        if raw == 0 {
            1024
        } else {
            raw
        }
    }

    /// TLP digest (ECRC) present flag.
    pub fn has_digest(&self) -> bool {
        self.dw0()[2] & 0x80 != 0
    }

    /// Requester ID (memory requests) — bytes 4–5.
    pub fn requester_id(&self) -> DeviceId {
        let d = self.buffer.as_ref();
        DeviceId::from_u16(u16::from_be_bytes([d[4], d[5]]))
    }

    /// Transaction tag (memory requests) — byte 6.
    pub fn mem_tag(&self) -> Tag {
        Tag(self.buffer.as_ref()[6] as u16)
    }

    /// Last-DW byte enables (memory requests).
    pub fn last_be(&self) -> u8 {
        self.buffer.as_ref()[7] >> 4
    }

    /// First-DW byte enables (memory requests).
    pub fn first_be(&self) -> u8 {
        self.buffer.as_ref()[7] & 0xf
    }

    /// Target address of a memory request (3DW or 4DW form).
    pub fn mem_address(&self) -> u64 {
        let d = self.buffer.as_ref();
        match self.tlp_type() {
            Some(TlpType::MRd64) | Some(TlpType::MWr64) => {
                let hi = u32::from_be_bytes([d[8], d[9], d[10], d[11]]) as u64;
                let lo = u32::from_be_bytes([d[12], d[13], d[14], d[15]]) as u64;
                (hi << 32) | (lo & !0x3)
            }
            _ => (u32::from_be_bytes([d[8], d[9], d[10], d[11]]) & !0x3) as u64,
        }
    }

    /// Completer ID (completions) — bytes 4–5.
    pub fn completer_id(&self) -> DeviceId {
        let d = self.buffer.as_ref();
        DeviceId::from_u16(u16::from_be_bytes([d[4], d[5]]))
    }

    /// Completion status.
    pub fn cpl_status(&self) -> Option<CplStatus> {
        CplStatus::from_bits(self.buffer.as_ref()[6] >> 5)
    }

    /// Remaining byte count (completions). The wire encodes 4096 as 0.
    pub fn byte_count(&self) -> u16 {
        let d = self.buffer.as_ref();
        let raw = (((d[6] & 0xf) as u16) << 8) | d[7] as u16;
        if raw == 0 {
            4096
        } else {
            raw
        }
    }

    /// Requester ID echoed in a completion — bytes 8–9.
    pub fn cpl_requester_id(&self) -> DeviceId {
        let d = self.buffer.as_ref();
        DeviceId::from_u16(u16::from_be_bytes([d[8], d[9]]))
    }

    /// Tag echoed in a completion — byte 10.
    pub fn cpl_tag(&self) -> Tag {
        Tag(self.buffer.as_ref()[10] as u16)
    }

    /// Lower 7 address bits of a completion.
    pub fn lower_address(&self) -> u8 {
        self.buffer.as_ref()[11] & 0x7f
    }

    /// The payload bytes (for TLPs with data).
    pub fn payload(&self) -> &[u8] {
        let ty = self.tlp_type().expect("unknown type");
        let hdr = ty.header_len();
        if !ty.has_data() {
            return &[];
        }
        let len = self.length_dw() as usize * 4;
        &self.buffer.as_ref()[hdr..hdr + len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    fn set_dw0(&mut self, ty: TlpType, tc: u8, len_dw: u16, digest: bool) {
        let d = self.buffer.as_mut();
        d[0] = (ty.fmt_field() << 5) | ty.type_field();
        d[1] = (tc & 0x7) << 4;
        let raw = if len_dw == 1024 { 0 } else { len_dw };
        d[2] = ((raw >> 8) as u8 & 0x3) | if digest { 0x80 } else { 0 };
        d[3] = raw as u8;
    }
}

/// High-level, validated representation of a TLP.
///
/// `TlpRepr` captures the *semantic* content of each packet; `parse`
/// and `emit` convert between it and wire bytes. Payload data is
/// handled separately (the simulator cares about sizes, not contents,
/// but `emit` zero-fills so buffers are always fully initialised).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlpRepr {
    /// Memory read request.
    MemRead {
        /// Requesting device.
        requester: DeviceId,
        /// Transaction tag (≤ 255 on the wire).
        tag: Tag,
        /// Byte address of the first byte to read.
        addr: u64,
        /// Number of bytes requested (1–4096).
        len_bytes: u32,
        /// Use the 4DW (64-bit address) header format.
        addr64: bool,
    },
    /// Memory write request.
    MemWrite {
        /// Requesting device.
        requester: DeviceId,
        /// Byte address of the first byte written.
        addr: u64,
        /// Number of payload bytes (1–4096).
        len_bytes: u32,
        /// Use the 4DW (64-bit address) header format.
        addr64: bool,
    },
    /// Type-0 configuration read of one register (device
    /// initialisation: §5.3's "kernel driver to initialize the
    /// hardware").
    ConfigRead {
        /// Requesting agent (the root complex, on behalf of the CPU).
        requester: DeviceId,
        /// Target device function.
        completer: DeviceId,
        /// Transaction tag.
        tag: Tag,
        /// Register number in DWORDs (10 bits: 4KiB config space).
        register: u16,
    },
    /// Type-0 configuration write of one register.
    ConfigWrite {
        /// Requesting agent.
        requester: DeviceId,
        /// Target device function.
        completer: DeviceId,
        /// Transaction tag.
        tag: Tag,
        /// Register number in DWORDs.
        register: u16,
    },
    /// Completion (with data iff `len_dw > 0`).
    Completion {
        /// Completing device (e.g. the root complex).
        completer: DeviceId,
        /// Original requester, echoed back.
        requester: DeviceId,
        /// Original tag, echoed back.
        tag: Tag,
        /// Completion status.
        status: CplStatus,
        /// Bytes remaining to satisfy the request, including this
        /// completion's payload.
        byte_count: u16,
        /// Low 7 bits of the address of the first payload byte.
        lower_addr: u8,
        /// Payload length in double-words (0 for a data-less `Cpl`).
        len_dw: u16,
    },
}

/// Length in DW of a transfer of `len_bytes` starting at byte offset
/// `addr % 4` within a DW.
fn len_dw_for(addr: u64, len_bytes: u32) -> u16 {
    let off = (addr & 0x3) as u32;
    ((off + len_bytes).div_ceil(4)) as u16
}

/// First/last byte enables for a byte-granular memory request.
pub(crate) fn byte_enables(addr: u64, len_bytes: u32) -> (u8, u8) {
    let off = (addr & 0x3) as u32;
    let len_dw = len_dw_for(addr, len_bytes);
    let first = (0xfu8 << off) & 0xf;
    if len_dw == 1 {
        // All enabled bytes are in the first DW.
        let end = off + len_bytes; // <= 4
        let mask = (0xfu8 >> (4 - end)) & first;
        (mask, 0)
    } else {
        let tail = (off + len_bytes) % 4;
        let last = if tail == 0 { 0xf } else { 0xfu8 >> (4 - tail) };
        (first, last)
    }
}

impl TlpRepr {
    /// The wire type of this TLP.
    pub fn tlp_type(&self) -> TlpType {
        match self {
            TlpRepr::MemRead { addr64: true, .. } => TlpType::MRd64,
            TlpRepr::MemRead { addr64: false, .. } => TlpType::MRd32,
            TlpRepr::MemWrite { addr64: true, .. } => TlpType::MWr64,
            TlpRepr::MemWrite { addr64: false, .. } => TlpType::MWr32,
            TlpRepr::ConfigRead { .. } => TlpType::CfgRd0,
            TlpRepr::ConfigWrite { .. } => TlpType::CfgWr0,
            TlpRepr::Completion { len_dw: 0, .. } => TlpType::Cpl,
            TlpRepr::Completion { .. } => TlpType::CplD,
        }
    }

    /// Payload length in double-words.
    pub fn len_dw(&self) -> u16 {
        match *self {
            TlpRepr::MemRead {
                addr, len_bytes, ..
            }
            | TlpRepr::MemWrite {
                addr, len_bytes, ..
            } => len_dw_for(addr, len_bytes),
            TlpRepr::ConfigRead { .. } | TlpRepr::ConfigWrite { .. } => 1,
            TlpRepr::Completion { len_dw, .. } => len_dw,
        }
    }

    /// Total buffer length needed to emit this TLP (header + payload,
    /// without framing/DLL bytes — those are accounted in [`crate::sizes`]).
    pub fn buffer_len(&self) -> usize {
        let ty = self.tlp_type();
        ty.header_len()
            + if ty.has_data() {
                self.len_dw() as usize * 4
            } else {
                0
            }
    }

    /// Parses a wire buffer.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<TlpRepr, Error> {
        packet.check_len()?;
        let ty = packet.tlp_type().ok_or(Error::UnknownType)?;
        match ty {
            TlpType::MRd32 | TlpType::MRd64 => Ok(TlpRepr::MemRead {
                requester: packet.requester_id(),
                tag: packet.mem_tag(),
                addr: packet.mem_address() + be_offset(packet.first_be())? as u64,
                len_bytes: request_len_bytes(
                    packet.length_dw(),
                    packet.first_be(),
                    packet.last_be(),
                )?,
                addr64: ty == TlpType::MRd64,
            }),
            TlpType::MWr32 | TlpType::MWr64 => Ok(TlpRepr::MemWrite {
                requester: packet.requester_id(),
                addr: packet.mem_address() + be_offset(packet.first_be())? as u64,
                len_bytes: request_len_bytes(
                    packet.length_dw(),
                    packet.first_be(),
                    packet.last_be(),
                )?,
                addr64: ty == TlpType::MWr64,
            }),
            TlpType::CfgRd0 | TlpType::CfgWr0 => {
                let d = packet.buffer.as_ref();
                let completer = DeviceId::from_u16(u16::from_be_bytes([d[8], d[9]]));
                let register = (((d[10] & 0xf) as u16) << 6) | ((d[11] >> 2) as u16);
                let common = (packet.requester_id(), packet.mem_tag());
                if ty == TlpType::CfgRd0 {
                    Ok(TlpRepr::ConfigRead {
                        requester: common.0,
                        completer,
                        tag: common.1,
                        register,
                    })
                } else {
                    Ok(TlpRepr::ConfigWrite {
                        requester: common.0,
                        completer,
                        tag: common.1,
                        register,
                    })
                }
            }
            TlpType::Cpl | TlpType::CplD => Ok(TlpRepr::Completion {
                completer: packet.completer_id(),
                requester: packet.cpl_requester_id(),
                tag: packet.cpl_tag(),
                status: packet.cpl_status().ok_or(Error::Malformed)?,
                byte_count: packet.byte_count(),
                lower_addr: packet.lower_address(),
                len_dw: if ty == TlpType::CplD {
                    packet.length_dw()
                } else {
                    0
                },
            }),
        }
    }

    /// Emits into a wire buffer (zero-filling any data payload).
    ///
    /// The buffer must be at least [`TlpRepr::buffer_len`] bytes.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) -> Result<(), Error> {
        if packet.buffer.as_ref().len() < self.buffer_len() {
            return Err(Error::Truncated);
        }
        let ty = self.tlp_type();
        let len_dw = self.len_dw();
        packet.set_dw0(ty, 0, len_dw.max(1), false);
        match *self {
            TlpRepr::MemRead {
                requester,
                addr,
                len_bytes,
                addr64,
                ..
            }
            | TlpRepr::MemWrite {
                requester,
                addr,
                len_bytes,
                addr64,
            } => {
                // Writes carry no tag on the wire (posted); reads do.
                let tag = match *self {
                    TlpRepr::MemRead { tag, .. } => tag,
                    _ => Tag(0),
                };
                if tag.0 > 0xff {
                    return Err(Error::Malformed);
                }
                if len_bytes == 0 || len_bytes > 4096 {
                    return Err(Error::Malformed);
                }
                let (first_be, last_be) = byte_enables(addr, len_bytes);
                let d = packet.buffer.as_mut();
                d[4..6].copy_from_slice(&requester.to_u16().to_be_bytes());
                d[6] = tag.0 as u8;
                d[7] = (last_be << 4) | first_be;
                let dw_addr = addr & !0x3;
                if addr64 {
                    d[8..12].copy_from_slice(&((dw_addr >> 32) as u32).to_be_bytes());
                    d[12..16].copy_from_slice(&((dw_addr as u32) & !0x3).to_be_bytes());
                } else {
                    if dw_addr > u32::MAX as u64 {
                        return Err(Error::Malformed);
                    }
                    d[8..12].copy_from_slice(&((dw_addr as u32) & !0x3).to_be_bytes());
                }
                if ty.has_data() {
                    let hdr = ty.header_len();
                    let len = len_dw as usize * 4;
                    d[hdr..hdr + len].fill(0);
                }
            }
            TlpRepr::ConfigRead {
                requester,
                completer,
                tag,
                register,
            }
            | TlpRepr::ConfigWrite {
                requester,
                completer,
                tag,
                register,
            } => {
                if tag.0 > 0xff || register > 0x3ff {
                    return Err(Error::Malformed);
                }
                let d = packet.buffer.as_mut();
                d[4..6].copy_from_slice(&requester.to_u16().to_be_bytes());
                d[6] = tag.0 as u8;
                d[7] = 0x0f; // first BE: whole DW; last BE: 0
                d[8..10].copy_from_slice(&completer.to_u16().to_be_bytes());
                d[10] = ((register >> 6) & 0xf) as u8;
                d[11] = ((register & 0x3f) << 2) as u8;
                if ty.has_data() {
                    d[12..16].fill(0);
                }
            }
            TlpRepr::Completion {
                completer,
                requester,
                tag,
                status,
                byte_count,
                lower_addr,
                len_dw,
            } => {
                if tag.0 > 0xff || byte_count > 4096 || lower_addr > 0x7f {
                    return Err(Error::Malformed);
                }
                let d = packet.buffer.as_mut();
                d[4..6].copy_from_slice(&completer.to_u16().to_be_bytes());
                let bc = if byte_count == 4096 { 0 } else { byte_count };
                d[6] = (status.to_bits() << 5) | ((bc >> 8) as u8 & 0xf);
                d[7] = bc as u8;
                d[8..10].copy_from_slice(&requester.to_u16().to_be_bytes());
                d[10] = tag.0 as u8;
                d[11] = lower_addr;
                if len_dw > 0 {
                    let len = len_dw as usize * 4;
                    d[12..12 + len].fill(0);
                }
            }
        }
        Ok(())
    }
}

/// Byte offset within the first DW implied by the first-BE mask.
fn be_offset(first_be: u8) -> Result<u8, Error> {
    match first_be {
        0b1111 | 0b0001 | 0b0011 | 0b0111 => Ok(0),
        0b1110 | 0b0010 | 0b0110 => Ok(1),
        0b1100 | 0b0100 => Ok(2),
        0b1000 => Ok(3),
        _ => Err(Error::Malformed),
    }
}

/// Number of trailing enabled bytes implied by the last-BE mask.
fn be_tail(last_be: u8) -> Result<u32, Error> {
    match last_be {
        0b1111 => Ok(4),
        0b0111 => Ok(3),
        0b0011 => Ok(2),
        0b0001 => Ok(1),
        _ => Err(Error::Malformed),
    }
}

/// Reconstructs the byte length of a request from DW length + BEs.
fn request_len_bytes(len_dw: u16, first_be: u8, last_be: u8) -> Result<u32, Error> {
    let off = be_offset(first_be)? as u32;
    if last_be == 0 {
        // Single-DW request: count enabled bits in first_be.
        if len_dw != 1 {
            return Err(Error::Malformed);
        }
        Ok(first_be.count_ones())
    } else {
        // A last-DW enable names a DW after the first one, and the
        // enabled bytes are contiguous only if the first DW's enables
        // run up to its top byte.
        if len_dw < 2 || !matches!(first_be, 0b1111 | 0b1110 | 0b1100 | 0b1000) {
            return Err(Error::Malformed);
        }
        let tail = be_tail(last_be)?;
        Ok((len_dw as u32 - 2) * 4 + (4 - off) + tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(bus: u8) -> DeviceId {
        DeviceId::new(bus, 0, 0)
    }

    fn round_trip(repr: TlpRepr) -> TlpRepr {
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf);
        repr.emit(&mut pkt).expect("emit");
        let pkt = Packet::new_checked(&buf[..]).expect("checked");
        TlpRepr::parse(&pkt).expect("parse")
    }

    #[test]
    fn mrd_round_trip_aligned() {
        let r = TlpRepr::MemRead {
            requester: dev(5),
            tag: Tag(17),
            addr: 0x1234_5678_0040,
            len_bytes: 512,
            addr64: true,
        };
        assert_eq!(round_trip(r), r);
        assert_eq!(r.tlp_type(), TlpType::MRd64);
        assert_eq!(r.len_dw(), 128);
        assert_eq!(r.buffer_len(), 16);
    }

    #[test]
    fn mrd32_round_trip() {
        let r = TlpRepr::MemRead {
            requester: dev(1),
            tag: Tag(0),
            addr: 0x8_0000,
            len_bytes: 64,
            addr64: false,
        };
        assert_eq!(round_trip(r), r);
        assert_eq!(r.buffer_len(), 12);
    }

    #[test]
    fn mwr_round_trip_unaligned() {
        // 7 bytes starting at offset 2 within a DW: spans 3 DWs.
        let r = TlpRepr::MemWrite {
            requester: dev(2),
            addr: 0x1002,
            len_bytes: 7,
            addr64: false,
        };
        assert_eq!(r.len_dw(), 3);
        assert_eq!(round_trip(r), r);
        // header 12 + 3 DW payload
        assert_eq!(r.buffer_len(), 12 + 12);
    }

    #[test]
    fn single_dw_sub_word() {
        for (addr, len) in [(0x1000u64, 1u32), (0x1001, 2), (0x1003, 1), (0x1000, 4)] {
            let r = TlpRepr::MemRead {
                requester: dev(3),
                tag: Tag(9),
                addr,
                len_bytes: len,
                addr64: false,
            };
            assert_eq!(r.len_dw(), 1, "addr={addr:#x} len={len}");
            assert_eq!(round_trip(r), r, "addr={addr:#x} len={len}");
        }
    }

    #[test]
    fn config_requests_round_trip() {
        let rd = TlpRepr::ConfigRead {
            requester: DeviceId::new(0, 0, 0),
            completer: DeviceId::new(0x3b, 0, 0),
            tag: Tag(9),
            register: 0x34 / 4, // capability pointer
        };
        assert_eq!(round_trip(rd), rd);
        assert_eq!(rd.tlp_type(), TlpType::CfgRd0);
        assert_eq!(rd.buffer_len(), 12, "CfgRd0 is a bare 3DW header");
        let wr = TlpRepr::ConfigWrite {
            requester: DeviceId::new(0, 0, 0),
            completer: DeviceId::new(0x3b, 0, 0),
            tag: Tag(10),
            register: 0x3ff, // last register of the 4KiB space
        };
        assert_eq!(round_trip(wr), wr);
        assert_eq!(wr.buffer_len(), 16, "CfgWr0 carries one DW of data");
    }

    #[test]
    fn config_register_out_of_range_rejected() {
        let r = TlpRepr::ConfigRead {
            requester: DeviceId::new(0, 0, 0),
            completer: DeviceId::new(1, 0, 0),
            tag: Tag(0),
            register: 0x400,
        };
        let mut buf = vec![0u8; 16];
        assert_eq!(
            r.emit(&mut Packet::new_unchecked(&mut buf)),
            Err(Error::Malformed)
        );
    }

    #[test]
    fn cpld_round_trip() {
        let r = TlpRepr::Completion {
            completer: dev(0),
            requester: dev(5),
            tag: Tag(200),
            status: CplStatus::Success,
            byte_count: 256,
            lower_addr: 0x40,
            len_dw: 64,
        };
        assert_eq!(round_trip(r), r);
        assert_eq!(r.tlp_type(), TlpType::CplD);
        assert_eq!(r.buffer_len(), 12 + 256);
    }

    #[test]
    fn cpl_no_data_round_trip() {
        let r = TlpRepr::Completion {
            completer: dev(0),
            requester: dev(5),
            tag: Tag(3),
            status: CplStatus::UnsupportedRequest,
            byte_count: 4,
            lower_addr: 0,
            len_dw: 0,
        };
        assert_eq!(round_trip(r), r);
        assert_eq!(r.tlp_type(), TlpType::Cpl);
    }

    #[test]
    fn byte_count_4096_encodes_as_zero() {
        let r = TlpRepr::Completion {
            completer: dev(0),
            requester: dev(1),
            tag: Tag(1),
            status: CplStatus::Success,
            byte_count: 4096,
            lower_addr: 0,
            len_dw: 64,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf);
        r.emit(&mut pkt).unwrap();
        // wire bytes 6..8 hold status + byte count; count must be 0
        assert_eq!(buf[6] & 0xf, 0);
        assert_eq!(buf[7], 0);
        assert_eq!(round_trip(r), r);
    }

    #[test]
    fn emit_rejects_bad_fields() {
        let r = TlpRepr::MemRead {
            requester: dev(0),
            tag: Tag(999), // > 255
            addr: 0,
            len_bytes: 4,
            addr64: false,
        };
        let mut buf = vec![0u8; 16];
        assert_eq!(
            r.emit(&mut Packet::new_unchecked(&mut buf)),
            Err(Error::Malformed)
        );
        let r = TlpRepr::MemWrite {
            requester: dev(0),
            addr: 0x1_0000_0000, // needs 64-bit addressing
            len_bytes: 4,
            addr64: false,
        };
        assert_eq!(
            r.emit(&mut Packet::new_unchecked(&mut buf)),
            Err(Error::Malformed)
        );
    }

    #[test]
    fn parse_rejects_truncated() {
        assert!(matches!(
            Packet::new_checked(&[0u8; 4][..]),
            Err(Error::Truncated)
        ));
        // A MWr32 header claiming 1 DW of data but no payload bytes.
        let r = TlpRepr::MemWrite {
            requester: dev(0),
            addr: 0,
            len_bytes: 4,
            addr64: false,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        r.emit(&mut Packet::new_unchecked(&mut buf)).unwrap();
        assert!(matches!(
            Packet::new_checked(&buf[..12]),
            Err(Error::Truncated)
        ));
    }

    #[test]
    fn payload_view() {
        let r = TlpRepr::MemWrite {
            requester: dev(0),
            addr: 0,
            len_bytes: 64,
            addr64: true,
        };
        let mut buf = vec![0xaau8; r.buffer_len()];
        let mut pkt = Packet::new_unchecked(&mut buf);
        r.emit(&mut pkt).unwrap();
        let pkt = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload().len(), 64);
        assert!(pkt.payload().iter().all(|&b| b == 0), "emit zero-fills");
    }
}
