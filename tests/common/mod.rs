//! Helpers shared by the absolute-pin test files.

// Each test file is its own crate and uses a subset of these.
#![allow(dead_code)]

use pcie_telemetry::Snapshot;

/// FNV-1a over 64-bit words and bytes.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Fnv {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn word(&mut self, w: u64) -> &mut Fnv {
        self.bytes(&w.to_le_bytes())
    }

    pub fn float(&mut self, f: f64) -> &mut Fnv {
        self.word(f.to_bits())
    }

    pub fn snapshot(&mut self, s: &Snapshot) -> &mut Fnv {
        self.bytes(s.to_json().as_bytes())
    }
}
