//! Per-direction wire statistics.

use pcie_sim::SimTime;

/// Byte and packet counters for one link direction.
///
/// These are the link-level ground truth the bandwidth benchmarks
/// report against, and they let tests verify that DLL overhead stays
/// in the 2–10 % envelope the paper discusses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// TLPs serialised.
    pub tlps: u64,
    /// Total TLP bytes (headers + DW-padded payload + framing/DLL).
    pub tlp_bytes: u64,
    /// Payload bytes carried inside TLPs (un-padded).
    pub payload_bytes: u64,
    /// DLLPs serialised.
    pub dllps: u64,
    /// Total DLLP bytes.
    pub dllp_bytes: u64,
}

impl WireCounters {
    /// All bytes that occupied the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.tlp_bytes + self.dllp_bytes
    }

    /// Fraction of wire bytes that are DLLP (link maintenance) traffic.
    pub fn dll_overhead_fraction(&self) -> f64 {
        let total = self.wire_bytes();
        if total == 0 {
            0.0
        } else {
            self.dllp_bytes as f64 / total as f64
        }
    }

    /// Payload throughput in bits/s over `elapsed`.
    pub fn payload_bw(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.payload_bytes as f64 * 8.0 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let c = WireCounters {
            tlps: 10,
            tlp_bytes: 900,
            payload_bytes: 640,
            dllps: 10,
            dllp_bytes: 100,
        };
        assert_eq!(c.wire_bytes(), 1000);
        assert!((c.dll_overhead_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_math() {
        let c = WireCounters {
            payload_bytes: 1_000_000,
            tlp_bytes: 1_100_000,
            ..Default::default()
        };
        // 1MB payload in 1ms = 8 Gb/s.
        let bw = c.payload_bw(SimTime::from_ms(1));
        assert!((bw - 8e9).abs() < 1e3);
        assert_eq!(c.payload_bw(SimTime::ZERO), 0.0);
    }

    #[test]
    fn empty_counters_safe() {
        let c = WireCounters::default();
        assert_eq!(c.dll_overhead_fraction(), 0.0);
    }
}
