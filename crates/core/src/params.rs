//! Benchmark parameters (paper §4, Figure 3).

use pcie_host::presets::NumaPlacement;

/// Cache-line size: the granularity the unit size is rounded to.
pub const CACHE_LINE: u64 = 64;

/// Most units a window may hold. The access order keeps one `u32` per
/// unit, so this bounds it to 64 MiB: a 1 GiB window at 64 B units,
/// 8× the largest window any figure or extension sweeps.
pub const MAX_UNITS: u64 = 1 << 24;

/// Order units are visited in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Units visited in address order.
    Sequential,
    /// Units visited in a (seeded, reproducible) random permutation,
    /// reshuffled every pass. The paper uses random access for most
    /// experiments.
    Random,
}

/// State of the LLC before (and during) a benchmark (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Cache thrashed before the run — nothing resident.
    Cold,
    /// The window written by the CPU before the run.
    HostWarm,
    /// The window written by the device (DMA writes) before the run —
    /// populates the DDIO ways.
    DeviceWarm,
}

/// One benchmark's host-buffer access geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchParams {
    /// Bytes of the buffer accessed repeatedly.
    pub window: u64,
    /// Bytes moved per DMA.
    pub transfer: u32,
    /// Start offset within a unit (0 = cache-line aligned).
    pub offset: u32,
    /// Visit order.
    pub pattern: Pattern,
    /// LLC state.
    pub cache: CacheState,
    /// Buffer placement relative to the device's socket.
    pub placement: NumaPlacement,
}

impl BenchParams {
    /// Cache-aligned random-access defaults over an 8 KiB window —
    /// the baseline configuration of §6.1.
    pub fn baseline(transfer: u32) -> Self {
        BenchParams {
            window: 8 * 1024,
            transfer,
            offset: 0,
            pattern: Pattern::Random,
            cache: CacheState::HostWarm,
            placement: NumaPlacement::Local,
        }
    }

    /// The unit size: offset + transfer, rounded up to a cache line,
    /// so each DMA touches the same number of lines (Fig. 3).
    pub fn unit(&self) -> u64 {
        ((self.offset as u64 + self.transfer as u64).max(1)).next_multiple_of(CACHE_LINE)
    }

    /// Number of units in the window.
    pub fn units(&self) -> u64 {
        self.window / self.unit()
    }

    /// Checks the geometry is usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.transfer == 0 {
            return Err("transfer size must be non-zero".into());
        }
        if self.transfer > 4096 {
            return Err(format!("transfer {} exceeds 4KiB", self.transfer));
        }
        if self.offset as u64 >= CACHE_LINE {
            return Err(format!("offset {} must be < {}", self.offset, CACHE_LINE));
        }
        if self.units() == 0 {
            return Err(format!(
                "window {} too small for unit {}",
                self.window,
                self.unit()
            ));
        }
        if self.units() > MAX_UNITS {
            return Err(format!(
                "window {} holds {} units of {}B; at most {MAX_UNITS} can be enumerated",
                self.window,
                self.units(),
                self.unit(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_rounds_to_cache_line() {
        let mut p = BenchParams::baseline(64);
        assert_eq!(p.unit(), 64);
        p.transfer = 65;
        assert_eq!(p.unit(), 128);
        p.transfer = 8;
        p.offset = 60;
        assert_eq!(p.unit(), 128, "offset pushes into a second line");
        p.transfer = 1;
        p.offset = 0;
        assert_eq!(p.unit(), 64);
    }

    #[test]
    fn units_divide_window() {
        let p = BenchParams::baseline(64);
        assert_eq!(p.units(), 128);
        let p = BenchParams {
            transfer: 192,
            ..BenchParams::baseline(64)
        };
        // unit = 192 -> 8192/192 = 42 whole units.
        assert_eq!(p.units(), 42);
    }

    #[test]
    fn validation() {
        assert!(BenchParams::baseline(64).validate().is_ok());
        assert!(BenchParams::baseline(0).validate().is_err());
        assert!(BenchParams::baseline(8192).validate().is_err());
        let p = BenchParams {
            offset: 64,
            ..BenchParams::baseline(64)
        };
        assert!(p.validate().is_err());
        let p = BenchParams {
            window: 64,
            transfer: 128,
            ..BenchParams::baseline(128)
        };
        assert!(p.validate().is_err());
        // One unit past what an access order may enumerate.
        let p = BenchParams {
            window: (MAX_UNITS + 1) * 64,
            ..BenchParams::baseline(64)
        };
        assert!(p.validate().is_err());
        let p = BenchParams {
            window: MAX_UNITS * 64,
            ..p
        };
        assert!(p.validate().is_ok());
    }
}
