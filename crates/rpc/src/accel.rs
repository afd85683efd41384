//! The accelerator's service-time model.
//!
//! The accelerator device (RPCAcc-style) exposes `cores` parallel
//! service units behind its BAR window: a request that has been
//! absorbed into accelerator memory waits for the earliest-free core,
//! is served for a fixed `service` time, and its response is then
//! ready to cross back. The model is deliberately deterministic — a
//! fixed per-request cost and earliest-free-core (lowest index on
//! ties) assignment — so the fabric, not the service distribution, is
//! the only source of latency variance and the bypass-vs-bounce gap
//! reads cleanly off the stage means.

use pcie_sim::SimTime;

/// Service capacity of the accelerator: `cores` units, each taking
/// `service` per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelModel {
    /// Parallel service units.
    pub cores: u32,
    /// Fixed per-request service time.
    pub service: SimTime,
}

impl Default for AccelModel {
    /// Eight cores at 400 ns per request — 20 M requests/s, sized so
    /// the host-bounce fabric (IOMMU page-walker throughput) saturates
    /// *below* the accelerator while host-bypass saturates *at* it.
    fn default() -> Self {
        AccelModel {
            cores: 8,
            service: SimTime::from_ns(400),
        }
    }
}

impl AccelModel {
    /// Aggregate service capacity, requests per second (the
    /// normalisation point for offered-load sweeps).
    pub fn capacity_rps(&self) -> f64 {
        f64::from(self.cores) * 1e9 / self.service.as_ns_f64().max(1.0)
    }

    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores > 1024 {
            return Err(format!("cores {} out of range 1..=1024", self.cores));
        }
        if self.service == SimTime::ZERO {
            return Err("service time must be nonzero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_cores_over_service() {
        let m = AccelModel {
            cores: 4,
            service: SimTime::from_ns(500),
        };
        assert!((m.capacity_rps() - 8e6).abs() < 1.0);
        m.validate().unwrap();
    }

    #[test]
    fn validation_catches_nonsense() {
        for m in [
            AccelModel {
                cores: 0,
                ..AccelModel::default()
            },
            AccelModel {
                service: SimTime::ZERO,
                ..AccelModel::default()
            },
        ] {
            assert!(m.validate().is_err());
        }
    }
}
