//! Benchmark setups: host + device + link + IOMMU mode.

use crate::params::{BenchParams, CacheState};
use pcie_device::{DeviceParams, Platform};
use pcie_fault::FaultPlan;
use pcie_host::buffer::BufferAllocator;
use pcie_host::cache::CacheStorage;
use pcie_host::presets::{HostPreset, NumaPlacement};
use pcie_host::{HostBuffer, HostSystem, Iommu};
use pcie_link::LinkTiming;
use pcie_model::config::LinkConfig;

/// IOMMU configuration for a benchmark run (§6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuMode {
    /// Translation off (the default on the paper's systems).
    Off,
    /// Enabled with 4 KiB pages (`intel_iommu=on sp_off`).
    FourK,
    /// Enabled with 2 MiB super-pages (the recommended mitigation).
    SuperPages,
}

/// A constructor of one system's setup.
type Preset = fn() -> BenchSetup;

/// The systems [`BenchSetup::named`] knows, by the names the binaries
/// take (`pciebench_cli --system`, the suite's `PCIE_BENCH_SYSTEM`).
const SYSTEMS: [(&str, Preset); 6] = [
    ("nfp6000-hsw", BenchSetup::nfp6000_hsw),
    ("netfpga-hsw", BenchSetup::netfpga_hsw),
    ("nfp6000-hsw-e3", BenchSetup::nfp6000_hsw_e3),
    ("nfp6000-bdw", BenchSetup::nfp6000_bdw),
    ("nfp6000-snb", BenchSetup::nfp6000_snb),
    ("nfp6000-ib", BenchSetup::nfp6000_ib),
];

/// Everything needed to instantiate a platform for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchSetup {
    /// Host system preset (Table 1).
    pub preset: HostPreset,
    /// Device implementation (NFP / NetFPGA).
    pub device: DeviceParams,
    /// PCIe link configuration.
    pub link: LinkConfig,
    /// Link timing/DLLP policy.
    pub timing: LinkTiming,
    /// IOMMU mode.
    pub iommu: IommuMode,
    /// Master RNG seed (runs are bit-reproducible per seed).
    pub seed: u64,
    /// Whether built platforms record per-stage latency attribution
    /// (`pcie-telemetry`). Off by default: disabled telemetry costs
    /// one untaken branch per DMA.
    pub telemetry: bool,
    /// Fault-injection plan applied to built platforms. The default
    /// [`FaultPlan::none`] installs nothing, so fault-free runs are
    /// bit-identical to builds without the subsystem (pinned by
    /// `tests/fault_free.rs`). Fault streams derive from `seed`, so
    /// faulty runs are equally reproducible and parallel-safe.
    pub fault: FaultPlan,
}

impl BenchSetup {
    /// The NFP6000-HSW system (§6.1's primary subject).
    pub fn nfp6000_hsw() -> Self {
        BenchSetup {
            preset: HostPreset::nfp6000_hsw(),
            device: DeviceParams::nfp6000(),
            link: LinkConfig::gen3_x8(),
            timing: LinkTiming::default(),
            iommu: IommuMode::Off,
            seed: 0x9e3779b9,
            telemetry: false,
            fault: FaultPlan::none(),
        }
    }

    /// The NetFPGA-HSW system.
    pub fn netfpga_hsw() -> Self {
        BenchSetup {
            preset: HostPreset::netfpga_hsw(),
            device: DeviceParams::netfpga(),
            ..Self::nfp6000_hsw()
        }
    }

    /// NFP on the Xeon E3 (the Figure 6 anomaly).
    pub fn nfp6000_hsw_e3() -> Self {
        BenchSetup {
            preset: HostPreset::nfp6000_hsw_e3(),
            ..Self::nfp6000_hsw()
        }
    }

    /// NFP on the 2-way Broadwell (the NUMA/IOMMU system of §6.4–6.5).
    pub fn nfp6000_bdw() -> Self {
        BenchSetup {
            preset: HostPreset::nfp6000_bdw(),
            ..Self::nfp6000_hsw()
        }
    }

    /// NFP on Sandy Bridge (the Figure 7 system).
    pub fn nfp6000_snb() -> Self {
        BenchSetup {
            preset: HostPreset::nfp6000_snb(),
            ..Self::nfp6000_hsw()
        }
    }

    /// NFP on Ivy Bridge.
    pub fn nfp6000_ib() -> Self {
        BenchSetup {
            preset: HostPreset::nfp6000_ib(),
            ..Self::nfp6000_hsw()
        }
    }

    /// The setup of the system called `name`, such as `nfp6000-hsw` or
    /// `netfpga-hsw`. An unknown name gives a message that lists the
    /// accepted ones.
    pub fn named(name: &str) -> Result<Self, String> {
        match SYSTEMS.iter().find(|(n, _)| *n == name) {
            Some((_, setup)) => Ok(setup()),
            None => {
                let names: Vec<&str> = SYSTEMS.iter().map(|(n, _)| *n).collect();
                Err(format!(
                    "unknown system '{name}'; expected one of {}",
                    names.join(", ")
                ))
            }
        }
    }

    /// With a different IOMMU mode.
    pub fn with_iommu(mut self, mode: IommuMode) -> Self {
        self.iommu = mode;
        self
    }

    /// With a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// With per-stage telemetry recording enabled on built platforms.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// With a fault-injection plan. Panics on an invalid plan, so a
    /// bad BER surfaces at configuration time, not mid-sweep.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        self.fault = plan;
        self
    }

    /// With a symmetric bit-error rate on both link directions
    /// (`0.0` leaves the setup fault-free).
    pub fn with_ber(self, ber: f64) -> Self {
        self.with_faults(FaultPlan::symmetric_ber(ber))
    }

    /// Instantiates a bare platform with the commodity-NIC DMA-engine
    /// device profile ([`DeviceParams::nic_dma_engine`]) on this
    /// setup's host/link/IOMMU/fault configuration — the substrate the
    /// driver interaction patterns (`pcie-drivers`) and `pcie-nic`
    /// simulations build their rings and buffers on. The setup's
    /// micro-benchmark device (NFP/NetFPGA) is deliberately not used:
    /// NIC DMA engines stream from deep descriptor queues rather than
    /// parking a firmware worker per round trip.
    pub fn build_nic_platform(&self) -> Platform {
        let mut host = HostSystem::new(self.preset, self.seed);
        host.set_iommu(match self.iommu {
            IommuMode::Off => None,
            IommuMode::FourK => Some(Iommu::intel_4k()),
            IommuMode::SuperPages => Some(Iommu::intel_superpages()),
        });
        let mut platform =
            Platform::new(DeviceParams::nic_dma_engine(), host, self.link, self.timing);
        if self.fault.is_active() {
            platform.set_fault_plan(&self.fault, self.seed);
        }
        if self.telemetry {
            platform.enable_telemetry();
        }
        platform
    }

    /// Instantiates the platform and host buffer for `params`,
    /// applying NUMA placement, IOMMU mode and cache warming.
    pub fn build(&self, params: &BenchParams) -> (Platform, HostBuffer) {
        self.build_with(params, &mut CacheStorage::new())
    }

    /// [`BenchSetup::build`] drawing LLC set records from `pool` —
    /// the suite hot path builds one platform per grid cell, and
    /// recycling the 1.5 MiB record buffers (instead of allocating and
    /// writing fresh ones) is the dominant saving.
    /// Behaviour is bit-identical to [`BenchSetup::build`].
    pub fn build_with(
        &self,
        params: &BenchParams,
        pool: &mut CacheStorage,
    ) -> (Platform, HostBuffer) {
        params.validate().expect("invalid bench params");
        let node = match params.placement {
            NumaPlacement::Local => 0,
            NumaPlacement::Remote => {
                assert!(
                    self.preset.numa_nodes >= 2,
                    "{} is not a NUMA system",
                    self.preset.name
                );
                1
            }
        };
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(params.window.max(4096), node);
        let mut host = HostSystem::new_reusing(self.preset, self.seed, pool);
        host.set_iommu(match self.iommu {
            IommuMode::Off => None,
            IommuMode::FourK => Some(Iommu::intel_4k()),
            IommuMode::SuperPages => Some(Iommu::intel_superpages()),
        });
        let mut platform = Platform::new(self.device, host, self.link, self.timing);
        // Install faults before cache warming so DeviceWarm traffic is
        // subject to the same error processes as the measurement.
        if self.fault.is_active() {
            platform.set_fault_plan(&self.fault, self.seed);
        }
        if self.telemetry {
            platform.enable_telemetry();
        }
        match params.cache {
            // A freshly built cache is cold; thrashing is a no-op here
            // but kept for semantic clarity.
            CacheState::Cold => platform.host.thrash_caches(),
            CacheState::HostWarm => platform.host.host_warm(&buf, 0, params.window),
            CacheState::DeviceWarm => platform.device_warm(&buf, 0, params.window, self.link.mps),
        }
        (platform, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Pattern;

    #[test]
    fn build_baseline() {
        let setup = BenchSetup::netfpga_hsw();
        let (platform, buf) = setup.build(&BenchParams::baseline(64));
        assert_eq!(buf.node(), 0);
        assert_eq!(buf.len(), 8 * 1024);
        assert_eq!(platform.device().name, "NetFPGA");
    }

    #[test]
    fn remote_placement_needs_numa() {
        let setup = BenchSetup::nfp6000_bdw();
        let p = BenchParams {
            placement: NumaPlacement::Remote,
            ..BenchParams::baseline(64)
        };
        let (_, buf) = setup.build(&p);
        assert_eq!(buf.node(), 1);
    }

    #[test]
    #[should_panic(expected = "not a NUMA system")]
    fn remote_on_single_socket_panics() {
        let setup = BenchSetup::netfpga_hsw();
        let p = BenchParams {
            placement: NumaPlacement::Remote,
            ..BenchParams::baseline(64)
        };
        setup.build(&p);
    }

    #[test]
    fn device_warm_fills_ddio() {
        let setup = BenchSetup::netfpga_hsw();
        let p = BenchParams {
            cache: CacheState::DeviceWarm,
            pattern: Pattern::Sequential,
            ..BenchParams::baseline(64)
        };
        let (platform, _) = setup.build(&p);
        assert!(platform.host.cache_stats(0).write_allocs > 0);
    }

    #[test]
    fn fault_plan_installs_only_when_active() {
        let setup = BenchSetup::netfpga_hsw().with_ber(0.0);
        assert!(!setup.fault.is_active());
        let (platform, _) = setup.build(&BenchParams::baseline(64));
        assert!(!platform.link().faults_active());

        let setup = BenchSetup::netfpga_hsw().with_ber(1e-6);
        let (platform, _) = setup.build(&BenchParams::baseline(64));
        assert!(platform.link().faults_active());
        assert_eq!(platform.link().fault_plan().unwrap().upstream.ber, 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn bad_ber_rejected_at_setup() {
        let _ = BenchSetup::netfpga_hsw().with_ber(2.0);
    }

    #[test]
    fn iommu_modes_attach() {
        let setup = BenchSetup::nfp6000_bdw().with_iommu(IommuMode::FourK);
        let (platform, _) = setup.build(&BenchParams::baseline(64));
        assert_eq!(platform.host.iommu().unwrap().page_size, 4096);
        let setup = setup.with_iommu(IommuMode::SuperPages);
        let (platform, _) = setup.build(&BenchParams::baseline(64));
        assert_eq!(platform.host.iommu().unwrap().page_size, 2 << 20);
    }
}
