//! Multiple devices sharing one host — the paper's §9 future work:
//! "we have not yet studied the impact of multiple high performance
//! PCIe devices in the same server, a common configuration in
//! datacenters. Such a study would reveal further insights into the
//! implementation of IOMMUs (e.g. are IO-TLB entries shared between
//! devices) and potentially unearth further bottlenecks in the PCIe
//! root complex implementation."
//!
//! [`MultiPlatform`] attaches several [`DeviceEngine`]s (each with its
//! own link, tags, credits and IOMMU protection domain) to a single
//! [`HostSystem`]: the engines contend for the root-complex service
//! pipe, the DRAM channels, the DDIO ways and — crucially — the shared
//! IO-TLB.

use crate::params::DeviceParams;
use crate::platform::{DeviceEngine, DmaPath, DmaResult, P2pRoute, Target};
use pcie_host::{HostBuffer, HostSystem};
use pcie_link::{Direction, LinkTiming};
use pcie_model::config::LinkConfig;
use pcie_sim::SimTime;
use pcie_telemetry::Snapshot;
use pcie_topo::{Switch, SwitchConfig, Topology};

/// Base host-physical address of device BAR windows (well above any
/// DRAM the buffer allocator hands out).
pub const BAR_BASE: u64 = 1 << 40;
/// BAR window size per device (16 MiB, a typical large BAR).
pub const BAR_WINDOW: u64 = 16 * 1024 * 1024;

/// Two distinct mutable engines out of one slice.
fn pair_mut(v: &mut [DeviceEngine], a: usize, b: usize) -> (&mut DeviceEngine, &mut DeviceEngine) {
    assert!(a != b, "peer DMA needs two distinct devices");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Several devices behind one root complex — flat, or behind a shared
/// switch (see [`Topology`]).
pub struct MultiPlatform {
    /// The shared host.
    pub host: HostSystem,
    engines: Vec<DeviceEngine>,
    topo: Topology,
}

impl MultiPlatform {
    /// Builds a flat multi-device platform (every device directly on
    /// the root complex); device *i* translates in IOMMU domain *i*.
    pub fn new(devices: Vec<(DeviceParams, LinkConfig, LinkTiming)>, host: HostSystem) -> Self {
        assert!(!devices.is_empty());
        let engines = devices
            .into_iter()
            .enumerate()
            .map(|(i, (dev, cfg, timing))| DeviceEngine::new(dev, cfg, timing, i as u32))
            .collect();
        MultiPlatform {
            host,
            engines,
            topo: Topology::Flat,
        }
    }

    /// Convenience: `n` identical devices, flat attach.
    pub fn homogeneous(
        n: usize,
        dev: DeviceParams,
        cfg: LinkConfig,
        timing: LinkTiming,
        host: HostSystem,
    ) -> Self {
        Self::new(vec![(dev, cfg, timing); n], host)
    }

    /// Builds a switched platform: device *i* on downstream port *i*
    /// of one switch whose upstream port faces the root complex. Each
    /// device gets a [`BAR_WINDOW`]-sized BAR at [`bar_addr`](Self::bar_addr)
    /// for peer-to-peer traffic.
    pub fn switched(
        devices: Vec<(DeviceParams, LinkConfig, LinkTiming)>,
        host: HostSystem,
        sw_cfg: SwitchConfig,
    ) -> Self {
        let mut p = Self::new(devices, host);
        let n = p.engines.len();
        let mut sw = Switch::new(n, sw_cfg);
        for i in 0..n {
            sw.register_bar(i, Self::bar_addr(i), BAR_WINDOW);
        }
        p.topo = Topology::Switched(Box::new(sw));
        p
    }

    /// Convenience: `n` identical devices behind one switch.
    pub fn homogeneous_switched(
        n: usize,
        dev: DeviceParams,
        cfg: LinkConfig,
        timing: LinkTiming,
        host: HostSystem,
        sw_cfg: SwitchConfig,
    ) -> Self {
        Self::switched(vec![(dev, cfg, timing); n], host, sw_cfg)
    }

    /// Base address of device `i`'s BAR window.
    pub fn bar_addr(i: usize) -> u64 {
        BAR_BASE + i as u64 * BAR_WINDOW
    }

    /// Number of attached devices.
    pub fn device_count(&self) -> usize {
        self.engines.len()
    }

    /// The engine of device `i` (diagnostics: link counters, waits).
    pub fn engine(&self, i: usize) -> &DeviceEngine {
        &self.engines[i]
    }

    /// The topology the devices attach through.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The switch, when the topology is switched.
    pub fn switch(&self) -> Option<&Switch> {
        self.topo.switch()
    }

    /// Installs `plan` on every link of the platform: each device
    /// link and — when switched — the shared uplink. Each link gets
    /// its own injection streams via an indexed seed stream, so adding
    /// a device does not reshuffle the faults seen by the others. An
    /// inactive plan (e.g. [`pcie_fault::FaultPlan::none`] or a
    /// zero-BER plan) removes every injector, restoring the exact
    /// fault-free path — switched runs are then bit-identical to runs
    /// that never called this.
    pub fn set_fault_plan(&mut self, plan: &pcie_fault::FaultPlan, seed: u64) {
        /// Stream-family salt for per-link fault seeds.
        const FAULT_SALT: u64 = 0x00A9_C5E1_5EED_FA17;
        for (i, e) in self.engines.iter_mut().enumerate() {
            let s = pcie_sim::SplitMix64::stream(seed, FAULT_SALT, i as u64).next_u64();
            e.set_fault_plan(plan, s);
        }
        if let Some(sw) = self.topo.switch_mut() {
            let n = self.engines.len() as u64;
            let s = pcie_sim::SplitMix64::stream(seed, FAULT_SALT, n).next_u64();
            sw.set_fault_plan(plan, s);
        }
    }

    /// DMA read from device `i` into host memory.
    pub fn dma_read(
        &mut self,
        i: usize,
        want: SimTime,
        buf: &HostBuffer,
        offset: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let switch = self.topo.switch_mut().map(|sw| (sw, i));
        let target = Target::host(&mut self.host, buf, switch);
        self.engines[i].dma_read(target, want, buf.addr(offset), len, path)
    }

    /// DMA write from device `i` into host memory.
    pub fn dma_write(
        &mut self,
        i: usize,
        want: SimTime,
        buf: &HostBuffer,
        offset: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let switch = self.topo.switch_mut().map(|sw| (sw, i));
        let target = Target::host(&mut self.host, buf, switch);
        self.engines[i].dma_write(target, want, buf.addr(offset), len, path)
    }

    /// Peer-to-peer DMA write: device `src` writes `len` bytes at
    /// `offset` into device `dst`'s BAR window. The route follows the
    /// topology: forwarded at the switch when one is present (bounced
    /// through the root complex if its ACS redirect knob is on),
    /// through the root complex on flat attach. Posted semantics:
    /// `done` is when the last MWr has left `src`'s wire; `absorbed`
    /// is when `dst`'s BAR target logic has absorbed the last chunk.
    pub fn p2p_write(
        &mut self,
        src: usize,
        dst: usize,
        want: SimTime,
        offset: u64,
        len: u32,
    ) -> DmaResult {
        let addr = Self::bar_addr(dst) + offset;
        let (engine, target) = self.peer(src, dst);
        engine.dma_write(target, want, addr, len, DmaPath::DmaEngine)
    }

    /// Peer-to-peer DMA read: device `src` reads `len` bytes at
    /// `offset` from device `dst`'s BAR window. Requests take the
    /// route of [`MultiPlatform::p2p_write`]; completions are formed
    /// by `dst`'s BAR target (split by *its* MPS/RCB) and return
    /// ID-routed — directly through the switch even under ACS
    /// redirect, which only redirects requests.
    pub fn p2p_read(
        &mut self,
        src: usize,
        dst: usize,
        want: SimTime,
        offset: u64,
        len: u32,
    ) -> DmaResult {
        let addr = Self::bar_addr(dst) + offset;
        let (engine, target) = self.peer(src, dst);
        engine.dma_read(target, want, addr, len, DmaPath::DmaEngine)
    }

    /// Device `src`'s engine and, as its target, device `dst` along
    /// the topology's peer-to-peer route.
    fn peer(&mut self, src: usize, dst: usize) -> (&mut DeviceEngine, Target<'_>) {
        let (engine, peer) = pair_mut(&mut self.engines, src, dst);
        let host = &mut self.host;
        let route = match &mut self.topo {
            Topology::Flat => P2pRoute::RootComplex { host },
            Topology::Switched(sw) => {
                debug_assert_eq!(
                    sw.route(Self::bar_addr(dst)),
                    Some(dst),
                    "BAR windows are registered per port"
                );
                if sw.config().acs_redirect {
                    P2pRoute::AcsRedirect {
                        switch: sw,
                        src_port: src,
                        dst_port: dst,
                        host,
                    }
                } else {
                    P2pRoute::Switch {
                        switch: sw,
                        src_port: src,
                        dst_port: dst,
                    }
                }
            }
        };
        (engine, Target::Peer { peer, route })
    }

    /// Assembles the cross-layer telemetry snapshot: per-device link
    /// and engine groups prefixed `dev{i}.`, the shared host groups,
    /// and — when switched — the `topo.switch` / `topo.port{i}` groups
    /// plus the shared upstream link as `topo.uplink.*`.
    pub fn telemetry_snapshot(&self, label: impl Into<String>) -> Snapshot {
        let mut snap = Snapshot::new(label);
        for (i, e) in self.engines.iter().enumerate() {
            for dir in [Direction::Upstream, Direction::Downstream] {
                let mut g = e.link().telemetry_group(dir);
                g.component = format!("dev{i}.{}", g.component);
                snap.add_group(g);
                if let Some(mut g) = e.link().replay_telemetry_group(dir) {
                    g.component = format!("dev{i}.{}", g.component);
                    snap.add_group(g);
                }
            }
            for mut g in e.telemetry_groups() {
                g.component = format!("dev{i}.{}", g.component);
                snap.add_group(g);
            }
        }
        for g in self.host.telemetry_groups() {
            snap.add_group(g);
        }
        if let Topology::Switched(sw) = &self.topo {
            for g in sw.telemetry_groups() {
                snap.add_group(g);
            }
            for (dir, name) in [
                (Direction::Upstream, "topo.uplink.upstream"),
                (Direction::Downstream, "topo.uplink.downstream"),
            ] {
                let mut g = sw.uplink().telemetry_group(dir);
                g.component = name.to_string();
                snap.add_group(g);
                if let Some(mut g) = sw.uplink().replay_telemetry_group(dir) {
                    // "link.replay.upstream" → "topo.uplink.replay.upstream"
                    g.component =
                        format!("topo.uplink.{}", g.component.trim_start_matches("link."));
                    snap.add_group(g);
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_host::buffer::BufferAllocator;
    use pcie_host::presets::HostPreset;
    use pcie_host::Iommu;

    fn two_device_platform(iommu: bool) -> (MultiPlatform, HostBuffer, HostBuffer) {
        let mut alloc = BufferAllocator::default_layout();
        let buf_a = alloc.alloc(1 << 20, 0);
        let buf_b = alloc.alloc(1 << 20, 0);
        let mut host = HostSystem::new(HostPreset::nfp6000_bdw(), 31);
        if iommu {
            host.set_iommu(Some(Iommu::intel_4k()));
        }
        host.host_warm(&buf_a, 0, 1 << 20);
        host.host_warm(&buf_b, 0, 1 << 20);
        let p = MultiPlatform::homogeneous(
            2,
            DeviceParams::netfpga(),
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
            host,
        );
        (p, buf_a, buf_b)
    }

    /// Closed-loop read bandwidth of device 0 while device 1 issues a
    /// competing stream.
    fn bw_with_competitor(
        p: &mut MultiPlatform,
        buf_a: &HostBuffer,
        buf_b: Option<&HostBuffer>,
        n: u32,
        sz: u32,
    ) -> f64 {
        let window = 1 << 19; // 512KiB each: jointly exceeds the IO-TLB
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let off = (i as u64 * 4096 + (i as u64 % 64) * 64) % (window - 4096);
            let r = p.dma_read(0, SimTime::ZERO, buf_a, off & !63, sz, DmaPath::DmaEngine);
            last = last.max(r.done);
            if let Some(b) = buf_b {
                p.dma_read(1, SimTime::ZERO, b, off & !63, sz, DmaPath::DmaEngine);
            }
        }
        n as f64 * sz as f64 * 8.0 / last.as_secs_f64() / 1e9
    }

    #[test]
    fn two_devices_each_get_their_own_link() {
        let (mut p, a, b) = two_device_platform(false);
        // Large reads saturate one link; two devices together must
        // clearly exceed one device's throughput (separate links).
        let solo = bw_with_competitor(&mut p, &a, None, 4_000, 512);
        let (mut p2, a2, b2) = two_device_platform(false);
        let with = bw_with_competitor(&mut p2, &a2, Some(&b2), 4_000, 512);
        let _ = b;
        // Device 0 slows only by shared host resources, not by a
        // shared wire: far less than a 2x hit.
        assert!(
            with > solo * 0.60,
            "link separation: solo {solo:.1}, contended {with:.1}"
        );
        assert!(
            p2.engine(1)
                .link()
                .counters(pcie_link::Direction::Upstream)
                .tlps
                > 0
        );
    }

    #[test]
    fn shared_iotlb_devices_evict_each_other() {
        // Each device's working set alone fits the 64-entry IO-TLB
        // (128KiB < 256KiB); together they exceed it.
        let (mut p, a, _) = two_device_platform(true);
        let solo = bw_with_competitor(&mut p, &a, None, 4_000, 64);
        let (mut p2, a2, b2) = two_device_platform(true);
        let contended = bw_with_competitor(&mut p2, &a2, Some(&b2), 4_000, 64);
        let stats = p2.host.iommu().unwrap().stats();
        assert!(
            stats.tlb_misses > stats.tlb_hits / 4,
            "joint working set must thrash the shared IO-TLB: {stats:?}"
        );
        assert!(
            contended < solo * 0.85,
            "IO-TLB sharing must cost bandwidth: solo {solo:.1}, contended {contended:.1}"
        );
    }

    #[test]
    fn domains_isolate_translations_but_share_capacity() {
        let mut iommu = Iommu::intel_4k();
        // Same page number in two domains: two distinct entries.
        iommu.translate_in(SimTime::ZERO, 0, 0x1000, 64);
        let t = iommu.translate_in(SimTime::ZERO, 1, 0x1000, 64);
        assert!(!t.tlb_hit, "domain 1 must not hit domain 0's entry");
        let t = iommu.translate_in(SimTime::ZERO, 1, 0x1000, 64);
        assert!(t.tlb_hit);
        // Domain flush removes only that domain.
        iommu.flush_domain(1);
        let t0 = iommu.translate_in(SimTime::ZERO, 0, 0x1000, 64);
        assert!(t0.tlb_hit, "domain 0 survives domain 1's flush");
        let t1 = iommu.translate_in(SimTime::ZERO, 1, 0x1000, 64);
        assert!(!t1.tlb_hit);
    }

    #[test]
    #[should_panic]
    fn empty_platform_rejected() {
        let host = HostSystem::new(HostPreset::netfpga_hsw(), 1);
        MultiPlatform::new(vec![], host);
    }

    /// `n` devices, each with its own 32-page (128 KiB) buffer, all
    /// sweeping their buffers page by page in lockstep for `rounds`
    /// rounds. Returns the IOMMU stats after the run.
    fn iotlb_sweep(n: usize, rounds: usize) -> pcie_host::iommu::IommuStats {
        const PAGES: u64 = 32;
        let mut alloc = BufferAllocator::default_layout();
        let bufs: Vec<HostBuffer> = (0..n).map(|_| alloc.alloc(PAGES * 4096, 0)).collect();
        let mut host = HostSystem::new(HostPreset::netfpga_hsw(), 7);
        host.set_iommu(Some(Iommu::intel_4k()));
        let mut p = MultiPlatform::homogeneous(
            n,
            DeviceParams::netfpga(),
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
            host,
        );
        for _ in 0..rounds {
            for page in 0..PAGES {
                for (d, buf) in bufs.iter().enumerate() {
                    p.dma_read(d, SimTime::ZERO, buf, page * 4096, 64, DmaPath::DmaEngine);
                }
            }
        }
        p.host.iommu().unwrap().stats()
    }

    /// A two-device switched platform plus a warm 1 MiB host buffer.
    fn switched_pair() -> (MultiPlatform, HostBuffer) {
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(1 << 20, 0);
        let mut host = HostSystem::new(HostPreset::netfpga_hsw(), 11);
        host.host_warm(&buf, 0, 1 << 20);
        let p = MultiPlatform::homogeneous_switched(
            2,
            DeviceParams::netfpga(),
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
            host,
            SwitchConfig::gen3_x8(),
        );
        (p, buf)
    }

    /// Mixed uplink + crossbar traffic: host DMA writes from device 0
    /// interleaved with peer writes 0→1. Returns every completion
    /// instant in picoseconds — a full timing trace, so two runs are
    /// bit-identical iff the traces match.
    fn drive_switched(p: &mut MultiPlatform, buf: &HostBuffer) -> Vec<u64> {
        let mut trace = Vec::with_capacity(4096);
        for i in 0..2_000u64 {
            let off = (i * 256) % ((1 << 20) - 256);
            let r = p.dma_write(0, SimTime::ZERO, buf, off, 256, DmaPath::DmaEngine);
            trace.push(r.done.as_ps());
            let r = p.p2p_write(0, 1, SimTime::ZERO, (i * 64) % 4096, 64);
            trace.push(r.done.as_ps());
        }
        trace
    }

    #[test]
    fn inactive_fault_plan_keeps_switched_runs_bit_identical() {
        let (mut base, buf) = switched_pair();
        let baseline = drive_switched(&mut base, &buf);

        for plan in [
            pcie_fault::FaultPlan::none(),
            pcie_fault::FaultPlan::symmetric_ber(0.0),
        ] {
            let (mut p, buf) = switched_pair();
            p.set_fault_plan(&plan, 42);
            let trace = drive_switched(&mut p, &buf);
            assert_eq!(trace, baseline, "inactive plan must not perturb timing");
            let up = p.switch().unwrap().uplink();
            let bup = base.switch().unwrap().uplink();
            for dir in [Direction::Upstream, Direction::Downstream] {
                assert_eq!(up.counters(dir), bup.counters(dir));
                assert!(up.replay_telemetry_group(dir).is_none());
            }
            let snap = p.telemetry_snapshot("ber0");
            assert!(
                !snap.groups().iter().any(|g| g.component.contains("replay")),
                "inactive plan must leave no replay groups in the snapshot"
            );
        }
    }

    #[test]
    fn uplink_ber_causes_replays_and_slows_the_fabric() {
        let (mut base, buf) = switched_pair();
        let baseline = drive_switched(&mut base, &buf);

        let (mut p, buf) = switched_pair();
        p.set_fault_plan(&pcie_fault::FaultPlan::symmetric_ber(2e-5), 42);
        let trace = drive_switched(&mut p, &buf);
        assert_eq!(
            trace.len(),
            baseline.len(),
            "every transfer still completes"
        );
        let total: u64 = trace.iter().sum();
        let base_total: u64 = baseline.iter().sum();
        assert!(total > base_total, "replays must cost wire time somewhere");

        let snap = p.telemetry_snapshot("ber");
        let replays: u64 = [
            "topo.uplink.replay.upstream",
            "topo.uplink.replay.downstream",
        ]
        .iter()
        .map(|name| {
            let g = snap
                .group(name)
                .unwrap_or_else(|| panic!("missing {name} group"));
            g.get("replays").unwrap()
        })
        .sum();
        assert!(
            replays > 0,
            "the shared uplink must see replays at this BER"
        );
        // The per-device links carry the same plan (distinct streams).
        assert!(snap
            .groups()
            .iter()
            .any(|g| g.component.starts_with("dev0.link.replay")));
    }

    /// Peer DMAs share the host DMAs' chunk loops, so a drop or poison
    /// on the initiator's link meets the same AER accounting,
    /// completion timer, retries and aborts.
    #[test]
    fn peer_dmas_meet_drops_and_poison_like_host_dmas() {
        use pcie_fault::{DirFaults, FaultPlan};
        // Only device 0's link is faulty: it drops its 3rd upstream
        // TLP and poisons its 5th, both peer requests. The uplink's
        // faults are `uplink_drops_and_poison_reach_the_dma`'s.
        let plan = |max_read_retries| FaultPlan {
            upstream: DirFaults {
                drop_nth: Some(3),
                poison_nth: Some(5),
                ..DirFaults::none()
            },
            max_read_retries,
            ..FaultPlan::none()
        };
        let gap = SimTime::from_us(50);
        for acs in [false, true] {
            let pair = |plan: FaultPlan| {
                let sw = SwitchConfig::gen3_x8();
                let mut p = MultiPlatform::homogeneous_switched(
                    2,
                    DeviceParams::nfp6000(),
                    LinkConfig::gen3_x8(),
                    LinkTiming::default(),
                    HostSystem::new(HostPreset::nfp6000_hsw(), 11),
                    if acs { sw.with_acs_redirect() } else { sw },
                );
                p.engines[0].set_fault_plan(&plan, 1);
                p
            };

            // Eight one-TLP peer writes: the lost two are counted and
            // reach neither the peer's port nor the root complex.
            let mut p = pair(plan(2));
            for i in 0..8 {
                p.p2p_write(0, 1, gap.times(i), i * 256, 256);
            }
            let e = *p.engine(0).device_errors();
            let fc = p.engine(0).link().fault_counters(Direction::Upstream);
            let fc = fc.expect("plan installed");
            assert_eq!((e.dropped_writes, e.poisoned_writes), (1, 1), "acs {acs}");
            assert_eq!((fc.dropped, fc.poisoned), (1, 1), "acs {acs}");
            let (to_port, to_rc) = (
                p.switch().unwrap().port_counters(1).p2p_out_tlps,
                p.host.stats().p2p_redirects,
            );
            let want = if acs { (0, 6) } else { (6, 0) };
            assert_eq!((to_port, to_rc), want, "acs {acs}");

            // Eight one-request peer reads: the 3rd's request is
            // dropped and the 4th's poisoned, so each waits out the
            // completion timer and succeeds on its retry.
            let mut p = pair(plan(2));
            let lat: Vec<SimTime> = (0..8)
                .map(|i| p.p2p_read(0, 1, gap.times(i), 0, 256).latency())
                .collect();
            let e = *p.engine(0).device_errors();
            assert_eq!(e.completion_timeouts, 2, "acs {acs}: {e:?}");
            assert_eq!(e.read_retries, 2, "acs {acs}: {e:?}");
            assert_eq!(e.read_aborts, 0, "acs {acs}: {e:?}");
            let timeout = plan(2).completion_timeout;
            for faulted in [lat[2], lat[3]] {
                assert!(faulted >= lat[0] + timeout, "acs {acs}: {lat:?}");
            }

            // Without a retry budget both reads abort.
            let mut p = pair(plan(0));
            for i in 0..8 {
                p.p2p_read(0, 1, gap.times(i), 0, 256);
            }
            let e = *p.engine(0).device_errors();
            assert_eq!((e.read_aborts, e.read_retries), (2, 0), "acs {acs}");
        }
    }

    /// A TLP dropped or poisoned on the switch's shared uplink is lost
    /// to its DMA as one lost on the device's own link is: the root
    /// complex (or the peer) never absorbs it, and device 0's AER
    /// counters add up its link's and the uplink's fault counters.
    #[test]
    fn uplink_drops_and_poison_reach_the_dma() {
        use pcie_fault::{DirFaults, FaultCounters, FaultPlan};
        // Every link, the uplink included, drops its 3rd TLP and
        // poisons its 5th in each direction.
        let faults = DirFaults {
            drop_nth: Some(3),
            poison_nth: Some(5),
            ..DirFaults::none()
        };
        let plan = FaultPlan {
            upstream: faults,
            downstream: faults,
            // Enough for all eight faults to land on one read.
            max_read_retries: 8,
            ..FaultPlan::none()
        };
        let lost = |c: &FaultCounters| c.dropped + c.poisoned;
        let gap = SimTime::from_us(50);
        let buf = BufferAllocator::default_layout().alloc(1 << 20, 0);
        for acs in [false, true] {
            let pair = || {
                let sw = SwitchConfig::gen3_x8();
                let mut p = MultiPlatform::homogeneous_switched(
                    2,
                    DeviceParams::nfp6000(),
                    LinkConfig::gen3_x8(),
                    LinkTiming::default(),
                    HostSystem::new(HostPreset::nfp6000_hsw(), 11),
                    if acs { sw.with_acs_redirect() } else { sw },
                );
                p.set_fault_plan(&plan, 1);
                p
            };
            // Device 0's link's and the uplink's counters in `dir`.
            let counters = |p: &MultiPlatform, dir| {
                let dev = p.engine(0).link().fault_counters(dir);
                let up = p.switch().unwrap().uplink().fault_counters(dir);
                (*dev.expect("plan installed"), *up.expect("plan installed"))
            };

            // Eight one-TLP host writes: the uplink loses two of the
            // six the device's link delivers.
            let mut p = pair();
            for i in 0..8 {
                p.dma_write(0, gap.times(i), &buf, i * 256, 256, DmaPath::DmaEngine);
            }
            let e = *p.engine(0).device_errors();
            let (dev, up) = counters(&p, Direction::Upstream);
            assert_eq!((up.dropped, up.poisoned), (1, 1), "acs {acs}");
            assert_eq!(e.dropped_writes, dev.dropped + up.dropped, "acs {acs}");
            assert_eq!(e.poisoned_writes, dev.poisoned + up.poisoned, "acs {acs}");
            assert_eq!(p.host.stats().write_tlps, 8 - lost(&dev) - lost(&up));

            // Eight one-completion host reads: a request lost on either
            // hop, or a completion dropped on either, waits out the
            // completion timer; a poisoned completion is re-issued.
            let mut p = pair();
            for i in 0..8 {
                p.dma_read(0, gap.times(i), &buf, i * 64, 64, DmaPath::DmaEngine);
            }
            let e = *p.engine(0).device_errors();
            let (dev_up, up_up) = counters(&p, Direction::Upstream);
            let (dev_down, up_down) = counters(&p, Direction::Downstream);
            for c in [dev_up, up_up, dev_down, up_down] {
                assert_eq!((c.dropped, c.poisoned), (1, 1), "acs {acs}: {c:?}");
            }
            assert_eq!(
                e.completion_timeouts,
                lost(&dev_up) + lost(&up_up) + dev_down.dropped + up_down.dropped,
                "acs {acs}: {e:?}"
            );
            assert_eq!(
                e.poisoned_completions,
                dev_down.poisoned + up_down.poisoned,
                "acs {acs}: {e:?}"
            );
            assert_eq!(e.read_aborts, 0, "acs {acs}: {e:?}");
            let attempts = 8 + e.read_retries;
            assert_eq!(
                p.host.stats().read_tlps,
                attempts - lost(&dev_up) - lost(&up_up),
                "acs {acs}: requests that reached the root complex"
            );

            // Twelve one-TLP peer writes: under ACS redirect they cross
            // the uplink both ways, through the root complex.
            let mut p = pair();
            for i in 0..12 {
                p.p2p_write(0, 1, gap.times(i), i * 256, 256);
            }
            let e = *p.engine(0).device_errors();
            let (dev, up) = counters(&p, Direction::Upstream);
            let (_, down) = counters(&p, Direction::Downstream);
            if acs {
                for c in [up, down] {
                    assert_eq!((c.dropped, c.poisoned), (1, 1), "{c:?}");
                }
            }
            assert_eq!(e.dropped_writes, dev.dropped + up.dropped + down.dropped);
            assert_eq!(
                e.poisoned_writes,
                dev.poisoned + up.poisoned + down.poisoned
            );
            let at_rc = 12 - lost(&dev) - lost(&up);
            assert_eq!(p.host.stats().p2p_redirects, if acs { at_rc } else { 0 });
            // A request poisoned on its way down still crosses the
            // peer's link; the peer discards it.
            let at_peer = p.engine(1).link().counters(Direction::Downstream).tlps;
            assert_eq!(
                at_peer,
                12 - lost(&dev) - lost(&up) - down.dropped,
                "acs {acs}"
            );
        }
    }

    #[test]
    fn lone_device_fits_the_iotlb_exactly() {
        // 32 pages < 64 entries: round 1 walks each page once, every
        // later access hits, and nothing is ever evicted. Pinned
        // exactly — any accounting drift in the shared-TLB path shows
        // up here first.
        let rounds = 5;
        let s = iotlb_sweep(1, rounds);
        assert_eq!(s.tlb_misses, 32, "one walk per page, first round only");
        assert_eq!(s.tlb_hits, 32 * (rounds as u64 - 1));
        assert_eq!(s.tlb_evictions, 0, "working set fits: no eviction");
    }

    #[test]
    fn four_domains_thrash_the_shared_iotlb() {
        // 4 × 32 pages = 128 distinct (domain, page) entries cycling
        // through a 64-entry LRU TLB: the classic sequential-sweep
        // pathology — every single access misses, and every walk past
        // the first 64 displaces a live entry. Pinned exactly.
        let rounds = 5;
        let s = iotlb_sweep(4, rounds);
        let accesses = 4 * 32 * rounds as u64;
        assert_eq!(s.tlb_misses, accesses, "LRU + cyclic sweep: all miss");
        assert_eq!(s.tlb_hits, 0);
        assert_eq!(
            s.tlb_evictions,
            accesses - 64,
            "every walk after the TLB fills displaces a live entry"
        );
    }
}
