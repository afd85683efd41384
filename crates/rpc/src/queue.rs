//! One RPC queue: NIC ingress → fabric → accelerator → fabric → NIC
//! egress, simulated end to end over a private two-device switched
//! platform.
//!
//! Port 0 of the switch holds the NIC (a commodity DMA engine), port 1
//! the accelerator. A request that arrives on the wire is serialised
//! through the NIC's ingress engine, RSS-classified onto this queue's
//! ring, crosses the fabric as a peer-to-peer DMA write into the
//! accelerator's BAR window, queues for a service core, and the
//! response crosses back the same way before leaving on the wire. The
//! fabric hops follow the platform's topology route: the internal
//! crossbar under host-bypass, or up the shared link, through the root
//! complex (IOMMU in path) and back down under host-bounce.
//!
//! Every hop boundary is a timestamp, so the six [`RpcStage`]
//! durations telescope exactly to end-to-end latency — asserted at
//! the end of every run.
//!
//! Fabric writes stride their target BAR windows page by page
//! ([`BAR_PAGE`] apart, [`WINDOW_PAGES`] pages per direction), so the
//! bounce path's IOMMU working set (two domains × 256 pages) cyclically
//! sweeps the 64-entry IO-TLB — the §6.5 thrash regime where the page
//! walker, not the wire, bounds throughput. The bypass path never
//! translates, which is exactly the gap the benchmark measures.

use crate::accel::AccelModel;
use pcie_device::MultiPlatform;
use pcie_flows::QueueRun;
use pcie_link::Direction;
use pcie_sim::{EventQueue, SimTime, Timeline};
use pcie_telemetry::{CounterGroup, RpcStage, StageSample, StageStats};
use pcie_topo::PortCounters;

/// Switch port of the NIC device.
pub const NIC_PORT: usize = 0;
/// Switch port of the accelerator device.
pub const ACCEL_PORT: usize = 1;
/// Stride between consecutive fabric-write targets (one IOMMU page).
pub const BAR_PAGE: u64 = 4096;
/// Pages per direction's staging window (256 pages = 1 MiB, well
/// inside the 16 MiB BAR; two directions × 256 pages ≫ the 64-entry
/// IO-TLB, forcing the bounce path into the thrash regime).
pub const WINDOW_PAGES: u64 = 256;

/// NIC-side costs: wire serialisation, fixed pipeline latencies, RSS
/// classification, and the per-queue ring bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicModel {
    /// MAC/DMA serialisation rate per direction, Gb/s.
    pub wire_gbps: f64,
    /// Fixed ingress pipeline latency after serialisation.
    pub ingress_base: SimTime,
    /// RSS hash + ring append per request.
    pub steer: SimTime,
    /// Fixed egress pipeline latency after serialisation.
    pub egress_base: SimTime,
    /// Per-queue ring capacity: requests in flight beyond this are
    /// dropped at the MAC (open loop — the wire does not wait).
    pub ring: u32,
}

impl Default for NicModel {
    /// A 100 GbE-class NIC: 40 ns fixed latency each way, 25 ns RSS
    /// classification, 256-entry rings.
    fn default() -> Self {
        NicModel {
            wire_gbps: 100.0,
            ingress_base: SimTime::from_ns(40),
            steer: SimTime::from_ns(25),
            egress_base: SimTime::from_ns(40),
            ring: 256,
        }
    }
}

impl NicModel {
    /// Serialisation time of `bytes` at the NIC's wire rate.
    pub fn wire_time(&self, bytes: u32) -> SimTime {
        SimTime::from_ns_f64(f64::from(bytes) * 8.0 / self.wire_gbps)
    }

    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        if !self.wire_gbps.is_finite() || self.wire_gbps <= 0.0 {
            return Err(format!(
                "wire rate {} Gb/s must be positive",
                self.wire_gbps
            ));
        }
        if self.ring < 2 || self.ring > 4096 {
            return Err(format!("ring {} out of range 2..=4096", self.ring));
        }
        Ok(())
    }
}

/// One steered RPC: wire arrival time, request and response sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRpc {
    /// Wire arrival time of the request.
    pub at: SimTime,
    /// Request payload bytes.
    pub req: u32,
    /// Response payload bytes.
    pub resp: u32,
}

/// Event counters for one queue's run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcCounters {
    /// RPCs steered to this queue (arrivals, including drops).
    pub offered: u64,
    /// RPCs whose response made it back onto the wire.
    pub completed: u64,
    /// RPCs dropped at the MAC for a full ring (open loop).
    pub dropped: u64,
    /// Request bytes offered.
    pub req_bytes_offered: u64,
    /// Request bytes of completed RPCs (what crossed the fabric).
    pub req_bytes_completed: u64,
    /// Response bytes of completed RPCs.
    pub resp_bytes_completed: u64,
}

/// An RPC in flight: the hop-boundary timestamps collected so far plus
/// its sizes. `t0..t6` in order: wire arrival, ingress absorbed,
/// steered, request absorbed at the accelerator, response ready,
/// response absorbed at the NIC, response on the wire.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    t0: SimTime,
    t1: SimTime,
    t2: SimTime,
    t3: SimTime,
    t4: SimTime,
    req: u32,
    resp: u32,
}

/// One hop event of the staged pipeline.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Steered request issues its fabric crossing (NIC → accelerator).
    FabricReq(InFlight),
    /// Request absorbed at the accelerator; queue for a service core.
    AccelStart(InFlight),
    /// Response ready; issue the return crossing (accelerator → NIC).
    FabricResp(InFlight),
    /// Response at the NIC; serialise onto the wire.
    Egress(InFlight),
}

/// Result of one [`RpcQueueSim::run`]. The platform is consumed, so
/// the report captures every fabric-side counter the engine and the
/// reconciliation tests need: both switch ports, the shared uplink,
/// root-complex redirects and IOMMU statistics.
#[derive(Debug, Clone)]
pub struct RpcQueueReport {
    /// Queue number (RSS indirection target).
    pub queue: u32,
    /// Event counters.
    pub counters: RpcCounters,
    /// Per-stage latency attribution for completed RPCs.
    pub stages: StageStats<RpcStage>,
    /// Virtual time from first arrival to last response on the wire.
    pub elapsed: SimTime,
    /// High-water mark of in-flight RPCs (ring occupancy).
    pub inflight_peak: u32,
    /// Switch port counters: `[NIC_PORT, ACCEL_PORT]`.
    pub ports: [PortCounters; 2],
    /// Uplink upstream (TLPs, TLP wire bytes) — zero under bypass.
    pub uplink_up: (u64, u64),
    /// Uplink downstream (TLPs, TLP wire bytes) — zero under bypass.
    pub uplink_down: (u64, u64),
    /// Peer TLPs validated by the root complex — zero under bypass.
    pub p2p_redirects: u64,
    /// IO-TLB hits (bounce path translations).
    pub iommu_hits: u64,
    /// IO-TLB misses (page walks).
    pub iommu_misses: u64,
}

impl QueueRun for RpcQueueReport {
    type Stage = RpcStage;
    fn queue(&self) -> u32 {
        self.queue
    }
    fn offered(&self) -> u64 {
        self.counters.offered
    }
    fn served(&self) -> u64 {
        self.counters.completed
    }
    fn dropped(&self) -> u64 {
        self.counters.dropped
    }
    fn elapsed(&self) -> SimTime {
        self.elapsed
    }
    fn stages(&self) -> &StageStats<RpcStage> {
        &self.stages
    }
}

impl RpcQueueReport {
    /// Counters as the `rpc.queue<N>` telemetry group.
    pub fn telemetry_group(&self) -> CounterGroup {
        let c = &self.counters;
        let mut g = CounterGroup::new(format!("rpc.queue{}", self.queue));
        g.push("offered", c.offered)
            .push("completed", c.completed)
            .push("dropped", c.dropped)
            .push("req_bytes_offered", c.req_bytes_offered)
            .push("req_bytes_completed", c.req_bytes_completed)
            .push("resp_bytes_completed", c.resp_bytes_completed)
            .push("inflight_peak", u64::from(self.inflight_peak))
            .push("p99_ns", self.e2e().quantile_ns(0.99) as u64)
            .push("p999_ns", self.e2e().quantile_ns(0.999) as u64);
        g
    }
}

/// One RPC queue bound to its own two-device switched platform.
/// Build, [`RpcQueueSim::run`] the steered schedule, read the report.
pub struct RpcQueueSim {
    queue: u32,
    nic: NicModel,
    platform: MultiPlatform,
    ingress: Timeline,
    egress: Timeline,
    core_free: Vec<SimTime>,
    service: SimTime,
    hops: EventQueue<Hop>,
    inflight: u32,
    inflight_peak: u32,
    counters: RpcCounters,
    stages: StageStats<RpcStage>,
    done_max: SimTime,
    req_seq: u64,
    resp_seq: u64,
}

impl RpcQueueSim {
    /// Builds queue `queue` over a freshly constructed two-device
    /// switched `platform` (NIC on port [`NIC_PORT`], accelerator on
    /// port [`ACCEL_PORT`]).
    ///
    /// # Panics
    /// On invalid models or a platform that is not a two-device
    /// switched topology.
    pub fn new(queue: u32, nic: NicModel, accel: AccelModel, platform: MultiPlatform) -> Self {
        nic.validate().expect("invalid NIC model");
        accel.validate().expect("invalid accelerator model");
        assert_eq!(platform.device_count(), 2, "RPC pipeline needs NIC + accel");
        assert!(
            platform.switch().is_some(),
            "RPC pipeline runs on a switched topology"
        );
        RpcQueueSim {
            queue,
            nic,
            platform,
            ingress: Timeline::new(),
            egress: Timeline::new(),
            core_free: vec![SimTime::ZERO; accel.cores as usize],
            service: accel.service,
            hops: EventQueue::new(),
            inflight: 0,
            inflight_peak: 0,
            counters: RpcCounters::default(),
            stages: StageStats::new(),
            done_max: SimTime::ZERO,
            req_seq: 0,
            resp_seq: 0,
        }
    }

    /// Offers `rpcs` (non-decreasing arrival times) to the queue and
    /// drains everything, consuming the simulation.
    ///
    /// # Panics
    /// Panics if arrival times decrease, or if the report fails
    /// [`QueueRun::audit`] (among its laws the in-run telescoping pin:
    /// the six stage totals sum to the end-to-end total within
    /// floating-point rounding).
    pub fn run(mut self, rpcs: &[QueuedRpc]) -> RpcQueueReport {
        let mut last = SimTime::ZERO;
        for r in rpcs {
            assert!(r.at >= last, "arrivals must be time-ordered");
            last = r.at;
            self.drain(r.at);
            if self.hops.is_empty() {
                // Quiescent gap: raise the queue's scheduled-in-the-
                // past watermark to the arrival, so a hop wrongly
                // scheduled before it panics.
                self.hops.fast_forward(r.at);
            }
            self.counters.offered += 1;
            self.counters.req_bytes_offered += u64::from(r.req);
            if self.inflight >= self.nic.ring {
                // Open loop: the ring is full, the MAC drops.
                self.counters.dropped += 1;
                continue;
            }
            self.inflight += 1;
            self.inflight_peak = self.inflight_peak.max(self.inflight);
            self.ingest(r.at, r.req, r.resp);
        }
        self.drain(SimTime::MAX);
        debug_assert_eq!(self.inflight, 0, "every admitted RPC must complete");
        let sw = self.platform.switch().expect("switched by construction");
        let up = sw.uplink().counters(Direction::Upstream);
        let down = sw.uplink().counters(Direction::Downstream);
        let iommu = self.platform.host.iommu().map(|i| i.stats());
        let report = RpcQueueReport {
            queue: self.queue,
            counters: self.counters,
            elapsed: self.done_max,
            inflight_peak: self.inflight_peak,
            ports: [sw.port_counters(NIC_PORT), sw.port_counters(ACCEL_PORT)],
            uplink_up: (up.tlps, up.tlp_bytes),
            uplink_down: (down.tlps, down.tlp_bytes),
            p2p_redirects: self.platform.host.stats().p2p_redirects,
            iommu_hits: iommu.map(|s| s.tlb_hits).unwrap_or(0),
            iommu_misses: iommu.map(|s| s.tlb_misses).unwrap_or(0),
            stages: self.stages,
        };
        report.audit();
        report
    }

    /// Read access to the underlying platform (for snapshots).
    pub fn platform(&self) -> &MultiPlatform {
        &self.platform
    }

    /// Issues every pipeline hop due at or before `until`, in time
    /// order (hops scheduled by earlier rounds win ties with new
    /// arrivals, as in the driver simulations).
    fn drain(&mut self, until: SimTime) {
        while let Some((at, hop)) = self.hops.pop_before(until) {
            self.issue(at, hop);
        }
    }

    /// Admits one request at `t0`: ingress serialisation, then RSS
    /// steering, then the fabric-request hop.
    fn ingest(&mut self, t0: SimTime, req: u32, resp: u32) {
        let t1 = self.ingress.reserve(t0, self.nic.wire_time(req)).end + self.nic.ingress_base;
        let t2 = t1 + self.nic.steer;
        let rpc = InFlight {
            t0,
            t1,
            t2,
            t3: SimTime::ZERO,
            t4: SimTime::ZERO,
            req,
            resp,
        };
        self.hops
            .push_labeled(t2, "rpc-fabric-req", Hop::FabricReq(rpc));
    }

    /// Issues one hop at its event time `at`; all platform calls carry
    /// `want == at` (deferred issuance over FIFO issue ports).
    fn issue(&mut self, at: SimTime, hop: Hop) {
        match hop {
            Hop::FabricReq(mut rpc) => {
                let off = (self.req_seq % WINDOW_PAGES) * BAR_PAGE;
                self.req_seq += 1;
                let res = self
                    .platform
                    .p2p_write(NIC_PORT, ACCEL_PORT, at, off, rpc.req);
                rpc.t3 = res.absorbed;
                self.hops
                    .push_labeled(rpc.t3, "rpc-accel-start", Hop::AccelStart(rpc));
            }
            Hop::AccelStart(mut rpc) => {
                // Earliest-free core, lowest index on ties —
                // deterministic and work-conserving.
                let mut core = 0usize;
                for i in 1..self.core_free.len() {
                    if self.core_free[i] < self.core_free[core] {
                        core = i;
                    }
                }
                let start = at.max(self.core_free[core]);
                let done = start + self.service;
                self.core_free[core] = done;
                rpc.t4 = done;
                self.hops
                    .push_labeled(rpc.t4, "rpc-fabric-resp", Hop::FabricResp(rpc));
            }
            Hop::FabricResp(rpc) => {
                let off = (self.resp_seq % WINDOW_PAGES) * BAR_PAGE;
                self.resp_seq += 1;
                let res = self
                    .platform
                    .p2p_write(ACCEL_PORT, NIC_PORT, at, off, rpc.resp);
                self.hops
                    .push_labeled(res.absorbed, "rpc-egress", Hop::Egress(rpc));
            }
            Hop::Egress(rpc) => {
                let t5 = at;
                let t6 = self.egress.reserve(t5, self.nic.wire_time(rpc.resp)).end
                    + self.nic.egress_base;
                let mut sample = StageSample::default();
                sample
                    .set(RpcStage::IngressDma, rpc.t1.ns_since(rpc.t0))
                    .set(RpcStage::Steer, rpc.t2.ns_since(rpc.t1))
                    .set(RpcStage::FabricReq, rpc.t3.ns_since(rpc.t2))
                    .set(RpcStage::AccelService, rpc.t4.ns_since(rpc.t3))
                    .set(RpcStage::FabricResp, t5.ns_since(rpc.t4))
                    .set(RpcStage::EgressDma, t6.ns_since(t5));
                self.stages.record(&sample);
                self.counters.completed += 1;
                self.counters.req_bytes_completed += u64::from(rpc.req);
                self.counters.resp_bytes_completed += u64::from(rpc.resp);
                self.done_max = self.done_max.max(t6);
                debug_assert!(self.inflight > 0);
                self.inflight -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Datapath, RpcEngineConfig};
    use pcie_telemetry::StageSet;

    fn sim(datapath: Datapath) -> RpcQueueSim {
        let cfg = RpcEngineConfig {
            datapath,
            ..RpcEngineConfig::default()
        };
        RpcQueueSim::new(
            0,
            cfg.nic,
            cfg.accel,
            crate::engine::build_platform(&cfg, 0),
        )
    }

    fn paced(n: usize, gap_ns: u64, req: u32, resp: u32) -> Vec<QueuedRpc> {
        (0..n as u64)
            .map(|i| QueuedRpc {
                at: SimTime::from_ns(i * gap_ns),
                req,
                resp,
            })
            .collect()
    }

    #[test]
    fn underload_completes_everything() {
        // 2 Mrps against a 20 Mrps accelerator: zero drops.
        let r = sim(Datapath::HostBypass).run(&paced(4_000, 500, 256, 128));
        assert_eq!(r.counters.offered, 4_000);
        assert_eq!(r.counters.completed, 4_000);
        assert_eq!(r.counters.dropped, 0);
        assert!(r.e2e().quantile_ns(0.999) >= r.e2e().quantile_ns(0.99));
        assert_eq!(r.uplink_up.0, 0, "bypass never touches the uplink");
        assert_eq!(r.p2p_redirects, 0);
    }

    #[test]
    fn overload_drops_open_loop() {
        // ~50 Mrps offered against a 20 Mrps accelerator: the ring
        // fills, the excess drops, accounting stays exact.
        let r = sim(Datapath::HostBypass).run(&paced(20_000, 20, 256, 128));
        assert!(r.counters.dropped > 2_000, "dropped {}", r.counters.dropped);
        assert_eq!(
            r.counters.completed + r.counters.dropped,
            r.counters.offered
        );
        assert_eq!(r.inflight_peak, NicModel::default().ring);
    }

    #[test]
    fn stage_sums_telescope() {
        let r = sim(Datapath::HostBounce).run(&paced(2_000, 300, 256, 128));
        let grand = r.stages.grand_total_ns();
        let per_stage: f64 = RpcStage::ALL.iter().map(|&s| r.stages.total_ns(s)).sum();
        assert!((grand - per_stage).abs() < 1e-6 * grand.max(1.0));
        assert!((grand - r.stages.end_to_end().total_ns()).abs() < 1e-6 * grand.max(1.0));
        assert_eq!(r.stages.count(), 2_000);
        // Every stage contributes on the bounce path.
        for &s in RpcStage::ALL {
            assert!(r.stages.total_ns(s) > 0.0, "stage {} empty", s.name());
        }
    }

    #[test]
    fn bounce_crosses_root_complex_and_thrashes_iotlb() {
        let r = sim(Datapath::HostBounce).run(&paced(2_000, 300, 256, 128));
        assert_eq!(r.p2p_redirects, 4_000, "one redirect per direction");
        assert!(r.uplink_up.0 > 0 && r.uplink_down.0 > 0);
        assert_eq!(
            r.iommu_misses, 4_000,
            "512-page working set cyclically sweeps the 64-entry TLB"
        );
        assert_eq!(r.iommu_hits, 0);
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let run = || sim(Datapath::HostBounce).run(&paced(3_000, 120, 256, 128));
        let (a, b) = (run(), run());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.e2e(), b.e2e());
        assert_eq!(a.ports, b.ports);
    }

    #[test]
    fn nic_model_validation() {
        for m in [
            NicModel {
                ring: 1,
                ..NicModel::default()
            },
            NicModel {
                wire_gbps: 0.0,
                ..NicModel::default()
            },
        ] {
            assert!(m.validate().is_err());
        }
        NicModel::default().validate().unwrap();
    }
}
