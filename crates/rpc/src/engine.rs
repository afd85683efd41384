//! The RPC engine: steer, schedule, simulate per queue, merge.
//!
//! [`RpcEngine::run`] compiles an [`RpcProfile`] into per-queue RPC
//! schedules (open-loop arrivals; each RPC's 4-tuple is an O(1)
//! indexed `SplitMix64` stream member steered by Toeplitz RSS, so RPC
//! `n`'s queue is a pure function of the seed), then runs one
//! [`RpcQueueSim`] per queue on a `pcie-par` pool and merges the
//! reports in queue order.
//!
//! # Determinism
//!
//! Schedule generation is sequential; every queue owns a private
//! two-device switched platform (its host seeded from an indexed
//! stream) and sees only its own schedule; per-queue stage
//! accumulators merge in fixed queue order. Pool width is therefore
//! unobservable: `threads:1` and `threads:N` runs are bit-identical,
//! pinned by [`RpcRunReport::fingerprint`].

use crate::accel::AccelModel;
use crate::queue::{NicModel, QueuedRpc, RpcQueueReport, RpcQueueSim};
use pcie_device::{DeviceParams, MultiPlatform};
use pcie_flows::{ArrivalGen, ArrivalProcess, FlowKey, Rss, RssKey};
use pcie_host::{HostPreset, HostSystem, Iommu};
use pcie_link::LinkTiming;
use pcie_model::config::LinkConfig;
use pcie_nic::traffic::{SizeSampler, Workload};
use pcie_par::Pool;
use pcie_sim::{SimTime, SplitMix64};
use pcie_telemetry::{CounterGroup, RpcStage, Snapshot, StageStats};

/// Stream-family salts for the engine's RNG consumers (see
/// `SplitMix64::salted`); distinct from the fault, driver and flows
/// salts.
mod salt {
    /// Per-RPC 4-tuple streams (indexed by RPC ordinal).
    pub const RPC_KEY: u64 = 0x00A9_C5E1_5EED_4C1D;
    /// Arrival gaps.
    pub const ARRIVAL: u64 = 0x00A9_C5E1_5EED_4C2D;
    /// Request-size draws.
    pub const REQ: u64 = 0x00A9_C5E1_5EED_4C3D;
    /// Response-size draws.
    pub const RESP: u64 = 0x00A9_C5E1_5EED_4C4D;
    /// Per-queue host-system seeds (indexed by queue).
    pub const HOST: u64 = 0x00A9_C5E1_5EED_4C5D;
}

/// Which way peer traffic crosses the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datapath {
    /// Direct P2P through the switch crossbar: peer TLPs never touch
    /// the upstream link or the IOMMU.
    HostBypass,
    /// ACS Source Validation / P2P Request Redirect: every peer TLP
    /// climbs the shared upstream link, is validated by the root
    /// complex with the IOMMU TLB in the path, and descends again.
    HostBounce,
}

impl Datapath {
    /// Stable name used in reports and CLI/env knobs.
    pub fn name(self) -> &'static str {
        match self {
            Datapath::HostBypass => "bypass",
            Datapath::HostBounce => "bounce",
        }
    }

    /// Parses a knob value (`"bypass"` or `"bounce"`).
    pub fn parse(s: &str) -> Result<Datapath, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "bypass" | "host-bypass" => Ok(Datapath::HostBypass),
            "bounce" | "host-bounce" | "acs" => Ok(Datapath::HostBounce),
            other => Err(format!("unknown datapath '{other}' (bypass|bounce)")),
        }
    }

    /// The switch configuration implementing this datapath.
    pub fn switch_config(self) -> pcie_topo::SwitchConfig {
        match self {
            Datapath::HostBypass => pcie_topo::SwitchConfig::gen3_x8(),
            Datapath::HostBounce => pcie_topo::SwitchConfig::gen3_x8().with_acs_redirect(),
        }
    }
}

/// A complete offered-load description for one RPC run.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcProfile {
    /// Total RPCs to offer across all queues.
    pub rpcs: u64,
    /// RPC arrival process (aggregate, pre-steering).
    pub arrival: ArrivalProcess,
    /// Request-size distribution.
    pub req: Workload,
    /// Response-size distribution.
    pub resp: Workload,
}

impl RpcProfile {
    /// A small, fast profile for tests and `--quick` benches: 24k
    /// Poisson-arriving RPCs, fixed 256 B requests / 128 B responses.
    pub fn quick(rps: f64) -> RpcProfile {
        RpcProfile {
            rpcs: 24_000,
            arrival: ArrivalProcess::Poisson { pps: rps },
            req: Workload::Fixed(256),
            resp: Workload::Fixed(128),
        }
    }

    /// The full-scale profile: `rpcs` Poisson arrivals at `rps`, the
    /// same fixed request/response sizes as [`RpcProfile::quick`].
    pub fn standard(rps: f64, rpcs: u64) -> RpcProfile {
        RpcProfile {
            rpcs,
            ..RpcProfile::quick(rps)
        }
    }

    /// Checks every component of the profile.
    pub fn validate(&self) -> Result<(), String> {
        if self.rpcs == 0 {
            return Err("need at least one RPC".into());
        }
        self.arrival.validate()?;
        self.req.validate()?;
        self.resp.validate()
    }
}

/// Engine-level knobs: queue fan-out, RSS key, NIC and accelerator
/// models, datapath, master seed.
#[derive(Debug, Clone)]
pub struct RpcEngineConfig {
    /// Number of RPC queues (RSS fan-out width; one switched platform
    /// each).
    pub queues: u32,
    /// Toeplitz key steering RPCs to queues.
    pub key: RssKey,
    /// NIC-side costs and ring bound.
    pub nic: NicModel,
    /// Accelerator service model.
    pub accel: AccelModel,
    /// Bypass or bounce.
    pub datapath: Datapath,
    /// Master seed for every stream family the engine derives.
    pub seed: u64,
}

impl Default for RpcEngineConfig {
    fn default() -> Self {
        RpcEngineConfig {
            queues: 4,
            key: RssKey::MICROSOFT_DEFAULT,
            nic: NicModel::default(),
            accel: AccelModel::default(),
            datapath: Datapath::HostBypass,
            seed: 0x5eed_49c0,
        }
    }
}

impl RpcEngineConfig {
    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.queues == 0 || self.queues > 256 {
            return Err(format!("queues {} out of range 1..=256", self.queues));
        }
        self.nic.validate()?;
        self.accel.validate()
    }

    /// Aggregate accelerator capacity across all queues, RPCs per
    /// second — the natural normalisation for offered-load sweeps.
    pub fn capacity_rps(&self) -> f64 {
        f64::from(self.queues) * self.accel.capacity_rps()
    }
}

/// Builds queue `queue`'s private platform for `cfg`: a NIC-class DMA
/// engine on switch port [`NIC_PORT`](crate::queue::NIC_PORT) and a
/// NetFPGA-class accelerator on port
/// [`ACCEL_PORT`](crate::queue::ACCEL_PORT), both Gen 3 x8, behind the
/// datapath's switch
/// on a `netfpga_hsw` host with an `intel_4k` IOMMU. The IOMMU is
/// present under *both* datapaths — bypass simply never consults it,
/// which is exactly the architectural difference being measured.
pub fn build_platform(cfg: &RpcEngineConfig, queue: u32) -> MultiPlatform {
    let host_seed = SplitMix64::stream(cfg.seed, salt::HOST, u64::from(queue)).next_u64();
    let mut host = HostSystem::new(HostPreset::netfpga_hsw(), host_seed);
    host.set_iommu(Some(Iommu::intel_4k()));
    let devices = vec![
        (
            DeviceParams::nic_dma_engine(),
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
        ),
        (
            DeviceParams::netfpga(),
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
        ),
    ];
    MultiPlatform::switched(devices, host, cfg.datapath.switch_config())
}

/// Merged result of one engine run.
#[derive(Debug, Clone)]
pub struct RpcRunReport {
    /// The datapath the run used.
    pub datapath: Datapath,
    /// Per-queue reports, in queue order.
    pub queues: Vec<RpcQueueReport>,
    /// RPCs steered to each queue.
    pub rpcs_per_queue: Vec<u64>,
    /// Time of the last generated arrival (the offered window).
    pub window: SimTime,
    /// Virtual time to drain everything (max over queues).
    pub elapsed: SimTime,
    /// Whole-run stage attribution: per-queue accumulators merged in
    /// queue order, so stage means and quantiles are exact.
    pub stages: StageStats<RpcStage>,
}

impl RpcRunReport {
    /// RPCs offered across all queues.
    pub fn offered(&self) -> u64 {
        self.queues.iter().map(|q| q.counters.offered).sum()
    }

    /// RPCs completed across all queues.
    pub fn completed(&self) -> u64 {
        self.queues.iter().map(|q| q.counters.completed).sum()
    }

    /// RPCs dropped across all queues.
    pub fn dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.counters.dropped).sum()
    }

    /// Fraction of offered RPCs dropped.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / offered as f64
        }
    }

    /// Offered rate over the generation window, millions of RPCs/s.
    pub fn offered_mrps(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs > 0.0 {
            self.offered() as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Completed rate over the drain time, millions of RPCs/s.
    pub fn completed_mrps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed() as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Whole-run median end-to-end latency, ns.
    pub fn p50_ns(&self) -> f64 {
        self.stages.end_to_end().quantile_ns(0.50)
    }

    /// Whole-run 99th-percentile end-to-end latency, ns.
    pub fn p99_ns(&self) -> f64 {
        self.stages.end_to_end().quantile_ns(0.99)
    }

    /// Whole-run 99.9th-percentile end-to-end latency, ns.
    pub fn p999_ns(&self) -> f64 {
        self.stages.end_to_end().quantile_ns(0.999)
    }

    /// Root-complex peer-TLP validations across all queues (zero
    /// under bypass).
    pub fn p2p_redirects(&self) -> u64 {
        self.queues.iter().map(|q| q.p2p_redirects).sum()
    }

    /// IO-TLB misses across all queues (zero under bypass).
    pub fn iommu_misses(&self) -> u64 {
        self.queues.iter().map(|q| q.iommu_misses).sum()
    }

    /// Uplink upstream wire bytes across all queues (zero under
    /// bypass).
    pub fn uplink_up_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.uplink_up.1).sum()
    }

    /// Crossbar peer wire bytes entering the switch across both ports
    /// and all queues (zero under bounce).
    pub fn p2p_in_bytes(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.ports[0].p2p_in_bytes + q.ports[1].p2p_in_bytes)
            .sum()
    }

    /// Order-independent 64-bit digest of everything observable in
    /// the report: counters, per-queue timings, switch/uplink/IOMMU
    /// state and the merged latency histogram. Two runs are
    /// behaviourally identical iff their fingerprints match — the pin
    /// used to assert pool-width invariance.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over u64 words: stable, dependency-free, and
        // sensitive to field order (which is fixed here).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for q in &self.queues {
            let c = &q.counters;
            for w in [
                u64::from(q.queue),
                c.offered,
                c.completed,
                c.dropped,
                c.req_bytes_offered,
                c.req_bytes_completed,
                c.resp_bytes_completed,
                u64::from(q.inflight_peak),
                q.elapsed.as_ps(),
                q.uplink_up.0,
                q.uplink_up.1,
                q.uplink_down.0,
                q.uplink_down.1,
                q.p2p_redirects,
                q.iommu_hits,
                q.iommu_misses,
            ] {
                eat(w);
            }
            for p in &q.ports {
                for w in [
                    p.up_tlps,
                    p.up_bytes,
                    p.down_tlps,
                    p.down_bytes,
                    p.p2p_in_tlps,
                    p.p2p_in_bytes,
                    p.p2p_out_tlps,
                    p.p2p_out_bytes,
                    p.rr_grants,
                    p.credit_stalls,
                ] {
                    eat(w);
                }
            }
        }
        let e2e = self.stages.end_to_end();
        for w in [
            self.window.as_ps(),
            self.elapsed.as_ps(),
            self.stages.count(),
            e2e.count(),
            e2e.overflow(),
            e2e.total_ns().to_bits(),
        ] {
            eat(w);
        }
        for &(start, count) in &e2e.nonzero() {
            eat(start);
            eat(count);
        }
        for &n in &self.rpcs_per_queue {
            eat(n);
        }
        h
    }

    /// Telemetry snapshot: `rpc.engine`, the merged `rpc.stages`
    /// group, one `rpc.queue<N>` group per queue, and an `rpc.fabric`
    /// group reconciling the fabric-side byte ledger.
    pub fn snapshot(&self, label: impl Into<String>) -> Snapshot {
        let mut snap = Snapshot::new(label);
        let mut eng = CounterGroup::new("rpc.engine");
        eng.push("queues", self.queues.len() as u64)
            .push(
                "datapath_bounce",
                u64::from(self.datapath == Datapath::HostBounce),
            )
            .push("offered", self.offered())
            .push("completed", self.completed())
            .push("dropped", self.dropped())
            .push("p50_ns", self.p50_ns() as u64)
            .push("p99_ns", self.p99_ns() as u64)
            .push("p999_ns", self.p999_ns() as u64);
        snap.add_group(eng);
        snap.add_group(self.stages.telemetry_group("rpc.stages"));
        let mut fab = CounterGroup::new("rpc.fabric");
        fab.push("uplink_up_bytes", self.uplink_up_bytes())
            .push(
                "uplink_down_bytes",
                self.queues.iter().map(|q| q.uplink_down.1).sum(),
            )
            .push("p2p_in_bytes", self.p2p_in_bytes())
            .push("p2p_redirects", self.p2p_redirects())
            .push("iommu_misses", self.iommu_misses())
            .push("iommu_hits", self.queues.iter().map(|q| q.iommu_hits).sum());
        snap.add_group(fab);
        for q in &self.queues {
            snap.add_group(q.telemetry_group());
        }
        snap
    }
}

/// The multi-queue RPC engine: a config plus a profile, runnable any
/// number of times (each run re-derives identical streams).
#[derive(Debug, Clone)]
pub struct RpcEngine {
    cfg: RpcEngineConfig,
    profile: RpcProfile,
    rss: Rss,
    /// The profile's request and response size distributions, their
    /// constants computed once.
    req: SizeSampler,
    resp: SizeSampler,
}

impl RpcEngine {
    /// Builds an engine.
    ///
    /// # Panics
    /// On an invalid config or profile.
    pub fn new(cfg: RpcEngineConfig, profile: RpcProfile) -> RpcEngine {
        cfg.validate().expect("invalid engine config");
        profile.validate().expect("invalid RPC profile");
        let rss = Rss::new(cfg.key.clone(), cfg.queues);
        let (req, resp) = (profile.req.sampler(), profile.resp.sampler());
        RpcEngine {
            cfg,
            profile,
            rss,
            req,
            resp,
        }
    }

    /// The engine's config.
    pub fn config(&self) -> &RpcEngineConfig {
        &self.cfg
    }

    /// The engine's profile.
    pub fn profile(&self) -> &RpcProfile {
        &self.profile
    }

    /// Generates the steered schedules and runs one [`RpcQueueSim`]
    /// per queue on `pool`, each over its own freshly built platform
    /// (see [`build_platform`]). Results are bit-identical at any
    /// pool width.
    pub fn run(&self, pool: &Pool) -> RpcRunReport {
        let seed = self.cfg.seed;
        let nq = self.cfg.queues as usize;
        let mut arrivals = ArrivalGen::new(
            self.profile.arrival,
            SplitMix64::salted(seed, salt::ARRIVAL),
        );
        let mut req_rng = SplitMix64::salted(seed, salt::REQ);
        let mut resp_rng = SplitMix64::salted(seed, salt::RESP);
        let reserve = self.rss.queue_reserve(self.profile.rpcs);
        let mut sched: Vec<Vec<QueuedRpc>> = (0..nq).map(|_| Vec::with_capacity(reserve)).collect();
        let mut rpcs_per_queue = vec![0u64; nq];
        let mut window = SimTime::ZERO;
        for i in 0..self.profile.rpcs {
            let at = arrivals.next_arrival();
            window = at;
            // O(1) indexed member: RPC n's 4-tuple is a pure function
            // of (seed, n), independent of generation history.
            let mut key_rng = SplitMix64::stream(seed, salt::RPC_KEY, i);
            let key = FlowKey::from_rng(&mut key_rng);
            let (_, queue) = self.rss.steer(&key);
            let req = self.req.sample(&mut req_rng);
            let resp = self.resp.sample(&mut resp_rng);
            sched[usize::from(queue)].push(QueuedRpc { at, req, resp });
            rpcs_per_queue[usize::from(queue)] += 1;
        }
        // Fan the queues across the pool; order-preserving collection
        // plus private platforms make the merge width-invariant.
        let reports: Vec<RpcQueueReport> = pool.run(nq, |q| {
            let platform = build_platform(&self.cfg, q as u32);
            RpcQueueSim::new(q as u32, self.cfg.nic, self.cfg.accel, platform).run(&sched[q])
        });
        let mut stages = reports[0].stages.clone();
        for r in &reports[1..] {
            stages.merge(&r.stages);
        }
        let elapsed = reports
            .iter()
            .map(|r| r.elapsed)
            .fold(SimTime::ZERO, SimTime::max);
        RpcRunReport {
            datapath: self.cfg.datapath,
            rpcs_per_queue,
            window,
            elapsed,
            stages,
            queues: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(datapath: Datapath, rps: f64, rpcs: u64) -> RpcEngine {
        let cfg = RpcEngineConfig {
            datapath,
            ..RpcEngineConfig::default()
        };
        RpcEngine::new(cfg, RpcProfile::standard(rps, rpcs))
    }

    #[test]
    fn underload_completes_everything_fairly() {
        // 8 Mrps aggregate over 4 × 20 Mrps queues: nothing close to
        // saturation.
        let r = engine(Datapath::HostBypass, 8e6, 12_000).run(&Pool::sequential());
        assert_eq!(r.offered(), 12_000);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.completed(), 12_000);
        assert_eq!(r.rpcs_per_queue.iter().sum::<u64>(), 12_000);
        assert!(r.rpcs_per_queue.iter().all(|&n| n > 0), "RSS spread");
        assert!(r.p999_ns() >= r.p99_ns() && r.p99_ns() >= r.p50_ns());
        assert_eq!(r.stages.end_to_end().count(), r.completed());
    }

    #[test]
    fn bypass_beats_bounce() {
        let load = 40e6; // 0.5x bypass capacity, above the bounce knee
        let bypass = engine(Datapath::HostBypass, load, 16_000).run(&Pool::sequential());
        let bounce = engine(Datapath::HostBounce, load, 16_000).run(&Pool::sequential());
        assert!(bypass.completed() >= bounce.completed());
        assert!(
            bypass.p99_ns() < bounce.p99_ns(),
            "bypass p99 {} vs bounce {}",
            bypass.p99_ns(),
            bounce.p99_ns()
        );
        assert_eq!(bypass.p2p_redirects(), 0);
        assert!(bounce.p2p_redirects() > 0);
        assert_eq!(bypass.uplink_up_bytes(), 0);
        assert!(bounce.uplink_up_bytes() > 0);
        assert_eq!(bounce.p2p_in_bytes(), 0, "bounce never uses the crossbar");
    }

    #[test]
    fn pool_width_is_unobservable() {
        let e = engine(Datapath::HostBounce, 30e6, 10_000);
        let seq = e.run(&Pool::sequential());
        let par = e.run(&Pool::with_threads(4));
        assert_eq!(seq.fingerprint(), par.fingerprint());
        for (a, b) in seq.queues.iter().zip(&par.queues) {
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.elapsed, b.elapsed);
            assert_eq!(a.ports, b.ports);
        }
    }

    #[test]
    fn seed_changes_everything_deterministically() {
        let e1 = engine(Datapath::HostBypass, 20e6, 8_000);
        let a = e1.run(&Pool::sequential());
        let b = e1.run(&Pool::sequential());
        assert_eq!(a.fingerprint(), b.fingerprint(), "same seed replays");
        let mut cfg2 = e1.config().clone();
        cfg2.seed ^= 1;
        let c = RpcEngine::new(cfg2, e1.profile().clone()).run(&Pool::sequential());
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
    }

    #[test]
    fn snapshot_has_the_rpc_groups() {
        let r = engine(Datapath::HostBounce, 10e6, 4_000).run(&Pool::sequential());
        let snap = r.snapshot("rpc test");
        for comp in ["rpc.engine", "rpc.stages", "rpc.fabric", "rpc.queue0"] {
            assert!(
                snap.groups().iter().any(|g| g.component == comp),
                "missing {comp}"
            );
        }
        let eng = snap.group("rpc.engine").unwrap();
        assert_eq!(eng.get("offered"), Some(4_000));
        assert_eq!(eng.get("datapath_bounce"), Some(1));
    }

    #[test]
    fn datapath_parse_roundtrips() {
        for d in [Datapath::HostBypass, Datapath::HostBounce] {
            assert_eq!(Datapath::parse(d.name()).unwrap(), d);
        }
        assert!(Datapath::parse("sideways").is_err());
        assert_eq!(Datapath::parse("ACS").unwrap(), Datapath::HostBounce);
    }
}
