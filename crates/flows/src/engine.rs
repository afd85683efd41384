//! The flow engine: the flow-table generator behind the serving
//! harness ([`fanout`](crate::fanout)).
//!
//! [`FlowEngine::run`] ramps the flow table to target occupancy, draws
//! open-loop arrivals, attributes each packet to a uniformly sampled
//! live flow, steers it by Toeplitz RSS onto a queue's schedule and
//! replaces completed flows to hold concurrency; the harness runs one
//! [`QueueSim`] per RX queue. Everything random — 4-tuples, flow
//! lengths, arrival gaps, flow picks, packet sizes — draws from
//! `SplitMix64` stream families derived from the one engine seed with
//! distinct salts; flow `n`'s 4-tuple is the O(1) indexed
//! [`SplitMix64::stream`] member `n`, independent of insertion history.

use crate::fanout::{check_queues, merged, QueueRun, RunTotals, Schedules};
use crate::profile::{ArrivalGen, TrafficProfile};
use crate::queue::{QueueReport, QueueSim, QueuedPacket, ServiceModel};
use crate::rss::{FlowKey, Rss, RssKey};
use crate::table::{FlowTable, FlowTableStats};
use pcie_device::Platform;
use pcie_nic::traffic::SizeSampler;
use pcie_par::Pool;
use pcie_sim::{SimTime, SplitMix64};
use pcie_telemetry::{CounterGroup, Fnv, LatencyHistogram, Snapshot, StageStats};

/// Stream-family salts for the engine's five RNG consumers (see
/// `SplitMix64::salted`); distinct from the fault and driver salts.
mod salt {
    /// Per-flow 4-tuple streams (indexed by flow ordinal).
    pub const FLOW_KEY: u64 = 0x000F_70E5_5EED_4B1D;
    /// Flow-length draws.
    pub const FLOW_LEN: u64 = 0x000F_70E5_5EED_4B2D;
    /// Poisson arrival gaps.
    pub const ARRIVAL: u64 = 0x000F_70E5_5EED_4B3D;
    /// Uniform live-flow picks.
    pub const PICK: u64 = 0x000F_70E5_5EED_4B4D;
    /// Packet-size draws.
    pub const SIZE: u64 = 0x000F_70E5_5EED_4B5D;
}

/// Picks the generator attributes per block. The block's flow-slab
/// records are read together before any of them is attributed, so
/// their cache misses overlap. On `flow_rx` (1.25 M flows), blocks of
/// 16 and 64 read within noise of 32.
const PICK_BLOCK: usize = 32;

/// Engine-level knobs: queue fan-out, RSS key, per-queue service
/// model, master seed.
#[derive(Debug, Clone)]
pub struct FlowEngineConfig {
    /// Number of RX queues (RSS fan-out width).
    pub queues: u32,
    /// Toeplitz key steering flows to queues.
    pub key: RssKey,
    /// Service model of each queue's core.
    pub service: ServiceModel,
    /// Master seed for every stream family the engine derives.
    pub seed: u64,
}

impl Default for FlowEngineConfig {
    fn default() -> Self {
        FlowEngineConfig {
            queues: 8,
            key: RssKey::MICROSOFT_DEFAULT,
            service: ServiceModel::default(),
            seed: 0x5eed_f705,
        }
    }
}

impl FlowEngineConfig {
    /// Checks the knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        check_queues(self.queues)?;
        self.service.validate()
    }
}

/// Merged result of one engine run.
#[derive(Debug, Clone)]
pub struct FlowRunReport {
    /// Per-queue reports, in queue order.
    pub queues: Vec<QueueReport>,
    /// Flow-table lifetime statistics.
    pub table: FlowTableStats,
    /// Flow-table capacity (the profile's concurrency target).
    pub table_capacity: u32,
    /// Flows still live when generation stopped.
    pub active_end: u32,
    /// Flows steered to each queue over the run (inserts, not
    /// packets).
    pub flows_per_queue: Vec<u64>,
    /// Time of the last generated arrival (the offered window).
    pub window: SimTime,
    /// Whole-run end-to-end latency: per-queue histograms merged
    /// bucket-by-bucket, so quantiles are exact, not approximated
    /// from per-queue quantiles.
    pub e2e: LatencyHistogram,
}

impl RunTotals for FlowRunReport {
    type Queue = QueueReport;
    fn queues(&self) -> &[QueueReport] {
        &self.queues
    }
    fn window(&self) -> SimTime {
        self.window
    }
}

impl FlowRunReport {
    /// Packets offered across all queues.
    pub fn offered(&self) -> u64 {
        RunTotals::offered(self)
    }

    /// Packets delivered across all queues.
    pub fn delivered(&self) -> u64 {
        self.served()
    }

    /// Packets dropped across all queues.
    pub fn dropped(&self) -> u64 {
        RunTotals::dropped(self)
    }

    /// Whole-run median end-to-end latency, ns.
    pub fn p50_ns(&self) -> f64 {
        self.e2e.quantile_ns(0.50)
    }

    /// Whole-run 99th-percentile end-to-end latency, ns.
    pub fn p99_ns(&self) -> f64 {
        self.e2e.quantile_ns(0.99)
    }

    /// Whole-run 99.9th-percentile end-to-end latency, ns.
    pub fn p999_ns(&self) -> f64 {
        self.e2e.quantile_ns(0.999)
    }

    /// Order-independent 64-bit digest of everything observable in
    /// the report: counters, per-queue timings, table statistics and
    /// the merged latency histogram. Two runs are behaviourally
    /// identical iff their fingerprints match — the pin used to
    /// assert pool-width invariance.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for q in &self.queues {
            let c = &q.counters;
            h.words([
                u64::from(q.queue),
                c.offered,
                c.delivered,
                c.dropped,
                c.bytes_offered,
                c.bytes_delivered,
                c.polls,
                c.empty_polls,
                c.doorbells,
                c.refills,
                u64::from(q.ring_peak),
                q.elapsed.as_ps(),
            ]);
        }
        let t = &self.table;
        h.words([
            t.inserts,
            t.completions,
            t.packets,
            u64::from(t.peak_active),
            u64::from(self.active_end),
            self.window.as_ps(),
            self.elapsed().as_ps(),
        ])
        .histogram(&self.e2e)
        .words(self.flows_per_queue.iter().copied())
        .finish()
    }

    /// Telemetry snapshot: `flows.table`, `flows.rss`, `flows.stages`
    /// (the per-queue stage accumulators merged in queue order, in the
    /// shape of the driver zoo's `driver.stages`, TX stages zero), and
    /// one `flows.queue<N>` group per queue.
    pub fn snapshot(&self, label: impl Into<String>) -> Snapshot {
        let mut snap = Snapshot::new(label);
        let mut table = CounterGroup::new("flows.table");
        table
            .push("capacity", u64::from(self.table_capacity))
            .push("active_end", u64::from(self.active_end))
            .push("peak_active", u64::from(self.table.peak_active))
            .push("inserts", self.table.inserts)
            .push("completions", self.table.completions)
            .push("packets", self.table.packets);
        snap.add_group(table);
        let mut rss = CounterGroup::new("flows.rss");
        let fmin = self.flows_per_queue.iter().min().copied().unwrap_or(0);
        let fmax = self.flows_per_queue.iter().max().copied().unwrap_or(0);
        let (pmin, pmax) = self.offered_range();
        rss.push("queues", self.queues.len() as u64)
            .push("flows_min_queue", fmin)
            .push("flows_max_queue", fmax)
            .push("packets_min_queue", pmin)
            .push("packets_max_queue", pmax)
            .push(
                "imbalance_permille",
                (pmax * 1000).checked_div(pmin).unwrap_or(u64::MAX),
            );
        snap.add_group(rss);
        let stages = merged(&self.queues, |q| &q.stages, StageStats::merge);
        snap.add_group(stages.telemetry_group("flows.stages"));
        for q in &self.queues {
            snap.add_group(q.telemetry_group());
        }
        snap
    }
}

/// The multi-queue traffic engine: a config plus a profile, runnable
/// any number of times (each run re-derives identical streams).
#[derive(Debug, Clone)]
pub struct FlowEngine {
    cfg: FlowEngineConfig,
    profile: TrafficProfile,
    rss: Rss,
    /// The profile's flow-length and packet-size distributions, their
    /// constants computed once.
    lengths: SizeSampler,
    sizes: SizeSampler,
}

/// The steered schedules [`FlowEngine::generate`] builds, and the
/// generator state the report reads.
struct Generated {
    /// Each queue's packets, and the last arrival.
    schedules: Schedules<QueuedPacket>,
    /// Flows steered to each queue (inserts).
    flows_per_queue: Vec<u64>,
    /// The flow table's statistics as generation left it.
    table: FlowTableStats,
    /// Flows live in the table when generation stopped.
    active_end: u32,
}

impl FlowEngine {
    /// Builds an engine.
    ///
    /// # Panics
    /// On an invalid config or profile.
    pub fn new(cfg: FlowEngineConfig, profile: TrafficProfile) -> FlowEngine {
        cfg.validate().expect("invalid engine config");
        profile.validate().expect("invalid traffic profile");
        let rss = Rss::new(cfg.key.clone(), cfg.queues);
        let lengths = profile.flow_length.sampler();
        let sizes = profile.sizes.sampler();
        FlowEngine {
            cfg,
            profile,
            rss,
            lengths,
            sizes,
        }
    }

    /// The engine's config.
    pub fn config(&self) -> &FlowEngineConfig {
        &self.cfg
    }

    /// The engine's profile.
    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// Generates the steered schedules and runs one [`QueueSim`] per
    /// queue on `pool`, building each queue's private platform with
    /// `build` (called once per queue, from the worker that runs that
    /// queue). Results are bit-identical at any pool width.
    pub fn run<F>(&self, pool: &Pool, build: F) -> FlowRunReport
    where
        F: Fn(u32) -> Platform + Sync,
    {
        // The flow table is freed when generation returns, before the
        // queues run. Kept until after them, `flow_rx`'s peak RSS was
        // 27.0–27.5 MiB over the default seed and seeds 0–20, against
        // 26.6–27.2 MiB freed first (lower at all 22 seeds).
        let gen = self.generate();
        let service = self.cfg.service;
        let queues = gen.schedules.run(pool, |q, packets| {
            QueueSim::new(q, service, build(q)).run(packets)
        });
        FlowRunReport {
            e2e: merged(&queues, QueueRun::e2e, LatencyHistogram::merge),
            table: gen.table,
            table_capacity: self.profile.flows,
            active_end: gen.active_end,
            flows_per_queue: gen.flows_per_queue,
            window: gen.schedules.window(),
            queues,
        }
    }

    /// Ramps the flow table to the concurrency target, then draws the
    /// open-loop schedule, attributing each packet to a uniformly
    /// picked live flow and replacing every completed flow at once.
    ///
    /// Packets are attributed [`PICK_BLOCK`] picks at a time. A clone
    /// of the pick stream first draws the block's positions: exactly
    /// the positions about to be picked, since the table holds
    /// `flows` flows at every pick. [`FlowTable::touch`] reads those
    /// records together, and the block is then attributed one packet
    /// at a time, with every draw in the same order as without the
    /// read.
    fn generate(&self) -> Generated {
        let seed = self.cfg.seed;
        let nq = self.cfg.queues as usize;
        let mut table = FlowTable::with_capacity(self.profile.flows as usize);
        let mut flows_per_queue = vec![0u64; nq];
        let mut len_rng = SplitMix64::salted(seed, salt::FLOW_LEN);
        let mut next_ordinal = 0u64;
        let mut insert_flow = |table: &mut FlowTable| {
            // O(1) indexed member: flow n's 4-tuple is a pure function
            // of (seed, n), independent of insertion history. Only
            // steering needs it, so the table does not keep it.
            let mut key_rng = SplitMix64::stream(seed, salt::FLOW_KEY, next_ordinal);
            next_ordinal += 1;
            let (_, queue) = self.rss.steer(&FlowKey::from_rng(&mut key_rng));
            let len = self.lengths.sample(&mut len_rng);
            table
                .insert(queue, len)
                .expect("table sized to the concurrency target");
            flows_per_queue[usize::from(queue)] += 1;
        };
        // Ramp to target occupancy before traffic starts.
        for _ in 0..self.profile.flows {
            insert_flow(&mut table);
        }
        // Generate the steered open-loop schedule; completed flows
        // are replaced immediately, holding concurrency at target.
        let mut arrivals = ArrivalGen::new(
            self.profile.arrival,
            SplitMix64::salted(seed, salt::ARRIVAL),
        );
        let mut pick_rng = SplitMix64::salted(seed, salt::PICK);
        let mut size_rng = SplitMix64::salted(seed, salt::SIZE);
        let mut schedules = Schedules::new(&self.rss, self.profile.packets);
        let mut ahead = [0u32; PICK_BLOCK];
        let mut left = self.profile.packets;
        while left > 0 {
            let block = left.min(PICK_BLOCK as u64) as usize;
            left -= block as u64;
            let mut peek = pick_rng.clone();
            for pos in &mut ahead[..block] {
                *pos = table.pick(&mut peek).expect("table never empties");
            }
            table.touch(&ahead[..block]);
            for _ in 0..block {
                let at = arrivals.next_arrival();
                let pos = table.pick(&mut pick_rng).expect("table never empties");
                let size = self.sizes.sample(&mut size_rng);
                schedules.push(table.queue(pos), at, QueuedPacket { at, size });
                if table.note_packet(pos) {
                    insert_flow(&mut table);
                }
            }
        }
        Generated {
            schedules,
            flows_per_queue,
            table: table.stats(),
            active_end: table.active(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ArrivalProcess, FlowLength};
    use pcie_nic::traffic::Workload;
    use pcie_sim::SimTime;
    use pciebench::BenchSetup;

    fn build(_q: u32) -> Platform {
        BenchSetup::nfp6000_hsw().build_nic_platform()
    }

    fn slow_service() -> ServiceModel {
        // ~2 Mpps per queue so oversubscription is reachable with
        // small packet counts.
        ServiceModel {
            rx_sw: SimTime::from_ns(400),
            app: SimTime::from_ns(100),
            ..ServiceModel::default()
        }
    }

    fn profile(pps: f64, packets: u64) -> TrafficProfile {
        TrafficProfile {
            flows: 5_000,
            packets,
            arrival: ArrivalProcess::Poisson { pps },
            flow_length: FlowLength::BoundedPareto {
                min: 1,
                max: 500,
                alpha: 1.3,
            },
            sizes: Workload::Fixed(128),
        }
    }

    fn engine(pps: f64, packets: u64) -> FlowEngine {
        let cfg = FlowEngineConfig {
            queues: 4,
            service: slow_service(),
            ..FlowEngineConfig::default()
        };
        FlowEngine::new(cfg, profile(pps, packets))
    }

    /// The generator attributing one packet at a time, with no
    /// look-ahead read, and drawing each flow length through
    /// `FlowLength::sample`: the oracle for `FlowEngine::generate`.
    fn generate_one_at_a_time(e: &FlowEngine) -> Generated {
        let seed = e.cfg.seed;
        let nq = e.cfg.queues as usize;
        let mut table = FlowTable::with_capacity(e.profile.flows as usize);
        let mut flows_per_queue = vec![0u64; nq];
        let mut len_rng = SplitMix64::salted(seed, salt::FLOW_LEN);
        let mut next_ordinal = 0u64;
        let mut insert_flow = |table: &mut FlowTable| {
            let mut key_rng = SplitMix64::stream(seed, salt::FLOW_KEY, next_ordinal);
            next_ordinal += 1;
            let (_, queue) = e.rss.steer(&FlowKey::from_rng(&mut key_rng));
            let len = e.profile.flow_length.sample(&mut len_rng);
            table.insert(queue, len).unwrap();
            flows_per_queue[usize::from(queue)] += 1;
        };
        for _ in 0..e.profile.flows {
            insert_flow(&mut table);
        }
        let mut arrivals =
            ArrivalGen::new(e.profile.arrival, SplitMix64::salted(seed, salt::ARRIVAL));
        let mut pick_rng = SplitMix64::salted(seed, salt::PICK);
        let mut size_rng = SplitMix64::salted(seed, salt::SIZE);
        let mut schedules = Schedules::new(&e.rss, 0);
        for _ in 0..e.profile.packets {
            let at = arrivals.next_arrival();
            let pos = table.pick(&mut pick_rng).unwrap();
            let size = e.profile.sizes.next_size(&mut size_rng);
            schedules.push(table.queue(pos), at, QueuedPacket { at, size });
            if table.note_packet(pos) {
                insert_flow(&mut table);
            }
        }
        Generated {
            schedules,
            flows_per_queue,
            table: table.stats(),
            active_end: table.active(),
        }
    }

    #[test]
    fn block_generation_matches_the_one_at_a_time_oracle() {
        let b = PICK_BLOCK as u64;
        let pareto = FlowLength::BoundedPareto {
            min: 1,
            max: 500,
            alpha: 1.3,
        };
        for flows in [1, 2, 5_000] {
            for flow_length in [pareto, FlowLength::Fixed(1)] {
                for packets in [1, b - 1, b, b + 1, 6_000] {
                    let cfg = FlowEngineConfig {
                        queues: 4,
                        service: slow_service(),
                        ..FlowEngineConfig::default()
                    };
                    let e = FlowEngine::new(
                        cfg,
                        TrafficProfile {
                            flows,
                            flow_length,
                            sizes: Workload::Pareto {
                                min: 64,
                                max: 1500,
                                alpha: 1.2,
                            },
                            ..profile(6e6, packets)
                        },
                    );
                    let what = format!("{flows} flows, {flow_length:?}, {packets} packets");
                    let (got, want) = (e.generate(), generate_one_at_a_time(&e));
                    assert_eq!(got.schedules, want.schedules, "{what}: schedules, window");
                    assert_eq!(got.flows_per_queue, want.flows_per_queue, "{what}");
                    let stats = want.table;
                    assert_eq!(got.table, stats, "{what}: table stats");
                    assert_eq!(got.active_end, want.active_end, "{what}");
                    assert_eq!(stats.packets, packets, "{what}");
                    if flows <= 2 && packets > b {
                        // Flows complete, and are replaced, inside a
                        // block, after the look-ahead read.
                        assert!(stats.completions > 1, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn underload_delivers_everything_fairly() {
        // 2 Mpps aggregate over 4 × 2 Mpps queues: no queue close to
        // saturation.
        let r = engine(2e6, 20_000).run(&Pool::sequential(), build);
        assert_eq!(r.offered(), 20_000);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.delivered(), 20_000);
        assert_eq!(r.table.packets, 20_000);
        assert_eq!(r.active_end, 5_000, "concurrency held at target");
        assert_eq!(r.flows_per_queue.iter().sum::<u64>(), r.table.inserts);
        // RSS spread: every queue saw work, shares within 3x.
        let (min_share, max_share) = r.share_range();
        assert!(min_share > 0.25 / 3.0, "{min_share}");
        assert!(max_share < 3.0 * min_share);
        assert!(r.p999_ns() >= r.p99_ns() && r.p99_ns() >= r.p50_ns());
        assert_eq!(r.e2e.count(), r.delivered());
    }

    #[test]
    fn oversubscription_drops_and_drops_grow_with_load() {
        let low = engine(10e6, 40_000).run(&Pool::sequential(), build);
        let high = engine(16e6, 40_000).run(&Pool::sequential(), build);
        assert!(low.drop_rate() > 0.0, "past 8 Mpps aggregate capacity");
        assert!(
            high.drop_rate() > low.drop_rate(),
            "drops must grow with offered load: {} vs {}",
            high.drop_rate(),
            low.drop_rate()
        );
        for r in [&low, &high] {
            assert_eq!(r.offered(), r.delivered() + r.dropped());
        }
    }

    #[test]
    fn pool_width_is_unobservable() {
        let e = engine(6e6, 15_000);
        let seq = e.run(&Pool::sequential(), build);
        let par = e.run(&Pool::with_threads(4), build);
        assert_eq!(seq.fingerprint(), par.fingerprint());
        assert_eq!(seq.e2e, par.e2e);
        for (a, b) in seq.queues.iter().zip(&par.queues) {
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.elapsed, b.elapsed);
        }
    }

    #[test]
    fn seed_changes_everything_deterministically() {
        let e1 = engine(6e6, 10_000);
        let a = e1.run(&Pool::sequential(), build);
        let b = e1.run(&Pool::sequential(), build);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same seed replays");
        let mut cfg2 = e1.config().clone();
        cfg2.seed ^= 1;
        let c = FlowEngine::new(cfg2, e1.profile().clone()).run(&Pool::sequential(), build);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
    }

    #[test]
    fn snapshot_has_the_flow_groups() {
        let r = engine(4e6, 5_000).run(&Pool::sequential(), build);
        let snap = r.snapshot("flows test");
        for comp in [
            "flows.table",
            "flows.rss",
            "flows.stages",
            "flows.queue0",
            "flows.queue3",
        ] {
            assert!(
                snap.groups().iter().any(|g| g.component == comp),
                "missing {comp}"
            );
        }
        let table = snap.group("flows.table").unwrap();
        assert_eq!(table.get("packets"), Some(5_000));
        assert_eq!(table.get("capacity"), Some(5_000));
    }
}
