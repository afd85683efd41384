//! The timed full-duplex link.

use crate::counters::WireCounters;
use pcie_fault::{Decision, FaultCounters, FaultPlan, Injector};
use pcie_model::config::LinkConfig;
use pcie_model::mix::Direction;
use pcie_sim::time::transfer_time;
use pcie_sim::{SimTime, Timeline};
use pcie_tlp::dllp::{seq_next, Dllp};
use pcie_tlp::types::TlpType;
use std::collections::VecDeque;

/// Capacity of the DLL replay buffer, in TLPs. Real replay buffers are
/// sized in bytes for a full ACK round trip of max-size TLPs; 64 TLPs
/// is comfortably past that for our timing. If the buffer would
/// overflow, the transmitter forces an immediate ACK (flushing it)
/// before admitting the next TLP — with the default `ack_coalesce` of
/// 2 this can never trigger on a fault-free run.
const REPLAY_BUFFER_TLPS: usize = 64;

/// Latency and DLLP-policy parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTiming {
    /// One-way flight + pipeline latency per direction: PHY
    /// serdes/deskew, link-layer CRC and replay buffering, and trace
    /// flight time. Order 100–200 ns on real systems; a large chunk of
    /// the ~450–550 ns DMA-read round trip the paper measures.
    pub propagation: SimTime,
    /// TLPs acknowledged per ACK DLLP (the spec permits coalescing;
    /// 1 = ack every TLP, the conservative end).
    pub ack_coalesce: u32,
    /// Received TLPs per flow-control-update round. Each round sends
    /// one UpdateFC DLLP per credit class with activity (we account a
    /// fixed 2 per round: the active request class + completions).
    pub fc_update_interval: u32,
    /// Fraction of physical bandwidth consumed by SKP ordered sets and
    /// other periodic physical-layer maintenance (≈ 0.4 %).
    pub skp_overhead: f64,
}

impl Default for LinkTiming {
    fn default() -> Self {
        LinkTiming {
            propagation: SimTime::from_ns(150),
            ack_coalesce: 2,
            fc_update_interval: 8,
            skp_overhead: 0.004,
        }
    }
}

struct DirState {
    timeline: Timeline,
    counters: WireCounters,
    /// TLPs received on the *opposite* direction still awaiting an ACK.
    unacked: u32,
    /// TLPs received on the opposite direction since the last FC round.
    since_fc: u32,
    /// DLLP bytes owed to this direction but not yet serialised. They
    /// piggyback onto the next TLP sent here: reserving them in the
    /// future (at the receive instant that triggered them) would let a
    /// *later* ACK block an *earlier* data TLP, which a real link —
    /// where DLLPs interleave at symbol granularity — never does.
    dllp_debt: u64,
    /// Next 12-bit TLP sequence number to assign on this direction.
    next_seq: u16,
    /// TLPs sent on this direction not yet covered by an ACK, kept for
    /// retransmission: `(seq, wire_bytes)`. Cleared when an ACK fires
    /// on the opposite direction (a cumulative ACK covers everything
    /// received so far).
    replay_buf: VecDeque<(u16, u32)>,
}

impl DirState {
    fn new() -> Self {
        DirState {
            timeline: Timeline::new(),
            counters: WireCounters::default(),
            unacked: 0,
            since_fc: 0,
            dllp_debt: 0,
            next_seq: 0,
            replay_buf: VecDeque::with_capacity(REPLAY_BUFFER_TLPS),
        }
    }
}

/// The result of one TLP transmission, including any fault-injection
/// consequences. Fault-free sends always return `fault_delay == 0`,
/// `replays == 0`, `dropped == false`, `poisoned == false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// When the TLP (its last successful transmission) has fully
    /// arrived at the far end.
    pub arrival: SimTime,
    /// Extra wire/turnaround time spent on DLL recovery: NAK round
    /// trips or replay-timer waits plus the retransmission
    /// serialisations. Zero when the first attempt succeeded.
    pub fault_delay: SimTime,
    /// Number of retransmissions this TLP needed.
    pub replays: u32,
    /// The TLP was lost *above* the DLL (acknowledged at the link
    /// layer, never delivered): the caller must not act on `arrival`
    /// other than as the time the loss becomes observable.
    pub dropped: bool,
    /// The TLP arrived with the EP (poisoned) bit set; the receiver
    /// must discard the payload.
    pub poisoned: bool,
}

/// Direct-mapped memo of serialisation times at the link's fixed wire
/// rate: `bytes → transfer_time(bytes, rate)`.
///
/// A sweep cycles through a handful of distinct wire-byte counts (one
/// per TLP geometry, times the few DLLP-debt increments that piggyback
/// on them), so the division + ceiling of [`transfer_time`] — paid
/// per TLP — is almost always recomputing a value the link just
/// produced. Wire counts are DW-multiples, so `(bytes >> 2) & 31`
/// spreads the common populations (requests + debt, completions +
/// debt, MPS-sized writes) over distinct slots; a collision merely
/// recomputes. Exact by construction: a hit returns precisely the
/// `transfer_time` result that was stored.
#[derive(Debug, Clone)]
struct SerMemo {
    entries: [(u64, SimTime); 32],
}

impl SerMemo {
    fn new() -> Self {
        SerMemo {
            entries: [(u64::MAX, SimTime::ZERO); 32],
        }
    }

    #[inline]
    fn time(&mut self, bytes: u64, rate: f64) -> SimTime {
        let e = &mut self.entries[((bytes >> 2) & 31) as usize];
        if e.0 != bytes {
            *e = (bytes, transfer_time(bytes, rate));
        }
        e.1
    }
}

/// A full-duplex PCIe link carrying TLPs and auto-generated DLLPs.
///
/// Each direction is a FIFO serial resource ([`Timeline`]); sending a
/// TLP reserves its wire time and returns the arrival instant at the
/// far end. Receipt of TLPs triggers ACK and flow-control DLLPs on the
/// *opposite* direction according to [`LinkTiming`] — so link
/// maintenance traffic competes with data exactly as on hardware.
pub struct Link {
    config: LinkConfig,
    timing: LinkTiming,
    /// Effective serialisation rate (bits/s), precomputed from the
    /// immutable config/timing pair — read once per TLP.
    rate: f64,
    /// Serialisation-time memo for `rate` (both directions share it).
    ser: SerMemo,
    /// Index 0 = upstream, 1 = downstream.
    dirs: [DirState; 2],
    /// Fault injector; `None` (the default) is the exact fault-free
    /// fast path — no RNG is consulted and no extra state is touched
    /// beyond sequence/replay bookkeeping, which has no timing effect.
    faults: Option<Box<Injector>>,
}

fn di(dir: Direction) -> usize {
    match dir {
        Direction::Upstream => 0,
        Direction::Downstream => 1,
    }
}

fn opposite(dir: Direction) -> Direction {
    match dir {
        Direction::Upstream => Direction::Downstream,
        Direction::Downstream => Direction::Upstream,
    }
}

impl Link {
    /// Creates a link with the given protocol config and timing.
    pub fn new(config: LinkConfig, timing: LinkTiming) -> Self {
        config.validate().expect("invalid link config");
        Link {
            config,
            timing,
            rate: config.phys_bw() * (1.0 - timing.skp_overhead),
            ser: SerMemo::new(),
            dirs: [DirState::new(), DirState::new()],
            faults: None,
        }
    }

    /// Installs a fault plan, deriving the injection streams from
    /// `seed`. An inactive plan (no fault processes) removes the
    /// injector entirely, restoring the exact fault-free path — so
    /// `FaultPlan::none()` is bit-identical to never calling this.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        plan.validate().expect("invalid fault plan");
        self.faults = if plan.is_active() {
            Some(Box::new(Injector::new(plan, seed)))
        } else {
            None
        };
    }

    /// Whether a fault injector is installed.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|i| i.plan())
    }

    /// Replay/fault counters for `dir` (only when faults are active).
    pub fn fault_counters(&self, dir: Direction) -> Option<&FaultCounters> {
        self.faults.as_ref().map(|i| i.counters(dir))
    }

    /// Next 12-bit sequence number that will be assigned on `dir`.
    pub fn next_seq(&self, dir: Direction) -> u16 {
        self.dirs[di(dir)].next_seq
    }

    /// Current replay-buffer occupancy (unacknowledged TLPs) on `dir`.
    pub fn replay_occupancy(&self, dir: Direction) -> usize {
        self.dirs[di(dir)].replay_buf.len()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The timing parameters.
    pub fn timing(&self) -> &LinkTiming {
        &self.timing
    }

    /// Effective serialisation rate (bits/s): physical bandwidth minus
    /// periodic physical-layer maintenance.
    pub fn wire_rate(&self) -> f64 {
        self.rate
    }

    /// Serialises a TLP of `ty` carrying `payload_bytes` in `dir`,
    /// starting no earlier than `now`. Returns the time the TLP has
    /// fully arrived at the far end.
    ///
    /// Automatically accounts the ACK/FC DLLP load this TLP induces on
    /// the opposite direction. Convenience wrapper around
    /// [`Link::send_tlp_ext`] for callers that don't examine faults.
    pub fn send_tlp(
        &mut self,
        dir: Direction,
        ty: TlpType,
        payload_bytes: u32,
        now: SimTime,
    ) -> SimTime {
        self.send_tlp_ext(dir, ty, payload_bytes, now).arrival
    }

    /// [`Link::send_tlp`] returning the full [`SendOutcome`],
    /// including DLL retry costs and drop/poison verdicts from the
    /// installed fault plan.
    ///
    /// The retry protocol: the TLP is assigned the direction's next
    /// 12-bit sequence number and held in the replay buffer until a
    /// cumulative ACK covers it. If the injector corrupts the LCRC of
    /// a transmission attempt, the receiver NAKs (one NAK DLLP on the
    /// opposite direction, retransmission after a NAK round trip of
    /// 2 × propagation) — or, for timeout-detected corruption, the
    /// transmitter's REPLAY_TIMER expires after
    /// `plan.replay_timeout`. Every retransmission re-serialises the
    /// full TLP through the direction's FIFO timeline, so replays cost
    /// real wire time that competes with subsequent traffic.
    pub fn send_tlp_ext(
        &mut self,
        dir: Direction,
        ty: TlpType,
        payload_bytes: u32,
        now: SimTime,
    ) -> SendOutcome {
        let cost = self
            .config
            .overheads
            .wire_cost(ty, if ty.has_data() { payload_bytes } else { 0 });
        let rate = self.wire_rate();
        let (ack_coalesce, fc_interval, propagation) = (
            self.timing.ack_coalesce,
            self.timing.fc_update_interval,
            self.timing.propagation,
        );
        let wire_bytes = cost.total() as u64;
        let (decision, replay_timeout) = match self.faults.as_deref_mut() {
            Some(inj) => (inj.decide(dir, wire_bytes * 8), inj.plan().replay_timeout),
            None => (Decision::CLEAN, SimTime::ZERO),
        };
        let memo = &mut self.ser;
        let d = &mut self.dirs[di(dir)];
        let seq = d.next_seq;
        d.next_seq = seq_next(seq);
        // Pay off any DLLP debt this direction has accrued: the DLLP
        // bytes occupy the wire ahead of (interleaved with) this TLP.
        let debt = std::mem::take(&mut d.dllp_debt);
        let ser = memo.time(wire_bytes + debt, rate);
        let res = d.timeline.reserve(now, ser);
        d.counters.tlps += 1;
        d.counters.tlp_bytes += wire_bytes;
        d.counters.payload_bytes += if ty.has_data() {
            payload_bytes as u64
        } else {
            0
        };
        // Admit to the replay buffer; an overflowing buffer forces an
        // immediate ACK below (never reached fault-free).
        d.replay_buf.push_back((seq, wire_bytes as u32));
        let force_ack = d.replay_buf.len() >= REPLAY_BUFFER_TLPS;

        // DLL retry: each corrupted attempt is retransmitted after a
        // NAK round trip (or a full replay-timer period), through the
        // same FIFO — so recovery consumes real wire capacity.
        let first_end = res.end;
        let mut end = first_end;
        for _ in 0..decision.lcrc_failures {
            let retry_start = if decision.timeout_detected {
                end + replay_timeout
            } else {
                end + propagation + propagation
            };
            let rres = d
                .timeline
                .reserve(retry_start, transfer_time(wire_bytes, rate));
            end = rres.end;
            d.counters.tlp_bytes += wire_bytes;
        }
        let fault_delay = end - first_end;
        let arrival = end + propagation;

        // Link-layer reactions (ACKs, credit updates, NAKs for the
        // corrupted attempts) flow on the opposite direction; they
        // accrue as debt there and serialise with that direction's
        // next TLP.
        let opp = di(opposite(dir));
        let o = &mut self.dirs[opp];
        o.unacked += 1;
        o.since_fc += 1;
        let mut dllps = 0u32;
        let mut acked = false;
        if o.unacked >= ack_coalesce || force_ack {
            o.unacked = 0;
            dllps += 1;
            acked = true;
        }
        if o.since_fc >= fc_interval {
            o.since_fc = 0;
            dllps += 2; // request-class + completion-class UpdateFC
        }
        let naks = if decision.timeout_detected {
            0
        } else {
            decision.lcrc_failures as u64
        };
        if naks > 0 {
            let bytes = naks * Dllp::WIRE_BYTES as u64;
            o.dllp_debt += bytes;
            o.counters.dllps += naks;
            o.counters.dllp_bytes += bytes;
        }
        if dllps > 0 {
            let bytes = dllps as u64 * Dllp::WIRE_BYTES as u64;
            o.dllp_debt += bytes;
            o.counters.dllps += dllps as u64;
            o.counters.dllp_bytes += bytes;
        }
        if acked {
            // A cumulative ACK covers every TLP received on `dir` so
            // far; the transmitter retires its replay buffer.
            self.dirs[di(dir)].replay_buf.clear();
        }

        if let Some(inj) = self.faults.as_deref_mut() {
            if decision.lcrc_failures > 0 {
                let c = inj.counters_mut(dir);
                c.injected_errors += 1;
                c.replays += decision.lcrc_failures as u64;
                c.replay_bytes += decision.lcrc_failures as u64 * wire_bytes;
                if decision.timeout_detected {
                    c.timeout_replays += decision.lcrc_failures as u64;
                }
            }
            if naks > 0 {
                inj.counters_mut(opposite(dir)).naks += naks;
            }
            if decision.dropped {
                inj.counters_mut(dir).dropped += 1;
            }
            if decision.poisoned {
                inj.counters_mut(dir).poisoned += 1;
            }
        }

        SendOutcome {
            arrival,
            fault_delay,
            replays: decision.lcrc_failures,
            dropped: decision.dropped,
            poisoned: decision.poisoned,
        }
    }

    /// Serialises a TLP *without* entering the direction's FIFO: its
    /// wire bytes are accrued as debt (paid by the next FIFO send) and
    /// its arrival is computed from `now` alone.
    ///
    /// Use for sporadic completions generated at future instants
    /// relative to the simulation's call order (e.g. device-register
    /// read completions): on hardware these interleave into the stream
    /// at their natural time; ratcheting the FIFO horizon forward for
    /// them would falsely block data TLPs issued earlier.
    pub fn send_tlp_deferred(
        &mut self,
        dir: Direction,
        ty: TlpType,
        payload_bytes: u32,
        now: SimTime,
    ) -> SimTime {
        let cost = self
            .config
            .overheads
            .wire_cost(ty, if ty.has_data() { payload_bytes } else { 0 });
        let rate = self.wire_rate();
        let wire_bytes = cost.total() as u64;
        let d = &mut self.dirs[di(dir)];
        d.dllp_debt += wire_bytes; // capacity accounted with the next FIFO send
        d.counters.tlps += 1;
        d.counters.tlp_bytes += wire_bytes;
        d.counters.payload_bytes += if ty.has_data() {
            payload_bytes as u64
        } else {
            0
        };
        now + transfer_time(wire_bytes, rate) + self.timing.propagation
    }

    /// Time at which `dir` next becomes free (for idle detection).
    pub fn busy_until(&self, dir: Direction) -> SimTime {
        self.dirs[di(dir)].timeline.busy_until()
    }

    /// Wire statistics for `dir`.
    pub fn counters(&self, dir: Direction) -> &WireCounters {
        &self.dirs[di(dir)].counters
    }

    /// Utilisation of `dir` over `[0, horizon]`.
    pub fn utilization(&self, dir: Direction, horizon: SimTime) -> f64 {
        self.dirs[di(dir)].timeline.utilization(horizon)
    }

    /// Wire and queueing counters for `dir` as a telemetry group
    /// (`link.upstream` / `link.downstream`).
    pub fn telemetry_group(&self, dir: Direction) -> pcie_telemetry::CounterGroup {
        let d = &self.dirs[di(dir)];
        let name = match dir {
            Direction::Upstream => "link.upstream",
            Direction::Downstream => "link.downstream",
        };
        let mut g = pcie_telemetry::CounterGroup::new(name);
        g.push("tlps", d.counters.tlps)
            .push("tlp_bytes", d.counters.tlp_bytes)
            .push("payload_bytes", d.counters.payload_bytes)
            .push("dllps", d.counters.dllps)
            .push("dllp_bytes", d.counters.dllp_bytes)
            .push("busy_ns", d.timeline.busy_time().as_ns_f64() as u64)
            .push("queue_ns", d.timeline.queue_time().as_ns_f64() as u64)
            .push("reservations", d.timeline.reservations());
        g
    }

    /// Replay/fault counters for `dir` as a telemetry group
    /// (`link.replay.upstream` / `link.replay.downstream`). `None`
    /// when no fault plan is installed, so fault-free telemetry
    /// snapshots are byte-identical to builds without the subsystem.
    pub fn replay_telemetry_group(&self, dir: Direction) -> Option<pcie_telemetry::CounterGroup> {
        let inj = self.faults.as_ref()?;
        let c = inj.counters(dir);
        let name = match dir {
            Direction::Upstream => "link.replay.upstream",
            Direction::Downstream => "link.replay.downstream",
        };
        let mut g = pcie_telemetry::CounterGroup::new(name);
        g.push("injected_errors", c.injected_errors)
            .push("replays", c.replays)
            .push("replay_bytes", c.replay_bytes)
            .push("timeout_replays", c.timeout_replays)
            .push("naks", c.naks)
            .push("dropped", c.dropped)
            .push("poisoned", c.poisoned);
        Some(g)
    }

    /// Resets timelines and counters (benchmark reruns). The fault
    /// injector re-derives its RNG streams from its seed, so a reset
    /// link replays the identical fault sequence.
    pub fn reset(&mut self) {
        for d in &mut self.dirs {
            *d = DirState::new();
        }
        if let Some(inj) = self.faults.as_deref_mut() {
            inj.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_model::config::gbps;

    fn link() -> Link {
        Link::new(LinkConfig::gen3_x8(), LinkTiming::default())
    }

    #[test]
    fn single_tlp_time_and_arrival() {
        let mut l = link();
        // 256B MWr64: 280 wire bytes at ~62.7 Gb/s -> ~35.7ns + 150ns.
        let arr = l.send_tlp(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);
        let ser_ns = arr.as_ns_f64() - 150.0;
        assert!((ser_ns - 35.7).abs() < 0.5, "serialisation {ser_ns}ns");
        assert_eq!(l.counters(Direction::Upstream).tlps, 1);
        assert_eq!(l.counters(Direction::Upstream).tlp_bytes, 280);
        assert_eq!(l.counters(Direction::Upstream).payload_bytes, 256);
    }

    #[test]
    fn fifo_ordering_of_sends() {
        let mut l = link();
        let a = l.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
        let b = l.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
        assert!(b > a, "same-direction TLPs serialise in order");
        // Opposite direction is independent.
        let c = l.send_tlp(Direction::Downstream, TlpType::CplD, 64, SimTime::ZERO);
        assert!(c < b);
    }

    #[test]
    fn saturated_write_throughput_exceeds_model_estimate() {
        // The paper (§6.1): measured uni-directional write throughput
        // slightly exceeds the model because the model's DLL estimate
        // is conservative. Check the emergent behaviour matches.
        let mut l = link();
        let mut t = SimTime::ZERO;
        let n = 20_000u32;
        for _ in 0..n {
            t = l.send_tlp(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);
        }
        let elapsed = t - LinkTiming::default().propagation;
        let achieved = gbps(l.counters(Direction::Upstream).payload_bw(elapsed));
        let model = gbps(LinkConfig::gen3_x8().tlp_bw()) * 256.0 / 280.0;
        assert!(
            achieved > model,
            "achieved {achieved} should exceed model {model}"
        );
        // ...but never the physical limit.
        assert!(achieved < gbps(LinkConfig::gen3_x8().phys_bw()) * 256.0 / 280.0);
    }

    #[test]
    fn acks_consume_opposite_direction() {
        let mut l = link();
        for _ in 0..100 {
            l.send_tlp(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);
        }
        let down = l.counters(Direction::Downstream);
        assert!(down.dllps > 0, "ACK/FC DLLPs must appear downstream");
        assert_eq!(down.tlps, 0);
        // 100 TLPs, ack every 2 -> 50 ACKs; FC every 8 -> 12*2 = 24.
        assert_eq!(down.dllps, 50 + 24);
        assert_eq!(down.dllp_bytes, (50 + 24) * 8);
    }

    #[test]
    fn bidirectional_dll_overhead_in_paper_range() {
        // Symmetric small-TLP traffic should show a few percent of DLL
        // overhead (the paper's model budgets ~8% worst case).
        let mut l = link();
        for _ in 0..10_000 {
            l.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
            l.send_tlp(Direction::Downstream, TlpType::CplD, 64, SimTime::ZERO);
        }
        for dir in [Direction::Upstream, Direction::Downstream] {
            let f = l.counters(dir).dll_overhead_fraction();
            assert!(
                (0.01..=0.10).contains(&f),
                "{dir:?} DLL overhead {f} outside [1%, 10%]"
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut l = link();
        l.send_tlp(Direction::Upstream, TlpType::MRd64, 0, SimTime::ZERO);
        l.reset();
        assert_eq!(l.counters(Direction::Upstream).tlps, 0);
        assert_eq!(l.busy_until(Direction::Upstream), SimTime::ZERO);
    }

    #[test]
    fn deferred_send_accounts_bytes_without_blocking_fifo() {
        let mut l = link();
        // A deferred CplD far in the future...
        let arr = l.send_tlp_deferred(
            Direction::Upstream,
            TlpType::CplD,
            64,
            SimTime::from_us(100),
        );
        assert!(
            arr > SimTime::from_us(100),
            "arrival after now + ser + prop"
        );
        // ...must not delay an earlier FIFO send.
        let fifo = l.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
        assert!(
            fifo < SimTime::from_us(1),
            "earlier FIFO TLP blocked by deferred send: {fifo}"
        );
        // Its bytes are still accounted (as debt paid by the FIFO send).
        let c = l.counters(Direction::Upstream);
        assert_eq!(c.tlps, 2);
        assert_eq!(c.tlp_bytes, 84 + 88);
        assert_eq!(c.payload_bytes, 128);
    }

    #[test]
    fn deferred_debt_slows_the_next_fifo_send() {
        let mut a = link();
        let t_plain = a.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
        let mut b = link();
        b.send_tlp_deferred(Direction::Upstream, TlpType::CplD, 1024, SimTime::ZERO);
        let t_after_debt = b.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
        assert!(
            t_after_debt > t_plain,
            "debt must lengthen serialisation: {t_after_debt} vs {t_plain}"
        );
    }

    #[test]
    fn sequence_numbers_advance_and_wrap() {
        let mut l = link();
        assert_eq!(l.next_seq(Direction::Upstream), 0);
        for _ in 0..4100 {
            l.send_tlp(Direction::Upstream, TlpType::MWr64, 64, SimTime::ZERO);
        }
        // 4100 mod 4096 = 4: the 12-bit space wrapped.
        assert_eq!(l.next_seq(Direction::Upstream), 4);
        assert_eq!(l.next_seq(Direction::Downstream), 0);
        // ack_coalesce = 2 bounds the replay buffer at 2.
        assert!(l.replay_occupancy(Direction::Upstream) <= 2);
    }

    #[test]
    fn inactive_plan_is_removed() {
        let mut l = link();
        l.set_fault_plan(pcie_fault::FaultPlan::none(), 1);
        assert!(!l.faults_active());
        assert!(l.fault_counters(Direction::Upstream).is_none());
        assert!(l.replay_telemetry_group(Direction::Upstream).is_none());
    }

    #[test]
    fn nak_replay_costs_wire_time_and_a_nak_dllp() {
        use pcie_fault::{DirFaults, FaultPlan};
        let mut clean = link();
        let t_clean = clean.send_tlp(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);

        let mut l = link();
        // Force exactly one NAK-detected corruption on the first TLP.
        let plan = FaultPlan {
            upstream: DirFaults {
                ber: 0.999_999,
                timeout_fraction: 0.0,
                ..DirFaults::none()
            },
            max_replays: 1,
            ..FaultPlan::none()
        };
        l.set_fault_plan(plan, 7);
        let out = l.send_tlp_ext(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);
        assert_eq!(out.replays, 1);
        assert!(!out.dropped && !out.poisoned);
        // Replay = NAK round trip (2 × 150ns propagation) + one more
        // 280-byte serialisation (~35.7ns).
        let extra = out.arrival - t_clean;
        assert!(
            (extra.as_ns_f64() - (300.0 + 35.7)).abs() < 1.0,
            "replay cost {extra}"
        );
        assert_eq!(out.fault_delay, extra);
        // Retransmitted bytes are on the wire counters, once per try.
        let up = l.counters(Direction::Upstream);
        assert_eq!(up.tlps, 1, "a replay is not a new TLP");
        assert_eq!(up.tlp_bytes, 2 * 280);
        // One NAK DLLP accrued on the opposite direction.
        let down = l.counters(Direction::Downstream);
        assert_eq!(down.dllps, 1);
        assert_eq!(down.dllp_bytes, 8);
        let fc = l.fault_counters(Direction::Upstream).unwrap();
        assert_eq!(fc.injected_errors, 1);
        assert_eq!(fc.replays, 1);
        assert_eq!(fc.replay_bytes, 280);
        assert_eq!(fc.timeout_replays, 0);
        assert_eq!(l.fault_counters(Direction::Downstream).unwrap().naks, 1);
    }

    #[test]
    fn timeout_replay_waits_the_replay_timer_and_sends_no_nak() {
        use pcie_fault::{DirFaults, FaultPlan};
        let mut l = link();
        let plan = FaultPlan {
            upstream: DirFaults {
                ber: 0.999_999,
                timeout_fraction: 1.0,
                ..DirFaults::none()
            },
            max_replays: 1,
            ..FaultPlan::none()
        };
        l.set_fault_plan(plan, 7);
        let out = l.send_tlp_ext(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);
        assert_eq!(out.replays, 1);
        // Replay-timer expiry: ≥ the 2µs replay_timeout.
        assert!(out.fault_delay >= FaultPlan::none().replay_timeout);
        assert_eq!(l.counters(Direction::Downstream).dllps, 0, "no NAK");
        let fc = l.fault_counters(Direction::Upstream).unwrap();
        assert_eq!(fc.timeout_replays, 1);
        assert_eq!(l.fault_counters(Direction::Downstream).unwrap().naks, 0);
    }

    #[test]
    fn targeted_drop_and_poison_are_flagged_not_timed() {
        use pcie_fault::{DirFaults, FaultPlan};
        let mut l = link();
        let plan = FaultPlan {
            downstream: DirFaults {
                drop_nth: Some(1),
                poison_nth: Some(2),
                ..DirFaults::none()
            },
            ..FaultPlan::none()
        };
        l.set_fault_plan(plan, 3);
        let mut clean = link();
        let t_clean = clean.send_tlp(Direction::Downstream, TlpType::CplD, 64, SimTime::ZERO);
        let a = l.send_tlp_ext(Direction::Downstream, TlpType::CplD, 64, SimTime::ZERO);
        assert!(a.dropped && !a.poisoned);
        assert_eq!(
            a.arrival, t_clean,
            "a drop above the DLL costs no wire time"
        );
        let b = l.send_tlp_ext(Direction::Downstream, TlpType::CplD, 64, SimTime::ZERO);
        assert!(b.poisoned && !b.dropped);
        let fc = l.fault_counters(Direction::Downstream).unwrap();
        assert_eq!((fc.dropped, fc.poisoned), (1, 1));
    }

    #[test]
    fn reset_replays_identical_fault_sequence() {
        use pcie_fault::FaultPlan;
        let mut l = link();
        l.set_fault_plan(FaultPlan::symmetric_ber(1e-6), 42);
        let first: Vec<SendOutcome> = (0..2000)
            .map(|_| l.send_tlp_ext(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO))
            .collect();
        l.reset();
        let second: Vec<SendOutcome> = (0..2000)
            .map(|_| l.send_tlp_ext(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO))
            .collect();
        assert_eq!(first, second);
        assert!(
            first.iter().any(|o| o.replays > 0),
            "1e-6 BER over 2000 × 2240-bit TLPs should inject"
        );
    }

    #[test]
    fn replay_telemetry_group_reconciles_with_wire_counters() {
        use pcie_fault::FaultPlan;
        let mut l = link();
        l.set_fault_plan(FaultPlan::symmetric_ber(5e-6), 11);
        for _ in 0..5000 {
            l.send_tlp(Direction::Upstream, TlpType::MWr64, 256, SimTime::ZERO);
        }
        let fc = *l.fault_counters(Direction::Upstream).unwrap();
        assert!(fc.injected_errors > 0);
        // Wire bytes = clean bytes + retransmitted bytes.
        assert_eq!(
            l.counters(Direction::Upstream).tlp_bytes,
            5000 * 280 + fc.replay_bytes
        );
        // NAK DLLPs ride the opposite direction on top of ACK/FC.
        let naks = l.fault_counters(Direction::Downstream).unwrap().naks;
        assert_eq!(fc.replays - fc.timeout_replays, naks);
        let down = l.counters(Direction::Downstream);
        assert_eq!(down.dllps, 2500 + 625 * 2 + naks);
        let g = l.replay_telemetry_group(Direction::Upstream).unwrap();
        assert_eq!(g.component, "link.replay.upstream");
        assert_eq!(g.get("replay_bytes"), Some(fc.replay_bytes));
    }

    #[test]
    fn requests_carry_no_payload_bytes() {
        let mut l = link();
        l.send_tlp(Direction::Upstream, TlpType::MRd64, 512, SimTime::ZERO);
        let c = l.counters(Direction::Upstream);
        assert_eq!(c.payload_bytes, 0);
        assert_eq!(c.tlp_bytes, 24, "MRd64 is 24 wire bytes");
    }
}
