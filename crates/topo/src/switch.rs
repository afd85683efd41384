//! Transaction-level PCIe switch model.
//!
//! A switch has one upstream port (towards the root complex) and N
//! downstream ports (one device each). Host-bound TLPs from all
//! downstream ports share the upstream link: each ingress port holds a
//! TLP in its buffer until a flow-control credit towards the egress is
//! available, pays a fixed cut-through forwarding latency, and is then
//! serialised onto the upstream wire. Arbitration between ports is
//! round-robin in real silicon; here the shared upstream [`Link`]
//! timeline serialises TLPs in grant order, which under continuous
//! time is work-conserving and byte-identical to round-robin for the
//! throughput and byte-count questions this model answers — per-port
//! grant counters are still kept so fairness is observable.
//!
//! Peer-to-peer TLPs (device→device memory requests hitting another
//! downstream port's BAR window) cross only the internal crossbar:
//! they pay the cut-through latency but never touch the upstream link
//! — unless ACS Source Validation/Redirect is on, in which case the
//! caller must bounce them through the root complex (see
//! `SwitchConfig::acs_redirect` and the P2P path in `pcie-device`).

use pcie_fault::FaultPlan;
use pcie_link::link::SendOutcome;
use pcie_link::{Direction, Link, LinkTiming};
use pcie_model::LinkConfig;
use pcie_sim::SimTime;
use pcie_telemetry::CounterGroup;
use pcie_tlp::TlpType;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Switch calibration parameters.
///
/// The cut-through latency default (120 ns) is the port-to-port figure
/// vendors quote for Gen 3 datacenter switch silicon (e.g. PEX 87xx /
/// PM85xx class parts: 105–150 ns); ingress credits default to 32
/// posted-header-equivalents per port.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Upstream-port link (shared by all downstream ports).
    pub uplink: LinkConfig,
    /// Upstream-link timing (propagation, ACK/FC coalescing).
    pub timing: LinkTiming,
    /// Fixed port-to-port cut-through forwarding latency.
    pub cut_through: SimTime,
    /// Per-ingress-port buffer credits towards any egress.
    pub ingress_credits: usize,
    /// ACS Source Validation / P2P Request Redirect: when on, peer
    /// memory requests must be routed through the root complex for
    /// IOMMU validation instead of being forwarded at the switch.
    pub acs_redirect: bool,
    /// Latency for a peer BAR read to produce data (device-internal
    /// BAR/target logic, before completions are formed).
    pub bar_read_latency: SimTime,
    /// Latency for a peer BAR write to be absorbed by the target.
    pub bar_write_latency: SimTime,
}

impl SwitchConfig {
    /// A switch with a Gen 3 x8 upstream port — deliberately the same
    /// `LinkConfig` as the paper's device links, so an oversubscribed
    /// upstream port saturates at exactly the single-device Eq. 1
    /// bandwidth.
    pub fn gen3_x8() -> Self {
        SwitchConfig {
            uplink: LinkConfig::gen3_x8(),
            timing: LinkTiming::default(),
            cut_through: SimTime::from_ns(120),
            ingress_credits: 32,
            acs_redirect: false,
            bar_read_latency: SimTime::from_ns(150),
            bar_write_latency: SimTime::from_ns(50),
        }
    }

    /// The same switch with a Gen 3 x16 upstream port — the standard
    /// fan-out configuration (two x8 devices fully served, four
    /// oversubscribed 2:1).
    pub fn gen3_x16() -> Self {
        let mut c = SwitchConfig::gen3_x8();
        c.uplink.lanes = 16;
        c
    }

    /// Same switch with ACS redirect enabled.
    pub fn with_acs_redirect(mut self) -> Self {
        self.acs_redirect = true;
        self
    }
}

/// Per-port credit gate: `capacity` buffer slots held from grant until
/// an explicit future release (same discipline as the device DMA-tag
/// and FC-credit gates; reimplemented here because `pcie-topo` sits
/// below `pcie-device` in the crate graph).
#[derive(Debug, Clone)]
struct CreditGate {
    capacity: usize,
    releases: BinaryHeap<Reverse<u64>>,
    wait_accum: SimTime,
}

impl CreditGate {
    fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a port needs at least one credit");
        CreditGate {
            capacity,
            releases: BinaryHeap::new(),
            wait_accum: SimTime::ZERO,
        }
    }

    fn acquire(&mut self, now: SimTime) -> SimTime {
        if self.releases.len() < self.capacity {
            return now;
        }
        let Reverse(earliest) = self.releases.pop().expect("non-empty at capacity");
        let t = now.max(SimTime::from_ps(earliest));
        self.wait_accum += t.saturating_sub(now);
        t
    }

    fn release_at(&mut self, t: SimTime) {
        self.releases.push(Reverse(t.as_ps()));
    }

    fn reset(&mut self) {
        self.releases.clear();
        self.wait_accum = SimTime::ZERO;
    }
}

/// Byte/TLP counters of one downstream port, split by direction:
/// host-bound (`up`), host-originated (`down`) and peer-to-peer
/// traffic entering (`p2p_in`) or leaving (`p2p_out`) through this
/// port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Host-bound TLPs forwarded onto the upstream link.
    pub up_tlps: u64,
    /// Host-bound wire bytes (TLP framing included, Eq. 1 accounting).
    pub up_bytes: u64,
    /// Host-originated TLPs forwarded down to this port's device.
    pub down_tlps: u64,
    /// Host-originated wire bytes.
    pub down_bytes: u64,
    /// Peer-to-peer TLPs that entered the switch through this port.
    pub p2p_in_tlps: u64,
    /// Wire bytes of those TLPs.
    pub p2p_in_bytes: u64,
    /// Peer-to-peer TLPs delivered out of this port.
    pub p2p_out_tlps: u64,
    /// Wire bytes of those TLPs.
    pub p2p_out_bytes: u64,
    /// Upstream grants given to this port.
    pub rr_grants: u64,
    /// Grants that stalled waiting for an ingress credit.
    pub credit_stalls: u64,
}

#[derive(Debug, Clone)]
struct Port {
    credits: CreditGate,
    counters: PortCounters,
}

/// The switch: upstream link + N downstream ports + BAR routing table.
pub struct Switch {
    config: SwitchConfig,
    uplink: Link,
    ports: Vec<Port>,
    /// `(base, len, port)` BAR windows for address-routing peer TLPs.
    bars: Vec<(u64, u64, usize)>,
}

impl Switch {
    /// A switch with `ports` downstream ports.
    pub fn new(ports: usize, config: SwitchConfig) -> Self {
        assert!(ports >= 1, "a switch needs at least one downstream port");
        Switch {
            uplink: Link::new(config.uplink, config.timing),
            ports: (0..ports)
                .map(|_| Port {
                    credits: CreditGate::new(config.ingress_credits),
                    counters: PortCounters::default(),
                })
                .collect(),
            config,
            bars: Vec::new(),
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The shared upstream link (read access for telemetry and tests).
    pub fn uplink(&self) -> &Link {
        &self.uplink
    }

    /// Installs a fault plan on the shared upstream link, deriving the
    /// injection streams from `seed`. DLL-level faults (bit errors,
    /// replays, NAKs) are meaningful on the fabric's shared wire
    /// exactly as on a device link; an inactive plan (e.g.
    /// [`FaultPlan::none`] or a zero-BER plan) removes the injector
    /// entirely, so the fault-free switched path stays bit-identical
    /// to a switch that never saw this call.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, seed: u64) {
        self.uplink.set_fault_plan(*plan, seed);
    }

    /// Registers a BAR window `[base, base+len)` owned by `port`'s
    /// device. Windows must not overlap.
    pub fn register_bar(&mut self, port: usize, base: u64, len: u64) {
        assert!(port < self.ports.len(), "no such port {port}");
        assert!(len > 0, "empty BAR window");
        for &(b, l, p) in &self.bars {
            assert!(
                base + len <= b || b + l <= base,
                "BAR [{base:#x}+{len:#x}) overlaps port {p}'s [{b:#x}+{l:#x})"
            );
        }
        self.bars.push((base, len, port));
    }

    /// Address-routes `addr`: the downstream port whose BAR window
    /// contains it, or `None` (host memory — route upstream).
    pub fn route(&self, addr: u64) -> Option<usize> {
        self.bars
            .iter()
            .find(|&&(b, l, _)| addr >= b && addr < b + l)
            .map(|&(_, _, p)| p)
    }

    fn wire_bytes(&self, ty: TlpType, payload: u32) -> u64 {
        self.config
            .uplink
            .overheads
            .wire_cost(ty, if ty.has_data() { payload } else { 0 })
            .total() as u64
    }

    /// Forwards a host-bound TLP that arrived on downstream `port` at
    /// `now`: ingress credit → cut-through → serialised upstream wire.
    /// Returns the upstream link's outcome: the arrival time at the
    /// root-complex end, and whether the uplink's fault plan dropped
    /// or poisoned the TLP, which the caller must then not deliver as
    /// sent. The credit is held until the TLP has fully left the
    /// egress buffer (end of wire transmission).
    pub fn forward_up(
        &mut self,
        port: usize,
        ty: TlpType,
        payload: u32,
        now: SimTime,
    ) -> SendOutcome {
        let bytes = self.wire_bytes(ty, payload);
        let propagation = self.config.timing.propagation;
        let p = &mut self.ports[port];
        let granted = p.credits.acquire(now);
        if granted > now {
            p.counters.credit_stalls += 1;
        }
        p.counters.rr_grants += 1;
        p.counters.up_tlps += 1;
        p.counters.up_bytes += bytes;
        let out = self.uplink.send_tlp_ext(
            Direction::Upstream,
            ty,
            payload,
            granted + self.config.cut_through,
        );
        self.ports[port]
            .credits
            .release_at(out.arrival.saturating_sub(propagation));
        out
    }

    /// Forwards a host-originated TLP down to `port`'s device:
    /// serialised on the upstream link's downstream direction at `now`,
    /// then cut-through to the port. Returns the upstream link's
    /// outcome with `arrival` moved to when the TLP is on the port's
    /// downstream link (the caller then pays that link), unless the
    /// uplink dropped it.
    pub fn forward_down(
        &mut self,
        port: usize,
        ty: TlpType,
        payload: u32,
        now: SimTime,
    ) -> SendOutcome {
        let bytes = self.wire_bytes(ty, payload);
        let out = self
            .uplink
            .send_tlp_ext(Direction::Downstream, ty, payload, now);
        let c = &mut self.ports[port].counters;
        c.down_tlps += 1;
        c.down_bytes += bytes;
        SendOutcome {
            arrival: out.arrival + self.config.cut_through,
            ..out
        }
    }

    /// Forwards a peer-to-peer TLP from downstream port `src` to
    /// downstream port `dst` across the internal crossbar: pays only
    /// the cut-through latency and **never touches the upstream link**
    /// (the invariant `tests/telemetry.rs` pins). The crossbar is
    /// non-blocking — distinct port pairs do not contend.
    pub fn forward_peer(
        &mut self,
        src: usize,
        dst: usize,
        ty: TlpType,
        payload: u32,
        now: SimTime,
    ) -> SimTime {
        assert!(src != dst, "peer route to self");
        let bytes = self.wire_bytes(ty, payload);
        let cs = &mut self.ports[src].counters;
        cs.p2p_in_tlps += 1;
        cs.p2p_in_bytes += bytes;
        let cd = &mut self.ports[dst].counters;
        cd.p2p_out_tlps += 1;
        cd.p2p_out_bytes += bytes;
        now + self.config.cut_through
    }

    /// Counters of downstream `port`.
    pub fn port_counters(&self, port: usize) -> PortCounters {
        self.ports[port].counters
    }

    /// Telemetry: one `topo.switch` summary group plus one
    /// `topo.port{i}` group per downstream port.
    pub fn telemetry_groups(&self) -> Vec<CounterGroup> {
        let mut groups = Vec::with_capacity(1 + self.ports.len());
        let mut summary = CounterGroup::new("topo.switch");
        summary
            .push("ports", self.ports.len() as u64)
            .push("cut_through_ns", self.config.cut_through.as_ns())
            .push("ingress_credits", self.config.ingress_credits as u64)
            .push("acs_redirect", self.config.acs_redirect as u64);
        groups.push(summary);
        for (i, p) in self.ports.iter().enumerate() {
            let c = &p.counters;
            let mut g = CounterGroup::new(format!("topo.port{i}"));
            g.push("up_tlps", c.up_tlps)
                .push("up_bytes", c.up_bytes)
                .push("down_tlps", c.down_tlps)
                .push("down_bytes", c.down_bytes)
                .push("p2p_in_tlps", c.p2p_in_tlps)
                .push("p2p_in_bytes", c.p2p_in_bytes)
                .push("p2p_out_tlps", c.p2p_out_tlps)
                .push("p2p_out_bytes", c.p2p_out_bytes)
                .push("rr_grants", c.rr_grants)
                .push("credit_stalls", c.credit_stalls)
                .push("credit_wait_ns", p.credits.wait_accum.as_ns());
            groups.push(g);
        }
        groups
    }

    /// Clears all counters and queueing state (BAR windows stay).
    pub fn reset(&mut self) {
        self.uplink.reset();
        for p in &mut self.ports {
            p.credits.reset();
            p.counters = PortCounters::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw(ports: usize) -> Switch {
        Switch::new(ports, SwitchConfig::gen3_x8())
    }

    #[test]
    fn routes_by_bar_window() {
        let mut s = sw(2);
        s.register_bar(0, 0x1_0000_0000, 0x100_0000);
        s.register_bar(1, 0x1_0100_0000, 0x100_0000);
        assert_eq!(s.route(0x1_0000_0000), Some(0));
        assert_eq!(s.route(0x1_00ff_ffff), Some(0));
        assert_eq!(s.route(0x1_0100_0000), Some(1));
        assert_eq!(s.route(0x2000), None, "host memory routes upstream");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn rejects_overlapping_bars() {
        let mut s = sw(2);
        s.register_bar(0, 0x1000, 0x1000);
        s.register_bar(1, 0x1800, 0x1000);
    }

    #[test]
    fn forward_up_pays_cut_through_and_wire() {
        let mut s = sw(1);
        let direct = Link::new(LinkConfig::gen3_x8(), LinkTiming::default()).send_tlp(
            Direction::Upstream,
            TlpType::MWr64,
            256,
            SimTime::from_ns(120),
        );
        let via = s.forward_up(0, TlpType::MWr64, 256, SimTime::ZERO);
        assert_eq!(
            via.arrival, direct,
            "switch adds exactly cut_through before the wire"
        );
        assert_eq!(s.port_counters(0).up_tlps, 1);
        assert_eq!(
            s.port_counters(0).up_bytes,
            280,
            "256B MWr64 = 280 wire bytes"
        );
    }

    #[test]
    fn peer_forwarding_skips_the_uplink() {
        let mut s = sw(2);
        let t = s.forward_peer(0, 1, TlpType::MWr64, 256, SimTime::from_ns(10));
        assert_eq!(t, SimTime::from_ns(130));
        assert_eq!(s.uplink().counters(Direction::Upstream).tlps, 0);
        assert_eq!(s.uplink().counters(Direction::Downstream).tlps, 0);
        assert_eq!(s.port_counters(0).p2p_in_bytes, 280);
        assert_eq!(s.port_counters(1).p2p_out_bytes, 280);
    }

    #[test]
    fn upstream_serialises_two_ports() {
        let mut s = sw(2);
        let a = s.forward_up(0, TlpType::MWr64, 256, SimTime::ZERO).arrival;
        let b = s.forward_up(1, TlpType::MWr64, 256, SimTime::ZERO).arrival;
        assert!(
            b > a,
            "second grant queues behind the first on the shared wire"
        );
        assert_eq!(s.port_counters(0).rr_grants, 1);
        assert_eq!(s.port_counters(1).rr_grants, 1);
    }

    #[test]
    fn ingress_credits_backpressure() {
        let mut c = SwitchConfig::gen3_x8();
        c.ingress_credits = 2;
        let mut s = Switch::new(1, c);
        for _ in 0..8 {
            s.forward_up(0, TlpType::MWr64, 256, SimTime::ZERO);
        }
        assert!(
            s.port_counters(0).credit_stalls > 0,
            "2 credits, 8 TLPs at t=0"
        );
    }

    #[test]
    fn telemetry_groups_shape() {
        let mut s = sw(2);
        s.forward_up(0, TlpType::MWr64, 64, SimTime::ZERO);
        let groups = s.telemetry_groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].component, "topo.switch");
        assert_eq!(groups[1].component, "topo.port0");
        assert_eq!(groups[1].get("up_tlps"), Some(1));
        assert_eq!(groups[2].get("up_tlps"), Some(0));
    }
}
