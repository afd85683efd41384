//! The closed device ⇄ link ⇄ host loop.
//!
//! [`Platform`] is what a benchmark drives. Each DMA:
//!
//! 1. waits for a firmware **worker** slot (the NFP runs 96 worker
//!    threads; the NetFPGA state machine is modelled as many fast
//!    workers),
//! 2. pays descriptor preparation/enqueue overhead, then the DMA
//!    engine's **issue port** (one request per engine clock),
//! 3. waits for a **tag** (reads) or **posted flow-control credit**
//!    (writes),
//! 4. serialises request TLPs onto the upstream link,
//! 5. is served by the **root complex** (cache/DDIO, IOMMU, NUMA —
//!    see `pcie-host`),
//! 6. receives completions downstream (reads), pays the internal
//!    staging copy (NFP) and completion handling.
//!
//! Because every shared stage is a FIFO timeline or slot gate, issuing
//! transactions in want-time order yields the exact closed-loop
//! schedule: bandwidth is *produced*, not computed.
//!
//! The per-device machinery lives in [`DeviceEngine`], which borrows
//! each DMA's target — host memory in a [`HostSystem`], or a peer
//! device's BAR window — per call, so several engines can share one
//! host (see [`crate::multi::MultiPlatform`], the paper's §9
//! multi-device scenario). [`Platform`] is the common single-device
//! bundle.

use crate::config_space::ConfigSpace;
use crate::gate::SlotGate;
use crate::params::DeviceParams;
use pcie_fault::{DeviceErrorCounters, FaultPlan};
use pcie_host::{HostBuffer, HostSystem};
use pcie_link::link::SendOutcome;
use pcie_link::{Direction, Link, LinkTiming};
use pcie_model::config::LinkConfig;
use pcie_sim::{SimTime, Timeline};
use pcie_telemetry::{CounterGroup, Snapshot, Stage, StageReport, StageSample, StageStats};
use pcie_tlp::split;
use pcie_tlp::types::TlpType;
use pcie_topo::Switch;

/// Which device path issues a transfer (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaPath {
    /// The bulk DMA engine (descriptor-based).
    DmaEngine,
    /// The NFP's direct PCIe command interface (small transfers only).
    CommandIf,
}

/// Timing of one completed DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaResult {
    /// When the issuing thread started (timestamp before enqueue).
    pub issued: SimTime,
    /// When the device observed completion.
    pub done: SimTime,
    /// When the target — host memory, or a peer's BAR — absorbed the
    /// transfer. For reads this equals `done`; for (posted) writes it
    /// is the instant the data became visible there, which the device
    /// cannot observe.
    pub absorbed: SimTime,
}

impl DmaResult {
    /// Raw latency (no timestamp quantisation).
    pub fn latency(&self) -> SimTime {
        self.done - self.issued
    }
}

/// Posted/non-posted header credits a typical root port advertises
/// (per ingress port).
const POSTED_HDR_CREDITS: usize = 64;
const NONPOSTED_HDR_CREDITS: usize = 64;

/// How peer-to-peer memory TLPs travel between two devices (§9
/// future-work configuration; see DESIGN.md §9).
pub(crate) enum P2pRoute<'a> {
    /// Both devices behind one switch with ACS redirect off: requests
    /// are address-routed at the switch and never reach the root
    /// complex.
    Switch {
        /// The shared switch.
        switch: &'a mut Switch,
        /// The initiator's downstream port.
        src_port: usize,
        /// The target's downstream port.
        dst_port: usize,
    },
    /// Behind one switch with ACS Source Validation/P2P Request
    /// Redirect on: requests bounce through the root complex (and its
    /// IOMMU) before coming back down; completions are ID-routed and
    /// return directly through the switch.
    AcsRedirect {
        /// The shared switch.
        switch: &'a mut Switch,
        /// The initiator's downstream port.
        src_port: usize,
        /// The target's downstream port.
        dst_port: usize,
        /// The host whose root complex validates the requests.
        host: &'a mut HostSystem,
    },
    /// Flat attach (no switch): peer TLPs naturally route up to the
    /// root complex and back down the target's link.
    RootComplex {
        /// The shared host.
        host: &'a mut HostSystem,
    },
}

/// BAR-target latencies for the flat (switch-free) P2P route; the
/// switched routes read the same figures from `SwitchConfig` so flat
/// vs switched comparisons isolate the fabric cost.
const FLAT_BAR_READ_LATENCY: SimTime = SimTime::from_ns(150);
const FLAT_BAR_WRITE_LATENCY: SimTime = SimTime::from_ns(50);

impl P2pRoute<'_> {
    /// The peer BAR target's (read, write) latency.
    fn bar_latency(&self) -> (SimTime, SimTime) {
        match self {
            P2pRoute::Switch { switch, .. } | P2pRoute::AcsRedirect { switch, .. } => (
                switch.config().bar_read_latency,
                switch.config().bar_write_latency,
            ),
            P2pRoute::RootComplex { .. } => (FLAT_BAR_READ_LATENCY, FLAT_BAR_WRITE_LATENCY),
        }
    }

    /// Carries a request for `len` bytes at `addr`, off the
    /// initiator's link at `at`, onto the peer's downstream wire as a
    /// sporadic TLP (out-of-FIFO, bytes still accounted); returns its
    /// arrival at the peer, and whether the switch's uplink dropped or
    /// poisoned it on the way. A dropped request, and one poisoned on
    /// its way up (the root complex discards it), stop where they were
    /// lost, at the time the loss is observable.
    fn request(
        &mut self,
        peer: &mut Link,
        domain: u32,
        ty: TlpType,
        addr: u64,
        len: u32,
        at: SimTime,
    ) -> SendOutcome {
        let payload = if ty.has_data() { len } else { 0 };
        let mut out = match self {
            P2pRoute::Switch {
                switch,
                src_port,
                dst_port,
            } => clean(switch.forward_peer(*src_port, *dst_port, ty, payload, at)),
            P2pRoute::AcsRedirect {
                switch,
                src_port,
                dst_port,
                host,
            } => {
                let up = switch.forward_up(*src_port, ty, payload, at);
                if up.dropped || up.poisoned {
                    return up;
                }
                let rc = host.process_peer_tlp(up.arrival, domain, addr, len);
                let down = switch.forward_down(*dst_port, ty, payload, rc);
                if down.dropped {
                    return down;
                }
                down
            }
            P2pRoute::RootComplex { host } => clean(host.process_peer_tlp(at, domain, addr, len)),
        };
        out.arrival = peer.send_tlp_deferred(Direction::Downstream, ty, payload, out.arrival);
        out
    }

    /// Carries a completion of `len` bytes, off the peer's link at
    /// `at`, to the initiator's link. Completions are ID-routed, so
    /// they cross the switch directly even under ACS redirect.
    fn completion(&mut self, len: u32, at: SimTime) -> SimTime {
        match self {
            P2pRoute::Switch {
                switch,
                src_port,
                dst_port,
            }
            | P2pRoute::AcsRedirect {
                switch,
                src_port,
                dst_port,
                ..
            } => switch.forward_peer(*dst_port, *src_port, TlpType::CplD, len, at),
            // Flat: the completion traverses the root complex port
            // logic; the request already paid the RC pipe, so only
            // wire time is charged here.
            P2pRoute::RootComplex { .. } => at,
        }
    }
}

/// Where a DMA's TLPs go once they leave the device's own link: the
/// one leg in which host and peer DMAs differ. Everything before it —
/// gates, issue port, the device link and its fault verdicts — is the
/// engine's one chunk loop per direction.
pub(crate) enum Target<'a> {
    /// Host memory in `buf`.
    Host {
        /// The host whose root complex serves the TLPs.
        host: &'a mut HostSystem,
        /// The buffer the DMA's addresses fall in.
        buf: &'a HostBuffer,
        /// The switch and downstream port the device hangs off;
        /// `None` is the flat root-complex attach.
        switch: Option<(&'a mut Switch, usize)>,
    },
    /// A peer device's BAR window.
    Peer {
        /// The peer, whose link carries the TLPs' last hop.
        peer: &'a mut DeviceEngine,
        /// The path between the two devices' links.
        route: P2pRoute<'a>,
    },
}

/// One MRd request's leg beyond the device's link, as its target
/// reports it.
#[derive(Clone, Copy)]
struct ReadLeg {
    /// When the request reached the target.
    req_arrival: SimTime,
    /// When the target had the data ready to return.
    ready: SimTime,
    /// When the last completion arrived back at the device.
    last_arrival: SimTime,
    /// DLL recovery time the completions spent on the device's link.
    cpl_fault: SimTime,
    /// No completion can arrive: the request was lost beyond the
    /// device's link (dropped, or discarded poisoned), or a completion
    /// was lost above the DLL.
    lost: bool,
    /// A completion arrived poisoned.
    cpl_poisoned: bool,
}

/// A TLP delivered at `arrival`, with no fault on the way.
fn clean(arrival: SimTime) -> SendOutcome {
    SendOutcome {
        arrival,
        fault_delay: SimTime::ZERO,
        replays: 0,
        dropped: false,
        poisoned: false,
    }
}

impl<'a> Target<'a> {
    /// Host memory in `buf`, behind `switch` (see [`Target::Host`]).
    pub(crate) fn host(
        host: &'a mut HostSystem,
        buf: &'a HostBuffer,
        switch: Option<(&'a mut Switch, usize)>,
    ) -> Self {
        Target::Host { host, buf, switch }
    }

    /// Carries one MWr chunk, off the device's link at `arrival`, into
    /// the target. Returns when the target has absorbed it, or, if the
    /// switch's uplink dropped or poisoned it, the outcome of that hop,
    /// and the target never sees the chunk.
    fn write(&mut self, domain: u32, addr: u64, len: u32, arrival: SimTime) -> SendOutcome {
        match self {
            Target::Host { host, buf, switch } => {
                // Through a switch the TLP still has the cut-through
                // and the shared upstream link ahead of it before the
                // root complex sees it.
                let rc_at = match switch {
                    Some((sw, port)) => {
                        let up = sw.forward_up(*port, TlpType::MWr64, len, arrival);
                        if up.dropped || up.poisoned {
                            return up;
                        }
                        up.arrival
                    }
                    None => arrival,
                };
                clean(host.process_write_tlp(rc_at, domain, buf, addr, len))
            }
            Target::Peer { peer, route } => {
                let out = route.request(&mut peer.link, domain, TlpType::MWr64, addr, len, arrival);
                if out.dropped || out.poisoned {
                    return out;
                }
                clean(out.arrival + route.bar_latency().1)
            }
        }
    }

    /// Carries one MRd request for `len` bytes at `addr`, off the far
    /// end of the device's `link` at `arrival`, to the target, and its
    /// completions back to the device.
    fn read(
        &mut self,
        link: &mut Link,
        domain: u32,
        addr: u64,
        len: u32,
        arrival: SimTime,
    ) -> ReadLeg {
        match self {
            Target::Host { host, buf, switch } => {
                // Behind a switch the request still crosses the
                // cut-through stage and the shared upstream link; the
                // wire stage of the telemetry attribution absorbs both.
                let req_arrival = match switch {
                    Some((sw, port)) => {
                        let up = sw.forward_up(*port, TlpType::MRd64, 0, arrival);
                        if up.dropped || up.poisoned {
                            return ReadLeg::request_lost(up.arrival);
                        }
                        up.arrival
                    }
                    None => arrival,
                };
                let ready = host.process_read_tlp(req_arrival, domain, buf, addr, len);
                let mut leg = ReadLeg::new(req_arrival, ready);
                let cfg = *link.config();
                for cpl in split::completion_chunks(addr, len, cfg.mps, cfg.rcb) {
                    let at = match switch {
                        Some((sw, port)) => {
                            let down = sw.forward_down(*port, TlpType::CplD, cpl.len, ready);
                            // A completion dropped on the uplink never
                            // reaches the device's link; a poisoned one
                            // travels on to the device, which discards it.
                            leg.lost |= down.dropped;
                            leg.cpl_poisoned |= down.poisoned;
                            if down.dropped {
                                continue;
                            }
                            down.arrival
                        }
                        None => ready,
                    };
                    let out = link.send_tlp_ext(Direction::Downstream, TlpType::CplD, cpl.len, at);
                    leg.last_arrival = leg.last_arrival.max(out.arrival);
                    leg.cpl_fault += out.fault_delay;
                    leg.lost |= out.dropped;
                    leg.cpl_poisoned |= out.poisoned;
                }
                leg
            }
            Target::Peer { peer, route } => {
                let peer = &mut peer.link;
                let req = route.request(peer, domain, TlpType::MRd64, addr, len, arrival);
                if req.dropped || req.poisoned {
                    return ReadLeg::request_lost(req.arrival);
                }
                let mut leg = ReadLeg::new(req.arrival, req.arrival + route.bar_latency().0);
                // Completions: split by the peer's MPS/RCB, serialised
                // on the peer's upstream wire (chained manually —
                // deferred sends are debt-accounted but not
                // FIFO-ratcheted).
                let (cfg, prop) = (*peer.config(), peer.timing().propagation);
                let mut start = leg.ready;
                for cpl in split::completion_chunks(addr, len, cfg.mps, cfg.rcb) {
                    let t =
                        peer.send_tlp_deferred(Direction::Upstream, TlpType::CplD, cpl.len, start);
                    start = t.saturating_sub(prop);
                    let back = route.completion(cpl.len, t);
                    let arrival =
                        link.send_tlp_deferred(Direction::Downstream, TlpType::CplD, cpl.len, back);
                    leg.last_arrival = leg.last_arrival.max(arrival);
                }
                leg
            }
        }
    }
}

impl ReadLeg {
    /// A leg whose request arrived at `req_arrival` and whose data is
    /// ready at `ready`, before any completion is sent.
    fn new(req_arrival: SimTime, ready: SimTime) -> Self {
        ReadLeg {
            req_arrival,
            ready,
            last_arrival: ready,
            cpl_fault: SimTime::ZERO,
            lost: false,
            cpl_poisoned: false,
        }
    }

    /// A leg whose request was lost at `at`, beyond the device's link.
    fn request_lost(at: SimTime) -> Self {
        ReadLeg {
            lost: true,
            ..ReadLeg::new(at, at)
        }
    }
}

/// One device's complete PCIe machinery: its link, DMA engine issue
/// port, worker pool, tag window and flow-control credit gates, plus
/// the IOMMU protection domain its traffic translates in.
pub struct DeviceEngine {
    dev: DeviceParams,
    link: Link,
    domain: u32,
    config: ConfigSpace,
    issue_port: Timeline,
    workers: SlotGate,
    read_tags: SlotGate,
    posted_credits: SlotGate,
    nonposted_credits: SlotGate,
    cmdif_slots: SlotGate,
    /// Per-stage latency attribution; `None` (the default) costs one
    /// untaken branch per DMA — see `pcie-telemetry`'s
    /// zero-cost-when-disabled contract.
    telem: Option<Box<StageStats<Stage>>>,
    dma_reads: u64,
    dma_writes: u64,
    dma_write_reads: u64,
    msi_writes: u64,
    p2p_reads: u64,
    p2p_writes: u64,
    /// AER-style error counters; only exported as a telemetry group
    /// when a fault plan is installed.
    errors: DeviceErrorCounters,
    /// How long the engine waits for a missing completion before
    /// re-issuing the read (copied from the installed fault plan).
    completion_timeout: SimTime,
    /// Re-issue budget for timed-out / poisoned reads before abort.
    max_read_retries: u32,
    /// Whether a fault plan is installed (gates error-path telemetry).
    faults_active: bool,
}

impl DeviceEngine {
    /// Builds an engine on its own link, translating in `domain`.
    pub fn new(dev: DeviceParams, link_cfg: LinkConfig, timing: LinkTiming, domain: u32) -> Self {
        let cmdif_cap = dev.cmdif.map(|c| c.max_inflight).unwrap_or(1);
        DeviceEngine {
            dev,
            link: Link::new(link_cfg, timing),
            domain,
            config: ConfigSpace::nfp6000_like(),
            issue_port: Timeline::new(),
            workers: SlotGate::new(dev.workers),
            read_tags: SlotGate::new(dev.max_inflight_reads),
            posted_credits: SlotGate::new(POSTED_HDR_CREDITS),
            nonposted_credits: SlotGate::new(NONPOSTED_HDR_CREDITS),
            cmdif_slots: SlotGate::new(cmdif_cap),
            telem: None,
            dma_reads: 0,
            dma_writes: 0,
            dma_write_reads: 0,
            msi_writes: 0,
            p2p_reads: 0,
            p2p_writes: 0,
            errors: DeviceErrorCounters::default(),
            completion_timeout: FaultPlan::none().completion_timeout,
            max_read_retries: FaultPlan::none().max_read_retries,
            faults_active: false,
        }
    }

    /// Installs a fault plan on this engine's link and copies the
    /// device-side recovery parameters (completion timeout, retry
    /// budget). `FaultPlan::none()` removes the injector entirely and
    /// restores the exact fault-free path.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, seed: u64) {
        self.link.set_fault_plan(*plan, seed);
        self.completion_timeout = plan.completion_timeout;
        self.max_read_retries = plan.max_read_retries;
        self.faults_active = plan.is_active();
    }

    /// The engine's AER-style error counters.
    pub fn device_errors(&self) -> &DeviceErrorCounters {
        &self.errors
    }

    /// Turns on per-stage latency attribution for subsequent DMAs.
    pub fn enable_telemetry(&mut self) {
        if self.telem.is_none() {
            self.telem = Some(Box::new(StageStats::new()));
        }
    }

    /// Whether stage attribution is enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.telem.is_some()
    }

    /// The accumulated stage attribution, if enabled.
    pub fn stage_stats(&self) -> Option<&StageStats<Stage>> {
        self.telem.as_deref()
    }

    /// The device parameters.
    pub fn device(&self) -> &DeviceParams {
        &self.dev
    }

    /// The engine's link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Issues a DMA read of `len` bytes at `addr` from `target`.
    pub(crate) fn dma_read(
        &mut self,
        mut target: Target<'_>,
        want: SimTime,
        addr: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let issued = self.workers.acquire(want);
        let t0 = match path {
            DmaPath::DmaEngine => {
                let prep = issued + self.dev.dma_issue_overhead;
                self.issue_port.reserve(prep, self.dev.issue_gap).end
            }
            DmaPath::CommandIf => {
                let c = self.dev.cmdif.expect("device has no command interface");
                assert!(len <= c.max_size, "command interface max {}B", c.max_size);
                let t = self.cmdif_slots.acquire(issued + c.issue_overhead);
                self.cmdif_slots.release_at(t); // slot accounted via tags below
                t
            }
        };
        let done = self.read_after(&mut target, issued, t0, addr, len, path);
        self.workers.release_at(done);
        match target {
            Target::Host { .. } => self.dma_reads += 1,
            Target::Peer { .. } => self.p2p_reads += 1,
        }
        DmaResult {
            issued,
            done,
            absorbed: done,
        }
    }

    /// Issues a DMA write of `len` bytes at `addr` into `target`.
    pub(crate) fn dma_write(
        &mut self,
        mut target: Target<'_>,
        want: SimTime,
        addr: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let issued = self.workers.acquire(want);
        let (done, absorbed) = self.write_inner(&mut target, issued, addr, len, path);
        self.workers.release_at(done);
        match target {
            Target::Host { .. } => self.dma_writes += 1,
            Target::Peer { .. } => self.p2p_writes += 1,
        }
        DmaResult {
            issued,
            done,
            absorbed,
        }
    }

    /// The MWr chunk loop every write shares: `(done, absorbed)`,
    /// where `done` is when the last MWr has left the device's wire.
    fn write_inner(
        &mut self,
        target: &mut Target<'_>,
        issued: SimTime,
        addr: u64,
        len: u32,
        path: DmaPath,
    ) -> (SimTime, SimTime) {
        let t0 = match path {
            DmaPath::DmaEngine => {
                // Stage the payload out of internal memory, then enqueue.
                let staged = issued + self.dev.internal_copy(len);
                let prep = staged + self.dev.dma_issue_overhead;
                self.issue_port.reserve(prep, self.dev.issue_gap).end
            }
            DmaPath::CommandIf => {
                let c = self.dev.cmdif.expect("device has no command interface");
                assert!(len <= c.max_size, "command interface max {}B", c.max_size);
                issued + c.issue_overhead
            }
        };
        let mps = self.link.config().mps;
        let prop = self.link.timing().propagation;
        let mut sent_last = t0;
        let mut absorbed_last = t0;
        for chunk in split::write_chunks(addr, len, mps) {
            let p_at = self.posted_credits.acquire(sent_last.max(t0));
            let out = self
                .link
                .send_tlp_ext(Direction::Upstream, TlpType::MWr64, chunk.len, p_at);
            let sent = out.arrival - prop; // device-side end of serialisation
            let out = if out.dropped || out.poisoned {
                out
            } else {
                target.write(self.domain, chunk.addr, chunk.len, out.arrival)
            };
            let absorbed = if out.dropped || out.poisoned {
                // Lost above the DLL, or delivered poisoned and
                // discarded by the receiver, on the device's link or
                // on a switch's uplink: posted writes have no
                // completion, so the device never learns — the data
                // is silently gone and only the AER counters record
                // it. The credit returns after header processing.
                if out.dropped {
                    self.errors.dropped_writes += 1;
                } else {
                    self.errors.poisoned_writes += 1;
                }
                out.arrival + SimTime::from_ns(20)
            } else {
                out.arrival
            };
            // Posted credits return once the target absorbs the write.
            self.posted_credits.release_at(absorbed);
            absorbed_last = absorbed_last.max(absorbed);
            sent_last = sent;
        }
        (sent_last + self.dev.dma_complete_overhead, absorbed_last)
    }

    /// The `LAT_WRRD` primitive (§4.1): a DMA write immediately
    /// followed by a DMA read of the same address; PCIe ordering makes
    /// the read observe the write's cost.
    pub(crate) fn dma_write_read(
        &mut self,
        mut target: Target<'_>,
        want: SimTime,
        addr: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let issued = self.workers.acquire(want);
        let (write_done, _) = self.write_inner(&mut target, issued, addr, len, path);
        // The read descriptor follows the write into the queue.
        let t0 = match path {
            DmaPath::DmaEngine => {
                let prep = write_done.max(issued + self.dev.dma_issue_overhead);
                // The read's Issue stage absorbs the preceding write.
                self.issue_port.reserve(prep, self.dev.issue_gap).end
            }
            DmaPath::CommandIf => write_done,
        };
        let read = self.read_after(&mut target, issued, t0, addr, len, path);
        self.workers.release_at(read);
        self.dma_write_reads += 1;
        DmaResult {
            issued,
            done: read,
            absorbed: read,
        }
    }

    /// The MRd/CplD chunk loop every read shares (no worker gate).
    ///
    /// `issued` is the worker-acquisition instant; when telemetry is
    /// enabled the *critical* (last-completing) chunk's boundary
    /// timestamps are recorded as a [`StageSample`]. The timestamps
    /// telescope — `issued → t0 → np_at → req_arrival → ready →
    /// last_arrival → done` — so the sample's stage durations sum
    /// exactly to the end-to-end latency `done - issued`.
    fn read_after(
        &mut self,
        target: &mut Target<'_>,
        issued: SimTime,
        t0: SimTime,
        addr: u64,
        len: u32,
        path: DmaPath,
    ) -> SimTime {
        let mrrs = self.link.config().mrrs;
        let mut data_done = t0;
        // Boundary timestamps of the critical chunk (first_np,
        // np_final, the request's DLL recovery time, its leg beyond
        // the link); only tracked when telemetry is on. Fault-free,
        // first_np == np_final and the fault terms are zero, so
        // attribution is unchanged.
        let mut critical: Option<(SimTime, SimTime, SimTime, ReadLeg)> = None;
        let mut aborted = false;
        for chunk in split::read_request_chunks(addr, len, mrrs) {
            let tag_at = self.read_tags.acquire(t0);
            let mut attempt_start = tag_at;
            let mut first_np: Option<SimTime> = None;
            let mut retries = 0u32;
            // Ok: successful chunk (np_final, req_fault, leg). Err:
            // aborted at the given instant after exhausting the retry
            // budget.
            let outcome = loop {
                let np_at = self.nonposted_credits.acquire(attempt_start);
                first_np.get_or_insert(np_at);
                let req = self
                    .link
                    .send_tlp_ext(Direction::Upstream, TlpType::MRd64, 0, np_at);
                self.nonposted_credits
                    .release_at(req.arrival + SimTime::from_ns(5));
                // When the engine can re-issue a failed attempt.
                let resume = if req.dropped || req.poisoned {
                    // The request never produces a completion (a
                    // poisoned request is discarded by the receiver):
                    // the engine's completion timer, armed at issue,
                    // expires and the read is re-issued.
                    self.errors.completion_timeouts += 1;
                    np_at + self.completion_timeout
                } else {
                    let leg = target.read(
                        &mut self.link,
                        self.domain,
                        chunk.addr,
                        chunk.len,
                        req.arrival,
                    );
                    if leg.lost {
                        // A lost completion is indistinguishable from
                        // a lost request: wait out the completion
                        // timer.
                        self.errors.completion_timeouts += 1;
                        np_at + self.completion_timeout
                    } else if leg.cpl_poisoned {
                        // Poison (EP bit) is detected on arrival; the
                        // data is discarded and the read re-issued
                        // immediately.
                        self.errors.poisoned_completions += 1;
                        leg.last_arrival
                    } else {
                        break Ok((np_at, req.fault_delay, leg));
                    }
                };
                if retries >= self.max_read_retries {
                    self.errors.read_aborts += 1;
                    break Err(resume);
                }
                retries += 1;
                self.errors.read_retries += 1;
                attempt_start = resume;
            };
            match outcome {
                Ok((np_final, req_fault, leg)) => {
                    self.read_tags.release_at(leg.last_arrival);
                    if self.telem.is_some() && leg.last_arrival >= data_done {
                        let first_np = first_np.expect("at least one attempt");
                        critical = Some((first_np, np_final, req_fault, leg));
                    }
                    data_done = data_done.max(leg.last_arrival);
                }
                Err(resume) => {
                    // The chunk is abandoned; the tag frees when the
                    // abort is declared. No data arrives, so the DMA
                    // completes in error at that instant.
                    self.read_tags.release_at(resume);
                    data_done = data_done.max(resume);
                    aborted = true;
                }
            }
        }
        let internal = match path {
            DmaPath::DmaEngine => self.dev.internal_copy(len),
            DmaPath::CommandIf => SimTime::ZERO,
        };
        let done = data_done + internal + self.dev.dma_complete_overhead;
        if aborted {
            // An aborted DMA has no critical data chunk; its stage
            // attribution would be meaningless, so it is not recorded.
            return done;
        }
        if let (Some(stats), Some((first_np, np_final, req_fault, leg))) =
            (self.telem.as_deref_mut(), critical)
        {
            // DLL retransmissions and completion-timeout waits are
            // attributed to the Replay stage; the wire stages keep
            // their clean serialisation + propagation time, so the
            // seven stages still telescope to `done - issued`.
            let replay_ns = (np_final - first_np).as_ns_f64()
                + req_fault.as_ns_f64()
                + leg.cpl_fault.as_ns_f64();
            let mut s = StageSample::default();
            s.set(Stage::Issue, (t0 - issued).as_ns_f64())
                .set(Stage::TagAlloc, (first_np - t0).as_ns_f64())
                .set(
                    Stage::RequestWire,
                    (leg.req_arrival - np_final).as_ns_f64() - req_fault.as_ns_f64(),
                )
                .set(Stage::Host, (leg.ready - leg.req_arrival).as_ns_f64())
                .set(
                    Stage::CompletionWire,
                    (data_done - leg.ready).as_ns_f64() - leg.cpl_fault.as_ns_f64(),
                )
                .set(Stage::Replay, replay_ns)
                .set(Stage::DeviceCompletion, (done - data_done).as_ns_f64());
            stats.record(&s);
        }
        done
    }

    /// Raises an MSI/MSI-X interrupt: a 4-byte posted memory write of
    /// the message data to `addr` in `target` (the interrupt
    /// controller's doorstep — Eq. 1 accounts it as one `MWr` of 4 B
    /// upstream). Returns when the target absorbs the message.
    pub(crate) fn msi(&mut self, mut target: Target<'_>, want: SimTime, addr: u64) -> SimTime {
        // MSI messages come from the device's interrupt block, not a
        // descriptor-driven worker: no worker slot, but the issue port
        // and posted machinery are shared with the data path.
        let (_, absorbed) = self.write_inner(&mut target, want, addr, 4, DmaPath::DmaEngine);
        self.msi_writes += 1;
        absorbed
    }

    /// Driver-initiated PIO write (doorbell): returns when the device
    /// sees it.
    pub fn pio_write(&mut self, now: SimTime, len: u32) -> SimTime {
        self.link
            .send_tlp(Direction::Downstream, TlpType::MWr64, len, now)
    }

    /// Driver-initiated PIO read (e.g. a head-pointer register):
    /// returns when the data is back at the CPU.
    ///
    /// The completion is a sporadic TLP generated at a future instant
    /// relative to call order, so it is serialised out-of-FIFO (its
    /// bytes still cost upstream capacity).
    pub fn pio_read(&mut self, now: SimTime, len: u32) -> SimTime {
        let req = self
            .link
            .send_tlp(Direction::Downstream, TlpType::MRd64, 0, now);
        // Device register file answers quickly.
        let ready = req + SimTime::from_ns(10);
        self.link
            .send_tlp_deferred(Direction::Upstream, TlpType::CplD, len, ready)
    }

    /// Configuration-space read (§5.3 driver initialisation): a CfgRd0
    /// travels downstream; the register value returns in a completion.
    /// Returns `(data_arrival_at_cpu, value)`.
    pub fn cfg_read(&mut self, now: SimTime, register: u16) -> (SimTime, u32) {
        let req = self
            .link
            .send_tlp(Direction::Downstream, TlpType::CfgRd0, 0, now);
        let value = self.config.read(register);
        // Config accesses go through the device's slow management path.
        let ready = req + SimTime::from_ns(100);
        let arr = self
            .link
            .send_tlp_deferred(Direction::Upstream, TlpType::CplD, 4, ready);
        (arr, value)
    }

    /// Configuration-space write; returns when the CPU sees the
    /// completion (config writes are non-posted).
    pub fn cfg_write(&mut self, now: SimTime, register: u16, value: u32) -> SimTime {
        let req = self
            .link
            .send_tlp(Direction::Downstream, TlpType::CfgWr0, 4, now);
        self.config.write(register, value);
        let ready = req + SimTime::from_ns(100);
        self.link
            .send_tlp_deferred(Direction::Upstream, TlpType::Cpl, 0, ready)
    }

    /// Direct access to the configuration space (enumeration flows).
    pub fn config_space(&mut self) -> &mut ConfigSpace {
        &mut self.config
    }

    /// Mean acquisition waits of (workers, read tags, posted credits,
    /// non-posted credits) — bottleneck diagnostics.
    pub fn gate_waits(&self) -> (SimTime, SimTime, SimTime, SimTime) {
        (
            self.workers.mean_wait(),
            self.read_tags.mean_wait(),
            self.posted_credits.mean_wait(),
            self.nonposted_credits.mean_wait(),
        )
    }

    /// The engine's counters as telemetry groups: `device.engine`
    /// (DMA counts, issue-port occupancy/queueing) and `device.gates`
    /// (per-gate acquire/stall/wait — the tag window and the
    /// per-direction posted/non-posted flow-control credit stalls).
    pub fn telemetry_groups(&self) -> Vec<CounterGroup> {
        let mut engine = CounterGroup::new("device.engine");
        engine
            .push("dma_reads", self.dma_reads)
            .push("dma_writes", self.dma_writes)
            .push("dma_write_reads", self.dma_write_reads)
            .push(
                "issue_port_busy_ns",
                self.issue_port.busy_time().as_ns_f64() as u64,
            )
            .push(
                "issue_port_queue_ns",
                self.issue_port.queue_time().as_ns_f64() as u64,
            )
            .push("issue_port_reservations", self.issue_port.reservations());
        if self.msi_writes > 0 {
            // Only exported once the device has raised interrupts, so
            // interrupt-free snapshots stay byte-identical to pre-MSI
            // builds.
            engine.push("msi_writes", self.msi_writes);
        }
        if self.p2p_reads + self.p2p_writes > 0 {
            // Only exported once the engine has issued peer-to-peer
            // traffic, so flat/host-only snapshots stay byte-identical
            // to pre-topology builds.
            engine
                .push("p2p_reads", self.p2p_reads)
                .push("p2p_writes", self.p2p_writes);
        }

        let mut gates = CounterGroup::new("device.gates");
        // CounterGroup names are 'static: one literal per gate/metric
        // pair.
        for (gate, [acquires, stalls, wait_ns]) in [
            (
                &self.workers,
                ["workers_acquires", "workers_stalls", "workers_wait_ns"],
            ),
            (
                &self.read_tags,
                [
                    "read_tags_acquires",
                    "read_tags_stalls",
                    "read_tags_wait_ns",
                ],
            ),
            (
                &self.posted_credits,
                [
                    "posted_credits_acquires",
                    "posted_credits_stalls",
                    "posted_credits_wait_ns",
                ],
            ),
            (
                &self.nonposted_credits,
                [
                    "nonposted_credits_acquires",
                    "nonposted_credits_stalls",
                    "nonposted_credits_wait_ns",
                ],
            ),
            (
                &self.cmdif_slots,
                [
                    "cmdif_slots_acquires",
                    "cmdif_slots_stalls",
                    "cmdif_slots_wait_ns",
                ],
            ),
        ] {
            gates
                .push(acquires, gate.acquires())
                .push(stalls, gate.stalls())
                .push(wait_ns, gate.total_wait().as_ns_f64() as u64);
        }
        let mut groups = vec![engine, gates];
        if self.faults_active {
            // Only exported under an installed fault plan so that
            // fault-free snapshots stay byte-identical to builds
            // without the subsystem.
            let e = &self.errors;
            let mut errors = CounterGroup::new("device.errors");
            errors
                .push("completion_timeouts", e.completion_timeouts)
                .push("poisoned_completions", e.poisoned_completions)
                .push("read_retries", e.read_retries)
                .push("read_aborts", e.read_aborts)
                .push("dropped_writes", e.dropped_writes)
                .push("poisoned_writes", e.poisoned_writes);
            groups.push(errors);
        }
        groups
    }
}

/// A single device + link + host assembly — the common case.
pub struct Platform {
    /// The host side (public: benchmarks warm/thrash caches, read stats).
    pub host: HostSystem,
    engine: DeviceEngine,
}

impl Platform {
    /// Assembles a platform.
    pub fn new(
        dev: DeviceParams,
        host: HostSystem,
        link_cfg: LinkConfig,
        timing: LinkTiming,
    ) -> Self {
        Platform {
            host,
            engine: DeviceEngine::new(dev, link_cfg, timing, 0),
        }
    }

    /// The device parameters.
    pub fn device(&self) -> &DeviceParams {
        self.engine.device()
    }

    /// The link (wire counters, utilisation).
    pub fn link(&self) -> &Link {
        self.engine.link()
    }

    /// Installs a fault plan (see [`DeviceEngine::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, seed: u64) {
        self.engine.set_fault_plan(plan, seed);
    }

    /// The device's AER-style error counters.
    pub fn device_errors(&self) -> &DeviceErrorCounters {
        self.engine.device_errors()
    }

    /// Quantises a duration to the device's timestamp counter.
    pub fn quantize(&self, t: SimTime) -> SimTime {
        self.engine.device().quantize(t)
    }

    /// Mean acquisition waits of (workers, read tags, posted credits,
    /// non-posted credits) — bottleneck diagnostics.
    pub fn gate_waits(&self) -> (SimTime, SimTime, SimTime, SimTime) {
        self.engine.gate_waits()
    }

    /// Issues a DMA read of `[offset, offset+len)` from `buf`, wanted
    /// at `want`. Returns issue/completion times.
    pub fn dma_read(
        &mut self,
        want: SimTime,
        buf: &HostBuffer,
        offset: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let target = Target::host(&mut self.host, buf, None);
        self.engine
            .dma_read(target, want, buf.addr(offset), len, path)
    }

    /// Issues a DMA write. `done` is when the device sees the write
    /// completed (data handed to the wire); host absorption is later
    /// and only observable through ordering and credit back-pressure.
    pub fn dma_write(
        &mut self,
        want: SimTime,
        buf: &HostBuffer,
        offset: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let target = Target::host(&mut self.host, buf, None);
        self.engine
            .dma_write(target, want, buf.addr(offset), len, path)
    }

    /// The `LAT_WRRD` primitive (§4.1): a DMA write immediately
    /// followed by a DMA read of the same address; PCIe ordering makes
    /// the read observe the write's cost.
    pub fn dma_write_read(
        &mut self,
        want: SimTime,
        buf: &HostBuffer,
        offset: u64,
        len: u32,
        path: DmaPath,
    ) -> DmaResult {
        let target = Target::host(&mut self.host, buf, None);
        self.engine
            .dma_write_read(target, want, buf.addr(offset), len, path)
    }

    /// Driver-initiated PIO write (doorbell).
    pub fn pio_write(&mut self, now: SimTime, len: u32) -> SimTime {
        self.engine.pio_write(now, len)
    }

    /// Raises an MSI/MSI-X interrupt: a 4-byte posted memory write of
    /// the message data to the vector's address (`buf`/`offset` stands
    /// in for the interrupt controller's doorstep — Eq. 1 accounts it
    /// as one `MWr` of 4 B upstream). The write serialises on the same
    /// upstream wire and posted-credit gate as packet data, so under
    /// load an interrupt *costs* bandwidth, exactly as §3 budgets.
    /// Returns when the root complex absorbs the message — the instant
    /// the interrupt is visible to the CPU's interrupt controller.
    pub fn msi(&mut self, want: SimTime, buf: &HostBuffer, offset: u64) -> SimTime {
        let target = Target::host(&mut self.host, buf, None);
        self.engine.msi(target, want, buf.addr(offset))
    }

    /// Configuration-space read (see [`DeviceEngine::cfg_read`]).
    pub fn cfg_read(&mut self, now: SimTime, register: u16) -> (SimTime, u32) {
        self.engine.cfg_read(now, register)
    }

    /// Configuration-space write (see [`DeviceEngine::cfg_write`]).
    pub fn cfg_write(&mut self, now: SimTime, register: u16, value: u32) -> SimTime {
        self.engine.cfg_write(now, register, value)
    }

    /// The device's configuration space.
    pub fn config_space(&mut self) -> &mut ConfigSpace {
        self.engine.config_space()
    }

    /// Driver-initiated PIO read.
    pub fn pio_read(&mut self, now: SimTime, len: u32) -> SimTime {
        self.engine.pio_read(now, len)
    }

    /// Turns on per-stage latency attribution for subsequent DMAs
    /// (see [`DeviceEngine::enable_telemetry`]).
    pub fn enable_telemetry(&mut self) {
        self.engine.enable_telemetry();
    }

    /// Whether stage attribution is enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.engine.telemetry_enabled()
    }

    /// The accumulated stage attribution, if enabled.
    pub fn stage_stats(&self) -> Option<&StageStats<Stage>> {
        self.engine.stage_stats()
    }

    /// Assembles the full cross-layer telemetry snapshot: link wire
    /// counters (both directions), every host-side component, the DMA
    /// engine and its gates, plus the stage-attribution report when
    /// [`Platform::enable_telemetry`] was called.
    pub fn telemetry_snapshot(&self, label: impl Into<String>) -> Snapshot {
        let mut snap = Snapshot::new(label);
        snap.add_group(self.engine.link().telemetry_group(Direction::Upstream));
        snap.add_group(self.engine.link().telemetry_group(Direction::Downstream));
        for dir in [Direction::Upstream, Direction::Downstream] {
            if let Some(g) = self.engine.link().replay_telemetry_group(dir) {
                snap.add_group(g);
            }
        }
        for g in self.host.telemetry_groups() {
            snap.add_group(g);
        }
        for g in self.engine.telemetry_groups() {
            snap.add_group(g);
        }
        if let Some(stats) = self.engine.stage_stats() {
            snap.set_stages(StageReport::from_stats(stats));
        }
        snap
    }

    /// "Device warm" (§4): issue DMA writes over the window before a
    /// benchmark, so the DDIO partition holds the window's lines.
    pub fn device_warm(&mut self, buf: &HostBuffer, offset: u64, len: u64, chunk: u32) {
        let mut t = SimTime::ZERO;
        let mut off = offset;
        while off < offset + len {
            let n = chunk.min((offset + len - off) as u32);
            let r = self.dma_write(t, buf, off, n, DmaPath::DmaEngine);
            t = r.done;
            off += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_host::buffer::BufferAllocator;
    use pcie_host::presets::HostPreset;

    fn netfpga_platform() -> (Platform, HostBuffer) {
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(8 * 1024, 0);
        let host = HostSystem::new(HostPreset::netfpga_hsw(), 99);
        let p = Platform::new(
            DeviceParams::netfpga(),
            host,
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
        );
        (p, buf)
    }

    fn nfp_platform() -> (Platform, HostBuffer) {
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(8 * 1024, 0);
        let host = HostSystem::new(HostPreset::nfp6000_hsw(), 99);
        let p = Platform::new(
            DeviceParams::nfp6000(),
            host,
            LinkConfig::gen3_x8(),
            LinkTiming::default(),
        );
        (p, buf)
    }

    fn min_lat_ns(
        p: &mut Platform,
        buf: &HostBuffer,
        len: u32,
        f: impl Fn(&mut Platform, SimTime, &HostBuffer, u32) -> DmaResult,
    ) -> f64 {
        let mut now = SimTime::ZERO;
        let mut best = f64::MAX;
        for _ in 0..48 {
            now += SimTime::from_us(20);
            let r = f(p, now, buf, len);
            best = best.min(r.latency().as_ns_f64());
        }
        best
    }

    #[test]
    fn netfpga_64b_read_latency_in_paper_band() {
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let lat = min_lat_ns(&mut p, &buf, 64, |p, t, b, l| {
            p.dma_read(t, b, 0, l, DmaPath::DmaEngine)
        });
        // Paper Fig 5/6: warm 64B reads in the 400-550ns range.
        assert!(
            (380.0..560.0).contains(&lat),
            "NetFPGA 64B warm LAT_RD = {lat}ns"
        );
    }

    #[test]
    fn nfp_dma_read_offset_above_netfpga() {
        let (mut p1, b1) = netfpga_platform();
        let (mut p2, b2) = nfp_platform();
        p1.host.host_warm(&b1, 0, 8 * 1024);
        p2.host.host_warm(&b2, 0, 8 * 1024);
        let f = |p: &mut Platform, t: SimTime, b: &HostBuffer, l: u32| {
            p.dma_read(t, b, 0, l, DmaPath::DmaEngine)
        };
        let netfpga = min_lat_ns(&mut p1, &b1, 64, f);
        let nfp = min_lat_ns(&mut p2, &b2, 64, f);
        // §6.1: "an initial fixed offset of about 100ns".
        let gap = nfp - netfpga;
        assert!((60.0..200.0).contains(&gap), "gap {gap}ns");
        // §6.2: NFP 64B median ~547ns; min ~520ns.
        assert!((470.0..660.0).contains(&nfp), "NFP 64B LAT_RD {nfp}ns");
    }

    #[test]
    fn cmdif_matches_netfpga_latency() {
        // "When using the NFP's direct PCIe command interface ... the
        // NFP-6000 achieves the same latency as the NetFPGA" (§6.1).
        let (mut p1, b1) = netfpga_platform();
        let (mut p2, b2) = nfp_platform();
        p1.host.host_warm(&b1, 0, 8 * 1024);
        p2.host.host_warm(&b2, 0, 8 * 1024);
        let netfpga = min_lat_ns(&mut p1, &b1, 64, |p, t, b, l| {
            p.dma_read(t, b, 0, l, DmaPath::DmaEngine)
        });
        let cmdif = min_lat_ns(&mut p2, &b2, 64, |p, t, b, l| {
            p.dma_read(t, b, 0, l, DmaPath::CommandIf)
        });
        assert!(
            (cmdif - netfpga).abs() < 60.0,
            "cmdif {cmdif} vs netfpga {netfpga}"
        );
    }

    #[test]
    fn nfp_gap_widens_with_transfer_size() {
        let (mut p1, b1) = netfpga_platform();
        let (mut p2, b2) = nfp_platform();
        p1.host.host_warm(&b1, 0, 8 * 1024);
        p2.host.host_warm(&b2, 0, 8 * 1024);
        let f = |p: &mut Platform, t: SimTime, b: &HostBuffer, l: u32| {
            p.dma_read(t, b, 0, l, DmaPath::DmaEngine)
        };
        let gap_small = min_lat_ns(&mut p2, &b2, 64, f) - min_lat_ns(&mut p1, &b1, 64, f);
        let gap_large = min_lat_ns(&mut p2, &b2, 2048, f) - min_lat_ns(&mut p1, &b1, 2048, f);
        assert!(
            gap_large > gap_small + 200.0,
            "gap must widen: {gap_small} -> {gap_large}"
        );
    }

    #[test]
    fn wrrd_slower_than_rd() {
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let rd = min_lat_ns(&mut p, &buf, 64, |p, t, b, l| {
            p.dma_read(t, b, 0, l, DmaPath::DmaEngine)
        });
        let (mut p2, buf2) = netfpga_platform();
        p2.host.host_warm(&buf2, 0, 8 * 1024);
        let wrrd = min_lat_ns(&mut p2, &buf2, 64, |p, t, b, l| {
            p.dma_write_read(t, b, 0, l, DmaPath::DmaEngine)
        });
        assert!(wrrd > rd, "WRRD {wrrd} must exceed RD {rd}");
        assert!(wrrd < rd * 2.5, "but not absurdly: {wrrd} vs {rd}");
    }

    #[test]
    fn closed_loop_read_bandwidth_is_tag_limited_on_nfp() {
        let (mut p, buf) = nfp_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let n = 20_000u32;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let off = ((i as u64 * 64) % (8 * 1024 - 64)) & !63;
            let r = p.dma_read(SimTime::ZERO, &buf, off, 64, DmaPath::DmaEngine);
            last = last.max(r.done);
        }
        let gbps = (n as f64 * 64.0 * 8.0) / last.as_secs_f64() / 1e9;
        // §6.4: 64B DMA reads ≈ 32 Gb/s warm/local on the NFP.
        assert!((25.0..38.0).contains(&gbps), "NFP 64B BW_RD = {gbps} Gb/s");
    }

    #[test]
    fn netfpga_read_bandwidth_approaches_model() {
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let n = 20_000u32;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let off = ((i as u64 * 64) % (8 * 1024 - 64)) & !63;
            let r = p.dma_read(SimTime::ZERO, &buf, off, 64, DmaPath::DmaEngine);
            last = last.max(r.done);
        }
        let gbps = (n as f64 * 64.0 * 8.0) / last.as_secs_f64() / 1e9;
        let model = pcie_model::bandwidth::read_bandwidth(&LinkConfig::gen3_x8(), 64) / 1e9;
        assert!(
            gbps > model * 0.85 && gbps <= model * 1.05,
            "NetFPGA {gbps} Gb/s vs model {model}"
        );
    }

    #[test]
    fn write_bandwidth_near_model() {
        let (mut p, buf) = netfpga_platform();
        let n = 20_000u32;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let off = ((i as u64 * 256) % (8 * 1024 - 256)) & !63;
            let r = p.dma_write(SimTime::ZERO, &buf, off, 256, DmaPath::DmaEngine);
            last = last.max(r.done);
        }
        // Account absorption drain of the final writes.
        let gbps = (n as f64 * 256.0 * 8.0) / last.as_secs_f64() / 1e9;
        let model = pcie_model::bandwidth::write_bandwidth(&LinkConfig::gen3_x8(), 256) / 1e9;
        assert!(
            (gbps - model).abs() / model < 0.12,
            "BW_WR 256B {gbps} vs model {model}"
        );
    }

    #[test]
    fn pio_round_trip() {
        let (mut p, _) = netfpga_platform();
        let w = p.pio_write(SimTime::ZERO, 4);
        assert!(w > SimTime::from_ns(150), "at least propagation");
        let r = p.pio_read(SimTime::ZERO, 4);
        assert!(r > w, "read round trip exceeds write one-way");
    }

    #[test]
    fn device_warm_populates_ddio() {
        let (mut p, buf) = netfpga_platform();
        p.device_warm(&buf, 0, 4096, 256);
        let stats = p.host.cache_stats(0);
        assert!(stats.write_allocs > 0);
        // Lines now resident: a read hits.
        let mut now = SimTime::from_ms(1);
        let r = p.dma_read(now, &buf, 0, 64, DmaPath::DmaEngine);
        now = r.done;
        let _ = now;
        assert!(p.host.cache_stats(0).read_hits > 0);
    }

    #[test]
    fn config_cycles_travel_the_link() {
        let (mut p, _) = netfpga_platform();
        let (t, id) = p.cfg_read(SimTime::ZERO, 0);
        assert_eq!(id & 0xffff, 0x19ee, "vendor id over the wire");
        assert!(t > SimTime::from_ns(300), "two link traversals + device");
        let done = p.cfg_write(t, 0x04 / 4, 0x6); // enable memory + bus master
        assert!(done > t);
        assert_eq!(p.link().counters(Direction::Downstream).tlps, 2);
        assert_eq!(p.link().counters(Direction::Upstream).tlps, 2);
    }

    #[test]
    fn telemetry_disabled_by_default_enabled_reconciles() {
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        assert!(!p.telemetry_enabled());
        p.dma_read(SimTime::ZERO, &buf, 0, 64, DmaPath::DmaEngine);
        assert!(p.stage_stats().is_none(), "no stats until enabled");

        p.enable_telemetry();
        let mut now = SimTime::from_us(50);
        let mut total_lat = 0.0;
        for _ in 0..32 {
            now += SimTime::from_us(20);
            let r = p.dma_read(now, &buf, 0, 512, DmaPath::DmaEngine);
            total_lat += r.latency().as_ns_f64();
        }
        let stats = p.stage_stats().unwrap();
        assert_eq!(stats.count(), 32);
        // Stage contributions sum to the measured end-to-end latency
        // within floating-point rounding (the acceptance criterion).
        assert!(
            (stats.grand_total_ns() - total_lat).abs() < 1e-6 * total_lat.max(1.0),
            "stages {} vs end-to-end {}",
            stats.grand_total_ns(),
            total_lat
        );
        assert!(
            (stats.end_to_end().total_ns() - total_lat).abs() < 1e-6 * total_lat,
            "e2e histogram total mismatches measured latency"
        );
        // The host stage dominates a warm small read; wire stages are
        // nonzero.
        assert!(stats.mean_ns(Stage::Host) > 0.0);
        assert!(stats.mean_ns(Stage::RequestWire) > 0.0);
        assert!(stats.mean_ns(Stage::CompletionWire) > 0.0);
    }

    #[test]
    fn wrrd_stage_sum_still_reconciles() {
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        p.enable_telemetry();
        let mut now = SimTime::ZERO;
        let mut total_lat = 0.0;
        for _ in 0..16 {
            now += SimTime::from_us(20);
            let r = p.dma_write_read(now, &buf, 0, 64, DmaPath::DmaEngine);
            total_lat += r.latency().as_ns_f64();
        }
        let stats = p.stage_stats().unwrap();
        assert_eq!(stats.count(), 16);
        assert!(
            (stats.grand_total_ns() - total_lat).abs() < 1e-6 * total_lat,
            "WRRD stages {} vs end-to-end {}",
            stats.grand_total_ns(),
            total_lat
        );
        // The Issue stage absorbs the write phase (enqueue + wire +
        // write completion ≈ 30ns on the NetFPGA), so it clearly
        // exceeds the bare enqueue overhead (8ns).
        assert!(
            stats.mean_ns(Stage::Issue) > 20.0,
            "Issue stage {}ns should absorb the write phase",
            stats.mean_ns(Stage::Issue)
        );
    }

    #[test]
    fn snapshot_assembles_all_layers() {
        let (mut p, buf) = netfpga_platform();
        p.enable_telemetry();
        p.dma_read(SimTime::ZERO, &buf, 0, 256, DmaPath::DmaEngine);
        p.dma_write(SimTime::from_us(1), &buf, 0, 256, DmaPath::DmaEngine);
        let snap = p.telemetry_snapshot("unit");
        for comp in [
            "link.upstream",
            "link.downstream",
            "host.mem",
            "host.rc",
            "host.cache.node0",
            "host.dram.node0",
            "device.engine",
            "device.gates",
        ] {
            assert!(snap.group(comp).is_some(), "missing group {comp}");
        }
        assert_eq!(
            snap.group("device.engine").unwrap().get("dma_reads"),
            Some(1)
        );
        assert_eq!(
            snap.group("device.engine").unwrap().get("dma_writes"),
            Some(1)
        );
        // Upstream wire: 1 MRd (24B) + 1 MWr 256B (280B).
        assert_eq!(
            snap.group("link.upstream").unwrap().get("tlp_bytes"),
            Some(24 + 280)
        );
        let st = snap.stages().expect("stage report present");
        assert_eq!(st.transactions, 1, "only the read is stage-attributed");
        let json = snap.to_json();
        assert!(json.contains("\"host.cache.node0\""), "{json}");
    }

    #[test]
    fn dropped_request_costs_a_completion_timeout() {
        use pcie_fault::{DirFaults, FaultPlan};
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let clean = p
            .dma_read(SimTime::ZERO, &buf, 0, 64, DmaPath::DmaEngine)
            .latency();

        let (mut pf, buff) = netfpga_platform();
        pf.host.host_warm(&buff, 0, 8 * 1024);
        let plan = FaultPlan {
            upstream: DirFaults {
                drop_nth: Some(1),
                ..DirFaults::none()
            },
            ..FaultPlan::none()
        };
        pf.set_fault_plan(&plan, 0);
        let faulty = pf
            .dma_read(SimTime::ZERO, &buff, 0, 64, DmaPath::DmaEngine)
            .latency();
        // Retry succeeds, but only after the 10µs completion timer.
        let extra = faulty - clean;
        assert!(
            extra >= plan.completion_timeout,
            "timeout must dominate: {extra}"
        );
        let e = pf.device_errors();
        assert_eq!(e.completion_timeouts, 1);
        assert_eq!(e.read_retries, 1);
        assert_eq!(e.read_aborts, 0);
        // The next read is clean again (targeted fault hit once).
        let second = pf
            .dma_read(SimTime::from_ms(1), &buff, 0, 64, DmaPath::DmaEngine)
            .latency();
        assert!(second < clean + SimTime::from_ns(50), "second read clean");
    }

    #[test]
    fn poisoned_completion_retries_without_timeout() {
        use pcie_fault::{DirFaults, FaultPlan};
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let plan = FaultPlan {
            downstream: DirFaults {
                poison_nth: Some(1),
                ..DirFaults::none()
            },
            ..FaultPlan::none()
        };
        p.set_fault_plan(&plan, 0);
        let lat = p
            .dma_read(SimTime::ZERO, &buf, 0, 64, DmaPath::DmaEngine)
            .latency();
        let e = p.device_errors();
        assert_eq!(e.poisoned_completions, 1);
        assert_eq!(e.read_retries, 1);
        assert_eq!(e.completion_timeouts, 0);
        // Immediate re-issue: well under a completion timeout, but at
        // least one extra round trip.
        assert!(lat < plan.completion_timeout);
        assert!(lat > SimTime::from_ns(600), "two round trips: {lat}");
    }

    #[test]
    fn persistent_drop_aborts_after_retry_budget() {
        use pcie_fault::{DirFaults, FaultPlan};
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        let plan = FaultPlan {
            upstream: DirFaults {
                ber: 0.0,
                // Every request dropped: drop_nth can't express
                // "always", so poison at rate 1.0 (requests are
                // discarded by the RC, same recovery path).
                poison_rate: 1.0,
                ..DirFaults::none()
            },
            max_read_retries: 2,
            ..FaultPlan::none()
        };
        p.set_fault_plan(&plan, 0);
        let r = p.dma_read(SimTime::ZERO, &buf, 0, 64, DmaPath::DmaEngine);
        let e = p.device_errors();
        assert_eq!(e.read_aborts, 1);
        assert_eq!(e.read_retries, 2, "budget consumed before abort");
        assert_eq!(e.completion_timeouts, 3, "initial try + 2 retries");
        // 3 attempts × 10µs timer.
        assert!(r.latency() >= plan.completion_timeout.times(3));
    }

    #[test]
    fn dropped_and_poisoned_writes_hit_aer_counters_not_host() {
        use pcie_fault::{DirFaults, FaultPlan};
        let (mut p, buf) = netfpga_platform();
        let plan = FaultPlan {
            upstream: DirFaults {
                drop_nth: Some(1),
                poison_nth: Some(2),
                ..DirFaults::none()
            },
            ..FaultPlan::none()
        };
        p.set_fault_plan(&plan, 0);
        p.dma_write(SimTime::ZERO, &buf, 0, 64, DmaPath::DmaEngine);
        p.dma_write(SimTime::from_us(1), &buf, 0, 64, DmaPath::DmaEngine);
        p.dma_write(SimTime::from_us(2), &buf, 0, 64, DmaPath::DmaEngine);
        let e = p.device_errors();
        assert_eq!(e.dropped_writes, 1);
        assert_eq!(e.poisoned_writes, 1);
        // Only the third write reached the memory system.
        assert_eq!(p.host.cache_stats(0).write_allocs, 1);
        let snap = p.telemetry_snapshot("faulty");
        assert_eq!(
            snap.group("device.errors")
                .and_then(|g| g.get("dropped_writes")),
            Some(1)
        );
        assert!(snap.group("link.replay.upstream").is_some());
    }

    #[test]
    fn replay_stage_appears_under_faults_and_still_telescopes() {
        use pcie_fault::FaultPlan;
        let (mut p, buf) = netfpga_platform();
        p.host.host_warm(&buf, 0, 8 * 1024);
        p.set_fault_plan(&FaultPlan::symmetric_ber(2e-5), 5);
        p.enable_telemetry();
        let mut now = SimTime::ZERO;
        let mut total_lat = 0.0;
        let n = 400;
        for _ in 0..n {
            now += SimTime::from_us(20);
            let r = p.dma_read(now, &buf, 0, 512, DmaPath::DmaEngine);
            total_lat += r.latency().as_ns_f64();
        }
        let stats = p.stage_stats().unwrap();
        assert_eq!(stats.count(), n, "no aborts at this BER");
        // Stage sums must telescope exactly even with replays.
        assert!(
            (stats.grand_total_ns() - total_lat).abs() < 1e-6 * total_lat,
            "stages {} vs end-to-end {}",
            stats.grand_total_ns(),
            total_lat
        );
        assert!(
            stats.total_ns(Stage::Replay) > 0.0,
            "BER 2e-5 over {n} × 512B reads must inject"
        );
        let fc = p
            .link()
            .fault_counters(Direction::Upstream)
            .unwrap()
            .replays
            + p.link()
                .fault_counters(Direction::Downstream)
                .unwrap()
                .replays;
        assert!(fc > 0);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        use pcie_fault::FaultPlan;
        let run = |install: bool| {
            let (mut p, buf) = netfpga_platform();
            p.host.host_warm(&buf, 0, 8 * 1024);
            if install {
                p.set_fault_plan(&FaultPlan::none(), 99);
            }
            p.enable_telemetry();
            let mut out = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..64 {
                now += SimTime::from_us(10);
                let len = [64u32, 256, 512][i % 3];
                out.push(p.dma_read(now, &buf, 0, len, DmaPath::DmaEngine));
                out.push(p.dma_write(now, &buf, 0, len, DmaPath::DmaEngine));
            }
            (out, p.telemetry_snapshot("x").to_json())
        };
        let (a, ja) = run(false);
        let (b, jb) = run(true);
        assert_eq!(a, b, "FaultPlan::none() must be bit-identical");
        assert_eq!(ja, jb, "snapshots must be byte-identical");
        assert!(!ja.contains("link.replay"), "no replay groups fault-free");
        assert!(!ja.contains("device.errors"));
    }

    #[test]
    #[should_panic(expected = "command interface max")]
    fn cmdif_rejects_large_transfers() {
        let (mut p, buf) = nfp_platform();
        p.dma_read(SimTime::ZERO, &buf, 0, 512, DmaPath::CommandIf);
    }
}
