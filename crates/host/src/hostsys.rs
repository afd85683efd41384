//! The assembled host system: root complex + IOMMU + caches + DRAM +
//! interconnect.
//!
//! [`HostSystem`] is the completer the device layer talks to. For each
//! inbound memory-request TLP it:
//!
//! 1. passes the request through the root-complex service pipe (a
//!    throughput bound of one TLP per `rc_service_gap`, plus a
//!    pipeline latency),
//! 2. enforces PCIe ordering (reads do not pass posted writes),
//! 3. translates the address if the IOMMU is enabled (IO-TLB hit or
//!    page walk),
//! 4. pays the interconnect if the buffer lives on the remote node,
//! 5. looks up every touched cache line in that node's LLC, falling
//!    through to DRAM on misses (reads) or applying DDIO allocation
//!    rules (writes),
//! 6. adds the preset's per-transaction jitter (reads).
//!
//! The return value is the instant the data is ready (reads) or the
//! write is absorbed far enough to release its flow-control credits
//! (writes). Everything else — serialisation, completions, tag
//! management — belongs to the link and device layers.

use crate::buffer::HostBuffer;
use crate::cache::{CacheStorage, LlcCache, ReadOutcome, WriteOutcome, LINE};
use crate::dram::Dram;
use crate::iommu::Iommu;
use crate::presets::HostPreset;
use pcie_sim::{SimTime, SplitMix64, Timeline};
use std::collections::VecDeque;

/// Smallest fence-list population worth sweeping for expired entries.
const FENCE_SWEEP_MIN: usize = 128;

/// Aggregate host-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read TLPs served.
    pub read_tlps: u64,
    /// Write TLPs absorbed.
    pub write_tlps: u64,
    /// Bytes read by the device.
    pub bytes_read: u64,
    /// Bytes written by the device.
    pub bytes_written: u64,
    /// TLPs that crossed the socket interconnect.
    pub remote_tlps: u64,
    /// Peer-to-peer TLPs validated by the root complex (flat-attach
    /// P2P and ACS redirect; see `pcie-topo`).
    pub p2p_redirects: u64,
}

struct Node {
    cache: LlcCache,
    dram: Dram,
}

/// A complete host-side model, built from a [`HostPreset`].
pub struct HostSystem {
    preset: HostPreset,
    nodes: Vec<Node>,
    iommu: Option<Iommu>,
    rc: Timeline,
    /// PCIe ordering: a read must observe earlier posted writes to the
    /// same data. Tracked per cache line (address-overlap), which is
    /// the observable subset of the spec's stream ordering: the
    /// simulator issues transactions out of arrival order, so a global
    /// fence would order reads behind writes that *arrive later*.
    ///
    /// Each absorbed write covers one contiguous run of lines with a
    /// single absorb time, so fences are stored as `(first_line,
    /// last_line, done)` intervals in arrival order — one O(1) append
    /// per write TLP instead of a map entry per line. A read takes the
    /// max `done` over live intervals overlapping its line range, which
    /// equals the per-line maximum a map would give. Entries whose
    /// `done` has passed are popped from the front (absorb times are
    /// near-monotone), with a size-triggered sweep as backstop.
    line_fences: VecDeque<(u64, u64, SimTime)>,
    /// Upper bound on every live fence in `line_fences`. Both TLP paths
    /// funnel through the `rc` timeline, so post-RC times are monotone
    /// across calls: once the horizon falls at or below the current
    /// post-RC time, no recorded fence can ever raise a later read, and
    /// the list can be dropped wholesale instead of scanned.
    fence_horizon: SimTime,
    /// List size that triggers the next expired-fence sweep; doubles
    /// with the surviving population so sweeps stay amortised O(1).
    fence_sweep_at: usize,
    rng: SplitMix64,
    /// Socket interconnect (remote-node traffic serialises through it).
    interconnect: Timeline,
    /// Arrival time of the most recent read TLP (idle detection for
    /// the wake-jitter model).
    last_read_arrival: SimTime,
    /// Node the PCIe device hangs off (node 0 by convention).
    device_node: usize,
    stats: MemStats,
}

impl HostSystem {
    /// Builds a host from a preset with a deterministic RNG seed.
    pub fn new(preset: HostPreset, seed: u64) -> Self {
        Self::new_reusing(preset, seed, &mut CacheStorage::new())
    }

    /// [`HostSystem::new`] drawing LLC set records from `pool` instead
    /// of allocating and writing fresh ones — the dominant cost of
    /// building a host (a 15 MiB LLC is 12 288 records, 1.5 MiB).
    /// Behaviour is identical; retire the host with
    /// [`HostSystem::recycle_caches`] to keep the buffers circulating.
    pub fn new_reusing(preset: HostPreset, seed: u64, pool: &mut CacheStorage) -> Self {
        let nodes = (0..preset.numa_nodes)
            .map(|_| Node {
                cache: LlcCache::new_reusing(
                    preset.llc_bytes,
                    preset.llc_ways,
                    preset.ddio_ways,
                    pool,
                ),
                dram: Dram::asymmetric(
                    preset.lat.dram_extra,
                    preset.lat.dram_line_service,
                    preset.lat.dram_write_line_service,
                ),
            })
            .collect();
        HostSystem {
            preset,
            nodes,
            iommu: None,
            rc: Timeline::new(),
            line_fences: VecDeque::with_capacity(FENCE_SWEEP_MIN),
            fence_horizon: SimTime::ZERO,
            fence_sweep_at: FENCE_SWEEP_MIN,
            rng: SplitMix64::new(seed),
            interconnect: Timeline::new(),
            last_read_arrival: SimTime::ZERO,
            device_node: 0,
            stats: MemStats::default(),
        }
    }

    /// Retires every node's LLC record buffer into `pool` (see
    /// [`CacheStorage`]). The host must not be used afterwards.
    pub fn recycle_caches(&mut self, pool: &mut CacheStorage) {
        for n in &mut self.nodes {
            n.cache.recycle_into(pool);
        }
    }

    /// The preset this host was built from.
    pub fn preset(&self) -> &HostPreset {
        &self.preset
    }

    /// Enables (or disables) the IOMMU.
    pub fn set_iommu(&mut self, iommu: Option<Iommu>) {
        self.iommu = iommu;
    }

    /// Read-only access to the IOMMU (statistics).
    pub fn iommu(&self) -> Option<&Iommu> {
        self.iommu.as_ref()
    }

    /// The node the device is attached to.
    pub fn device_node(&self) -> usize {
        self.device_node
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Cache statistics of `node`.
    pub fn cache_stats(&self, node: usize) -> crate::cache::CacheStats {
        self.nodes[node].cache.stats()
    }

    /// DRAM traffic (lines read, lines written) of `node`.
    pub fn dram_traffic(&self, node: usize) -> (u64, u64) {
        self.nodes[node].dram.traffic()
    }

    fn is_remote(&self, node: usize) -> bool {
        node != self.device_node
    }

    /// Every host-side component's counters as telemetry groups:
    /// `host.mem`, `host.rc`, per-node `host.cache.nodeN` /
    /// `host.dram.nodeN`, and `host.iommu` when enabled.
    pub fn telemetry_groups(&self) -> Vec<pcie_telemetry::CounterGroup> {
        use pcie_telemetry::CounterGroup;
        let mut out = Vec::new();

        let mut mem = CounterGroup::new("host.mem");
        mem.push("read_tlps", self.stats.read_tlps)
            .push("write_tlps", self.stats.write_tlps)
            .push("bytes_read", self.stats.bytes_read)
            .push("bytes_written", self.stats.bytes_written)
            .push("remote_tlps", self.stats.remote_tlps);
        if self.stats.p2p_redirects > 0 {
            // Only exported once peer traffic actually crossed the RC,
            // so host-only snapshots stay byte-identical to
            // pre-topology builds.
            mem.push("p2p_redirects", self.stats.p2p_redirects);
        }
        out.push(mem);

        let mut rc = CounterGroup::new("host.rc");
        rc.push("busy_ns", self.rc.busy_time().as_ns_f64() as u64)
            .push("queue_ns", self.rc.queue_time().as_ns_f64() as u64)
            .push("tlps_served", self.rc.reservations());
        out.push(rc);

        for (i, node) in self.nodes.iter().enumerate() {
            let cs = node.cache.stats();
            let mut cache = CounterGroup::new(format!("host.cache.node{i}"));
            cache
                .push("read_hits", cs.read_hits)
                .push("read_misses", cs.read_misses)
                .push("write_hits", cs.write_hits)
                .push("write_allocs", cs.write_allocs)
                .push("write_dirty_evictions", cs.write_dirty_evictions)
                .push("write_uncached", cs.write_uncached);
            out.push(cache);

            let (lines_read, lines_written) = node.dram.traffic();
            let mut dram = CounterGroup::new(format!("host.dram.node{i}"));
            dram.push("lines_read", lines_read)
                .push("lines_written", lines_written);
            out.push(dram);
        }

        if let Some(iommu) = &self.iommu {
            let s = iommu.stats();
            let mut g = CounterGroup::new("host.iommu");
            g.push("tlb_hits", s.tlb_hits)
                .push("tlb_misses", s.tlb_misses)
                .push("tlb_evictions", s.tlb_evictions)
                .push("page_walks", s.tlb_misses);
            out.push(g);
        }

        out
    }

    /// Warms the LLC of `buf`'s node from the CPU side over
    /// `[offset, offset+len)` ("host warm", §4). An empty range warms
    /// nothing.
    pub fn host_warm(&mut self, buf: &HostBuffer, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let cache = &mut self.nodes[buf.node()].cache;
        let start = buf.addr(offset) / LINE;
        let end = (buf.addr(offset) + len - 1) / LINE;
        cache.warm_lines(start, end, true);
    }

    /// Makes all caches cold ("thrash", §4). We model the thrash as
    /// invalidation: observable DMA behaviour is identical and the
    /// thrash traffic itself is not part of any measurement.
    pub fn thrash_caches(&mut self) {
        for n in &mut self.nodes {
            n.cache.clear();
        }
    }

    /// Serves an inbound memory-read TLP for `[addr, addr+len)` within
    /// `buf`, translated in IOMMU protection `domain` (one per device).
    /// Returns the instant the read data is available at the root
    /// complex (ready to be serialised downstream).
    pub fn process_read_tlp(
        &mut self,
        now: SimTime,
        domain: u32,
        buf: &HostBuffer,
        addr: u64,
        len: u32,
    ) -> SimTime {
        debug_assert!(buf.contains(addr, len), "read outside buffer");
        self.stats.read_tlps += 1;
        self.stats.bytes_read += len as u64;
        let lat = self.preset.lat;

        // 1. Root-complex service pipe + pipeline latency.
        let entry = self.rc.reserve(now, lat.rc_service_gap).start;
        let mut t = entry + lat.rc_latency;
        // 2. Ordering: reads do not pass posted writes to the same data.
        //    Read-only workloads never populate the fence map, and once
        //    every recorded fence lies at or before `t` none of them
        //    can delay this read — so the common case is one horizon
        //    comparison, not a probe per line.
        if self.fence_horizon > t && !self.line_fences.is_empty() {
            let first = addr / LINE;
            let last = (addr + len.max(1) as u64 - 1) / LINE;
            for &(lo, hi, done) in &self.line_fences {
                if lo <= last && hi >= first {
                    t = t.max(done);
                }
            }
        }
        // 3. Translation.
        if let Some(iommu) = &mut self.iommu {
            t = iommu.translate_in(t, domain, addr, len).ready_at;
        }
        // 4. NUMA: remote buffers pay the interconnect both ways, and
        //    serialise through its finite packetisation rate.
        let remote = self.is_remote(buf.node());
        if remote {
            self.stats.remote_tlps += 1;
            t = self.interconnect.reserve(t, lat.interconnect_gap).end + lat.interconnect_oneway;
        }
        // 5. Memory: LLC hit or DRAM fill per line.
        let node = &mut self.nodes[buf.node()];
        let first = addr / LINE;
        let last = (addr + len.max(1) as u64 - 1) / LINE;
        let mut missing = 0u32;
        for line in first..=last {
            if node.cache.dma_read(line * LINE) == ReadOutcome::Miss {
                missing += 1;
            }
        }
        let mut done = t + lat.llc_latency;
        if missing > 0 {
            done = done.max(node.dram.read(t + lat.llc_latency, missing));
        }
        if remote {
            done += lat.interconnect_oneway;
        }
        // 6. Observed jitter: the full (wake-inclusive) distribution
        //    if the root complex sat idle before this transaction, the
        //    busy distribution under back-to-back load.
        let idle = now.saturating_sub(self.last_read_arrival) > SimTime::from_ns(200);
        self.last_read_arrival = now;
        let model = if idle {
            &self.preset.jitter
        } else {
            &self.preset.busy_jitter
        };
        done += model.sample(&mut self.rng);
        done
    }

    /// Absorbs an inbound memory-write TLP, translated in IOMMU
    /// protection `domain`. Returns the instant the write is absorbed
    /// (its flow-control credits can be released and later reads are
    /// ordered after it).
    pub fn process_write_tlp(
        &mut self,
        now: SimTime,
        domain: u32,
        buf: &HostBuffer,
        addr: u64,
        len: u32,
    ) -> SimTime {
        debug_assert!(buf.contains(addr, len), "write outside buffer");
        self.stats.write_tlps += 1;
        self.stats.bytes_written += len as u64;
        let lat = self.preset.lat;

        let entry = self.rc.reserve(now, lat.rc_service_gap).start;
        let mut t = entry + lat.rc_latency;
        if let Some(iommu) = &mut self.iommu {
            t = iommu.translate_in(t, domain, addr, len).ready_at;
        }
        // §6.4: "we believe that all DMA Writes may be initially
        // handled by the local DDIO cache" — writes are absorbed by the
        // device-local LLC when DDIO exists, so locality does not
        // affect write performance. Without DDIO, the write crosses to
        // the buffer's home node.
        let has_ddio = self.preset.ddio_ways > 0;
        let target = if has_ddio {
            self.device_node
        } else {
            buf.node()
        };
        let remote = self.is_remote(target);
        if remote {
            self.stats.remote_tlps += 1;
            t = self.interconnect.reserve(t, lat.interconnect_gap).end + lat.interconnect_oneway;
        }
        let node = &mut self.nodes[target];
        let first = addr / LINE;
        let last = (addr + len.max(1) as u64 - 1) / LINE;
        let mut dirty_evictions = 0u32;
        let mut uncached = 0u32;
        for line in first..=last {
            match node.cache.dma_write(line * LINE) {
                WriteOutcome::Hit | WriteOutcome::Allocated => {}
                WriteOutcome::AllocatedDirtyEviction => dirty_evictions += 1,
                WriteOutcome::Uncached => uncached += 1,
            }
        }
        let mut done = t + lat.llc_latency;
        if dirty_evictions > 0 {
            // The victim lines must be flushed before the write lands —
            // the paper's ~70ns penalty (§6.3). The flush starts after
            // the LLC lookup picked the victim, and occupies the DRAM
            // channel.
            done = done.max(node.dram.write(t + lat.llc_latency, dirty_evictions));
        }
        if uncached > 0 {
            // No DDIO: the write itself goes to memory.
            done = done.max(node.dram.write(t + lat.llc_latency, uncached));
        }
        // Expired-fence upkeep, all provably exact: any fence with
        // `done <= t` can never bind a later TLP (post-RC times only
        // grow), so dropping such entries is unobservable. When *all*
        // fences have expired the list is cleared outright — the
        // closed-loop WRRD steady state, which would otherwise grow the
        // list by one entry per transaction. Under back-to-back writes
        // absorb times are near-monotone, so expired intervals cluster
        // at the front and pop off O(1) amortised; the size-triggered
        // sweep catches any out-of-order stragglers.
        if !self.line_fences.is_empty() {
            if self.fence_horizon <= t {
                self.line_fences.clear();
                self.fence_horizon = SimTime::ZERO;
            } else {
                while self.line_fences.front().is_some_and(|&(_, _, d)| d <= t) {
                    self.line_fences.pop_front();
                }
                if self.line_fences.len() >= self.fence_sweep_at {
                    self.line_fences.retain(|&(_, _, d)| d > t);
                    self.fence_sweep_at = (self.line_fences.len() * 2).max(FENCE_SWEEP_MIN);
                }
            }
        }
        self.line_fences.push_back((first, last, done));
        self.fence_horizon = self.fence_horizon.max(done);
        done
    }

    /// Validates a peer-to-peer TLP that was redirected through the
    /// root complex (flat attach, or ACS redirect at a switch): the
    /// request occupies the RC service pipe and — when an IOMMU is
    /// present — is translated like any other inbound request, which
    /// is the entire point of ACS Source Validation. The target is a
    /// peer BAR window, not host memory, so no cache or DRAM is
    /// touched. Returns when the request leaves the RC back towards
    /// the target device.
    pub fn process_peer_tlp(&mut self, now: SimTime, domain: u32, addr: u64, len: u32) -> SimTime {
        self.stats.p2p_redirects += 1;
        let lat = self.preset.lat;
        let entry = self.rc.reserve(now, lat.rc_service_gap).start;
        let mut t = entry + lat.rc_latency;
        if let Some(iommu) = &mut self.iommu {
            t = iommu.translate_in(t, domain, addr, len).ready_at;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferAllocator;
    use crate::presets::HostPreset;

    fn host() -> (HostSystem, HostBuffer) {
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(1 << 20, 0);
        (HostSystem::new(HostPreset::netfpga_hsw(), 7), buf)
    }

    /// Strip jitter by measuring many samples and taking the minimum.
    /// `now` carries the time base forward across calls so earlier
    /// measurements never leave the root complex "busy in the future".
    fn min_read_ns_at(
        h: &mut HostSystem,
        buf: &HostBuffer,
        addr: u64,
        len: u32,
        now: &mut SimTime,
    ) -> f64 {
        let mut best = f64::MAX;
        for _ in 0..64 {
            *now += SimTime::from_us(10);
            let done = h.process_read_tlp(*now, 0, buf, addr, len);
            best = best.min((done - *now).as_ns_f64());
        }
        best
    }

    fn min_read_ns(h: &mut HostSystem, buf: &HostBuffer, addr: u64, len: u32) -> f64 {
        let mut now = SimTime::ZERO;
        min_read_ns_at(h, buf, addr, len, &mut now)
    }

    #[test]
    fn warm_read_faster_than_cold_by_dram_extra() {
        let (mut h, buf) = host();
        let mut now = SimTime::ZERO;
        let cold = min_read_ns_at(&mut h, &buf, buf.base(), 64, &mut now);
        h.host_warm(&buf, 0, 4096);
        let warm = min_read_ns_at(&mut h, &buf, buf.base(), 64, &mut now);
        // The paper's ~70ns LLC-vs-DRAM difference (§6.3).
        assert!(
            (cold - warm - 70.0).abs() < 8.0,
            "cold {cold} vs warm {warm}"
        );
    }

    /// An empty warm touches no line: from a line-aligned start, whose
    /// inclusive end line would fall before it, or from an unaligned
    /// one, whose end line would be its own.
    #[test]
    fn zero_length_warm_is_a_no_op() {
        for offset in [0, 64, 1, 65] {
            let (mut h, buf) = host();
            h.host_warm(&buf, offset, 0);
            let at = buf.addr(offset);
            let cache = &h.nodes[0].cache;
            assert!(
                !cache.contains(at) && !cache.contains(at - LINE),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn read_latency_magnitude_plausible() {
        let (mut h, buf) = host();
        h.host_warm(&buf, 0, 4096);
        let warm = min_read_ns(&mut h, &buf, buf.base(), 64);
        // Host-side latency (excluding link/device) should be well
        // under the ~450ns end-to-end figure.
        assert!(warm > 40.0 && warm < 200.0, "warm host latency {warm}");
    }

    #[test]
    fn rc_gap_bounds_transaction_rate() {
        let (mut h, buf) = host();
        // 10k simultaneous reads: entry times must be spaced by the
        // 3ns service gap -> last completes ≥ 30us after the first.
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            last = last.max(h.process_read_tlp(SimTime::ZERO, 0, &buf, buf.base(), 64));
        }
        assert!(last >= SimTime::from_ns(3 * 9_999));
    }

    #[test]
    fn reads_do_not_pass_writes() {
        let (mut h, buf) = host();
        let w = h.process_write_tlp(SimTime::ZERO, 0, &buf, buf.base(), 64);
        let r = h.process_read_tlp(SimTime::ZERO, 0, &buf, buf.base(), 64);
        assert!(r > w, "read {r} must complete after the write {w}");
    }

    #[test]
    fn ddio_write_then_read_hits_cache() {
        let (mut h, buf) = host();
        h.process_write_tlp(SimTime::ZERO, 0, &buf, buf.base(), 64);
        let t = SimTime::from_us(1);
        let done = h.process_read_tlp(t, 0, &buf, buf.base(), 64);
        let c = h.cache_stats(0);
        assert_eq!(
            c.read_hits, 1,
            "DDIO-written line must be readable from LLC"
        );
        assert!(done > t);
    }

    #[test]
    fn remote_access_costs_about_100ns_more() {
        let preset = HostPreset::nfp6000_bdw();
        let mut alloc = BufferAllocator::default_layout();
        let local = alloc.alloc(1 << 20, 0);
        let remote = alloc.alloc(1 << 20, 1);
        let mut h = HostSystem::new(preset, 3);
        let mut now = SimTime::ZERO;
        let l = min_read_ns_at(&mut h, &local, local.base(), 64, &mut now);
        let r = min_read_ns_at(&mut h, &remote, remote.base(), 64, &mut now);
        assert!((r - l - 106.0).abs() < 12.0, "remote {r} vs local {l}");
        assert!(h.stats().remote_tlps > 0);
    }

    #[test]
    fn iommu_miss_adds_walk_latency() {
        // Sweep 256 pages (4x the 64-entry IO-TLB) sequentially:
        // with LRU replacement every access misses.
        let (mut h, buf) = host();
        h.set_iommu(Some(Iommu::intel_4k()));
        let mut now = SimTime::ZERO;
        let mut miss = f64::MAX;
        for i in 0..256u64 {
            now += SimTime::from_us(10);
            let a = buf.base() + i * 4096;
            let done = h.process_read_tlp(now, 0, &buf, a, 64);
            miss = miss.min((done - now).as_ns_f64());
        }
        assert_eq!(h.iommu().unwrap().stats().tlb_hits, 0);
        // Hit path: hammer a single page (first access walks, rest hit).
        let (mut h2, buf2) = host();
        h2.set_iommu(Some(Iommu::intel_4k()));
        let hit = min_read_ns(&mut h2, &buf2, buf2.base(), 64);
        assert!(
            miss - hit > 250.0 && miss - hit < 400.0,
            "walk ({miss}) should cost ≈330ns over hit ({hit})"
        );
    }

    #[test]
    fn e3_writes_hit_dram_and_fence_reads() {
        let preset = HostPreset::nfp6000_hsw_e3();
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(1 << 20, 0);
        let mut h = HostSystem::new(preset, 11);
        let w = h.process_write_tlp(SimTime::ZERO, 0, &buf, buf.base(), 64);
        // Uncached write: pays DRAM extra latency.
        assert!(w.as_ns_f64() > 70.0);
        let (_, written) = h.dram_traffic(0);
        assert_eq!(written, 1);
        assert_eq!(h.cache_stats(0).write_uncached, 1);
    }

    #[test]
    fn stats_accumulate() {
        let (mut h, buf) = host();
        h.process_read_tlp(SimTime::ZERO, 0, &buf, buf.base(), 256);
        h.process_write_tlp(SimTime::ZERO, 0, &buf, buf.base(), 128);
        let s = h.stats();
        assert_eq!(s.read_tlps, 1);
        assert_eq!(s.write_tlps, 1);
        assert_eq!(s.bytes_read, 256);
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.remote_tlps, 0);
    }

    #[test]
    fn large_window_warm_reads_eventually_miss() {
        // Warm 32MiB (over the 15MiB LLC), then read it back: a good
        // fraction must miss - the Figure 7 knee precondition.
        let preset = HostPreset::netfpga_hsw();
        let mut alloc = BufferAllocator::default_layout();
        let buf = alloc.alloc(32 << 20, 0);
        let mut h = HostSystem::new(preset, 5);
        h.host_warm(&buf, 0, 32 << 20);
        let mut t = SimTime::ZERO;
        let step = 64 * 1024; // sample sparsely for speed
        let mut misses = 0;
        let n = (32 << 20) / step;
        for i in 0..n {
            t += SimTime::from_us(1);
            h.process_read_tlp(t, 0, &buf, buf.base() + i * step, 64);
        }
        let cs = h.cache_stats(0);
        misses += cs.read_misses;
        assert!(
            misses > n / 3,
            "expected many misses for a 2xLLC window, got {misses}/{n}"
        );
    }
}
