//! Latency-driven concurrency sizing (paper §2 and §7).
//!
//! The paper's key operational lesson: the number of in-flight DMAs a
//! device must sustain equals the PCIe round-trip latency divided by
//! the packet inter-arrival time at line rate. "On the NFP6000-HSW
//! system, it takes between 560–666 ns to transfer 128 B ... a new
//! packet needs to be transmitted every 29.6 ns. This means that the
//! firmware and DMA engines need to handle at least 30 transactions in
//! flight" (§7).

/// Ethernet wire overhead per frame: preamble + SFD (8 B) + IFG (12 B).
pub const ETHERNET_WIRE_OVERHEAD: f64 = 20.0;

/// Inter-packet time in **nanoseconds** for `frame_size`-byte frames at
/// `line_rate` bits/s, including preamble and inter-frame gap.
pub fn inter_packet_time_ns(line_rate: f64, frame_size: u32) -> f64 {
    assert!(line_rate > 0.0);
    (frame_size as f64 + ETHERNET_WIRE_OVERHEAD) * 8.0 / line_rate * 1e9
}

/// Minimum number of concurrent DMAs needed to hide `dma_latency_ns`
/// while sustaining `line_rate` for `frame_size`-byte frames.
pub fn required_inflight_dmas(dma_latency_ns: f64, line_rate: f64, frame_size: u32) -> u32 {
    let ipt = inter_packet_time_ns(line_rate, frame_size);
    (dma_latency_ns / ipt).ceil() as u32
}

/// Per-DMA cycle budget: how many device clock cycles may be spent on
/// each DMA (issue + bookkeeping) at line rate, given `workers`
/// processing elements (§7's "cycle budget" calculation).
pub fn cycle_budget(line_rate: f64, frame_size: u32, clock_hz: f64, workers: u32) -> f64 {
    assert!(workers > 0);
    inter_packet_time_ns(line_rate, frame_size) * 1e-9 * clock_hz * workers as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_128b_example() {
        // §2/§7: 128B at 40Gb/s -> ~29.6ns inter-packet time.
        let ipt = inter_packet_time_ns(40e9, 128);
        assert!((ipt - 29.6).abs() < 0.05, "{ipt}");
        // ~900ns PCIe latency -> at least 30 in-flight DMAs.
        let n = required_inflight_dmas(900.0, 40e9, 128);
        assert!((30..=32).contains(&n), "{n}");
    }

    #[test]
    fn bigger_packets_need_fewer_dmas() {
        let small = required_inflight_dmas(900.0, 40e9, 64);
        let large = required_inflight_dmas(900.0, 40e9, 1500);
        assert!(small > large);
        assert_eq!(required_inflight_dmas(0.0, 40e9, 64), 0);
    }

    #[test]
    fn cycle_budget_scales_with_workers() {
        // 1.2GHz NFP, 96 worker threads, 128B at 40G: each DMA gets
        // ~29.6ns * 1.2GHz * 96 ≈ 3400 cycles of total budget.
        let b1 = cycle_budget(40e9, 128, 1.2e9, 1);
        let b96 = cycle_budget(40e9, 128, 1.2e9, 96);
        assert!((b96 / b1 - 96.0).abs() < 1e-9);
        assert!((b1 - 35.52).abs() < 0.1, "{b1}");
    }

    #[test]
    fn hundred_gig_tightens_everything() {
        let n40 = required_inflight_dmas(900.0, 40e9, 128);
        let n100 = required_inflight_dmas(900.0, 100e9, 128);
        assert!(n100 > 2 * n40);
    }
}
