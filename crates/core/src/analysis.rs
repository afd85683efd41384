//! Result analysis: bottleneck attribution.
//!
//! §7's engineering guidance comes from knowing *which* stage limits a
//! configuration. [`bottleneck_report`] re-runs a bandwidth
//! configuration and inspects every shared stage's occupancy and
//! queueing.

use crate::access::AccessSequence;
use crate::params::BenchParams;
use crate::setup::BenchSetup;
use pcie_device::DmaPath;
use pcie_link::Direction;
use pcie_sim::SimTime;

/// Which stage limited a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The upstream wire direction.
    UpstreamLink,
    /// The downstream wire direction.
    DownstreamLink,
    /// The device's in-flight read window (tags) — latency-bound.
    ReadTags,
    /// Posted flow-control credits (host absorption rate).
    PostedCredits,
    /// Firmware worker threads.
    Workers,
    /// No stage saturated: the offered load itself was the limit.
    OfferedLoad,
}

/// One stage's share of the run.
#[derive(Debug, Clone)]
pub struct StageLoad {
    /// Stage name for reports.
    pub stage: &'static str,
    /// Utilisation (0..1 for resources; mean-wait-derived for gates).
    pub metric: f64,
}

/// The attribution result.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Achieved payload bandwidth (Gb/s).
    pub gbps: f64,
    /// The limiting stage.
    pub bottleneck: Bottleneck,
    /// All measured stage loads, descending.
    pub stages: Vec<StageLoad>,
}

impl std::fmt::Display for BottleneckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:.1} Gb/s — limited by {:?}",
            self.gbps, self.bottleneck
        )?;
        for s in &self.stages {
            writeln!(f, "  {:<16} {:.3}", s.stage, s.metric)?;
        }
        Ok(())
    }
}

/// Runs a `BW_RD`-style closed loop and attributes the result to the
/// most-loaded stage.
pub fn bottleneck_report(setup: &BenchSetup, params: &BenchParams, n: usize) -> BottleneckReport {
    let (mut platform, buf) = setup.build(params);
    let mut seq = AccessSequence::new(params, setup.seed ^ 0xB0771);
    let mut last = SimTime::ZERO;
    for _ in 0..n {
        let off = seq.next_offset();
        let r = platform.dma_read(
            SimTime::ZERO,
            &buf,
            off,
            params.transfer,
            DmaPath::DmaEngine,
        );
        last = last.max(r.done);
    }
    let gbps = n as f64 * params.transfer as f64 * 8.0 / last.as_secs_f64() / 1e9;
    let up = platform.link().utilization(Direction::Upstream, last);
    let down = platform.link().utilization(Direction::Downstream, last);
    let (w, tags, posted, _np) = platform.gate_waits();
    // Normalise gate waits against the per-transaction period.
    let period_ns = last.as_ns_f64() / n as f64;
    let gate_metric = |wait: SimTime| wait.as_ns_f64() / period_ns / 10.0;
    // The worker pool is the admission queue of the closed loop: under
    // saturating drive its wait is unbounded by construction and says
    // nothing about *why* the loop is slow — so it is reported but not
    // eligible as the bottleneck.
    let mut stages = vec![
        StageLoad {
            stage: "upstream-link",
            metric: up,
        },
        StageLoad {
            stage: "downstream-link",
            metric: down,
        },
        StageLoad {
            stage: "read-tags",
            metric: gate_metric(tags),
        },
        StageLoad {
            stage: "posted-credits",
            metric: gate_metric(posted),
        },
        StageLoad {
            stage: "workers(admission)",
            metric: gate_metric(w),
        },
    ];
    stages.sort_by(|a, b| b.metric.partial_cmp(&a.metric).unwrap());
    let top = stages
        .iter()
        .find(|s| s.stage != "workers(admission)")
        .expect("non-admission stages exist");
    let bottleneck = if top.metric < 0.5 {
        Bottleneck::OfferedLoad
    } else {
        match top.stage {
            "upstream-link" => Bottleneck::UpstreamLink,
            "downstream-link" => Bottleneck::DownstreamLink,
            "read-tags" => Bottleneck::ReadTags,
            "posted-credits" => Bottleneck::PostedCredits,
            _ => Bottleneck::Workers,
        }
    };
    BottleneckReport {
        gbps,
        bottleneck,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfp_small_reads_attributed_to_tags() {
        // §6.1: the NFP's limited in-flight window is why it trails the
        // NetFPGA at small transfers — the report should say so.
        let setup = BenchSetup::nfp6000_hsw();
        let r = bottleneck_report(&setup, &BenchParams::baseline(64), 6_000);
        assert_eq!(
            r.bottleneck,
            Bottleneck::ReadTags,
            "expected tag-limited, got:\n{r}"
        );
    }

    #[test]
    fn netfpga_small_reads_attributed_to_the_wire() {
        let setup = BenchSetup::netfpga_hsw();
        let r = bottleneck_report(&setup, &BenchParams::baseline(64), 6_000);
        assert_eq!(
            r.bottleneck,
            Bottleneck::DownstreamLink,
            "expected completion-wire-limited, got:\n{r}"
        );
    }

    #[test]
    fn report_renders() {
        let setup = BenchSetup::netfpga_hsw();
        let r = bottleneck_report(&setup, &BenchParams::baseline(256), 2_000);
        let text = r.to_string();
        assert!(text.contains("Gb/s"));
        assert!(text.contains("upstream-link"));
    }
}
