//! Declarative traffic profiles: arrival processes, flow lengths,
//! packet sizes, concurrency targets.
//!
//! A [`TrafficProfile`] is a complete, validated description of an
//! offered load: how many flows are live at once, how packet arrivals
//! are spaced in time (open loop — the wire does not wait for the
//! host), how many packets each flow carries, and how large each
//! packet is. The engine compiles a profile plus a seed into
//! per-queue packet schedules, so the same profile replays
//! bit-identically at any pool width.

use pcie_nic::traffic::{BoundedPareto, SizeSampler, Workload};
use pcie_sim::{SimTime, SplitMix64};

/// How packet arrivals are spaced in (virtual) time. All processes
/// are open loop: the inter-arrival stream is independent of how fast
/// the host drains its queues, which is what makes drop rate a
/// measurable outcome rather than an impossibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals at `pps` packets per second
    /// (exponential gaps) — the classic open-loop load model.
    Poisson {
        /// Mean aggregate arrival rate, packets per second.
        pps: f64,
    },
    /// Perfectly paced arrivals: constant `1/pps` gap. The
    /// lowest-variance load a rate can be offered at; useful as a
    /// baseline against Poisson's burstiness.
    Paced {
        /// Aggregate arrival rate, packets per second.
        pps: f64,
    },
    /// Back-to-back bursts of `burst` packets, with the inter-burst
    /// gap sized so the long-run rate is still `pps`. Models
    /// segmentation-offload trains and interrupt-coalesced senders;
    /// stresses tail latency far harder than Poisson at equal mean
    /// rate.
    Bursty {
        /// Long-run mean rate, packets per second.
        pps: f64,
        /// Packets per burst (arriving with zero gap).
        burst: u32,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate in packets per second.
    pub fn mean_pps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { pps }
            | ArrivalProcess::Paced { pps }
            | ArrivalProcess::Bursty { pps, .. } => pps,
        }
    }

    /// Checks the parameters are usable.
    pub fn validate(&self) -> Result<(), String> {
        let pps = self.mean_pps();
        if !pps.is_finite() || pps <= 0.0 {
            return Err(format!("arrival rate {pps} must be positive and finite"));
        }
        if let ArrivalProcess::Bursty { burst, .. } = *self {
            if burst == 0 {
                return Err("burst size must be nonzero".into());
            }
        }
        Ok(())
    }
}

/// Stateful arrival-time generator for one [`ArrivalProcess`].
/// Consumes one RNG draw per Poisson gap and none for the
/// deterministic processes, so schedules replay exactly per seed.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    now: SimTime,
    /// Packets left in the current burst (Bursty only).
    burst_left: u32,
    started: bool,
}

impl ArrivalGen {
    /// A generator over `process` drawing gaps from `rng`.
    pub fn new(process: ArrivalProcess, rng: SplitMix64) -> ArrivalGen {
        ArrivalGen {
            process,
            rng,
            now: SimTime::ZERO,
            burst_left: 0,
            started: false,
        }
    }

    /// The next arrival time. The first arrival is at time zero;
    /// times are non-decreasing.
    pub fn next_arrival(&mut self) -> SimTime {
        if !self.started {
            self.started = true;
            if let ArrivalProcess::Bursty { burst, .. } = self.process {
                self.burst_left = burst - 1;
            }
            return self.now;
        }
        let gap = match self.process {
            ArrivalProcess::Poisson { pps } => {
                // Inverse-CDF exponential; 1-U in (0,1] keeps ln finite.
                let u = self.rng.next_f64();
                SimTime::from_ns_f64(-(1.0 - u).ln() * 1e9 / pps)
            }
            ArrivalProcess::Paced { pps } => SimTime::from_ns_f64(1e9 / pps),
            ArrivalProcess::Bursty { pps, burst } => {
                if self.burst_left > 0 {
                    self.burst_left -= 1;
                    SimTime::ZERO
                } else {
                    self.burst_left = burst - 1;
                    SimTime::from_ns_f64(f64::from(burst) * 1e9 / pps)
                }
            }
        };
        self.now = self.now.saturating_add(gap);
        self.now
    }
}

/// How many packets one flow carries before completing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowLength {
    /// Every flow the same length.
    Fixed(u32),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Shortest flow.
        min: u32,
        /// Longest flow.
        max: u32,
    },
    /// Heavy-tailed bounded Pareto on `[min, max]` with tail exponent
    /// `alpha` — the empirical shape of Internet flow sizes (mice and
    /// elephants). Draws through `pcie_nic::traffic::BoundedPareto`,
    /// the sampler behind `Workload::Pareto`: one RNG draw per flow,
    /// and one `powf` per flow from the sampler
    /// [`FlowEngine::new`](crate::FlowEngine::new) builds once.
    BoundedPareto {
        /// Shortest flow (scale parameter), > 0.
        min: u32,
        /// Longest flow (truncation bound), > `min`.
        max: u32,
        /// Tail exponent, > 0 and ≠ 1.
        alpha: f64,
    },
}

impl FlowLength {
    /// Draws the next flow's packet count.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        self.sampler().sample(rng)
    }

    /// The distribution with its constants computed once, for a caller
    /// that draws many lengths: each draw is bit-identical to
    /// [`FlowLength::sample`]'s.
    pub(crate) fn sampler(&self) -> SizeSampler {
        match *self {
            FlowLength::Fixed(n) => SizeSampler::Fixed(n),
            FlowLength::Uniform { min, max } => SizeSampler::Uniform { min, max },
            FlowLength::BoundedPareto { min, max, alpha } => {
                SizeSampler::Pareto(BoundedPareto::new(min, max, alpha))
            }
        }
    }

    /// Mean flow length (analytic).
    pub fn mean(&self) -> f64 {
        match *self {
            FlowLength::Fixed(n) => f64::from(n),
            FlowLength::Uniform { min, max } => (f64::from(min) + f64::from(max)) / 2.0,
            FlowLength::BoundedPareto { min, max, alpha } => {
                Workload::Pareto { min, max, alpha }.mean_size()
            }
        }
    }

    /// Checks the parameters are usable.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FlowLength::Fixed(0) => Err("zero-length flow".into()),
            FlowLength::Fixed(_) => Ok(()),
            FlowLength::Uniform { min, max } => {
                if min == 0 {
                    Err("flow length min must be > 0".into())
                } else if min > max {
                    Err(format!("flow length min {min} exceeds max {max}"))
                } else {
                    Ok(())
                }
            }
            FlowLength::BoundedPareto { min, max, alpha } => {
                Workload::Pareto { min, max, alpha }.validate()
            }
        }
    }
}

/// A complete offered-load description.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// Target concurrent flows. The engine ramps the table to this
    /// occupancy before traffic starts and replaces each completed
    /// flow with a fresh one, so concurrency holds for the whole run.
    pub flows: u32,
    /// Total packets to offer across all queues.
    pub packets: u64,
    /// Packet arrival process (aggregate, pre-steering).
    pub arrival: ArrivalProcess,
    /// Per-flow packet count distribution.
    pub flow_length: FlowLength,
    /// Per-packet wire-size distribution.
    pub sizes: Workload,
}

impl TrafficProfile {
    /// A small, fast profile for tests and `--quick` benches:
    /// 20k Poisson-arriving packets over 10k concurrent flows,
    /// Pareto flow lengths, fixed 128 B packets.
    pub fn quick(pps: f64) -> TrafficProfile {
        TrafficProfile {
            flows: 10_000,
            packets: 20_000,
            arrival: ArrivalProcess::Poisson { pps },
            flow_length: FlowLength::BoundedPareto {
                min: 1,
                max: 1_000,
                alpha: 1.2,
            },
            sizes: Workload::Fixed(128),
        }
    }

    /// The quick tier with the headline tail: the same 10k-flow /
    /// 20k-packet scale as [`TrafficProfile::quick`], but with the
    /// million-flow profile's heavy-tailed flow lengths (elephants up
    /// to 10k packets) and bounded-Pareto wire sizes instead of fixed
    /// 128 B — a fast smoke test of the full mice-and-elephants mix
    /// that `--quick` runs can afford.
    pub fn quick_pareto(pps: f64) -> TrafficProfile {
        TrafficProfile {
            flows: 10_000,
            packets: 20_000,
            arrival: ArrivalProcess::Poisson { pps },
            flow_length: FlowLength::BoundedPareto {
                min: 1,
                max: 10_000,
                alpha: 1.2,
            },
            sizes: Workload::Pareto {
                min: 64,
                max: 1500,
                alpha: 1.2,
            },
        }
    }

    /// The headline configuration: 1.25 million concurrent flows,
    /// Poisson arrivals at `pps`, heavy-tailed flow lengths, IMIX
    /// packet sizes.
    pub fn million_flow(pps: f64, packets: u64) -> TrafficProfile {
        TrafficProfile {
            flows: 1_250_000,
            packets,
            arrival: ArrivalProcess::Poisson { pps },
            flow_length: FlowLength::BoundedPareto {
                min: 1,
                max: 10_000,
                alpha: 1.2,
            },
            sizes: Workload::Imix,
        }
    }

    /// Mean offered payload rate in Gb/s implied by the profile.
    pub fn offered_gbps(&self) -> f64 {
        self.arrival.mean_pps() * self.sizes.mean_size() * 8.0 / 1e9
    }

    /// Checks every component of the profile.
    pub fn validate(&self) -> Result<(), String> {
        if self.flows == 0 {
            return Err("need at least one concurrent flow".into());
        }
        if self.packets == 0 {
            return Err("need at least one packet".into());
        }
        self.arrival.validate()?;
        self.flow_length.validate()?;
        self.sizes.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_and_determinism() {
        let p = ArrivalProcess::Poisson { pps: 10_000_000.0 };
        let gen = |seed| {
            let mut g = ArrivalGen::new(p, SplitMix64::new(seed));
            (0..50_000).map(|_| g.next_arrival()).collect::<Vec<_>>()
        };
        let a = gen(1);
        assert_eq!(a, gen(1), "same seed replays");
        assert_ne!(a, gen(2));
        assert_eq!(a[0], SimTime::ZERO, "first arrival at t=0");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // Empirical rate within 2% of nominal (mean gap 100 ns).
        let mean_gap = a.last().unwrap().as_ns_f64() / (a.len() - 1) as f64;
        assert!((mean_gap - 100.0).abs() < 2.0, "mean gap {mean_gap:.1} ns");
    }

    #[test]
    fn paced_is_exact_and_draw_free() {
        let mut g = ArrivalGen::new(ArrivalProcess::Paced { pps: 1e9 }, SplitMix64::new(1));
        for i in 0..100u64 {
            assert_eq!(g.next_arrival(), SimTime::from_ns(i));
        }
    }

    #[test]
    fn bursts_cluster_but_keep_the_mean_rate() {
        let p = ArrivalProcess::Bursty {
            pps: 1e7,
            burst: 16,
        };
        let mut g = ArrivalGen::new(p, SplitMix64::new(3));
        let times: Vec<SimTime> = (0..16 * 100).map(|_| g.next_arrival()).collect();
        // Within a burst: identical timestamps; across bursts: the
        // 16-packet gap.
        assert_eq!(times[0], times[15]);
        assert!(times[16] > times[15]);
        let mean_gap = times.last().unwrap().as_ns_f64() / (times.len() - 1) as f64;
        assert!((mean_gap - 100.0).abs() < 3.0, "mean gap {mean_gap:.1} ns");
    }

    #[test]
    fn flow_lengths_sample_in_range_with_right_mean() {
        let d = FlowLength::BoundedPareto {
            min: 1,
            max: 1_000,
            alpha: 1.2,
        };
        d.validate().unwrap();
        let mut rng = SplitMix64::new(9);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| {
                let v = d.sample(&mut rng);
                assert!((1..=1_000).contains(&v));
                f64::from(v)
            })
            .sum();
        let mean = total / f64::from(n);
        // Truncating the continuous sample to an integer count biases
        // the empirical mean down by ~0.5, which matters at a mean of
        // ~4.5 packets; allow for it.
        assert!(
            (mean - (d.mean() - 0.5)).abs() < 0.25,
            "empirical {mean:.2} vs analytic {:.2}",
            d.mean()
        );
    }

    #[test]
    fn profile_validation_catches_nonsense() {
        let mut p = TrafficProfile::quick(1e6);
        p.validate().unwrap();
        p.flows = 0;
        assert!(p.validate().is_err());
        let mut p = TrafficProfile::quick(1e6);
        p.arrival = ArrivalProcess::Poisson { pps: -1.0 };
        assert!(p.validate().is_err());
        let mut p = TrafficProfile::quick(1e6);
        p.flow_length = FlowLength::Uniform { min: 0, max: 5 };
        assert!(p.validate().is_err());
        let mut p = TrafficProfile::quick(1e6);
        p.sizes = Workload::Fixed(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn offered_rate_reflects_sizes() {
        let p = TrafficProfile {
            sizes: Workload::Fixed(1_250),
            arrival: ArrivalProcess::Paced { pps: 1e6 },
            ..TrafficProfile::quick(1e6)
        };
        // 1 Mpps * 1250 B * 8 = 10 Gb/s.
        assert!((p.offered_gbps() - 10.0).abs() < 1e-9);
    }
}
