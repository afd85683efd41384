//! Packet-size workloads for examples and benchmarks.

use pcie_sim::SplitMix64;

/// A packet-size generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Every packet the same size.
    Fixed(u32),
    /// The canonical "simple IMIX": 64 B (7 parts), 570 B (4 parts),
    /// 1518 B (1 part).
    Imix,
    /// Uniformly random sizes in `[min, max]`.
    Uniform {
        /// Smallest frame.
        min: u32,
        /// Largest frame.
        max: u32,
    },
    /// Heavy-tailed bounded Pareto on `[min, max]` with tail exponent
    /// `alpha`: most frames are small, a deterministic-per-seed
    /// minority are near `max`. The classic model for Internet flow
    /// and object sizes (`alpha` ≈ 1.1–1.3 empirically); bounding the
    /// support keeps the mean finite and frames realisable.
    Pareto {
        /// Smallest frame (the Pareto scale parameter), > 0.
        min: u32,
        /// Largest frame (truncation bound), > `min`.
        max: u32,
        /// Tail exponent, > 0 and ≠ 1 (flow mixes get heavier as
        /// `alpha` falls toward 1).
        alpha: f64,
    },
}

/// Inverse-CDF sampler of the bounded Pareto on `[min, max]` with
/// tail exponent `alpha`, the one home of its formula: with
/// U ~ [0,1), x = L / (1 − U·(1 − (L/H)^α))^(1/α), truncated to an
/// integer and clamped to `[min, max]`.
///
/// The constants `1 − (L/H)^α` and `1/α` are computed once, here, so a
/// draw costs one RNG draw and one `powf`; a caller drawing many
/// values from one distribution builds the sampler once. Each draw is
/// bit-identical to evaluating the whole formula afresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    min: u32,
    max: u32,
    /// `min` as a float: the scale L.
    l: f64,
    /// `1 − (L/H)^α`.
    span: f64,
    /// `1/α`.
    inv_alpha: f64,
}

impl BoundedPareto {
    /// The sampler for `Workload::Pareto { min, max, alpha }`. The
    /// parameters are those [`Workload::validate`] accepts; a `min`
    /// above `max` panics on the first draw.
    pub fn new(min: u32, max: u32, alpha: f64) -> BoundedPareto {
        let (l, h) = (f64::from(min), f64::from(max));
        BoundedPareto {
            min,
            max,
            l,
            span: 1.0 - (l / h).powf(alpha),
            inv_alpha: 1.0 / alpha,
        }
    }

    /// Draws one value, with exactly one RNG draw, so streams stay
    /// stable.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        (self.inverse_cdf(rng.next_f64()) as u32).clamp(self.min, self.max)
    }

    /// The continuous quantile at `u` ∈ [0, 1), before truncation.
    #[inline]
    fn inverse_cdf(&self, u: f64) -> f64 {
        self.l / (1.0 - u * self.span).powf(self.inv_alpha)
    }
}

/// A [`Workload`] ready to draw from, its constants computed once
/// ([`Workload::sampler`]): what a generator drawing a size per packet
/// builds beside its `Rss`. Each draw is bit-identical to
/// [`Workload::next_size`]'s and takes the same RNG draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeSampler {
    /// [`Workload::Fixed`].
    Fixed(u32),
    /// [`Workload::Imix`].
    Imix,
    /// [`Workload::Uniform`] on `[min, max]`.
    Uniform {
        /// Smallest value.
        min: u32,
        /// Largest value.
        max: u32,
    },
    /// [`Workload::Pareto`].
    Pareto(BoundedPareto),
}

impl SizeSampler {
    /// Draws the next value.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        match *self {
            SizeSampler::Fixed(s) => s,
            SizeSampler::Imix => match rng.next_below(12) {
                0..=6 => 64,
                7..=10 => 570,
                _ => 1518,
            },
            SizeSampler::Uniform { min, max } => rng.range(min as u64, max as u64 + 1) as u32,
            SizeSampler::Pareto(p) => p.sample(rng),
        }
    }
}

impl Workload {
    /// The distribution with its constants computed once, for a caller
    /// that draws many sizes.
    pub fn sampler(&self) -> SizeSampler {
        match *self {
            Workload::Fixed(s) => SizeSampler::Fixed(s),
            Workload::Imix => SizeSampler::Imix,
            Workload::Uniform { min, max } => SizeSampler::Uniform { min, max },
            Workload::Pareto { min, max, alpha } => {
                SizeSampler::Pareto(BoundedPareto::new(min, max, alpha))
            }
        }
    }

    /// Draws the next packet size, building the sampler for this one
    /// draw.
    pub fn next_size(&self, rng: &mut SplitMix64) -> u32 {
        self.sampler().sample(rng)
    }

    /// Mean packet size of the workload (analytic, not empirical).
    pub fn mean_size(&self) -> f64 {
        match *self {
            Workload::Fixed(s) => s as f64,
            Workload::Imix => (7.0 * 64.0 + 4.0 * 570.0 + 1518.0) / 12.0,
            Workload::Uniform { min, max } => (min as f64 + max as f64) / 2.0,
            Workload::Pareto { min, max, alpha } => {
                // E[X] for the bounded Pareto on [L, H] (α ≠ 1):
                //   L^α / (1 - (L/H)^α) · α/(α-1) · (L^(1-α) - H^(1-α))
                let (l, h) = (min as f64, max as f64);
                let la = l.powf(alpha);
                let ha = h.powf(alpha);
                (la / (1.0 - la / ha))
                    * (alpha / (alpha - 1.0))
                    * (l.powf(1.0 - alpha) - h.powf(1.0 - alpha))
            }
        }
    }

    /// Validates the distribution parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Workload::Fixed(0) => Err("fixed size must be nonzero".into()),
            Workload::Uniform { min, max } | Workload::Pareto { min, max, .. } if min > max => {
                Err(format!("min {min} exceeds max {max}"))
            }
            Workload::Pareto { min: 0, .. } => Err("pareto min must be > 0".into()),
            Workload::Pareto { alpha, .. } if alpha.is_nan() || alpha <= 0.0 || alpha == 1.0 => {
                Err(format!("pareto alpha {alpha} must be > 0 and != 1"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = SplitMix64::new(1);
        let w = Workload::Fixed(256);
        assert!((0..100).all(|_| w.next_size(&mut rng) == 256));
        assert_eq!(w.mean_size(), 256.0);
    }

    #[test]
    fn imix_mixes_with_right_proportions() {
        let mut rng = SplitMix64::new(2);
        let w = Workload::Imix;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..12_000 {
            *counts.entry(w.next_size(&mut rng)).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 3);
        let small = counts[&64] as f64 / 12_000.0;
        assert!((small - 7.0 / 12.0).abs() < 0.03, "{small}");
        // Empirical mean near the analytic one.
        let mean: f64 = counts
            .iter()
            .map(|(&s, &c)| s as f64 * c as f64)
            .sum::<f64>()
            / 12_000.0;
        assert!((mean - w.mean_size()).abs() < 15.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SplitMix64::new(3);
        let w = Workload::Uniform { min: 64, max: 1518 };
        for _ in 0..1000 {
            let s = w.next_size(&mut rng);
            assert!((64..=1518).contains(&s));
        }
    }

    #[test]
    fn pareto_is_deterministic_per_seed() {
        let w = Workload::Pareto {
            min: 64,
            max: 1518,
            alpha: 1.2,
        };
        let draw = |seed: u64| -> Vec<u32> {
            let mut rng = SplitMix64::new(seed);
            (0..256).map(|_| w.next_size(&mut rng)).collect()
        };
        assert_eq!(draw(11), draw(11), "same seed must replay bit-for-bit");
        assert_ne!(draw(11), draw(12), "different seeds must diverge");
        // Exactly one RNG draw per sample: the stream position after n
        // samples matches n raw draws, so interleaved consumers stay
        // stable when a size distribution is swapped in.
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..100 {
            w.next_size(&mut a);
            b.next_u64();
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The bounded-Pareto formula evaluated whole on every draw: the
    /// oracle [`BoundedPareto`] must match bit for bit.
    fn per_draw(min: u32, max: u32, alpha: f64, u: f64) -> f64 {
        let (l, h) = (min as f64, max as f64);
        l / (1.0 - u * (1.0 - (l / h).powf(alpha))).powf(1.0 / alpha)
    }

    #[test]
    fn built_once_sampler_matches_the_per_draw_formula() {
        const DRAWS: usize = 20_000;
        for (min, max, alpha) in [
            (1, 10_000, 1.2),
            (1, 1_000, 1.2),
            (64, 1_500, 1.2),
            (1, 10_000, 0.5),
            (64, 1_500, 0.5),
            (1, 10_000, 2.5),
            (64, 1_500, 2.5),
            (700, 700, 1.2),
        ] {
            let sampler = BoundedPareto::new(min, max, alpha);
            let workload = Workload::Pareto { min, max, alpha };
            let what = format!("[{min}, {max}] alpha {alpha}");
            for u in [0.0, 0.5, 1.0 - f64::EPSILON / 2.0] {
                assert_eq!(
                    sampler.inverse_cdf(u).to_bits(),
                    per_draw(min, max, alpha, u).to_bits(),
                    "{what}: u = {u}"
                );
            }
            for seed in [1, 7, 13] {
                let mut built = SplitMix64::new(seed);
                let mut via_workload = SplitMix64::new(seed);
                let mut oracle = SplitMix64::new(seed);
                for i in 0..DRAWS {
                    let u = oracle.next_f64();
                    let x = per_draw(min, max, alpha, u);
                    assert_eq!(sampler.inverse_cdf(u).to_bits(), x.to_bits(), "{what}");
                    let want = (x as u32).clamp(min, max);
                    assert_eq!(sampler.sample(&mut built), want, "{what}: draw {i}");
                    assert_eq!(workload.next_size(&mut via_workload), want, "{what}");
                }
                // Exactly one RNG draw per sample.
                let mut raw = SplitMix64::new(seed);
                for _ in 0..DRAWS {
                    raw.next_u64();
                }
                let next = raw.next_u64();
                assert_eq!(built.next_u64(), next, "{what}: sampler draws");
                assert_eq!(via_workload.next_u64(), next, "{what}: workload draws");
            }
        }
    }

    /// Each size kind's formula evaluated afresh on every draw.
    fn afresh(w: Workload, rng: &mut SplitMix64) -> u32 {
        match w {
            Workload::Fixed(s) => s,
            Workload::Imix => match rng.next_below(12) {
                0..=6 => 64,
                7..=10 => 570,
                _ => 1518,
            },
            Workload::Uniform { min, max } => rng.range(min as u64, max as u64 + 1) as u32,
            Workload::Pareto { min, max, alpha } => {
                (per_draw(min, max, alpha, rng.next_f64()) as u32).clamp(min, max)
            }
        }
    }

    #[test]
    fn sampler_matches_every_kind_drawn_afresh() {
        for w in [
            Workload::Fixed(256),
            Workload::Imix,
            Workload::Uniform { min: 64, max: 1518 },
            Workload::Pareto {
                min: 64,
                max: 1518,
                alpha: 1.2,
            },
        ] {
            let sampler = w.sampler();
            let mut built = SplitMix64::new(9);
            let mut via_workload = SplitMix64::new(9);
            let mut oracle = SplitMix64::new(9);
            for i in 0..10_000 {
                let want = afresh(w, &mut oracle);
                assert_eq!(sampler.sample(&mut built), want, "{w:?}: draw {i}");
                assert_eq!(w.next_size(&mut via_workload), want, "{w:?}: draw {i}");
            }
            // The same RNG draws.
            let next = oracle.next_u64();
            assert_eq!(built.next_u64(), next, "{w:?}: sampler draws");
            assert_eq!(via_workload.next_u64(), next, "{w:?}: workload draws");
        }
    }

    #[test]
    fn pareto_bounds_shape_and_mean() {
        let w = Workload::Pareto {
            min: 64,
            max: 1518,
            alpha: 1.2,
        };
        w.validate().unwrap();
        let mut rng = SplitMix64::new(7);
        let n = 200_000;
        let samples: Vec<u32> = (0..n).map(|_| w.next_size(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (64..=1518).contains(&s)));
        // Heavy-tailed shape: most mass near the minimum, a real
        // minority near the truncation bound.
        let small = samples.iter().filter(|&&s| s < 128).count() as f64 / n as f64;
        let large = samples.iter().filter(|&&s| s > 1000).count() as f64 / n as f64;
        assert!(small > 0.5, "bulk below 2L, got {small}");
        assert!(
            large > 0.01 && large < 0.2,
            "thin-but-real tail, got {large}"
        );
        // Empirical mean within 2% of the analytic bounded-Pareto mean.
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
        let analytic = w.mean_size();
        assert!(
            (mean - analytic).abs() / analytic < 0.02,
            "empirical {mean:.1} vs analytic {analytic:.1}"
        );
        // The analytic mean itself sits inside the support.
        assert!(analytic > 64.0 && analytic < 1518.0);
    }

    #[test]
    fn validation_rejects_bad_distributions() {
        assert!(Workload::Fixed(0).validate().is_err());
        assert!(Workload::Uniform { min: 9, max: 3 }.validate().is_err());
        assert!(Workload::Pareto {
            min: 0,
            max: 10,
            alpha: 1.2
        }
        .validate()
        .is_err());
        assert!(Workload::Pareto {
            min: 64,
            max: 1518,
            alpha: 1.0
        }
        .validate()
        .is_err());
        assert!(Workload::Pareto {
            min: 64,
            max: 1518,
            alpha: -2.0
        }
        .validate()
        .is_err());
        assert!(Workload::Imix.validate().is_ok());
    }
}
