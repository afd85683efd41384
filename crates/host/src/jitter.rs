//! Latency jitter / stall models.
//!
//! Real root complexes do not produce delta-function latency
//! distributions. The paper's Figure 6 contrasts a Xeon E5 (99.9 % of
//! 64 B reads within an 80 ns band) with a Xeon E3 whose distribution
//! has a median 2.2× the minimum and a tail reaching 5.8 ms — behaviour
//! the authors attribute, speculatively, to hidden power management.
//!
//! We model the *observed distribution* directly: a [`JitterModel`] is
//! a piecewise-linear inverse CDF (quantile function) of *extra*
//! latency, sampled once per transaction. This is an explicit synthetic
//! substitution (see DESIGN.md): the paper itself could only speculate
//! about the mechanism, so we reproduce the measured shape rather than
//! invent silicon internals.

use pcie_sim::{SimTime, SplitMix64};

/// Most knots a [`JitterModel`] holds (the E3 preset uses all eight).
pub const MAX_KNOTS: usize = 8;

/// A piecewise-linear quantile function for extra per-transaction
/// latency.
///
/// Knots and lookup table are fixed arrays, so a model is `Copy` and
/// building or copying one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// `(cumulative probability, extra latency in ns)` knots, sorted by
    /// probability, first at p=0, last at p=1: `knots[..len]`. The
    /// unused tail stays zero, so equal knot lists compare equal.
    knots: [(f64, f64); MAX_KNOTS],
    /// Knots in use.
    len: usize,
    /// Per-bucket segment-count bounds: bucket `b` covers
    /// `u ∈ [b/256, (b+1)/256)` and stores how many knots in
    /// `knots[1..len]` lie strictly below each boundary. When the two
    /// counts agree the whole bucket sits inside one segment and the
    /// lookup is O(1); otherwise only the knots between the counts are
    /// tested. Derived from `knots`, so equal knots imply equal
    /// buckets.
    buckets: [(u8, u8); 256],
}

impl JitterModel {
    /// Builds a model from quantile knots. Knots must start at
    /// probability 0, end at 1, and be sorted and non-decreasing in
    /// both coordinates.
    ///
    /// # Panics
    /// On knots that break those rules, or on more than [`MAX_KNOTS`]
    /// of them.
    pub fn from_quantiles(knots: &[(f64, f64)]) -> Self {
        assert!(knots.len() >= 2, "need at least (0,_) and (1,_)");
        assert!(
            knots.len() <= MAX_KNOTS,
            "{} knots exceed the limit of MAX_KNOTS = {MAX_KNOTS}",
            knots.len()
        );
        assert_eq!(knots.first().unwrap().0, 0.0, "first knot at p=0");
        assert_eq!(knots.last().unwrap().0, 1.0, "last knot at p=1");
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "probabilities must increase");
            assert!(w[0].1 <= w[1].1, "quantiles must be non-decreasing");
        }
        assert!(knots[0].1 >= 0.0, "extra latency cannot be negative");
        let count_below = |p: f64| knots[1..].iter().filter(|k| k.0 < p).count() as u8;
        let mut model = JitterModel {
            knots: [(0.0, 0.0); MAX_KNOTS],
            len: knots.len(),
            buckets: [(0, 0); 256],
        };
        model.knots[..knots.len()].copy_from_slice(knots);
        for (b, bucket) in model.buckets.iter_mut().enumerate() {
            *bucket = (
                count_below(b as f64 / 256.0),
                count_below((b + 1) as f64 / 256.0),
            );
        }
        model
    }

    /// No jitter at all.
    pub fn none() -> Self {
        JitterModel::from_quantiles(&[(0.0, 0.0), (1.0, 0.0)])
    }

    /// The tight E5-like band: nearly all transactions within a few
    /// tens of ns, with a sub-microsecond extreme tail (Figure 6,
    /// NFP6000-HSW: 99.9 % within 80 ns of the 520 ns minimum,
    /// max 947 ns over 2 M samples).
    pub fn xeon_e5() -> Self {
        JitterModel::from_quantiles(&[
            (0.0, 0.0),
            (0.50, 27.0),
            (0.95, 55.0),
            (0.999, 80.0),
            (0.99999, 250.0),
            (1.0, 430.0),
        ])
    }

    /// The heavy E3-like distribution (Figure 6, NFP6000-HSW-E3:
    /// min 493 ns, median 1213 ns, p90 ≈ 2× median, p99 ≈ 5.7 µs,
    /// p99.9 ≈ 12 µs, extreme tail to ≈ 5.8 ms). Values here are the
    /// *extra* latency over the ~490 ns floor.
    pub fn xeon_e3() -> Self {
        JitterModel::from_quantiles(&[
            (0.0, 0.0),
            (0.30, 350.0),
            (0.63, 780.0), // median region: ~1213ns total
            (0.90, 1_940.0),
            (0.99, 5_210.0),
            (0.999, 11_490.0),
            (0.9999, 100_000.0),
            (1.0, 5_800_000.0),
        ])
    }

    /// The E3 under streaming load: the wake tail is gone (traffic
    /// keeps the uncore awake) but a residual per-transaction slowdown
    /// remains — enough to hurt small-transfer bandwidth while ≥512 B
    /// transfers match the E5 (§6.2).
    pub fn xeon_e3_busy() -> Self {
        JitterModel::from_quantiles(&[(0.0, 0.0), (0.5, 320.0), (0.9, 550.0), (1.0, 900.0)])
    }

    /// Draws one extra-latency sample.
    pub fn sample(&self, rng: &mut SplitMix64) -> SimTime {
        let u = rng.next_f64();
        SimTime::from_ns_f64(self.quantile(u))
    }

    /// Evaluates the quantile function at probability `u` (clamped).
    ///
    /// Sampled once per transaction, with `u` uniform — a data-
    /// dependent early-exit knot walk mispredicts ~half the time, so
    /// the segment is found through the 256-bucket table instead: the
    /// bucket's precomputed counts bound the answer, and only knot
    /// boundaries falling *inside* the bucket (rare) are tested.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let b = ((u * 256.0) as usize).min(255);
        let (lo, hi) = self.buckets[b];
        let mut idx = lo as usize;
        for k in &self.knots[1 + lo as usize..1 + hi as usize] {
            idx += usize::from(k.0 < u);
        }
        // `u == 1.0` counts every interior knot; stay on the last segment.
        let idx = idx.min(self.len - 2);
        let (p0, v0) = self.knots[idx];
        let (p1, v1) = self.knots[idx + 1];
        let span = p1 - p0;
        let frac = if span > 0.0 { (u - p0) / span } else { 1.0 };
        v0 + frac * (v1 - v0)
    }

    /// Whether this model is identically zero.
    pub fn is_none(&self) -> bool {
        self.knots[..self.len].iter().all(|&(_, v)| v == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let m = JitterModel::from_quantiles(&[(0.0, 0.0), (0.5, 100.0), (1.0, 200.0)]);
        assert_eq!(m.quantile(0.0), 0.0);
        assert_eq!(m.quantile(0.25), 50.0);
        assert_eq!(m.quantile(0.5), 100.0);
        assert_eq!(m.quantile(0.75), 150.0);
        assert_eq!(m.quantile(1.0), 200.0);
        assert_eq!(m.quantile(2.0), 200.0, "clamped");
    }

    #[test]
    fn none_is_zero() {
        let m = JitterModel::none();
        assert!(m.is_none());
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng), SimTime::ZERO);
        }
    }

    #[test]
    fn e5_band_is_tight() {
        let m = JitterModel::xeon_e5();
        assert!(m.quantile(0.999) <= 80.0);
        assert!(m.quantile(1.0) < 1000.0, "sub-microsecond max");
    }

    #[test]
    fn e3_matches_paper_quantiles() {
        // Reconstruct the paper's totals with a 493ns floor.
        let m = JitterModel::xeon_e3();
        let floor = 493.0;
        let median = floor + m.quantile(0.5);
        assert!((median - 1213.0).abs() < 120.0, "median {median}");
        let p99 = floor + m.quantile(0.99);
        assert!((p99 - 5707.0).abs() < 600.0, "p99 {p99}");
        let p999 = floor + m.quantile(0.999);
        assert!((p999 - 11987.0).abs() < 1200.0, "p999 {p999}");
        let max = floor + m.quantile(1.0);
        assert!(max > 5.0e6, "max {max} should reach milliseconds");
        // "the 90th percentile being double the median"
        let p90 = floor + m.quantile(0.90);
        assert!(
            (p90 / median - 2.0).abs() < 0.25,
            "p90/median {}",
            p90 / median
        );
    }

    #[test]
    fn sampled_distribution_matches_quantiles() {
        let m = JitterModel::xeon_e3();
        let mut rng = SplitMix64::new(42);
        let mut samples: Vec<f64> = (0..200_000)
            .map(|_| m.sample(&mut rng).as_ns_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
        assert!((q(0.5) - m.quantile(0.5)).abs() / m.quantile(0.5) < 0.05);
        assert!((q(0.99) - m.quantile(0.99)).abs() / m.quantile(0.99) < 0.10);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_quantiles() {
        JitterModel::from_quantiles(&[(0.0, 10.0), (0.5, 5.0), (1.0, 20.0)]);
    }

    #[test]
    #[should_panic(expected = "limit of MAX_KNOTS = 8")]
    fn rejects_too_many_knots() {
        let knots: Vec<(f64, f64)> = (0..=MAX_KNOTS)
            .map(|i| (i as f64 / 8.0, i as f64))
            .collect();
        JitterModel::from_quantiles(&knots);
    }

    #[test]
    #[should_panic(expected = "p=0")]
    fn rejects_missing_zero_knot() {
        JitterModel::from_quantiles(&[(0.1, 0.0), (1.0, 1.0)]);
    }
}
