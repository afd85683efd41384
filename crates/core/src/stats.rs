//! Result statistics: summaries, CDFs, histograms (§5.4).

/// Summary statistics over latency samples, mirroring what the paper's
/// control programs report: average, median, min, max, 95th and 99th
/// percentiles (we add p99.9 for the Figure 6 tails).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub avg: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary. Sorts a copy of the data.
    ///
    /// When a caller also needs a [`Cdf`] of the same samples, sort
    /// once with [`sort_samples`] and use [`Summary::from_sorted`] +
    /// [`Cdf::from_sorted`] instead of paying two clone-and-sorts.
    ///
    /// # Panics
    /// If `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples");
        let mut v = samples.to_vec();
        sort_samples(&mut v);
        Summary::from_sorted(&v)
    }

    /// Computes a summary from already-sorted samples without copying.
    ///
    /// # Panics
    /// If `sorted` is empty, unsorted, or contains NaN (an explicit
    /// scan — NaN breaks percentile ranks silently otherwise).
    pub fn from_sorted(sorted: &[f64]) -> Summary {
        assert!(!sorted.is_empty(), "no samples");
        assert!(sorted.iter().all(|x| !x.is_nan()), "NaN sample");
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples not sorted"
        );
        let count = sorted.len();
        let avg = sorted.iter().sum::<f64>() / count as f64;
        Summary {
            count,
            avg,
            min: sorted[0],
            median: rank(sorted, 0.50),
            p95: rank(sorted, 0.95),
            p99: rank(sorted, 0.99),
            p999: rank(sorted, 0.999),
            max: sorted[count - 1],
        }
    }

    /// Computes a summary by selection instead of sorting: O(n) per
    /// order statistic via `select_nth_unstable`, reordering `samples`
    /// in place. This is the benchmark-suite hot path — a 100k-sample
    /// full sort per grid cell costs more than the simulation of some
    /// cells.
    ///
    /// The percentiles are exactly [`Summary::from_sorted`]'s
    /// (nearest-rank order statistics select the same elements); the
    /// mean is summed in the order given, so it can differ from the
    /// ascending-order sum by float rounding. Callers that must be
    /// bit-comparable should therefore compare summaries produced by
    /// the *same* constructor.
    ///
    /// # Panics
    /// If `samples` is empty or contains NaN.
    pub fn from_unsorted_mut(samples: &mut [f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples");
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        let count = samples.len();
        let avg = samples.iter().sum::<f64>() / count as f64;
        let (mut min, mut max) = (samples[0], samples[0]);
        for &s in &samples[1..] {
            min = min.min(s);
            max = max.max(s);
        }
        // Ascending percentile ranks: each selection partitions the
        // slice around its rank, so the next (higher) rank only needs
        // to select inside the upper partition — the value at a given
        // rank is the same order statistic either way, just found with
        // far fewer element moves than four full-slice selections.
        let mut base = 0usize;
        let mut last = min;
        let mut q = |p: f64| {
            let idx = ((count as f64) * p).ceil() as usize;
            let idx = idx.clamp(1, count) - 1;
            if base > 0 && idx == base - 1 {
                // Same rank as the previous (lower) percentile — the
                // pivot is already known.
                return last;
            }
            let v = *samples[base..]
                .select_nth_unstable_by(idx - base, |a, b| a.partial_cmp(b).expect("NaN sample"))
                .1;
            base = idx + 1;
            last = v;
            v
        };
        Summary {
            count,
            avg,
            min,
            median: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            p999: q(0.999),
            max,
        }
    }
}

/// Sorts a sample buffer ascending, panicking on NaN — the one
/// comparator every stats consumer shares, so `from_sorted`
/// constructors all agree on what "sorted" means.
pub fn sort_samples(v: &mut [f64]) {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
}

/// Nearest-rank percentile on sorted data.
fn rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// An empirical CDF: sorted `(value, cumulative probability)` points,
/// as plotted in Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Builds a CDF, downsampled to at most `max_points` points.
    /// Sorts a copy of the data; see [`Cdf::from_sorted`] to share
    /// one sorted buffer with [`Summary::from_sorted`].
    pub fn from_samples(samples: &[f64], max_points: usize) -> Cdf {
        let mut v = samples.to_vec();
        sort_samples(&mut v);
        Cdf::from_sorted(&v, max_points)
    }

    /// Builds a CDF from already-sorted samples without copying.
    ///
    /// # Panics
    /// If `sorted` is empty, `max_points < 2`, or the data is
    /// unsorted / contains NaN.
    pub fn from_sorted(sorted: &[f64], max_points: usize) -> Cdf {
        assert!(!sorted.is_empty() && max_points >= 2);
        assert!(sorted.iter().all(|x| !x.is_nan()), "NaN sample");
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples not sorted"
        );
        let n = sorted.len();
        let step = (n / max_points).max(1);
        let mut points: Vec<(f64, f64)> = sorted
            .iter()
            .enumerate()
            .step_by(step)
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect();
        let last = (sorted[n - 1], 1.0);
        if points.last() != Some(&last) {
            points.push(last);
        }
        Cdf { points }
    }

    /// The CDF points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Smallest recorded value with cumulative probability ≥ `q`.
    pub fn value_at(&self, q: f64) -> f64 {
        for &(v, p) in &self.points {
            if p >= q {
                return v;
            }
        }
        self.points.last().unwrap().0
    }
}

/// A log2-bucketed histogram (for latency spreads spanning ns to ms).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`.
    buckets: Vec<u64>,
    count: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a (non-negative) sample.
    pub fn add(&mut self, v: f64) {
        let b = if v < 1.0 {
            0
        } else {
            (v.log2().floor() as usize) + 1
        };
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// `(bucket lower bound, count)` for non-empty buckets.
    pub fn nonzero(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0.0 } else { 2f64.powi(i as i32 - 1) };
                (lo, c)
            })
            .collect()
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_hand_check() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::from_samples(&v);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.avg - 50.5).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p999, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn summary_empty_panics() {
        Summary::from_samples(&[]);
    }

    #[test]
    fn from_unsorted_mut_matches_sorting() {
        let v: Vec<f64> = (0..1000).map(|x| ((x * 7919) % 499) as f64).collect();
        let sorted_path = Summary::from_samples(&v);
        let selected = Summary::from_unsorted_mut(&mut v.clone());
        // Order statistics are identical elements; the mean differs
        // only by summation-order rounding.
        assert_eq!(selected.min, sorted_path.min);
        assert_eq!(selected.median, sorted_path.median);
        assert_eq!(selected.p95, sorted_path.p95);
        assert_eq!(selected.p99, sorted_path.p99);
        assert_eq!(selected.p999, sorted_path.p999);
        assert_eq!(selected.max, sorted_path.max);
        assert!((selected.avg - sorted_path.avg).abs() < 1e-9 * sorted_path.avg.abs());
        // Deterministic: same input, same output, every time.
        assert_eq!(
            Summary::from_unsorted_mut(&mut v.clone()),
            Summary::from_unsorted_mut(&mut v.clone())
        );
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn from_unsorted_mut_rejects_nan() {
        Summary::from_unsorted_mut(&mut [1.0, f64::NAN]);
    }

    #[test]
    fn from_sorted_matches_from_samples() {
        let mut v: Vec<f64> = (0..1000).map(|x| ((x * 7919) % 499) as f64).collect();
        let unsorted = Summary::from_samples(&v);
        let cdf_unsorted = Cdf::from_samples(&v, 64);
        sort_samples(&mut v);
        let sorted = Summary::from_sorted(&v);
        let cdf_sorted = Cdf::from_sorted(&v, 64);
        assert_eq!(unsorted, sorted, "one shared sort must change nothing");
        assert_eq!(cdf_unsorted, cdf_sorted);
    }

    #[test]
    #[should_panic(expected = "samples not sorted")]
    fn from_sorted_rejects_unsorted() {
        Summary::from_sorted(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn from_sorted_rejects_nan() {
        Summary::from_sorted(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn cdf_from_sorted_rejects_nan() {
        Cdf::from_sorted(&[f64::NAN], 2);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        // Unsorted input; heavy tail.
        let mut v: Vec<f64> = (0..1000).map(|x| (x % 997) as f64).collect();
        v[3] = 1e9;
        let s = Summary::from_samples(&v);
        assert_eq!(s.max, 1e9);
        assert!(s.p999 < 1e9, "p999 below the single outlier");
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let v: Vec<f64> = (0..5000).map(|x| ((x * 37) % 1000) as f64).collect();
        let c = Cdf::from_samples(&v, 100);
        let pts = c.points();
        assert!(pts.len() <= 102);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!(c.value_at(0.5) >= 400.0 && c.value_at(0.5) <= 600.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = LogHistogram::new();
        for v in [0.5, 1.0, 1.9, 2.0, 3.9, 4.0, 1000.0] {
            h.add(v);
        }
        assert_eq!(h.count(), 7);
        let nz = h.nonzero();
        // 0.5 -> [0,1); 1.0,1.9 -> [1,2); 2.0,3.9 -> [2,4); 4.0 -> [4,8); 1000 -> [512,1024)
        assert_eq!(nz[0], (0.0, 1));
        assert_eq!(nz[1], (1.0, 2));
        assert_eq!(nz[2], (2.0, 2));
        assert_eq!(nz[3], (4.0, 1));
        assert_eq!(nz[4], (512.0, 1));
    }
}
