//! FNV-1a over 64-bit words: the run reports' fingerprints.
//!
//! A serving engine's `fingerprint()` folds every counter, timing and
//! histogram bucket of its run report into one `u64`, so that two runs
//! compare with one integer. [`Fnv`] is that fold: stable,
//! dependency-free and sensitive to word order, which each report
//! fixes by listing its words in one order.

use crate::hist::LatencyHistogram;

/// An FNV-1a hash fed one `u64` word at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The empty hash (the FNV-1a 64-bit offset basis).
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Folds in each word, in order.
    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Self {
        for w in ws {
            self.word(w);
        }
        self
    }

    /// Folds in a histogram: its count, overflow and the bits of its
    /// total, then `(bucket start, count)` for each non-empty bucket.
    pub fn histogram(&mut self, h: &LatencyHistogram) -> &mut Self {
        self.words([h.count(), h.overflow(), h.total_ns().to_bits()]);
        for &(start, count) in &h.nonzero() {
            self.words([start, count]);
        }
        self
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_histogram_folds_its_summary_then_its_buckets() {
        let mut hist = LatencyHistogram::new(10, 3);
        hist.record_ns(12.0);
        hist.record_ns(99.0);
        let mut by_hand = Fnv::new();
        by_hand.words([2, 1, 111.0f64.to_bits(), 10, 1, 30, 1]);
        let mut h = Fnv::new();
        h.histogram(&hist);
        assert_eq!(h, by_hand);
    }
}
