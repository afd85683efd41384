//! Host-buffer access sequences (Figure 3).
//!
//! The window is divided into equal units; each DMA targets
//! `unit_base + offset`. Sequential order walks the units in address
//! order; random order uses a seeded Fisher–Yates permutation,
//! reshuffled after every full pass so long runs don't repeat one
//! fixed cycle.

use crate::params::{BenchParams, Pattern};
use pcie_sim::SplitMix64;

/// An endless, deterministic iterator of buffer offsets.
pub struct AccessSequence {
    unit: u64,
    offset: u64,
    order: Vec<u32>,
    pos: usize,
    pattern: Pattern,
    rng: SplitMix64,
}

impl AccessSequence {
    /// Builds the sequence for `params`, seeded for reproducibility.
    pub fn new(params: &BenchParams, seed: u64) -> Self {
        Self::with_buffer(params, seed, Vec::new())
    }

    /// [`AccessSequence::new`] over a permutation buffer that an
    /// earlier sequence gave back ([`AccessSequence::into_buffer`]):
    /// only its capacity is reused, so the stream is `new`'s.
    pub(crate) fn with_buffer(params: &BenchParams, seed: u64, mut order: Vec<u32>) -> Self {
        params.validate().expect("invalid bench params");
        let units = params.units();
        assert!(units <= u32::MAX as u64, "window too large to enumerate");
        order.clear();
        order.extend(0..units as u32);
        let mut rng = SplitMix64::new(seed);
        if params.pattern == Pattern::Random {
            rng.shuffle(&mut order);
        }
        AccessSequence {
            unit: params.unit(),
            offset: params.offset as u64,
            order,
            pos: 0,
            pattern: params.pattern,
            rng,
        }
    }

    /// Next buffer offset to DMA to/from.
    pub fn next_offset(&mut self) -> u64 {
        if self.pos == self.order.len() {
            self.pos = 0;
            if self.pattern == Pattern::Random {
                self.rng.shuffle(&mut self.order);
            }
        }
        let u = self.order[self.pos] as u64;
        self.pos += 1;
        u * self.unit + self.offset
    }

    /// Number of units per pass.
    pub fn units(&self) -> usize {
        self.order.len()
    }

    /// Consumes the sequence, giving back its permutation buffer for
    /// [`AccessSequence::with_buffer`].
    pub(crate) fn into_buffer(self) -> Vec<u32> {
        self.order
    }

    /// Capacity of the permutation buffer, in units.
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.order.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CACHE_LINE;
    use std::collections::BTreeSet;

    fn params(transfer: u32, offset: u32, pattern: Pattern) -> BenchParams {
        BenchParams {
            window: 8 * 1024,
            transfer,
            offset,
            pattern,
            ..BenchParams::baseline(transfer)
        }
    }

    #[test]
    fn sequential_walks_in_order() {
        let mut s = AccessSequence::new(&params(64, 0, Pattern::Sequential), 1);
        let offs: Vec<u64> = (0..4).map(|_| s.next_offset()).collect();
        assert_eq!(offs, vec![0, 64, 128, 192]);
    }

    #[test]
    fn one_pass_covers_every_unit_exactly_once() {
        for pattern in [Pattern::Sequential, Pattern::Random] {
            let p = params(64, 0, pattern);
            let mut s = AccessSequence::new(&p, 42);
            let n = s.units();
            assert_eq!(n as u64, p.units());
            let offs: BTreeSet<u64> = (0..n).map(|_| s.next_offset()).collect();
            assert_eq!(offs.len(), n, "{pattern:?}: duplicates within a pass");
            let expect: BTreeSet<u64> = (0..n as u64).map(|u| u * 64).collect();
            assert_eq!(offs, expect, "{pattern:?}");
        }
    }

    #[test]
    fn offsets_respect_configured_offset() {
        let mut s = AccessSequence::new(&params(8, 4, Pattern::Random), 3);
        for _ in 0..200 {
            let o = s.next_offset();
            assert_eq!(o % CACHE_LINE, 4);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = params(64, 0, Pattern::Random);
        let a: Vec<u64> = {
            let mut s = AccessSequence::new(&p, 7);
            (0..300).map(|_| s.next_offset()).collect()
        };
        let b: Vec<u64> = {
            let mut s = AccessSequence::new(&p, 7);
            (0..300).map(|_| s.next_offset()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut s = AccessSequence::new(&p, 8);
            (0..300).map(|_| s.next_offset()).collect()
        };
        assert_ne!(a, c, "different seed, different order");
    }

    #[test]
    fn reshuffles_between_passes() {
        let p = params(64, 0, Pattern::Random);
        let mut s = AccessSequence::new(&p, 9);
        let n = s.units();
        let pass1: Vec<u64> = (0..n).map(|_| s.next_offset()).collect();
        let pass2: Vec<u64> = (0..n).map(|_| s.next_offset()).collect();
        assert_ne!(pass1, pass2, "second pass must be a fresh permutation");
        let s1: BTreeSet<u64> = pass1.into_iter().collect();
        let s2: BTreeSet<u64> = pass2.into_iter().collect();
        assert_eq!(s1, s2, "same coverage");
    }

    #[test]
    fn accesses_stay_inside_window() {
        let p = params(192, 32, Pattern::Random);
        let mut s = AccessSequence::new(&p, 5);
        for _ in 0..1000 {
            let o = s.next_offset();
            assert!(o + p.transfer as u64 <= p.window);
        }
    }
}
