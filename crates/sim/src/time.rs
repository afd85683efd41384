//! Simulation time.
//!
//! All timing in the simulator is expressed in integer **picoseconds**.
//! Picoseconds are fine enough to represent single-symbol times on a
//! PCIe Gen 3 lane (125 ps per byte-lane transfer) without rounding,
//! while a `u64` still covers more than 200 days of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant (or span) of simulated time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration;
/// the arithmetic on offer (saturating add, checked sub) is the same
/// for both uses, and keeping a single type avoids a proliferation of
/// conversions in timing-heavy code. The zero value is the simulation
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from a (non-negative, finite) number of nanoseconds.
    ///
    /// Fractional nanoseconds are rounded to the nearest picosecond.
    /// Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns.is_finite() && ns > 0.0 {
            SimTime(round_positive(ns * 1_000.0))
        } else {
            SimTime(0)
        }
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds, truncated.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in nanoseconds as a float (exact for < 2^53 ps).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000_000.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Nanoseconds from `earlier` to `self`, clamped at zero: one
    /// stage's duration between two telescoping stage boundaries.
    #[inline]
    pub fn ns_since(self, earlier: SimTime) -> f64 {
        self.saturating_sub(earlier).as_ns_f64()
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Multiplies a duration by an integer factor (saturating).
    #[inline]
    pub fn times(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }

    /// Rounds *up* to the next multiple of `quantum` picoseconds.
    ///
    /// Used to model hardware timestamp counters with coarse resolution
    /// (the NFP journal counter ticks every 19.2 ns, the NetFPGA clock
    /// every 4 ns).
    #[inline]
    pub fn quantize_up(self, quantum: u64) -> SimTime {
        // The shipped counter quanta (NFP 19.2ns, NetFPGA 4ns) get
        // constant divisors, which the compiler strength-reduces to
        // multiplies — this runs once per journalled sample.
        match quantum {
            19_200 => self.quantize_up_by(19_200),
            4_000 => self.quantize_up_by(4_000),
            0 | 1 => self,
            q => self.quantize_up_by(q),
        }
    }

    #[inline(always)]
    fn quantize_up_by(self, quantum: u64) -> SimTime {
        let rem = self.0 % quantum;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 - rem + quantum)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated more than ~213 days"),
        )
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted a later time from an earlier one"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ns")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

/// Converts a byte count and a rate in bits/second into the time taken
/// to serialise those bytes, rounded up to whole picoseconds.
///
/// This is the fundamental wire-time computation used throughout the
/// link model. Rounding up is the conservative choice (a transfer can
/// never finish *before* its last bit).
#[inline]
pub fn transfer_time(bytes: u64, bits_per_sec: f64) -> SimTime {
    debug_assert!(bits_per_sec > 0.0, "rate must be positive");
    let bits = (bytes as f64) * 8.0;
    let secs = bits / bits_per_sec;
    SimTime::from_ps(ceil_positive(secs * 1e12))
}

/// `x.ceil() as u64` for non-negative `x`, without the libm `ceil`
/// call (x86-64 baseline has no direct rounding instruction, so
/// `f64::ceil` compiles to a function call — measurable at one call
/// per TLP serialisation). For non-negative `x`, `x as u64` truncates
/// (= floor), and truncation is exact whenever the result fits, so
/// `floor < x` decides the +1 exactly; above 2^53, `x` is already an
/// integer and the comparison is false. Values beyond `u64::MAX`
/// saturate, as the original cast did.
#[inline(always)]
fn ceil_positive(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

/// `x.round() as u64` for non-negative `x` (round half away from
/// zero, exactly as `f64::round`), without the libm `round` call —
/// one call per jitter sample otherwise. `x - floor(x)` is exact for
/// `x < 2^53` (Sterbenz), so comparing the fraction against 0.5
/// reproduces `round` bit-for-bit; above 2^53 the fraction is zero.
#[inline(always)]
fn round_positive(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - (t as f64) >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn float_round_trip() {
        let t = SimTime::from_ns_f64(123.456);
        assert_eq!(t.as_ps(), 123_456);
        assert!((t.as_ns_f64() - 123.456).abs() < 1e-9);
    }

    #[test]
    fn from_ns_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_ns_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(f64::INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(3);
        assert_eq!((a + b).as_ns(), 13);
        assert_eq!((a - b).as_ns(), 7);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(b.max(a), a);
        assert_eq!(b.times(4).as_ns(), 12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn quantize() {
        let q = 19_200; // 19.2ns NFP timestamp quantum, in ps
        assert_eq!(SimTime::from_ps(0).quantize_up(q).as_ps(), 0);
        assert_eq!(SimTime::from_ps(1).quantize_up(q).as_ps(), q);
        assert_eq!(SimTime::from_ps(q).quantize_up(q).as_ps(), q);
        assert_eq!(SimTime::from_ps(q + 1).quantize_up(q).as_ps(), 2 * q);
        // quantum of 0/1 is the identity
        assert_eq!(SimTime::from_ps(7).quantize_up(0).as_ps(), 7);
        assert_eq!(SimTime::from_ps(7).quantize_up(1).as_ps(), 7);
    }

    #[test]
    fn transfer_time_gen3_byte() {
        // One byte at ~63 Gb/s should take ~127ps.
        let t = transfer_time(1, 62.96e9);
        assert!(t.as_ps() >= 127 && t.as_ps() <= 128, "{t}");
        // 1500 bytes at 40Gb/s = 300ns.
        let t = transfer_time(1500, 40e9);
        assert_eq!(t.as_ns(), 300);
    }

    #[test]
    fn branchless_rounding_matches_libm_exactly() {
        // The hot-path helpers must agree with the libm calls they
        // replaced on every input class: exact integers, halfway
        // points, values past 2^53 (no fractional part representable),
        // and a broad seeded sweep of realistic magnitudes.
        let edge = [
            0.0,
            0.5,
            0.49999999999999994, // largest f64 < 0.5
            1.0,
            1.5,
            2.5,
            127.0,
            127.000000001,
            9.007199254740992e15, // 2^53
            9.007199254740994e15,
            1.8e19, // near u64::MAX
        ];
        for &x in &edge {
            assert_eq!(ceil_positive(x), x.ceil() as u64, "ceil({x})");
            assert_eq!(round_positive(x), x.round() as u64, "round({x})");
        }
        let mut rng = crate::SplitMix64::new(0xCE11_FA57);
        for _ in 0..100_000 {
            // Magnitudes from sub-ps fractions up to ~10^12 ps (1s).
            let mant = rng.next_f64();
            let exp = rng.range(0, 41) as i32; // 2^0 .. 2^40
            let x = mant * f64::powi(2.0, exp);
            assert_eq!(ceil_positive(x), x.ceil() as u64, "ceil({x})");
            assert_eq!(round_positive(x), x.round() as u64, "round({x})");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_ps(500)), "500ps");
        assert_eq!(format!("{}", SimTime::from_ns(500)), "500.000ns");
        assert_eq!(format!("{}", SimTime::from_us(2)), "2.000us");
        assert_eq!(format!("{}", SimTime::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(4)), "4.000s");
        assert_eq!(format!("{}", SimTime::ZERO), "0ns");
    }
}
