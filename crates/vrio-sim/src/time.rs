//! Simulated time.
//!
//! The simulator measures time in integer **nanoseconds** from the start of
//! the simulation. [`SimTime`] is an absolute instant; [`SimDuration`] is a
//! span between instants. Both are thin wrappers over `u64` with saturating
//! semantics, so cost-model arithmetic can never panic on overflow in
//! release builds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `x.round() as u64`, exactly, for every `x`: rounds half away from zero
/// and saturates as the cast does (negatives and NaN to 0, values past
/// `u64::MAX` and +∞ to `u64::MAX`), without calling the software `round`
/// that `f64::round` compiles to on targets lacking a rounding
/// instruction.
///
/// On `[0, 2^52)`, where every simulated duration lies, adding 2^52
/// rounds `x` to the nearest integer, ties to even, and that integer is
/// the sum's mantissa: no float-to-integer conversion is needed. The sum
/// less 2^52 is exact, and so is `x` less that integer, which equals one
/// half exactly when a tie went down to an even integer; half away from
/// zero then takes the next one. Every other `x` (negatives, NaN, the
/// integers from 2^52 on, ±∞) is its own truncation, which the
/// saturating cast gives.
///
/// # Examples
///
/// ```
/// use vrio_sim::round_u64;
///
/// assert_eq!(round_u64(2.5), 3);
/// assert_eq!(round_u64(2.4999999999999996), 2);
/// assert_eq!(round_u64(-0.7), 0);
/// assert_eq!(round_u64(f64::INFINITY), u64::MAX);
/// ```
#[inline]
pub fn round_u64(x: f64) -> u64 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    if !(0.0..TWO_52).contains(&x) {
        return x as u64;
    }
    let sum = x + TWO_52;
    let nearest_even = sum.to_bits() - TWO_52.to_bits();
    nearest_even + (x - (sum - TWO_52) == 0.5) as u64
}

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use vrio_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::micros(30);
/// assert_eq!(t.as_nanos(), 30_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::micros(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled at or after this instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns microseconds since simulation start as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use vrio_sim::SimDuration;
///
/// let d = SimDuration::micros(2) + SimDuration::nanos(500);
/// assert_eq!(d.as_nanos(), 2_500);
/// assert_eq!(d * 4, SimDuration::micros(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a float number of seconds (rounds to ns).
    ///
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_u64(s * 1e9))
    }

    /// Creates a duration from a float number of microseconds (rounds to ns).
    ///
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_micros_f64(us: f64) -> Self {
        if !us.is_finite() || us <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_u64(us * 1e3))
    }

    /// Returns the duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The time a transfer of `bytes` takes on a link of `gbps` gigabits
    /// per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrio_sim::SimDuration;
    /// // 1250 bytes at 10 Gbps = 1 microsecond.
    /// assert_eq!(SimDuration::for_bytes_at_gbps(1250, 10.0),
    ///            SimDuration::micros(1));
    /// ```
    pub fn for_bytes_at_gbps(bytes: u64, gbps: f64) -> SimDuration {
        debug_assert!(gbps > 0.0);
        SimDuration(round_u64((bytes as f64 * 8.0) / gbps))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0);
        SimDuration(round_u64(self.0 as f64 * rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(SimDuration::micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_micros_f64(2.5).as_nanos(), 2_500);
    }

    #[test]
    fn negative_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::micros(5);
        assert_eq!((t + SimDuration::micros(3)).as_nanos(), 8_000);
        assert_eq!(t - SimTime::from_nanos(2_000), SimDuration::nanos(3_000));
        // Saturating: subtracting a later time yields zero.
        assert_eq!(SimTime::ZERO - t, SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::micros(10);
        assert_eq!(d * 3u64, SimDuration::micros(30));
        assert_eq!(d * 0.5f64, SimDuration::micros(5));
        assert_eq!(d / 2, SimDuration::micros(5));
    }

    #[test]
    fn wire_time() {
        // 64 KB at 40 Gbps = 13.1072 microseconds.
        let d = SimDuration::for_bytes_at_gbps(65_536, 40.0);
        assert_eq!(d.as_nanos(), 13_107);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(400);
        assert_eq!(b.since(a).as_nanos(), 300);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::nanos(250).to_string(), "0.250us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [SimDuration::micros(1), SimDuration::micros(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::micros(3));
    }
}
