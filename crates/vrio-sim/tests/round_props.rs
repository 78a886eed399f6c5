//! The simulator's float-to-nanosecond rounding, `vrio_sim::round_u64`,
//! must equal `f64::round() as u64` for every input: every `SimDuration`
//! built from a float goes through it, so one differing bit would move
//! simulated time. Checked on random bit patterns, on values near the
//! integers and halves of every magnitude up to 2^54, and on each one's
//! `next_up`/`next_down` neighbours; then exhaustively on the edges:
//! exact halves, the range [2^52, 2^53], values past `u64::MAX`,
//! negatives, -0.0, NaN and ±∞.

use proptest::prelude::*;
use vrio_sim::round_u64;

/// Checks `x` and its two neighbours against the reference.
fn agrees_around(x: f64) {
    for y in [x.next_down(), x, x.next_up()] {
        prop_assert_eq!(
            round_u64(y),
            y.round() as u64,
            "at {:e} (bits {:#018x})",
            y,
            y.to_bits()
        );
    }
}

/// An integer below 2^54 plus a fraction: none, one half, or any.
fn near_integers() -> impl Strategy<Value = f64> {
    let fraction = prop_oneof![
        1 => Just(0.0),
        2 => Just(0.5),
        3 => any::<f64>(),
    ];
    (0u32..55, any::<u64>(), fraction)
        .prop_map(|(bits, n, fraction)| (n >> (64 - bits.max(1))) as f64 + fraction)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Any bit pattern: subnormals, huge values, negatives and NaNs.
    #[test]
    fn random_bit_patterns_round_as_f64_round(bits in any::<u64>()) {
        agrees_around(f64::from_bits(bits));
    }

    /// Values near integers and halves at every magnitude the simulator
    /// produces and beyond, where rounding decides the nanosecond.
    #[test]
    fn values_near_integers_and_halves_round_as_f64_round(x in near_integers()) {
        agrees_around(x);
        agrees_around(-x);
    }
}

#[test]
fn exact_halves_round_away_from_zero() {
    for n in (0..1000u64).chain([(1 << 52) - 2, (1 << 52) - 1]) {
        let half = n as f64 + 0.5;
        assert_eq!(round_u64(half), n + 1, "{half}");
        agrees_around(half);
    }
}

#[test]
fn the_integer_range_from_2_pow_52_is_exact() {
    let (lo, hi) = (2f64.powi(52), 2f64.powi(53));
    let mut x = lo.next_down();
    while x <= lo + 4096.0 {
        agrees_around(x);
        x = x.next_up();
    }
    let mut x = hi - 4096.0;
    while x <= hi.next_up() {
        agrees_around(x);
        x = x.next_up();
    }
    for k in 0..=64 {
        agrees_around(lo + (hi - lo) * f64::from(k) / 64.0);
    }
}

#[test]
fn values_past_u64_max_saturate() {
    let max = u64::MAX as f64;
    for x in [max, max * 2.0, 1e30, f64::MAX, f64::INFINITY] {
        assert_eq!(round_u64(x), u64::MAX, "{x:e}");
        agrees_around(x);
    }
}

#[test]
fn negatives_zeros_and_nan_round_to_zero() {
    let below_zero = [-0.0, -0.4, -0.5, -0.6, -1.5, -1e300, -f64::MIN_POSITIVE];
    for x in below_zero
        .into_iter()
        .chain([0.0, f64::NAN, f64::NEG_INFINITY])
    {
        assert_eq!(round_u64(x), 0, "{x:e}");
        agrees_around(x);
    }
}
