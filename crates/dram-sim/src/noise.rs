//! Libm-free Box–Muller noise for the alternating-pair kernel
//! ([`crate::MemoryController::access_alternating`]).
//!
//! The reference access path ([`crate::MemoryController::access_decoded`])
//! draws each access's noise through [`crate::rowhammer::sample_standard_normal`]:
//! `sqrt(-2 ln u1) · cos(2π u2)` with the platform's `ln` and `cos`, then
//! rounds the latency with `f64::round`. On the x86-64 baseline all three
//! are libm calls, and together they are about half the cost of a
//! measurement. This module computes the same quantities with branch-free
//! polynomials and an integer-conversion rounding, within about 1.4e-12 of
//! a nanosecond of the libm latency on every level the simulator produces.
//!
//! That is close but not bit-exact, so the kernel only trusts a fast
//! latency whose pre-rounding value lies at least [`HALF_INTEGER_MARGIN`]
//! away from every half-integer: there, the fast and the libm value round
//! to the same integer. Inside the margin it recomputes the latency with
//! the libm formula in the reference's operation order. The `#[ignore]`d
//! sweep at the bottom of this file checks the claim over 10⁸ draws.

use crate::rowhammer;

/// Half-width of the band around each half-integer in which a fast latency
/// is not trusted and the libm formula decides the rounding instead. About
/// 700 times the fast path's worst error in the exactness sweep, and narrow
/// enough that the fallback fires about twice per 10⁹ accesses.
const HALF_INTEGER_MARGIN: f64 = 1e-9;

/// Bit pattern of `sqrt(0.5)`: subtracting it from a float's bits splits
/// the float into an exponent and a mantissa in `[sqrt(0.5), sqrt(2))`.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;

/// `ln(x)` for a positive normal `x`, with no branch and no libm call.
///
/// `x = 2^e · m` with `m` in `[sqrt(0.5), sqrt(2))`, then
/// `ln m = 2 atanh(s)` with `s = (m − 1)/(m + 1)`, `|s| ≤ 0.172`, summed to
/// the `s^17` term (truncation below 1e-14 relative). `m − 1` is exact, so
/// the result keeps its relative accuracy as `x → 1`, which is what
/// `sqrt(-2 ln u1)` needs.
#[inline]
fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let e = (bits.wrapping_sub(SQRT_HALF_BITS) as i64) >> 52;
    let m = f64::from_bits(bits.wrapping_sub((e as u64) << 52));
    let s = (m - 1.0) / (m + 1.0);
    // 1 + s²/3 + s⁴/5 + … + s¹⁶/17 in Estrin form: the terms are paired
    // so the dependency chain is three multiply-adds deep, not eight.
    let s2 = s * s;
    let s4 = s2 * s2;
    let s8 = s4 * s4;
    let series = (1.0 + s2 * (1.0 / 3.0))
        + s4 * (1.0 / 5.0 + s2 * (1.0 / 7.0))
        + s8 * ((1.0 / 9.0 + s2 * (1.0 / 11.0))
            + s4 * (1.0 / 13.0 + s2 * (1.0 / 15.0))
            + s8 * (1.0 / 17.0));
    e as f64 * std::f64::consts::LN_2 + 2.0 * s * series
}

/// `cos(2π t)` for `t` in `[0, 1)`, with no branch and no libm call.
///
/// `4t` is split into the nearest quadrant `k` and a remainder `r` in
/// `[-0.5, 0.5]` (both exact), so `θ = r·π/2` lies in `[-π/4, π/4]` where
/// Taylor series to `θ^14` (cos) and `θ^13` (sin) are accurate to 2e-14.
/// The quadrant picks `±cos θ` or `±sin θ` without a branch.
#[inline]
fn cos_turns(t: f64) -> f64 {
    // Adding 1.5·2^52 rounds `q` to an integer held in the low mantissa
    // bits, with no float-to-integer conversion.
    const ROUNDER: f64 = 6_755_399_441_055_744.0;
    let q = t * 4.0;
    let shifted = q + ROUNDER;
    let k = shifted.to_bits();
    let x = (q - (shifted - ROUNDER)) * std::f64::consts::FRAC_PI_2;
    // Both Taylor series in Estrin form, like the `ln` series above.
    let x2 = x * x;
    let x4 = x2 * x2;
    let x8 = x4 * x4;
    let cos = (1.0 - x2 * (1.0 / 2.0))
        + x4 * (1.0 / 24.0 - x2 * (1.0 / 720.0))
        + x8 * ((1.0 / 40_320.0 - x2 * (1.0 / 3_628_800.0))
            + x4 * (1.0 / 479_001_600.0 - x2 * (1.0 / 87_178_291_200.0)));
    let sin = x
        * ((1.0 - x2 * (1.0 / 6.0))
            + x4 * (1.0 / 120.0 - x2 * (1.0 / 5_040.0))
            + x8 * ((1.0 / 362_880.0 - x2 * (1.0 / 39_916_800.0)) + x4 * (1.0 / 6_227_020_800.0)));
    // Quadrant 0: cos, 1: −sin, 2: −cos, 3: sin. The pick is arithmetic
    // (exact for a 0/1 weight) because a bit-mask select is turned back
    // into an unpredictable branch by the optimiser.
    let odd = (k & 1) as f64;
    let magnitude = cos * (1.0 - odd) + sin * odd;
    let negate = (k.wrapping_add(1) >> 1) & 1;
    f64::from_bits(magnitude.to_bits() ^ (negate << 63))
}

/// The Box–Muller transform of the two uniforms the reference draws, i.e.
/// a libm-free [`crate::rowhammer::box_muller`].
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln(u1)).sqrt() * cos_turns(u2)
}

/// `x.round() as u64` for `x` in `[1, 2^52)` without the libm `round`:
/// `x + 0.5` is exact there unless it crosses a power of two, where its
/// rounding still lands on the same integer part.
#[inline]
fn round_positive(x: f64) -> u64 {
    // Through `i64`: a single truncating conversion on x86-64, where the
    // unsigned one is a multi-instruction sequence.
    (x + 0.5) as i64 as u64
}

/// The rounded latency when `x` (already clamped to at least 1) lies at
/// least [`HALF_INTEGER_MARGIN`] away from every half-integer, so that any
/// value within the margin of it rounds the same way; `None` otherwise.
#[inline]
fn round_clear_of_half(x: f64) -> Option<u64> {
    let rounded = round_positive(x);
    let offset = (x - rounded as i64 as f64).abs();
    (offset < 0.5 - HALF_INTEGER_MARGIN).then_some(rounded)
}

/// The rounded latency of one access whose noise-free latency is `quiet`,
/// given what the access drew: the two Box–Muller `uniforms` when the
/// noise is on (standard deviation `sigma`), and the outlier's extra
/// nanoseconds when it drew one. Always equal to the reference
/// `access_decoded`'s `(quiet + sigma·z + outlier).max(1).round()`: the
/// fast transform decides unless the result is within
/// [`HALF_INTEGER_MARGIN`] of a half-integer, and then the libm transform
/// is redone in the reference's operation order.
#[inline]
pub(crate) fn latency(
    quiet: f64,
    sigma: f64,
    uniforms: Option<(f64, f64)>,
    outlier_ns: Option<f64>,
) -> u64 {
    let clamped = |normal: Option<f64>| {
        let mut latency = quiet;
        if let Some(z) = normal {
            latency += sigma * z;
        }
        if let Some(extra) = outlier_ns {
            latency += extra;
        }
        latency.max(1.0)
    };
    let fast = clamped(uniforms.map(|(u1, u2)| box_muller(u1, u2)));
    round_clear_of_half(fast).unwrap_or_else(|| {
        let reference = clamped(uniforms.map(|(u1, u2)| rowhammer::box_muller(u1, u2)));
        reference.round() as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::config::TimingParams;

    /// The next float above / below `x`.
    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn ulp_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn round_positive_matches_round_at_and_around_half_integers() {
        let mut cases = Vec::new();
        for k in [
            1u64,
            2,
            3,
            7,
            199,
            200,
            380,
            1023,
            1024,
            1_429,
            1 << 20,
            (1 << 51) - 1,
        ] {
            let half = k as f64 + 0.5;
            cases.extend([half, ulp_up(half), ulp_down(half), k as f64]);
        }
        // Powers of two minus a half, where `x + 0.5` changes exponent.
        for e in 1..52 {
            let edge = (1u64 << e) as f64 - 0.5;
            cases.extend([edge, ulp_up(edge), ulp_down(edge)]);
        }
        cases.extend([1.0, ulp_up(1.0), 1.499_999_999_999_999_8]);
        for x in cases {
            assert_eq!(round_positive(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn half_integers_and_their_neighbours_fall_back() {
        for k in [1u64, 200, 250, 380, 1_430] {
            let half = k as f64 + 0.5;
            for x in [half, ulp_up(half), ulp_down(half)] {
                assert_eq!(round_clear_of_half(x), None, "x = {x:e}");
            }
            let clear = half - 2.0 * HALF_INTEGER_MARGIN;
            assert_eq!(round_clear_of_half(clear), Some(k));
            assert_eq!(round_clear_of_half(k as f64), Some(k));
        }
    }

    #[test]
    fn a_latency_at_a_half_integer_takes_the_libm_formula() {
        // With u2 = 0 the normal is sqrt(-2 ln u1): pick u1 so that
        // 200 + 12·z lands on 206.5 to within float error.
        let (quiet, sigma) = (200.0, 12.0);
        let z: f64 = 6.5 / sigma;
        let u1 = (-z * z / 2.0).exp();
        let fast = quiet + sigma * box_muller(u1, 0.0);
        assert!((fast - 206.5).abs() < 1e-12, "{fast}");
        assert_eq!(round_clear_of_half(fast), None);
        for outlier in [None, Some(600.0)] {
            let mut reference = quiet + sigma * rowhammer::box_muller(u1, 0.0);
            reference += outlier.unwrap_or(0.0);
            assert_eq!(
                latency(quiet, sigma, Some((u1, 0.0)), outlier),
                reference.max(1.0).round() as u64
            );
        }
        // No noise and no outlier: the quiet latency itself.
        assert_eq!(latency(380.0, 0.0, None, None), 380);
        assert_eq!(latency(0.25, 0.0, None, None), 1);
    }

    #[test]
    fn ln_and_cos_track_libm() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut worst_ln = 0.0f64;
        let mut worst_cos = 0.0f64;
        for _ in 0..200_000 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            worst_ln = worst_ln.max(((ln(u) - u.ln()) / u.ln()).abs());
            let t: f64 = rng.gen();
            worst_cos = worst_cos.max((cos_turns(t) - (std::f64::consts::TAU * t).cos()).abs());
        }
        for u in [f64::EPSILON, 0.5, ulp_down(1.0), 0.707_106_781_186_547_5] {
            worst_ln = worst_ln.max(((ln(u) - u.ln()) / u.ln()).abs());
        }
        for t in [
            0.0,
            0.125,
            0.25,
            0.375,
            0.5,
            0.625,
            0.75,
            0.875,
            ulp_down(1.0),
        ] {
            worst_cos = worst_cos.max((cos_turns(t) - (std::f64::consts::TAU * t).cos()).abs());
        }
        assert!(worst_ln < 1e-13, "ln relative error {worst_ln:e}");
        assert!(worst_cos < 1e-13, "cos absolute error {worst_cos:e}");
    }

    /// Every pre-noise latency level a timing profile can reach: each base
    /// latency, with and without a TRR spike and an outlier, as
    /// `(base, spike, extra)`.
    fn reachable_levels(timing: &TimingParams) -> Vec<(u64, u64, u64)> {
        let mut levels = Vec::new();
        for base in [
            timing.row_hit_ns,
            timing.row_closed_ns,
            timing.row_conflict_ns,
        ] {
            for spike in [0, timing.trr_spike_ns] {
                for extra in [0, timing.outlier_extra_ns] {
                    levels.push((base, spike, extra));
                }
            }
        }
        levels
    }

    /// Exactness sweep: the fast path against libm over 10⁸ Box–Muller
    /// draws at every reachable base/TRR/outlier level of the timing
    /// profiles. Run with `cargo test --release -p dram-sim -- --ignored`.
    #[test]
    #[ignore = "10^8 draws; run in release"]
    fn fast_noise_rounds_like_libm_over_1e8_draws() {
        const DRAWS: u64 = 100_000_000;
        let sigma = TimingParams::default().noise_sigma_ns;
        let mut levels = reachable_levels(&TimingParams::default());
        levels.extend(reachable_levels(&TimingParams::trr_noise()));
        levels.sort_unstable();
        levels.dedup();
        let mut rng = StdRng::seed_from_u64(0x5EED_B0C5);
        let (mut mismatches, mut fallbacks, mut worst) = (0u64, 0u64, 0.0f64);
        for _ in 0..DRAWS {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            let fast_noise = sigma * box_muller(u1, u2);
            let libm_noise = sigma * rowhammer::box_muller(u1, u2);
            for &(base, spike, extra) in &levels {
                // The reference's operation order: base, spike, noise, outlier.
                let quiet = base as f64 + spike as f64;
                let outlier = (extra > 0).then_some(extra as f64);
                let (mut reference, mut fast) = (quiet + libm_noise, quiet + fast_noise);
                if let Some(extra) = outlier {
                    reference += extra;
                    fast += extra;
                }
                worst = worst.max((fast - reference).abs());
                fallbacks += u64::from(round_clear_of_half(fast.max(1.0)).is_none());
                let want = reference.max(1.0).round() as u64;
                mismatches += u64::from(latency(quiet, sigma, Some((u1, u2)), outlier) != want);
            }
        }
        println!(
            "{DRAWS} draws x {} levels: {mismatches} mismatches, {fallbacks} fallbacks, \
             worst pre-rounding error {worst:e} ns (margin {HALF_INTEGER_MARGIN:e})",
            levels.len()
        );
        assert_eq!(mismatches, 0);
        assert!(worst < HALF_INTEGER_MARGIN / 100.0, "worst error {worst:e}");
    }
}
