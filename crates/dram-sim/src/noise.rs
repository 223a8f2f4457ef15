//! Libm-free Box–Muller noise for the alternating-pair kernel
//! ([`crate::MemoryController::access_alternating`]).
//!
//! The reference access path ([`crate::MemoryController::access_decoded`])
//! draws each access's noise through [`crate::rowhammer::sample_standard_normal`]:
//! `sqrt(-2 ln u1) · cos(2π u2)` with the platform's `ln` and `cos`, then
//! rounds the latency with `f64::round`. On the x86-64 baseline all three
//! are libm calls, and together they are about half the cost of a
//! measurement.
//!
//! The kernel instead works on a [`Chunk`] of up to [`CHUNK`] accesses:
//! 1. it draws the chunk's uniforms in the reference's order;
//! 2. [`round_lanes`] computes each access's noise `σ·z` with branch-free
//!    polynomials, within about 2.2e-13 ns of the libm value, and rounds it
//!    to an integer, flagging whether `σ·z` lies at least
//!    [`HALF_INTEGER_MARGIN`] away from every half-integer. The loop has no
//!    branch and no int/float conversion, so LLVM vectorises it;
//! 3. a flagged access's latency is the integer sum of its noise-free
//!    latency, its outlier and its rounded noise ([`lane_sum`]): the libm
//!    noise lies within the margin of the fast one, so the reference's
//!    float sum rounds to the same integer. Any other access takes the
//!    libm formula in the reference's operation order.
//!
//! The `#[ignore]`d sweep at the bottom of this file checks the claim over
//! 10⁸ draws at every latency level the simulator produces.

use rand::rngs::StdRng;
use rand::Rng;

use crate::config::TimingParams;
use crate::rowhammer;

/// Accesses per chunk of the alternating-pair kernel: enough lanes to
/// amortise the vector loop, few enough that a probe measurement (25
/// accesses by default) is one chunk.
pub(crate) const CHUNK: usize = 32;

/// Half-width of the band around each half-integer in which a fast noise
/// value is not trusted and the libm formula decides the rounding instead.
/// About 4,500 times the fast path's worst error in the exactness sweep, and
/// narrow enough that the fallback fires about twice per 10⁹ accesses.
const HALF_INTEGER_MARGIN: f64 = 1e-9;

/// 1.5·2^52: adding it to a float of magnitude below 2^51 rounds the float
/// to the nearest integer, held in the low mantissa bits.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// 2^52: an integer below 2^52 OR-ed into its mantissa bits reads back,
/// minus 2^52, as that integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Bit pattern of `sqrt(0.5)`: subtracting it from a float's bits splits
/// the float into an exponent and a mantissa in `[sqrt(0.5), sqrt(2))`.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;

/// `n as f64` for `n < 2^52`, exact, through the bits of 2^52 rather than
/// an integer-to-float conversion (which has no packed form on the x86-64
/// baseline, so it would keep [`round_lanes`] scalar).
#[inline(always)]
fn small_int(n: u64) -> f64 {
    f64::from_bits(TWO_POW_52.to_bits() | n) - TWO_POW_52
}

/// `ln(x)` for a positive normal `x`, with no branch, no libm call and no
/// int/float conversion.
///
/// `x = 2^e · m` with `m` in `[sqrt(0.5), sqrt(2))`, then
/// `ln m = 2 atanh(s)` with `s = (m − 1)/(m + 1)`, `|s| ≤ 0.172`, summed to
/// the `s^17` term (truncation below 1e-14 relative). `m − 1` is exact, so
/// the result keeps its relative accuracy as `x → 1`, which is what
/// `sqrt(-2 ln u1)` needs.
#[inline(always)]
fn ln(x: f64) -> f64 {
    // `e + 1023` by a logical shift: the bias keeps the difference
    // non-negative for every positive normal `x`.
    const BIAS: u64 = 1023 << 52;
    let bits = x.to_bits();
    let biased = bits.wrapping_sub(SQRT_HALF_BITS).wrapping_add(BIAS) >> 52;
    let m = f64::from_bits(bits.wrapping_sub((biased << 52).wrapping_sub(BIAS)));
    let e = small_int(biased) - 1023.0;
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
    e * std::f64::consts::LN_2 + 2.0 * s * series
}

/// `cos(2π t)` for `t` in `[0, 1)`, with no branch, no libm call and no
/// int/float conversion.
///
/// `2t` is split into the nearest half-turn count `k` and a remainder `r`
/// in `[-0.5, 0.5]` (both exact), so `cos(2π t) = (−1)^k cos θ` with
/// `θ = r·π` in `[-π/2, π/2]`, where the Taylor series to `θ^18` is
/// accurate to 4e-15. The sign is picked by flipping the sign bit with the
/// low bit of `k`.
#[inline(always)]
fn cos_turns(t: f64) -> f64 {
    let half_turns = t * 2.0;
    let shifted = half_turns + ROUNDER;
    let k = shifted.to_bits();
    let x = (half_turns - (shifted - ROUNDER)) * std::f64::consts::PI;
    // Estrin form, like the `ln` series above.
    let x2 = x * x;
    let x4 = x2 * x2;
    let x8 = x4 * x4;
    let cos = (1.0 - x2 * (1.0 / 2.0))
        + x4 * (1.0 / 24.0 - x2 * (1.0 / 720.0))
        + x8 * ((1.0 / 40_320.0 - x2 * (1.0 / 3_628_800.0))
            + x4 * (1.0 / 479_001_600.0 - x2 * (1.0 / 87_178_291_200.0))
            + x8 * (1.0 / 20_922_789_888_000.0 - x2 * (1.0 / 6_402_373_705_728_000.0)));
    f64::from_bits(cos.to_bits() ^ (k << 63))
}

/// The Box–Muller transform of the two uniforms the reference draws, i.e.
/// a libm-free [`crate::rowhammer::box_muller`].
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln(u1)).sqrt() * cos_turns(u2)
}

/// Pass two of a chunk: each lane's noise `σ·z` from its uniforms, through
/// [`round_lane`]. Kept out of line: every instantiation of the kernel
/// shares this one vector loop.
#[inline(never)]
fn round_lanes(sigma: f64, u1: &[f64], u2: &[f64], rounded: &mut [i64], clear: &mut [bool]) {
    let lanes = u1.len();
    let (u2, rounded, clear) = (&u2[..lanes], &mut rounded[..lanes], &mut clear[..lanes]);
    for lane in 0..lanes {
        (rounded[lane], clear[lane]) = round_lane(sigma * box_muller(u1[lane], u2[lane]));
    }
}

/// `noise` rounded to the nearest integer, and whether it lies at least
/// [`HALF_INTEGER_MARGIN`] away from every half-integer, for `|noise|`
/// below 2^51. Where it does, every value within the margin of `noise`
/// rounds the same way.
#[inline(always)]
fn round_lane(noise: f64) -> (i64, bool) {
    let shifted = noise + ROUNDER;
    // The rounded value sits in the low mantissa bits, in two's complement
    // relative to ROUNDER's own.
    let rounded = shifted.to_bits().wrapping_sub(ROUNDER.to_bits()) as i64;
    let clear = (noise - (shifted - ROUNDER)).abs() < 0.5 - HALF_INTEGER_MARGIN;
    (rounded, clear)
}

/// Pass three's integer add: the latency of an access whose noise-free
/// latency is `quiet` and whose outlier adds `extra`, given its lane from
/// [`round_lane`]. `None` when the lane is not clear of a half-integer or
/// the sum could reach the reference's `max(1)` clamp.
#[inline(always)]
fn lane_sum(quiet: u64, extra: u64, rounded: i64, clear: bool) -> Option<u64> {
    let sum = (quiet + extra) as i64 + rounded;
    (clear && sum >= 2).then_some(sum as u64)
}

/// Whether an access under `timing` draws from the RNG at all.
pub(crate) fn draws(timing: &TimingParams) -> bool {
    timing.noise_sigma_ns > 0.0 || timing.outlier_probability > 0.0
}

/// The noise of up to [`CHUNK`] consecutive accesses: the uniforms each
/// drew (pass one) and its lane from [`round_lanes`] (pass two).
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    u1: [f64; CHUNK],
    u2: [f64; CHUNK],
    u3: [f64; CHUNK],
    rounded: [i64; CHUNK],
    clear: [bool; CHUNK],
}

impl Chunk {
    /// An empty chunk, whose lanes draw no outlier.
    pub(crate) fn new() -> Chunk {
        Chunk {
            u1: [0.0; CHUNK],
            u2: [0.0; CHUNK],
            u3: [1.0; CHUNK],
            rounded: [0; CHUNK],
            clear: [true; CHUNK],
        }
    }

    /// Passes one and two for the next `len` accesses (at most [`CHUNK`]):
    /// draws their uniforms from `rng` in the reference's order (`u1`, `u2`
    /// when the noise is on, then the outlier draw when outliers are on),
    /// then rounds their noise.
    pub(crate) fn draw(&mut self, rng: &mut StdRng, timing: &TimingParams, len: usize) {
        let noisy = timing.noise_sigma_ns > 0.0;
        let outliers = timing.outlier_probability > 0.0;
        for lane in 0..len {
            if noisy {
                self.u1[lane] = rng.gen_range(f64::EPSILON..1.0);
                self.u2[lane] = rng.gen();
            }
            if outliers {
                self.u3[lane] = rng.gen();
            }
        }
        if noisy {
            round_lanes(
                timing.noise_sigma_ns,
                &self.u1[..len],
                &self.u2[..len],
                &mut self.rounded,
                &mut self.clear,
            );
        }
    }

    /// The rounded latency of the chunk's access `lane`, whose noise-free
    /// latency (base plus any TRR spike) is `quiet`: the reference's
    /// `(quiet + σ·z + outlier).max(1).round()`.
    #[inline(always)]
    pub(crate) fn latency(&self, lane: usize, quiet: u64, timing: &TimingParams) -> u64 {
        let outlier = self.u3[lane] < timing.outlier_probability;
        let extra = if outlier { timing.outlier_extra_ns } else { 0 };
        lane_sum(quiet, extra, self.rounded[lane], self.clear[lane])
            .unwrap_or_else(|| self.libm_latency(lane, quiet, outlier, timing))
    }

    /// The reference's latency formula, libm and operation order included,
    /// for a lane [`lane_sum`] does not trust.
    #[cold]
    #[inline(never)]
    fn libm_latency(&self, lane: usize, quiet: u64, outlier: bool, timing: &TimingParams) -> u64 {
        let mut latency = quiet as f64;
        if timing.noise_sigma_ns > 0.0 {
            latency += timing.noise_sigma_ns * rowhammer::box_muller(self.u1[lane], self.u2[lane]);
        }
        if outlier {
            latency += timing.outlier_extra_ns as f64;
        }
        latency.max(1.0).round() as u64
    }
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
    fn lane_rounding_matches_round_at_and_around_half_integers() {
        let mut cases = Vec::new();
        for k in [1i64, 2, 3, 7, 12, 50, 101, 1 << 20] {
            for k in [k, -k] {
                let half = k as f64 + 0.5;
                let margin = 2.0 * HALF_INTEGER_MARGIN;
                cases.extend([k as f64, half - margin, half + margin, ulp_up(k as f64)]);
            }
        }
        let big = ((1i64 << 50) - 1) as f64;
        cases.extend([
            big,
            -big,
            0.0,
            -0.0,
            0.5 - 2.0 * HALF_INTEGER_MARGIN,
            -0.25,
            0.499,
        ]);
        for x in cases {
            let (rounded, clear) = round_lane(x);
            assert!(clear, "x = {x:e}");
            assert_eq!(rounded, x.round() as i64, "x = {x:e}");
        }
    }

    #[test]
    fn half_integers_and_their_neighbours_fall_back() {
        for k in [-9i64, -1, 0, 1, 6, 50, 101] {
            let half = k as f64 + 0.5;
            for x in [half, ulp_up(half), ulp_down(half)] {
                let (rounded, clear) = round_lane(x);
                assert!(!clear, "x = {x:e}");
                assert_eq!(lane_sum(380, 600, rounded, clear), None);
            }
        }
        // Sums that could reach the reference's `max(1)` clamp fall back.
        assert_eq!(lane_sum(1, 0, 0, true), None);
        assert_eq!(lane_sum(200, 0, -199, true), None);
        assert_eq!(lane_sum(200, 0, -198, true), Some(2));
        assert_eq!(lane_sum(200, 600, 7, true), Some(807));
    }

    /// A chunk whose first lane holds `(u1, u2)` and draws an outlier when
    /// `outlier` is set.
    fn one_lane(sigma: f64, u1: f64, u2: f64, outlier: bool) -> Chunk {
        let mut chunk = Chunk::new();
        (chunk.u1[0], chunk.u2[0]) = (u1, u2);
        chunk.u3[0] = if outlier { 0.0 } else { 1.0 };
        round_lanes(
            sigma,
            &chunk.u1[..1],
            &chunk.u2[..1],
            &mut chunk.rounded,
            &mut chunk.clear,
        );
        chunk
    }

    #[test]
    fn a_latency_at_a_half_integer_takes_the_libm_formula() {
        // With u2 = 0 the normal is sqrt(-2 ln u1): pick u1 so that
        // 200 + 12·z lands on 206.5 to within float error.
        let timing = TimingParams::default();
        let sigma = timing.noise_sigma_ns;
        let z: f64 = 6.5 / sigma;
        let u1 = (-z * z / 2.0).exp();
        assert!((sigma * box_muller(u1, 0.0) - 6.5).abs() < 1e-12);
        for outlier in [false, true] {
            let chunk = one_lane(sigma, u1, 0.0, outlier);
            assert!(!chunk.clear[0]);
            let mut reference = 200.0 + sigma * rowhammer::box_muller(u1, 0.0);
            if outlier {
                reference += timing.outlier_extra_ns as f64;
            }
            assert_eq!(
                chunk.latency(0, 200, &timing),
                reference.max(1.0).round() as u64
            );
        }
        // A lane clear of the half-integer takes the integer add.
        let chunk = one_lane(sigma, 0.5, 0.1, true);
        assert!(chunk.clear[0]);
        let reference = 380.0 + sigma * rowhammer::box_muller(0.5, 0.1) + 600.0;
        assert_eq!(chunk.latency(0, 380, &timing), reference.round() as u64);
        // No noise and no outlier: the quiet latency itself, clamped to 1.
        let chunk = Chunk::new();
        assert_eq!(chunk.latency(0, 380, &TimingParams::noiseless()), 380);
        assert_eq!(chunk.latency(0, 0, &TimingParams::noiseless()), 1);
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

    /// Exactness sweep: the lane path against libm over 10⁸ Box–Muller
    /// draws at every reachable base/TRR/outlier level of the timing
    /// profiles. Each chunk of draws goes through [`round_lanes`], and every
    /// lane [`lane_sum`] trusts must equal the reference's rounded latency.
    /// Run with `cargo test --release -p dram-sim -- --ignored`.
    #[test]
    #[ignore = "10^8 draws; run in release"]
    fn fast_noise_rounds_like_libm_over_1e8_draws() {
        const DRAWS: usize = 100_000_000;
        let sigma = TimingParams::default().noise_sigma_ns;
        let mut levels = reachable_levels(&TimingParams::default());
        levels.extend(reachable_levels(&TimingParams::trr_noise()));
        levels.sort_unstable();
        levels.dedup();
        let mut rng = StdRng::seed_from_u64(0x5EED_B0C5);
        let (mut mismatches, mut fallbacks, mut worst) = (0u64, 0u64, 0.0f64);
        let (mut u1, mut u2) = ([0.0; CHUNK], [0.0; CHUNK]);
        let (mut rounded, mut clear) = ([0i64; CHUNK], [false; CHUNK]);
        for _ in 0..DRAWS / CHUNK {
            for lane in 0..CHUNK {
                u1[lane] = rng.gen_range(f64::EPSILON..1.0);
                u2[lane] = rng.gen();
            }
            round_lanes(sigma, &u1, &u2, &mut rounded, &mut clear);
            for lane in 0..CHUNK {
                let libm_noise = sigma * rowhammer::box_muller(u1[lane], u2[lane]);
                worst = worst.max((sigma * box_muller(u1[lane], u2[lane]) - libm_noise).abs());
                for &(base, spike, extra) in &levels {
                    // The reference's operation order: base, spike, noise, outlier.
                    let mut reference = base as f64 + spike as f64 + libm_noise;
                    if extra > 0 {
                        reference += extra as f64;
                    }
                    let want = reference.max(1.0).round() as u64;
                    match lane_sum(base + spike, extra, rounded[lane], clear[lane]) {
                        Some(latency) => mismatches += u64::from(latency != want),
                        None => fallbacks += 1,
                    }
                }
            }
        }
        println!(
            "{DRAWS} draws x {} levels: {mismatches} mismatches, {fallbacks} fallbacks, \
             worst noise error {worst:e} ns (margin {HALF_INTEGER_MARGIN:e})",
            levels.len()
        );
        assert_eq!(mismatches, 0);
        assert!(worst < HALF_INTEGER_MARGIN / 100.0, "worst error {worst:e}");
    }
}
