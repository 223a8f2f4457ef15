//! Charge-leakage model producing rowhammer bit flips.
//!
//! Real DRAM cells adjacent to frequently activated ("hammered") rows leak
//! charge and may flip before the next refresh. The model here tracks, for
//! every victim row, how many times each of its two neighbouring rows was
//! activated within the current refresh window. At the end of the window the
//! victim flips a pseudo-random number of bits whose expectation grows with
//! the aggressor pressure, is dramatically higher when *both* neighbours were
//! hammered (double-sided rowhammer) and is scaled by a per-row vulnerability
//! factor so that different victim rows behave differently, as on real chips.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use dram_model::DramAddress;

/// Parameters of the charge-leakage model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipModelParams {
    /// Activations of a single neighbour within one refresh window needed
    /// before the victim can flip at all.
    pub single_sided_threshold: u32,
    /// Activations of *each* neighbour needed for the (much stronger)
    /// double-sided effect.
    pub double_sided_threshold: u32,
    /// Number of cells per row that the model samples for flips.
    pub cells_per_row: u32,
    /// Per-cell flip probability at exactly the single-sided threshold.
    pub base_flip_probability: f64,
    /// Multiplier applied to the per-cell probability under double-sided
    /// hammering.
    pub double_sided_factor: f64,
    /// Fraction of rows that are vulnerable at all (many real rows never
    /// flip).
    pub vulnerable_row_fraction: f64,
}

impl Default for FlipModelParams {
    fn default() -> Self {
        FlipModelParams {
            single_sided_threshold: 50_000,
            double_sided_threshold: 25_000,
            cells_per_row: 8192 * 8,
            base_flip_probability: 2e-6,
            double_sided_factor: 40.0,
            vulnerable_row_fraction: 0.4,
        }
    }
}

impl FlipModelParams {
    /// Scaled-down parameters for fast experiments (see
    /// [`crate::SimConfig::fast_rowhammer`]).
    pub fn fast() -> Self {
        FlipModelParams {
            single_sided_threshold: 2_200,
            double_sided_threshold: 1_200,
            cells_per_row: 8192 * 8,
            base_flip_probability: 2e-6,
            double_sided_factor: 40.0,
            vulnerable_row_fraction: 0.4,
        }
    }
}

/// A single observed bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// Bank containing the victim row.
    pub bank: u32,
    /// Victim row index.
    pub row: u32,
    /// Byte offset of the flipped cell within the row.
    pub byte: u32,
    /// Bit index (0–7) within the byte.
    pub bit: u8,
    /// `true` for a 1→0 flip, `false` for 0→1.
    pub one_to_zero: bool,
}

/// Per-victim aggressor pressure within the current refresh window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Pressure {
    from_below: u32,
    from_above: u32,
}

/// SplitMix64-style hasher for the pressure map's `(bank, row)` keys.
///
/// `record_activation` runs on *every* row activation — tens of millions of
/// times per eval grid — and SipHash dominates its cost. Keys are two small
/// integers with no adversarial source, so one multiply-xor round is plenty.
/// Map iteration order is never observable: [`FlipModel::refresh`] drains
/// into a sorted vector before touching the RNG.
#[derive(Debug, Clone, Copy, Default)]
struct PressureHasher(u64);

impl std::hash::Hasher for PressureHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
}

type PressureMap = HashMap<(u32, u32), Pressure, std::hash::BuildHasherDefault<PressureHasher>>;

/// The rowhammer charge-leakage model.
///
/// Owned by the [`crate::MemoryController`], which reports every row
/// activation; flips are materialised when the controller refreshes.
#[derive(Debug, Clone)]
pub struct FlipModel {
    params: FlipModelParams,
    /// Aggressor pressure per victim (bank, row) in the current window.
    pressure: PressureMap,
    /// Flips accumulated since the last [`FlipModel::take_flips`].
    flips: Vec<BitFlip>,
    rows_per_bank: u32,
}

impl FlipModel {
    /// Creates a model for banks with `rows_per_bank` rows each.
    pub fn new(params: FlipModelParams, rows_per_bank: u32) -> Self {
        FlipModel {
            params,
            pressure: PressureMap::default(),
            flips: Vec::new(),
            rows_per_bank,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &FlipModelParams {
        &self.params
    }

    /// Records one activation of `row` in `bank`, pressuring its neighbours.
    pub fn record_activation(&mut self, bank: u32, row: u32) {
        self.record_activations(bank, row, 1);
    }

    /// Records `count` activations of `row` in `bank` at once: the same
    /// pressure as `count` calls of [`FlipModel::record_activation`], and
    /// none at all (no map entry) when `count` is 0.
    pub(crate) fn record_activations(&mut self, bank: u32, row: u32, count: u32) {
        if count == 0 {
            return;
        }
        if row > 0 {
            self.pressure.entry((bank, row - 1)).or_default().from_above += count;
        }
        if row + 1 < self.rows_per_bank {
            self.pressure.entry((bank, row + 1)).or_default().from_below += count;
        }
    }

    /// Current aggressor pressure on a victim row (for tests and debugging).
    pub fn pressure_on(&self, bank: u32, row: u32) -> (u32, u32) {
        let p = self.pressure.get(&(bank, row)).copied().unwrap_or_default();
        (p.from_below, p.from_above)
    }

    /// Deterministic per-row vulnerability factor in `[0, 1]`.
    ///
    /// A fixed hash of (bank, row) decides whether the row is vulnerable at
    /// all and, if so, how strongly — mimicking the cell-level variation of
    /// real DIMMs while staying reproducible across runs.
    pub fn row_vulnerability(&self, bank: u32, row: u32) -> f64 {
        let h = split_mix64((u64::from(bank) << 32) ^ u64::from(row) ^ 0x9E37_79B9_7F4A_7C15);
        let uniform = (h >> 11) as f64 / (1u64 << 53) as f64;
        if uniform > self.params.vulnerable_row_fraction {
            0.0
        } else {
            // Rescale the vulnerable fraction to (0, 1]; more vulnerable rows
            // are rarer.
            let x = uniform / self.params.vulnerable_row_fraction;
            (1.0 - x).powi(2).max(0.05)
        }
    }

    /// Ends the current refresh window: every pressured victim row is
    /// refreshed, and flips are sampled for rows whose aggressor pressure
    /// exceeded the thresholds.
    pub fn refresh(&mut self, rng: &mut StdRng) {
        let params = self.params;
        let double_sided = |p: &Pressure| {
            p.from_below >= params.double_sided_threshold
                && p.from_above >= params.double_sided_threshold
        };
        let single_sided =
            |p: &Pressure| p.from_below.max(p.from_above) >= params.single_sided_threshold;
        // Only rows at or above a threshold ever draw from the RNG, so the
        // (usually far more numerous) rows below both are dropped before
        // the sort without changing the flip record.
        let mut victims: Vec<((u32, u32), Pressure)> = self
            .pressure
            .drain()
            .filter(|(_, p)| double_sided(p) || single_sided(p))
            .collect();
        // The map iterates in a per-instance random order; flips must be
        // sampled in a fixed order so the RNG stream — and therefore the
        // whole flip record — is a deterministic function of the access
        // sequence, exactly like the timing channel.
        victims.sort_unstable_by_key(|&(key, _)| key);
        for ((bank, row), p) in victims {
            let vulnerability = self.row_vulnerability(bank, row);
            if vulnerability == 0.0 {
                continue;
            }
            let double = double_sided(&p);
            let pressure_total = f64::from(p.from_below + p.from_above);
            let threshold = if double {
                f64::from(params.double_sided_threshold * 2)
            } else {
                f64::from(params.single_sided_threshold)
            };
            let overdrive = (pressure_total / threshold).min(4.0);
            let mut prob = params.base_flip_probability * overdrive * vulnerability;
            if double {
                prob *= params.double_sided_factor;
            }
            let expected = prob * f64::from(params.cells_per_row);
            let count = sample_poisson(rng, expected);
            for _ in 0..count {
                self.flips.push(BitFlip {
                    bank,
                    row,
                    byte: rng.gen_range(0..params.cells_per_row / 8),
                    bit: rng.gen_range(0..8),
                    one_to_zero: rng.gen_bool(0.5),
                });
            }
        }
    }

    /// Returns and clears the flips accumulated so far.
    pub fn take_flips(&mut self) -> Vec<BitFlip> {
        std::mem::take(&mut self.flips)
    }

    /// Flips accumulated so far without clearing them.
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Number of victim rows currently under pressure (for statistics).
    pub fn pressured_rows(&self) -> usize {
        self.pressure.len()
    }

    /// Discards the aggressor pressure accumulated in the current refresh
    /// window without evaluating it for flips (models an idle period long
    /// enough for a full refresh cycle to pass unobserved).
    pub fn clear_pressure(&mut self) {
        self.pressure.clear();
    }
}

/// Flips observed in DRAM coordinates convertible back to physical addresses
/// by the caller if needed.
impl BitFlip {
    /// DRAM coordinates (bank, row, byte column) of the flip.
    pub fn dram_address(&self) -> DramAddress {
        DramAddress::new(self.bank, self.row, self.byte)
    }
}

fn split_mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a Poisson-distributed count with the given mean using inversion
/// for small means and a normal approximation for large means.
fn sample_poisson(rng: &mut StdRng, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product: f64 = 1.0;
        let mut count = 0u32;
        loop {
            product *= rng.gen::<f64>();
            if product <= limit {
                return count;
            }
            count += 1;
            if count > 10_000 {
                return count;
            }
        }
    } else {
        // Normal approximation with continuity correction.
        let sample = mean + mean.sqrt() * sample_standard_normal(rng);
        sample.round().max(0.0) as u32
    }
}

/// Box–Muller standard normal sample: two uniform draws, then
/// [`box_muller`]. This is the reference noise source of
/// [`crate::MemoryController::access_decoded`]; the alternating-pair kernel
/// makes the same two draws and computes the transform without libm
/// (`crate::noise`), and its tests compare against this function.
pub(crate) fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    box_muller(u1, u2)
}

/// The Box–Muller transform with the platform's `ln` and `cos`, in the
/// reference operation order.
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn fast_model() -> FlipModel {
        FlipModel::new(FlipModelParams::fast(), 1 << 15)
    }

    #[test]
    fn activation_pressures_both_neighbours() {
        let mut m = fast_model();
        m.record_activation(3, 100);
        assert_eq!(m.pressure_on(3, 99), (0, 1));
        assert_eq!(m.pressure_on(3, 101), (1, 0));
        assert_eq!(m.pressure_on(3, 100), (0, 0));
        assert_eq!(m.pressure_on(2, 99), (0, 0));
    }

    #[test]
    fn edge_rows_have_single_neighbour() {
        let mut m = FlipModel::new(FlipModelParams::fast(), 8);
        m.record_activation(0, 0);
        m.record_activation(0, 7);
        assert_eq!(m.pressure_on(0, 1), (1, 0));
        assert_eq!(m.pressure_on(0, 6), (0, 1));
        // No pressure recorded outside the bank.
        assert_eq!(m.pressured_rows(), 2);
    }

    #[test]
    fn flip_sampling_is_deterministic_across_model_instances() {
        // Two freshly built models have hash maps with different random
        // states; pressuring several victims and refreshing with identical
        // RNGs must still produce identical flip records (the sort in
        // `refresh` pins the sampling order).
        let runs: Vec<Vec<BitFlip>> = (0..2)
            .map(|_| {
                let mut m = fast_model();
                let mut r = rng();
                for row in [100u32, 400, 900, 2_000, 5_000] {
                    for _ in 0..2_000 {
                        m.record_activation(0, row - 1);
                        m.record_activation(0, row + 1);
                    }
                }
                m.refresh(&mut r);
                m.take_flips()
            })
            .collect();
        assert!(!runs[0].is_empty());
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn no_flips_below_threshold() {
        let mut m = fast_model();
        let mut r = rng();
        for _ in 0..100 {
            m.record_activation(0, 500);
        }
        m.refresh(&mut r);
        assert!(m.flips().is_empty());
    }

    #[test]
    fn double_sided_hammering_flips_vulnerable_rows() {
        let mut m = fast_model();
        let mut r = rng();
        let params = *m.params();
        // Find a vulnerable victim row, then hammer both neighbours hard.
        let victim = (0..10_000u32)
            .find(|&row| m.row_vulnerability(0, row) > 0.3)
            .expect("some rows must be vulnerable");
        for _ in 0..params.double_sided_threshold * 4 {
            m.record_activation(0, victim - 1);
            m.record_activation(0, victim + 1);
        }
        m.refresh(&mut r);
        let flips = m.take_flips();
        assert!(
            !flips.is_empty(),
            "double-sided hammering of a vulnerable row must flip bits"
        );
        assert!(flips.iter().all(|f| f.row == victim && f.bank == 0));
    }

    #[test]
    fn double_sided_beats_single_sided() {
        let params = FlipModelParams::fast();
        let victim = {
            let probe = FlipModel::new(params, 1 << 15);
            (0..10_000u32)
                .find(|&row| probe.row_vulnerability(0, row) > 0.3)
                .unwrap()
        };
        let activations = params.single_sided_threshold * 4;

        let mut total_double = 0usize;
        let mut total_single = 0usize;
        for seed in 0..8u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let mut m = FlipModel::new(params, 1 << 15);
            for _ in 0..activations {
                m.record_activation(0, victim - 1);
                m.record_activation(0, victim + 1);
            }
            m.refresh(&mut r);
            total_double += m.take_flips().len();

            let mut r = StdRng::seed_from_u64(seed);
            let mut m = FlipModel::new(params, 1 << 15);
            for _ in 0..activations * 2 {
                m.record_activation(0, victim - 1);
            }
            m.refresh(&mut r);
            total_single += m.take_flips().len();
        }
        assert!(
            total_double > total_single * 3,
            "double-sided ({total_double}) should far exceed single-sided ({total_single})"
        );
    }

    #[test]
    fn refresh_clears_pressure() {
        let mut m = fast_model();
        let mut r = rng();
        m.record_activation(1, 10);
        assert_eq!(m.pressured_rows(), 2);
        m.refresh(&mut r);
        assert_eq!(m.pressured_rows(), 0);
    }

    #[test]
    fn vulnerability_is_deterministic_and_bounded() {
        let m = fast_model();
        let mut vulnerable = 0usize;
        for row in 0..2000u32 {
            let v1 = m.row_vulnerability(2, row);
            let v2 = m.row_vulnerability(2, row);
            assert_eq!(v1, v2);
            assert!((0.0..=1.0).contains(&v1));
            if v1 > 0.0 {
                vulnerable += 1;
            }
        }
        // Roughly the configured fraction of rows should be vulnerable.
        let frac = vulnerable as f64 / 2000.0;
        assert!(frac > 0.2 && frac < 0.6, "vulnerable fraction {frac}");
    }

    #[test]
    fn take_flips_drains() {
        let mut m = fast_model();
        let mut r = rng();
        let victim = (0..10_000u32)
            .find(|&row| m.row_vulnerability(0, row) > 0.3)
            .unwrap();
        for _ in 0..m.params().double_sided_threshold * 4 {
            m.record_activation(0, victim - 1);
            m.record_activation(0, victim + 1);
        }
        m.refresh(&mut r);
        let first = m.take_flips();
        assert!(!first.is_empty());
        assert!(m.take_flips().is_empty());
    }

    #[test]
    fn poisson_sampler_mean_is_reasonable() {
        let mut r = rng();
        for &mean in &[0.5f64, 3.0, 20.0, 100.0] {
            let n = 3000;
            let total: u64 = (0..n)
                .map(|_| u64::from(sample_poisson(&mut r, mean)))
                .sum();
            let observed = total as f64 / n as f64;
            assert!(
                (observed - mean).abs() < mean.max(1.0) * 0.15 + 0.2,
                "mean {mean}: observed {observed}"
            );
        }
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
