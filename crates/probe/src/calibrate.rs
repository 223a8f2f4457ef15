//! Latency calibration: separating row-buffer conflicts from ordinary hits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dram_model::PAGE_SIZE;

use crate::error::ProbeError;
use crate::probe::MemoryProbe;

/// Result of calibrating a probe: the latency threshold above which a pair
/// of addresses is considered same-bank-different-row (SBDR).
///
/// Calibration samples random page-aligned address pairs (which by
/// construction fall in the same bank with probability ≈ 1/#banks), then
/// splits the observed latencies into two clusters with 1-D 2-means and uses
/// the midpoint of the cluster centres as the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyCalibration {
    threshold_ns: u64,
    low_mean_ns: f64,
    high_mean_ns: f64,
    samples: usize,
}

impl LatencyCalibration {
    /// Calibrates by measuring `samples` random address pairs from the
    /// probe's page pool.
    ///
    /// # Errors
    ///
    /// * [`ProbeError::PoolTooSmall`] if fewer than two pages are available.
    /// * [`ProbeError::CalibrationFailed`] if the latency distribution does
    ///   not separate into two clusters (e.g. a probe that returns constant
    ///   values).
    pub fn calibrate<P: MemoryProbe>(
        probe: &mut P,
        samples: usize,
        seed: u64,
    ) -> Result<Self, ProbeError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let memory = probe.memory().clone();
        if memory.len() < 2 {
            return Err(ProbeError::PoolTooSmall {
                available: memory.len(),
                required: 2,
            });
        }
        let mut latencies = Vec::with_capacity(samples);
        for _ in 0..samples {
            let a = memory
                .random_page(&mut rng)
                .expect("pool checked to be non-empty");
            let mut b = memory
                .random_page(&mut rng)
                .expect("pool checked to be non-empty");
            if a == b {
                b = b + (PAGE_SIZE / 2);
            }
            latencies.push(probe.measure_pair(a, b));
        }
        Self::from_latencies(&latencies)
    }

    /// Calibrates adaptively: measures random pairs in chunks of
    /// `chunk_size` and stops as soon as two consecutive chunks produce a
    /// threshold within 2% of each other, instead of always paying for
    /// `max_samples` measurements.
    ///
    /// On a probe whose two latency clusters separate cleanly (every machine
    /// in Table II) the threshold converges after a small multiple of
    /// `chunk_size`, cutting the calibration phase's measurement budget by
    /// several times with the same resulting threshold quality. The full
    /// budget `max_samples` is only spent when the distribution is noisy
    /// enough to keep the estimate moving.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LatencyCalibration::calibrate`]: a too-small
    /// page pool or a latency distribution that never separates into two
    /// clusters within the budget.
    pub fn calibrate_adaptive<P: MemoryProbe>(
        probe: &mut P,
        max_samples: usize,
        chunk_size: usize,
        seed: u64,
    ) -> Result<Self, ProbeError> {
        assert!(chunk_size >= 2, "chunk size must be at least 2");
        let mut rng = StdRng::seed_from_u64(seed);
        let memory = probe.memory().clone();
        if memory.len() < 2 {
            return Err(ProbeError::PoolTooSmall {
                available: memory.len(),
                required: 2,
            });
        }
        let mut latencies = Vec::with_capacity(chunk_size * 2);
        let mut last_threshold: Option<u64> = None;
        let mut last_error = None;
        while latencies.len() < max_samples {
            let budget = chunk_size.min(max_samples - latencies.len());
            for _ in 0..budget {
                let a = memory
                    .random_page(&mut rng)
                    .expect("pool checked to be non-empty");
                let mut b = memory
                    .random_page(&mut rng)
                    .expect("pool checked to be non-empty");
                if a == b {
                    b = b + (PAGE_SIZE / 2);
                }
                latencies.push(probe.measure_pair(a, b));
            }
            match Self::from_latencies(&latencies) {
                Ok(cal) => {
                    if let Some(prev) = last_threshold {
                        let delta = cal.threshold_ns.abs_diff(prev);
                        if u128::from(delta) * 50 <= u128::from(prev) {
                            return Ok(cal);
                        }
                    }
                    last_threshold = Some(cal.threshold_ns);
                    last_error = None;
                }
                Err(e) => {
                    // Both clusters may not be represented yet; keep
                    // sampling until the budget runs out.
                    last_threshold = None;
                    last_error = Some(e);
                }
            }
        }
        match last_error {
            Some(e) => Err(e),
            None => Self::from_latencies(&latencies),
        }
    }

    /// Builds a calibration directly from a set of observed latencies.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::CalibrationFailed`] when the sample is empty or
    /// the two clusters are not separated by at least 10% of the low mean.
    pub fn from_latencies(latencies: &[u64]) -> Result<Self, ProbeError> {
        if latencies.is_empty() {
            return Err(ProbeError::CalibrationFailed {
                reason: "no latency samples".into(),
            });
        }
        let min = *latencies.iter().min().expect("non-empty") as f64;
        let max = *latencies.iter().max().expect("non-empty") as f64;
        if max - min < 1.0 {
            return Err(ProbeError::CalibrationFailed {
                reason: "all latency samples are identical".into(),
            });
        }
        // 1-D 2-means clustering, initialised at the extremes.
        let mut low = min;
        let mut high = max;
        for _ in 0..32 {
            let mid = (low + high) / 2.0;
            let (mut low_sum, mut low_n, mut high_sum, mut high_n) = (0.0f64, 0u64, 0.0f64, 0u64);
            for &l in latencies {
                let l = l as f64;
                if l < mid {
                    low_sum += l;
                    low_n += 1;
                } else {
                    high_sum += l;
                    high_n += 1;
                }
            }
            if low_n == 0 || high_n == 0 {
                break;
            }
            let new_low = low_sum / low_n as f64;
            let new_high = high_sum / high_n as f64;
            if (new_low - low).abs() < 0.5 && (new_high - high).abs() < 0.5 {
                low = new_low;
                high = new_high;
                break;
            }
            low = new_low;
            high = new_high;
        }
        if high - low < low * 0.10 {
            return Err(ProbeError::CalibrationFailed {
                reason: format!("latency clusters not separated (low {low:.1}, high {high:.1})"),
            });
        }
        Ok(LatencyCalibration {
            threshold_ns: ((low + high) / 2.0).round() as u64,
            low_mean_ns: low,
            high_mean_ns: high,
            samples: latencies.len(),
        })
    }

    /// Builds a calibration from a known threshold (oracle threshold in
    /// tests, or a user-supplied value on hardware).
    pub fn from_threshold(threshold_ns: u64) -> Self {
        LatencyCalibration {
            threshold_ns,
            low_mean_ns: threshold_ns as f64 * 0.8,
            high_mean_ns: threshold_ns as f64 * 1.2,
            samples: 0,
        }
    }

    /// The conflict threshold in nanoseconds: a latency at or above it is a
    /// row-buffer conflict (same bank, different rows).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Mean latency of the non-conflict (row hit) cluster.
    pub fn low_mean_ns(&self) -> f64 {
        self.low_mean_ns
    }

    /// Mean latency of the conflict cluster.
    pub fn high_mean_ns(&self) -> f64 {
        self.high_mean_ns
    }

    /// Number of samples used during calibration.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_probe::SimProbe;
    use dram_model::MachineSetting;
    use dram_sim::{PhysMemory, SimConfig, SimMachine};

    #[test]
    fn from_latencies_separates_two_clusters() {
        let mut samples = vec![200u64; 90];
        samples.extend(vec![380u64; 10]);
        let cal = LatencyCalibration::from_latencies(&samples).unwrap();
        assert!(cal.threshold_ns() > 200 && cal.threshold_ns() < 380);
        assert_eq!(cal.samples(), 100);
        assert!(cal.low_mean_ns() < cal.high_mean_ns());
    }

    #[test]
    fn from_latencies_rejects_degenerate_input() {
        assert!(LatencyCalibration::from_latencies(&[]).is_err());
        assert!(LatencyCalibration::from_latencies(&[250; 50]).is_err());
        // Two values that are too close together to be separate clusters.
        let mut close = vec![250u64; 50];
        close.extend(vec![255u64; 50]);
        assert!(LatencyCalibration::from_latencies(&close).is_err());
    }

    #[test]
    fn from_threshold_is_direct() {
        let cal = LatencyCalibration::from_threshold(300);
        assert_eq!(cal.threshold_ns(), 300);
    }

    #[test]
    fn calibrate_on_simulated_machine_brackets_true_latencies() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let timing = machine.controller().config().timing;
        // A modest pool is plenty: random page pairs hit the same bank with
        // probability 1/8 on this machine.
        let memory = PhysMemory::full(256 << 20);
        let mut probe = SimProbe::new(machine, memory);
        let cal = LatencyCalibration::calibrate(&mut probe, 400, 11).unwrap();
        assert!(cal.threshold_ns() > timing.row_hit_ns);
        assert!(cal.threshold_ns() < timing.row_conflict_ns);
    }

    #[test]
    fn adaptive_calibration_converges_early_with_same_quality() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let timing = machine.controller().config().timing;
        let memory = PhysMemory::full(256 << 20);
        let mut probe = SimProbe::new(machine, memory);
        let before = probe.stats().measurements;
        let cal = LatencyCalibration::calibrate_adaptive(&mut probe, 400, 40, 11).unwrap();
        let spent = probe.stats().measurements - before;
        assert!(cal.threshold_ns() > timing.row_hit_ns);
        assert!(cal.threshold_ns() < timing.row_conflict_ns);
        assert!(
            spent < 400,
            "adaptive calibration should converge before the full budget ({spent})"
        );
    }

    #[test]
    fn adaptive_calibration_propagates_degenerate_distributions() {
        // A one-bank pool cannot be built here, but an exhausted budget over
        // a pool too small to sample still errors out cleanly.
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let memory = PhysMemory::from_frames(vec![1], 16);
        let mut probe = SimProbe::new(machine, memory);
        assert!(matches!(
            LatencyCalibration::calibrate_adaptive(&mut probe, 40, 10, 0),
            Err(ProbeError::PoolTooSmall { .. })
        ));
    }

    #[test]
    fn calibrate_rejects_tiny_pool() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let memory = PhysMemory::from_frames(vec![1], 16);
        let mut probe = SimProbe::new(machine, memory);
        assert!(matches!(
            LatencyCalibration::calibrate(&mut probe, 10, 0),
            Err(ProbeError::PoolTooSmall { .. })
        ));
    }
}
