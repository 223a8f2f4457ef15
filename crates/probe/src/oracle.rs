//! A probe + calibration bundle answering the SBDR question directly.

use dram_model::PhysAddr;

use crate::cache::ConflictCache;
use crate::calibrate::LatencyCalibration;
use crate::probe::{MemoryProbe, ProbeStats};

/// One batched [`ConflictOracle::are_sbdr`] call, as recorded by the
/// opt-in batch log ([`ConflictOracle::with_batch_log`]).
///
/// The record is plain accounting data — the probe crate knows nothing
/// about tracing. The pipeline engine drains these after each phase and
/// adapts them onto telemetry events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Pairs the caller asked about.
    pub pairs: u32,
    /// Pairs answered from the conflict cache without measuring.
    pub cached: u32,
    /// Probe measurements issued (one per uncached pair).
    pub measured: u32,
}

/// Combines a [`MemoryProbe`] with a [`LatencyCalibration`] so that callers
/// can ask the binary question the algorithms actually need: *are these two
/// addresses in the same bank but different rows?*
///
/// Every reverse-engineering tool in this workspace (DRAMDig and the
/// baselines) is written against this type, which keeps their measurement
/// budget accounting in one place. Each query is one measurement compared
/// against the calibrated threshold; an optional [`ConflictCache`]
/// ([`ConflictOracle::with_cache`]) answers repeated queries about the same
/// unordered pair without re-timing it.
#[derive(Debug)]
pub struct ConflictOracle<P> {
    probe: P,
    calibration: LatencyCalibration,
    cache: Option<ConflictCache>,
    batch_log: Option<Vec<BatchRecord>>,
}

impl<P: MemoryProbe> ConflictOracle<P> {
    /// Creates an oracle from a probe and its calibration.
    pub fn new(probe: P, calibration: LatencyCalibration) -> Self {
        ConflictOracle {
            probe,
            calibration,
            cache: None,
            batch_log: None,
        }
    }

    /// Attaches a [`ConflictCache`] so repeated queries about the same
    /// unordered pair are not re-timed.
    pub fn with_cache(mut self, cache: ConflictCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Starts recording one [`BatchRecord`] per [`ConflictOracle::are_sbdr`]
    /// call. Off by default: a disabled log is a `None` check on the batch
    /// path and costs no measurements either way — classification is
    /// untouched.
    pub fn with_batch_log(mut self, enabled: bool) -> Self {
        self.batch_log = if enabled { Some(Vec::new()) } else { None };
        self
    }

    /// Drains the recorded batch log (empty when logging is disabled).
    /// Logging stays enabled afterwards, so callers can drain per phase.
    pub fn take_batch_records(&mut self) -> Vec<BatchRecord> {
        match &mut self.batch_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &LatencyCalibration {
        &self.calibration
    }

    /// Replaces the calibration. The pipeline engine constructs the oracle
    /// before its calibration phase has run (so the cache and accounting
    /// exist from the first measurement) and installs the threshold here —
    /// either freshly measured or restored from a checkpoint.
    pub fn set_calibration(&mut self, calibration: LatencyCalibration) {
        self.calibration = calibration;
    }

    /// The underlying probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Exclusive access to the underlying probe.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the oracle and returns the probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The attached conflict cache, if any.
    pub fn cache(&self) -> Option<&ConflictCache> {
        self.cache.as_ref()
    }

    /// Exclusive access to the attached conflict cache, if any: the
    /// pipeline engine restores a checkpointed log through it and empties
    /// the memo at phase boundaries, and Algorithm 2 opens its sweeps.
    pub fn cache_mut(&mut self) -> Option<&mut ConflictCache> {
        self.cache.as_mut()
    }

    /// Cost accounting so far: the probe's counters plus the cache's
    /// hit/miss counters (zero when no cache is attached).
    pub fn stats(&self) -> ProbeStats {
        let mut stats = self.probe.stats();
        if let Some(cache) = &self.cache {
            stats.cache_hits = cache.hits();
            stats.cache_misses = cache.misses();
        }
        stats
    }

    /// Measures a pair once and returns the raw latency (always hits the
    /// probe; raw latencies are not cacheable classifications).
    pub fn latency(&mut self, a: PhysAddr, b: PhysAddr) -> u64 {
        self.probe.measure_pair(a, b)
    }

    /// Returns `true` if `a` and `b` are observed to be in the same bank but
    /// different rows (high latency / row-buffer conflict): one
    /// [`MemoryProbe::reaches_threshold`] against the calibrated threshold.
    pub fn is_sbdr(&mut self, a: PhysAddr, b: PhysAddr) -> bool {
        if let Some(cache) = &mut self.cache {
            if let Some(cached) = cache.lookup(a, b) {
                return cached;
            }
        }
        self.classify(a, b)
    }

    /// Asks the probe about an uncached pair and records the verdict.
    fn classify(&mut self, a: PhysAddr, b: PhysAddr) -> bool {
        let threshold = self.calibration.threshold_ns();
        let verdict = self.probe.reaches_threshold(a, b, threshold);
        if let Some(cache) = &mut self.cache {
            cache.record(a, b, verdict);
        }
        verdict
    }

    /// Classifies a batch of pairs, returning one SBDR verdict per pair in
    /// input order.
    ///
    /// Every pair is looked up in the cache first; then each uncached pair,
    /// in input order, is asked of the probe through
    /// [`MemoryProbe::reaches_threshold`] and recorded. The measurement
    /// order and count are those of the per-pair [`ConflictOracle::is_sbdr`]
    /// loop, so checkpointed runs and golden scoreboards see the same
    /// stream.
    pub fn are_sbdr(&mut self, pairs: &[(PhysAddr, PhysAddr)]) -> Vec<bool> {
        let mut verdicts: Vec<Option<bool>> = pairs
            .iter()
            .map(|&(a, b)| self.cache.as_mut().and_then(|cache| cache.lookup(a, b)))
            .collect();
        let mut measured = 0;
        for (verdict, &(a, b)) in verdicts.iter_mut().zip(pairs) {
            if verdict.is_none() {
                *verdict = Some(self.classify(a, b));
                measured += 1;
            }
        }
        if let Some(log) = &mut self.batch_log {
            log.push(BatchRecord {
                pairs: pairs.len() as u32,
                cached: (pairs.len() - measured) as u32,
                measured: measured as u32,
            });
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every pair is either cached or measured"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_probe::SimProbe;
    use dram_model::{DramAddress, MachineSetting};
    use dram_sim::{PhysMemory, SimConfig, SimMachine};

    fn oracle(noise: bool) -> ConflictOracle<SimProbe> {
        let setting = MachineSetting::no7_skylake_ddr4_4g();
        let config = if noise {
            SimConfig::default()
        } else {
            SimConfig::noiseless()
        };
        let machine = SimMachine::from_setting(&setting, config);
        let timing = machine.controller().config().timing;
        let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
        ConflictOracle::new(
            probe,
            LatencyCalibration::from_threshold(timing.oracle_threshold_ns()),
        )
    }

    #[test]
    fn oracle_agrees_with_ground_truth() {
        let mut o = oracle(false);
        let truth = o.probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(3, 50, 0)).unwrap();
        let sbdr = truth.to_phys(DramAddress::new(3, 70, 0)).unwrap();
        let same_row = truth.to_phys(DramAddress::new(3, 50, 128)).unwrap();
        let other_bank = truth.to_phys(DramAddress::new(6, 50, 0)).unwrap();
        assert!(o.is_sbdr(a, sbdr));
        assert!(!o.is_sbdr(a, same_row));
        assert!(!o.is_sbdr(a, other_bank));
    }

    #[test]
    fn cache_answers_repeat_queries_without_measuring() {
        let mut o = oracle(false).with_cache(ConflictCache::new(1024));
        let truth = o.probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(0, 1, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(0, 900, 0)).unwrap();
        assert!(o.is_sbdr(a, b));
        let after_first = o.stats().measurements;
        // Same pair in both orders: answered from the cache.
        assert!(o.is_sbdr(a, b));
        assert!(o.is_sbdr(b, a));
        let stats = o.stats();
        assert_eq!(stats.measurements, after_first);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert!(o.cache().is_some());
    }

    #[test]
    fn batched_queries_mix_cache_and_measurements() {
        let mut o = oracle(false).with_cache(ConflictCache::new(1024));
        let truth = o.probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(3, 5, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(3, 77, 0)).unwrap();
        let c = truth.to_phys(DramAddress::new(5, 5, 0)).unwrap();
        assert!(o.is_sbdr(a, b)); // warm the cache with one pair
        let verdicts = o.are_sbdr(&[(b, a), (a, c), (a, b)]);
        assert_eq!(verdicts, vec![true, false, true]);
        let stats = o.stats();
        assert_eq!(stats.measurements, 2, "only (a, c) needed a measurement");
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn batched_queries_without_cache_match_single_queries() {
        // Same noisy machine, same seed: the batch must reproduce the exact
        // measurement stream of the per-pair loop.
        let mut batched = oracle(true);
        let mut single = oracle(true);
        let truth = batched.probe().machine().ground_truth().clone();
        let pairs: Vec<(PhysAddr, PhysAddr)> = (0u32..6)
            .map(|i| {
                (
                    truth.to_phys(DramAddress::new(i % 4, 3, 0)).unwrap(),
                    truth.to_phys(DramAddress::new(2, 9 + i, 0)).unwrap(),
                )
            })
            .collect();
        let expected: Vec<bool> = pairs.iter().map(|&(a, b)| single.is_sbdr(a, b)).collect();
        assert_eq!(batched.are_sbdr(&pairs), expected);
        let b = batched.stats();
        let s = single.stats();
        assert_eq!(b.measurements, s.measurements);
        assert_eq!(b.elapsed_ns, s.elapsed_ns, "identical latency stream");
    }

    #[test]
    fn batch_log_records_without_perturbing_measurements() {
        let truth = oracle(false).probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(3, 5, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(3, 77, 0)).unwrap();
        let c = truth.to_phys(DramAddress::new(5, 5, 0)).unwrap();

        let mut plain = oracle(false).with_cache(ConflictCache::new(64));
        let mut logged = oracle(false)
            .with_cache(ConflictCache::new(64))
            .with_batch_log(true);
        assert!(
            plain.take_batch_records().is_empty(),
            "disabled log is empty"
        );

        plain.is_sbdr(a, b);
        logged.is_sbdr(a, b);
        let expected = plain.are_sbdr(&[(b, a), (a, c)]);
        assert_eq!(logged.are_sbdr(&[(b, a), (a, c)]), expected);
        assert_eq!(
            logged.stats().measurements,
            plain.stats().measurements,
            "logging must not change the measurement stream"
        );
        let records = logged.take_batch_records();
        assert_eq!(
            records,
            vec![BatchRecord {
                pairs: 2,
                cached: 1,
                measured: 1,
            }]
        );
        assert!(logged.take_batch_records().is_empty(), "drained");
    }

    #[test]
    fn stats_accumulate_through_oracle() {
        let mut o = oracle(false);
        let truth = o.probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(0, 1, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(0, 2, 0)).unwrap();
        let before = o.stats().measurements;
        o.is_sbdr(a, b);
        o.latency(a, b);
        assert_eq!(o.stats().measurements, before + 2);
    }
}
