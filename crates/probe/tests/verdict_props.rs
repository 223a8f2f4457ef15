//! Differential properties of the SBDR verdict path.
//!
//! [`SimProbe`] answers [`MemoryProbe::reaches_threshold`] by counting the
//! samples below the threshold instead of selecting their median. On two
//! clones of one probe, the verdict must equal `measure_pair(a, b) >= T` for
//! every threshold that can split the samples, and the two clones must be in
//! the same state afterwards. One level up, [`ConflictOracle::is_sbdr`] and
//! [`ConflictOracle::are_sbdr`] must answer, count, cache and log exactly as
//! a reference loop of `measure_pair(a, b) >= threshold` does.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;

use dram_model::{DramAddress, MachineClass, MachineGen, PhysAddr};
use dram_sim::{PhysMemory, SimConfig, SimMachine, TimingParams};
use mem_probe::{
    BatchRecord, ConflictCache, ConflictOracle, LatencyCalibration, MemoryProbe, ProbeStats,
    SimProbe,
};

/// The noise profiles every tool meets: none, the default noise, the TRR
/// sampler and an elevated outlier rate.
fn profiles() -> [SimConfig; 4] {
    [
        SimConfig::noiseless(),
        SimConfig::default(),
        SimConfig::trr_noise(),
        SimConfig {
            timing: TimingParams {
                outlier_probability: 0.05,
                ..TimingParams::default()
            },
            ..SimConfig::default()
        },
    ]
}

const ROUNDS: [u32; 3] = [1, 12, 16];

fn probe(seed: u64, remap: bool, profile: usize, rounds: u32) -> SimProbe {
    let class = if remap {
        MachineClass::RowRemap
    } else {
        MachineClass::InScope
    };
    let machine = SimMachine::from_generated(
        &MachineGen::new(seed).generate(class),
        profiles()[profile].clone(),
    );
    let capacity = machine.ground_truth().capacity_bytes();
    SimProbe::new(machine, PhysMemory::full(capacity)).with_rounds(rounds)
}

/// A pair of the given shape on `p`'s mapping: same bank different rows,
/// same row, another bank, or two unrelated addresses.
fn pair(p: &SimProbe, shape: u8, pick: u64) -> (PhysAddr, PhysAddr) {
    let m = p.machine().ground_truth();
    let (banks, rows, cols) = (
        u64::from(m.num_banks()),
        u64::from(m.num_rows()),
        u64::from(m.num_columns()),
    );
    let bank = (pick % banks) as u32;
    let row = ((pick >> 8) % rows) as u32;
    let col = ((pick >> 40) % cols) as u32 & !7;
    let at = |bank: u32, row: u32, col: u32| m.to_phys(DramAddress::new(bank, row, col)).unwrap();
    let other_row = (row + 1 + (pick >> 24) as u32 % 97) % rows as u32;
    match shape {
        0 => (at(bank, row, col), at(bank, other_row, col)),
        1 => (at(bank, row, col), at(bank, row, (col + 64) % cols as u32)),
        2 => (at(bank, row, col), at((bank + 1) % banks as u32, row, col)),
        _ => {
            let other = (pick.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) % m.capacity_bytes();
            (at(bank, row, col), PhysAddr::new(other & !7))
        }
    }
}

/// The `2·rounds` non-warm-up samples the probe's next measurement of
/// `(a, b)` sees, taken on a clone.
fn samples(p: &SimProbe, (a, b): (PhysAddr, PhysAddr)) -> Vec<u64> {
    let mut machine = p.machine().clone();
    let controller = machine.controller_mut();
    controller.close_all_rows();
    let mut latencies = Vec::new();
    controller.access_alternating(a, b, 2 * u64::from(p.rounds()) + 1, |l| latencies.push(l));
    latencies.remove(0);
    latencies
}

/// Every threshold that can split `samples`: each value, one either side of
/// it, and both ends of the range.
fn thresholds(samples: &[u64]) -> BTreeSet<u64> {
    let mut ts: BTreeSet<u64> = [0, u64::MAX].into();
    for &s in samples {
        ts.extend([s.saturating_sub(1), s, s.saturating_add(1)]);
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verdict_equals_the_median_compare(
        seed in 0u64..1 << 20,
        remap in any::<bool>(),
        profile in 0usize..4,
        rounds in 0usize..3,
        warm in 0usize..40,
        picks in proptest::collection::vec((0u8..4, any::<u64>()), 1..4),
    ) {
        let mut base = probe(seed, remap, profile, ROUNDS[rounds]);
        // Start mid-stream: the RNG, refresh clock and open rows moved on.
        for i in 0..warm {
            let (a, b) = pair(&base, (i % 4) as u8, i as u64 * 0x1234_5677);
            base.measure_pair(a, b);
        }
        for &(shape, pick) in &picks {
            let target = pair(&base, shape, pick);
            let next = pair(&base, (shape + 1) % 4, pick.rotate_left(17));
            let samples = samples(&base, target);
            for t in thresholds(&samples) {
                let (mut verdict, mut median) = (base.clone(), base.clone());
                let (a, b) = target;
                prop_assert_eq!(
                    verdict.reaches_threshold(a, b, t),
                    median.measure_pair(a, b) >= t,
                    "threshold {}, samples {:?}", t, samples
                );
                prop_assert_eq!(verdict.stats(), median.stats());
                prop_assert_eq!(
                    verdict.measure_pair(next.0, next.1),
                    median.measure_pair(next.0, next.1)
                );
                prop_assert_eq!(verdict.stats(), median.stats());
            }
            base.measure_pair(target.0, target.1);
        }
    }
}

/// The oracle's reference: a probe and an optional cache driven by
/// `measure_pair(a, b) >= threshold`.
struct Reference {
    probe: SimProbe,
    cache: Option<ConflictCache>,
    threshold: u64,
    records: Vec<BatchRecord>,
}

impl Reference {
    fn lookup(&mut self, a: PhysAddr, b: PhysAddr) -> Option<bool> {
        self.cache.as_mut().and_then(|c| c.lookup(a, b))
    }

    fn measure(&mut self, a: PhysAddr, b: PhysAddr) -> bool {
        let verdict = self.probe.measure_pair(a, b) >= self.threshold;
        if let Some(cache) = &mut self.cache {
            cache.record(a, b, verdict);
        }
        verdict
    }

    fn is_sbdr(&mut self, a: PhysAddr, b: PhysAddr) -> bool {
        self.lookup(a, b).unwrap_or_else(|| self.measure(a, b))
    }

    /// Every lookup first, then the uncached pairs in input order.
    fn are_sbdr(&mut self, pairs: &[(PhysAddr, PhysAddr)]) -> Vec<bool> {
        let cached: Vec<Option<bool>> = pairs.iter().map(|&(a, b)| self.lookup(a, b)).collect();
        let measured = cached.iter().filter(|c| c.is_none()).count() as u32;
        self.records.push(BatchRecord {
            pairs: pairs.len() as u32,
            cached: pairs.len() as u32 - measured,
            measured,
        });
        cached
            .iter()
            .zip(pairs)
            .map(|(c, &(a, b))| c.unwrap_or_else(|| self.measure(a, b)))
            .collect()
    }

    fn stats(&self) -> ProbeStats {
        let mut stats = self.probe.stats();
        if let Some(cache) = &self.cache {
            stats.cache_hits = cache.hits();
            stats.cache_misses = cache.misses();
        }
        stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn oracle_answers_as_the_median_reference(
        seed in 0u64..1 << 20,
        remap in any::<bool>(),
        profile in 0usize..4,
        rounds in 0usize..3,
        // 0: no cache; small capacities make the cache evict.
        capacity in 0usize..64,
        calls in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u8..4, 0u64..12), 1..10)),
            1..12,
        ),
    ) {
        let base = probe(seed, remap, profile, ROUNDS[rounds]);
        let threshold = base.machine().controller().config().timing.oracle_threshold_ns();
        let cache = (capacity > 0).then(|| ConflictCache::new(capacity));
        let mut oracle = ConflictOracle::new(
            base.clone(),
            LatencyCalibration::from_threshold(threshold),
        )
        .with_batch_log(true);
        if let Some(cache) = cache.clone() {
            oracle = oracle.with_cache(cache);
        }
        let mut reference = Reference {
            probe: base.clone(),
            cache,
            threshold,
            records: Vec::new(),
        };
        for (batched, picks) in calls {
            // A small pick range makes pairs recur across calls, so the
            // cache hits; a batch asks about each unordered pair once.
            let mut seen = HashSet::new();
            let pairs: Vec<(PhysAddr, PhysAddr)> = picks
                .iter()
                .map(|&(shape, pick)| pair(&base, shape, pick * 0x0101_0101_0101))
                .filter(|&(a, b)| seen.insert((a.raw().min(b.raw()), a.raw().max(b.raw()))))
                .collect();
            if batched {
                prop_assert_eq!(oracle.are_sbdr(&pairs), reference.are_sbdr(&pairs));
            } else {
                for &(a, b) in &pairs {
                    prop_assert_eq!(oracle.is_sbdr(a, b), reference.is_sbdr(a, b));
                }
            }
            prop_assert_eq!(oracle.stats(), reference.stats());
        }
        prop_assert_eq!(oracle.take_batch_records(), reference.records);
        let (oracle_cache, reference_cache) = (oracle.cache(), reference.cache.as_ref());
        prop_assert_eq!(
            oracle_cache.map(|c| (c.hits(), c.misses())),
            reference_cache.map(|c| (c.hits(), c.misses()))
        );
    }
}
