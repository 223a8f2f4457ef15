//! Property-based tests of the [`ConflictCache`] against a plain bounded
//! FIFO of every classification, the design it replaces: as long as no pair
//! of a forgotten sweep is asked about again (what Algorithm 2 guarantees),
//! every lookup must answer as the FIFO would, and the replay log must list
//! the FIFO's entries in its order.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use dram_model::PhysAddr;
use mem_probe::ConflictCache;

type Key = (u64, u64);

/// The pairs asked in one sweep, whether a sweep is open at all, and
/// whether the cache keeps it.
type Sweep = (Vec<(u64, u64)>, bool, bool);

/// The deterministic "ground truth" classification of an unordered pair,
/// standing in for what a probe would measure.
fn truth(a: u64, b: u64) -> bool {
    (a ^ b).count_ones().is_multiple_of(2)
}

fn key(a: u64, b: u64) -> Key {
    (a.min(b), a.max(b))
}

/// The model: every classification in a FIFO of `capacity` entries.
struct Fifo {
    map: HashMap<Key, bool>,
    order: VecDeque<Key>,
    capacity: usize,
}

impl Fifo {
    fn new(capacity: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn lookup(&self, k: Key) -> Option<bool> {
        self.map.get(&k).copied()
    }

    fn record(&mut self, k: Key, verdict: bool) {
        if self.map.insert(k, verdict).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.capacity {
                let oldest = self.order.pop_front().unwrap();
                self.map.remove(&oldest);
            }
        }
    }
}

/// Drives a cache and the model through `sweeps` — each a list of pairs
/// asked in an open sweep (or outside any sweep when `sweep` is false),
/// then kept or forgotten — and checks every answer. A pair that the cache
/// was told to forget is not asked again while the model still holds it.
/// Returns the cache, the model and the number of lookups made.
fn drive(
    mut cache: ConflictCache,
    capacity: usize,
    sweeps: &[Sweep],
) -> Result<(ConflictCache, Fifo, u64), TestCaseError> {
    let mut model = Fifo::new(capacity);
    let mut forgotten: HashSet<Key> = HashSet::new();
    let mut lookups = 0u64;
    for (pairs, sweep, keep) in sweeps {
        let mut asked = HashSet::new();
        if *sweep {
            cache.open_sweep();
        }
        for &(a, b) in pairs {
            let k = key(a, b);
            if a == b || !asked.insert(k) || (forgotten.contains(&k) && model.lookup(k).is_some()) {
                continue;
            }
            lookups += 1;
            let got = cache.lookup(PhysAddr::new(a), PhysAddr::new(b));
            prop_assert_eq!(got, model.lookup(k), "pair {:?}", k);
            if got.is_none() {
                cache.record(PhysAddr::new(a), PhysAddr::new(b), truth(a, b));
                model.record(k, truth(a, b));
                if *sweep && !*keep {
                    forgotten.insert(k);
                } else {
                    forgotten.remove(&k);
                }
            }
        }
        if *sweep {
            cache.close_sweep(*keep);
        }
    }
    Ok((cache, model, lookups))
}

fn sweeps_strategy() -> impl Strategy<Value = Vec<Sweep>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u64..24, 0u64..24), 0..24),
            any::<bool>(),
            any::<bool>(),
        ),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lookup_is_symmetric_in_the_pair_order(
        pairs in proptest::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..64),
    ) {
        let mut cache = ConflictCache::new(1 << 12);
        let distinct: HashSet<Key> = pairs.iter().map(|&(a, b)| key(a, b)).collect();
        cache.open_sweep();
        for &(a, b) in &distinct {
            prop_assert_eq!(cache.lookup(PhysAddr::new(b), PhysAddr::new(a)), None);
            cache.record(PhysAddr::new(b), PhysAddr::new(a), truth(a, b));
        }
        cache.close_sweep(true);
        for &(a, b) in &pairs {
            let fwd = cache.lookup(PhysAddr::new(a), PhysAddr::new(b));
            let rev = cache.lookup(PhysAddr::new(b), PhysAddr::new(a));
            prop_assert_eq!(fwd, rev);
            prop_assert_eq!(fwd, Some(truth(a, b)));
        }
    }

    #[test]
    fn eviction_never_changes_a_classification(
        sweeps in sweeps_strategy(),
        capacity in 1usize..=64,
    ) {
        // However hard a tiny window churns, every lookup answers as the
        // FIFO would: a hit exactly while the FIFO still holds the pair.
        drive(ConflictCache::new(capacity), capacity, &sweeps)?;
    }

    #[test]
    fn hit_and_miss_counters_partition_all_lookups(
        sweeps in sweeps_strategy(),
        capacity in 1usize..=1024,
    ) {
        let (cache, _, lookups) = drive(ConflictCache::new(capacity), capacity, &sweeps)?;
        prop_assert_eq!(cache.hits() + cache.misses(), lookups);
    }

    #[test]
    fn the_replay_log_lists_the_fifo_in_order(
        sweeps in sweeps_strategy(),
        capacity in 1usize..=64,
    ) {
        let (cache, model, _) = drive(ConflictCache::new(capacity).with_log(true), capacity, &sweeps)?;
        let replayed: Vec<(Key, bool)> = cache
            .entries()
            .map(|((a, b), verdict)| ((a.raw(), b.raw()), verdict))
            .collect();
        let expected: Vec<(Key, bool)> =
            model.order.iter().map(|&k| (k, model.map[&k])).collect();
        prop_assert_eq!(replayed, expected);
        prop_assert!(ConflictCache::new(capacity).entries().next().is_none());
    }
}

/// A pair of a forgotten sweep misses in a release build. In a debug build
/// the cache's own FIFO twin still holds it and flags the lookup, which is
/// how the pipeline's "never asked again" claim is checked in every debug
/// test run.
#[test]
fn dropped_sweeps_are_forgotten() {
    let mut cache = ConflictCache::new(64);
    let (a, b) = (PhysAddr::new(0x1000), PhysAddr::new(0x2000));
    cache.open_sweep();
    assert_eq!(cache.lookup(a, b), None);
    cache.record(a, b, true);
    cache.close_sweep(false);
    let again = catch_unwind(AssertUnwindSafe(|| cache.lookup(a, b)));
    if cfg!(debug_assertions) {
        assert!(again.is_err(), "the FIFO twin flags the re-read pair");
    } else {
        assert_eq!(again.ok(), Some(None));
    }
}
