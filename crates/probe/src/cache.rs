//! A pair-keyed cache of SBDR classifications that keeps only what is read
//! again: every classification except those of a sweep its caller drops
//! (Algorithm 2 drops an accepted pile's sweep, whose pairs all leave the
//! pool), until the engine empties it at the next phase boundary. For
//! Decompose validation it can also log the latest classifications.
//!
//! Every answer equals that of a bounded FIFO of every classification
//! since the last [`ConflictCache::forget`], which holds the last
//! `capacity` inserts (lookups never reorder): a memoised pair hits iff
//! fewer than `capacity` inserts followed its own. Debug builds also drive
//! that FIFO and assert that both answer alike.

use std::collections::{HashMap, VecDeque};

use dram_model::PhysAddr;

/// Default number of latest classifications a lookup can reach.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

type Key = (u64, u64);

/// Symmetric key of an unordered pair (alternating accesses are order-blind).
fn key(a: PhysAddr, b: PhysAddr) -> Key {
    let (x, y) = (a.raw(), b.raw());
    (x.min(y), x.max(y))
}

/// Memoised and optionally logged classifications of unordered address
/// pairs, with hit/miss accounting.
///
/// ```
/// use dram_model::PhysAddr;
/// use mem_probe::ConflictCache;
///
/// let mut cache = ConflictCache::new(16);
/// let (a, b) = (PhysAddr::new(0x1000), PhysAddr::new(0x2000));
/// assert_eq!(cache.lookup(a, b), None);
/// cache.record(a, b, true);
/// assert_eq!(cache.lookup(b, a), Some(true)); // symmetric
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConflictCache {
    capacity: usize,
    hits: u64,
    misses: u64,
    /// Classifications recorded so far, which numbers each one.
    inserts: u64,
    memo: HashMap<Key, (u64, bool)>,
    sweep: Option<Vec<(Key, (u64, bool))>>,
    log: Option<VecDeque<(Key, bool)>>,
    #[cfg(debug_assertions)]
    twin: twin::Fifo,
}

impl ConflictCache {
    /// A cache whose lookups reach the latest `capacity` classifications.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ConflictCache {
            capacity,
            ..ConflictCache::default()
        }
    }

    /// Also logs the latest `capacity` classifications, in order, for
    /// [`ConflictCache::entries`] if `on`.
    #[must_use]
    pub fn with_log(mut self, on: bool) -> Self {
        self.log = on.then(VecDeque::new);
        self
    }

    /// Looks up an unordered pair, counting a hit or a miss.
    pub fn lookup(&mut self, a: PhysAddr, b: PhysAddr) -> Option<bool> {
        let k = key(a, b);
        let found = self
            .memo
            .get(&k)
            .filter(|&&(seq, _)| self.inserts - seq < self.capacity as u64)
            .map(|&(_, verdict)| verdict);
        #[cfg(debug_assertions)]
        debug_assert_eq!(found, self.twin.get(k), "memo and FIFO disagree on {k:?}");
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Records the classification of a pair that is not cached.
    pub fn record(&mut self, a: PhysAddr, b: PhysAddr, is_conflict: bool) {
        let k = key(a, b);
        self.inserts += 1;
        match &mut self.sweep {
            Some(sweep) => sweep.push((k, (self.inserts, is_conflict))),
            None => self.remember([(k, (self.inserts, is_conflict))]),
        }
        if let Some(log) = &mut self.log {
            log.push_back((k, is_conflict));
            if log.len() > self.capacity {
                log.pop_front();
            }
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            self.twin
                .record(k, (self.inserts, is_conflict), self.capacity),
            "{k:?} is cached"
        );
    }

    /// Holds back what is recorded until [`ConflictCache::close_sweep`].
    pub fn open_sweep(&mut self) {
        self.sweep = Some(Vec::new());
    }

    /// Ends the open sweep, memoising its classifications if `keep`.
    pub fn close_sweep(&mut self, keep: bool) {
        if let Some(sweep) = self.sweep.take().filter(|_| keep) {
            self.remember(sweep);
        }
    }

    fn remember(&mut self, entries: impl IntoIterator<Item = (Key, (u64, bool))>) {
        self.memo.extend(entries);
        // Pairs that left the window never hit again: drop them once the
        // memo outgrows twice the window.
        if self.memo.len() > 2 * self.capacity {
            let (inserts, capacity) = (self.inserts, self.capacity as u64);
            self.memo
                .retain(|_, &mut (seq, _)| inserts - seq < capacity);
        }
    }

    /// Forgets every memoised classification.
    pub fn forget(&mut self) {
        self.memo = HashMap::new();
        #[cfg(debug_assertions)]
        self.twin.forget();
    }

    /// The logged classifications as `((low, high), is_conflict)`, oldest
    /// first (none without [`with_log`](ConflictCache::with_log)).
    pub fn entries(&self) -> impl Iterator<Item = ((PhysAddr, PhysAddr), bool)> + '_ {
        #[cfg(debug_assertions)]
        if let Some(log) = &self.log {
            debug_assert!(
                log.iter().map(|e| e.0).eq(self.twin.order()),
                "log and FIFO differ"
            );
        }
        let log = self.log.iter().flatten();
        log.map(|&((a, b), verdict)| ((PhysAddr::new(a), PhysAddr::new(b)), verdict))
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that required a fresh measurement.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The bounded FIFO of every classification that the memo and the log
/// replace, kept in debug builds as their differential twin. Its order
/// spans [`ConflictCache::forget`] (the log does too), its lookups do not.
#[cfg(debug_assertions)]
mod twin {
    use std::collections::{HashMap, VecDeque};

    #[derive(Debug, Clone, Default)]
    pub(super) struct Fifo {
        /// The latest verdict, with its insert number, of each pair
        /// recorded since the last `forget` and still in `order`.
        map: HashMap<super::Key, (u64, bool)>,
        order: VecDeque<(super::Key, u64)>,
    }

    impl Fifo {
        pub(super) fn get(&self, k: super::Key) -> Option<bool> {
            self.map.get(&k).map(|&(_, verdict)| verdict)
        }

        /// Inserts `k` as insert number `seq`, evicting beyond `capacity`;
        /// returns whether `k` was absent.
        pub(super) fn record(
            &mut self,
            k: super::Key,
            (seq, verdict): (u64, bool),
            capacity: usize,
        ) -> bool {
            let absent = self.map.insert(k, (seq, verdict)).is_none();
            self.order.push_back((k, seq));
            if self.order.len() > capacity {
                let (old, old_seq) = self.order.pop_front().unwrap();
                // A pair recorded again after `forget` outlives its first
                // insert.
                if self.map.get(&old).is_some_and(|&(seq, _)| seq == old_seq) {
                    self.map.remove(&old);
                }
            }
            absent
        }

        pub(super) fn forget(&mut self) {
            self.map.clear();
        }

        pub(super) fn order(&self) -> impl Iterator<Item = super::Key> + '_ {
            self.order.iter().map(|&(k, _)| k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(raw: u64) -> PhysAddr {
        PhysAddr::new(raw)
    }

    /// One lookup, recording `verdict` on a miss, as the oracle does.
    fn classify(c: &mut ConflictCache, a: u64, b: u64, verdict: bool) -> Option<bool> {
        let found = c.lookup(pa(a), pa(b));
        if found.is_none() {
            c.record(pa(a), pa(b), verdict);
        }
        found
    }

    #[test]
    fn symmetric_lookup_and_record() {
        let mut c = ConflictCache::new(8);
        c.open_sweep();
        classify(&mut c, 20, 10, true);
        classify(&mut c, 30, 5, false);
        c.close_sweep(true);
        assert_eq!(c.lookup(pa(10), pa(20)), Some(true));
        assert_eq!(c.lookup(pa(5), pa(30)), Some(false));
        assert_eq!((c.hits(), c.misses()), (2, 2));
    }

    #[test]
    fn fifo_eviction_forgets_oldest() {
        let mut c = ConflictCache::new(2);
        c.open_sweep();
        classify(&mut c, 1, 2, true);
        c.close_sweep(true);
        classify(&mut c, 3, 4, true);
        assert_eq!(c.lookup(pa(1), pa(2)), Some(true), "one insert later");
        classify(&mut c, 5, 6, false);
        assert_eq!(c.lookup(pa(1), pa(2)), None, "two inserts later: evicted");
    }

    #[test]
    fn re_recording_does_not_duplicate_or_evict() {
        let mut c = ConflictCache::new(1);
        for _ in 0..2 {
            // Evicted by (3, 4), re-measured and kept again.
            c.open_sweep();
            assert_eq!(classify(&mut c, 2, 1, true), None);
            c.close_sweep(true);
            assert_eq!(c.lookup(pa(1), pa(2)), Some(true));
            classify(&mut c, 3, 4, false);
        }
        assert_eq!(c.memo.len(), 2, "one memo entry per pair");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = ConflictCache::new(8);
        classify(&mut c, 1, 2, true); // outside any sweep: memoised
        c.open_sweep();
        classify(&mut c, 3, 4, false);
        c.close_sweep(false); // accepted pile: dropped
        c.open_sweep();
        classify(&mut c, 20, 10, true);
        c.close_sweep(true); // rejected pile: kept
        assert_eq!(c.lookup(pa(10), pa(20)), Some(true));
        assert_eq!(c.lookup(pa(2), pa(1)), Some(true));
        assert_eq!((c.hits(), c.misses()), (2, 3));
        assert_eq!(c.memo.len(), 2);
        c.forget();
        assert!(c.memo.is_empty());
        assert_eq!((c.hits(), c.misses()), (2, 3));
    }

    #[test]
    fn entries_iterates_in_insertion_order() {
        let mut c = ConflictCache::new(2).with_log(true);
        c.record(pa(1), pa(2), true); // as restored from a checkpoint
        classify(&mut c, 9, 3, true);
        classify(&mut c, 5, 6, false);
        let got: Vec<_> = c.entries().collect();
        assert_eq!(got, [((pa(3), pa(9)), true), ((pa(5), pa(6)), false)]);
        let mut plain = ConflictCache::new(2);
        plain.record(pa(1), pa(2), true);
        assert_eq!(plain.entries().count(), 0, "only a replay cache logs");
    }

    #[test]
    fn forget_hides_earlier_classifications_until_recorded_again() {
        let mut c = ConflictCache::new(8);
        c.record(pa(1), pa(2), true);
        c.forget();
        assert_eq!(c.lookup(pa(1), pa(2)), None);
        c.record(pa(1), pa(2), false);
        assert_eq!(c.lookup(pa(2), pa(1)), Some(false));
    }

    #[test]
    fn a_pair_recorded_again_after_forget_outlives_its_first_insert() {
        let (a, b) = ((pa(1), pa(2)), (pa(3), pa(4)));
        let mut c = ConflictCache::new(2).with_log(true);
        c.record(a.0, a.1, true);
        c.forget();
        c.record(a.0, a.1, true);
        c.record(b.0, b.1, false);
        assert_eq!(c.lookup(a.0, a.1), Some(true));
        // The log keeps the latest `capacity` records across `forget`.
        let logged: Vec<_> = c.entries().map(|(pair, _)| pair).collect();
        assert_eq!(logged, [a, b]);
        let mut wide = ConflictCache::new(3).with_log(true);
        wide.record(a.0, a.1, true);
        wide.forget();
        wide.record(a.0, a.1, true);
        wide.record(b.0, b.1, false);
        let logged: Vec<_> = wide.entries().map(|(pair, _)| pair).collect();
        assert_eq!(logged, [a, a, b]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = ConflictCache::new(0);
    }
}
