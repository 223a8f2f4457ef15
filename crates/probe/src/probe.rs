//! The [`MemoryProbe`] trait.

use dram_model::PhysAddr;
use dram_sim::PhysMemory;

/// Cost accounting for a probe: how much work the reverse-engineering tool
/// has asked for so far. The experiment harness uses the elapsed simulated
/// time to reproduce Figure 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Number of pair-latency measurements performed.
    pub measurements: u64,
    /// Number of individual memory accesses issued.
    pub accesses: u64,
    /// Time spent measuring, in (simulated or real) nanoseconds.
    pub elapsed_ns: u64,
    /// SBDR queries answered from the [`crate::ConflictCache`] without a
    /// measurement (zero when no cache is attached to the oracle).
    pub cache_hits: u64,
    /// SBDR queries that missed the cache and paid for a measurement (zero
    /// when no cache is attached to the oracle).
    pub cache_misses: u64,
}

impl ProbeStats {
    /// Elapsed time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// The cost delta between two snapshots of the *same* probe.
    /// Subtraction saturates: [`ProbeStats::merge`] saturates at `u64::MAX`,
    /// so a later snapshot of a long-lived probe can legitimately carry a
    /// saturated counter that is no longer strictly larger than an earlier
    /// one — the delta clamps to zero instead of panicking in debug builds.
    #[must_use]
    pub fn between(before: ProbeStats, after: ProbeStats) -> ProbeStats {
        ProbeStats {
            measurements: after.measurements.saturating_sub(before.measurements),
            accesses: after.accesses.saturating_sub(before.accesses),
            elapsed_ns: after.elapsed_ns.saturating_sub(before.elapsed_ns),
            cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
        }
    }

    /// Sums two stat snapshots field by field (saturating), for aggregating
    /// the costs of *independent* probes — e.g. the per-job totals of a
    /// campaign, where every job owns its own probe and cache.
    ///
    /// Do **not** merge two snapshots of the *same* probe (a later snapshot
    /// already contains the earlier one; merging would double count every
    /// measurement and cache hit). Because each job's cache is private, the
    /// merged `cache_hits`/`cache_misses` remain an exact partition of the
    /// merged cached-query count.
    #[must_use]
    pub fn merge(self, other: ProbeStats) -> ProbeStats {
        ProbeStats {
            measurements: self.measurements.saturating_add(other.measurements),
            accesses: self.accesses.saturating_add(other.accesses),
            elapsed_ns: self.elapsed_ns.saturating_add(other.elapsed_ns),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            cache_misses: self.cache_misses.saturating_add(other.cache_misses),
        }
    }

    /// Fraction of cached SBDR queries answered without a measurement
    /// (`0.0` when no query went through a cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The timing side channel available to reverse-engineering tools.
///
/// Implementations measure a representative (the simulator's: median)
/// latency of alternately accessing two physical addresses with caches
/// bypassed. Tools combine this with a [`crate::LatencyCalibration`]
/// threshold to decide whether two addresses are in the same bank but
/// different rows.
pub trait MemoryProbe {
    /// Measures the representative per-access latency (in nanoseconds) of an
    /// alternating access pattern over the two addresses.
    fn measure_pair(&mut self, a: PhysAddr, b: PhysAddr) -> u64;

    /// Takes one measurement of the pair and answers whether its latency
    /// reaches `threshold_ns`: the SBDR verdict, without the latency.
    ///
    /// The default is `measure_pair(a, b) >= threshold_ns`. A probe that can
    /// answer the question more cheaply than it can produce the latency
    /// overrides it with the same measurement stream and the same answer
    /// ([`crate::SimProbe`] counts the samples below the threshold instead
    /// of selecting their median).
    fn reaches_threshold(&mut self, a: PhysAddr, b: PhysAddr, threshold_ns: u64) -> bool {
        self.measure_pair(a, b) >= threshold_ns
    }

    /// Measures a batch of pairs in one call, returning one latency per pair
    /// in input order.
    ///
    /// The default implementation simply loops over [`measure_pair`]
    /// (bit-identical results); probes with per-measurement setup cost
    /// (serialising fences, pagemap lookups, row-buffer resets) can override
    /// it to amortise that cost across the batch.
    ///
    /// [`measure_pair`]: MemoryProbe::measure_pair
    fn measure_pairs(&mut self, pairs: &[(PhysAddr, PhysAddr)]) -> Vec<u64> {
        pairs
            .iter()
            .map(|&(a, b)| self.measure_pair(a, b))
            .collect()
    }

    /// The pool of physical pages the tool is allowed to use.
    fn memory(&self) -> &PhysMemory;

    /// Cost accounting so far.
    fn stats(&self) -> ProbeStats;

    /// Number of alternating rounds used per measurement.
    fn rounds(&self) -> u32;

    /// Hook invoked by the pipeline engine at every phase boundary with a
    /// phase-unique salt, both on straight-through runs and when a run
    /// resumes from a checkpoint.
    ///
    /// Implementations should re-align any internal stochastic state (noise
    /// streams, refresh schedules) so the measurement sequence of the
    /// upcoming phase is a pure function of `(probe configuration, salt)`
    /// rather than of everything measured before the boundary — the
    /// property that makes a checkpoint-resumed run byte-identical to an
    /// uninterrupted one. Probes without such state (e.g. real hardware,
    /// whose noise cannot be replayed either way) keep the default no-op.
    fn begin_phase(&mut self, salt: u64) {
        let _ = salt;
    }
}

impl<P: MemoryProbe + ?Sized> MemoryProbe for &mut P {
    fn measure_pair(&mut self, a: PhysAddr, b: PhysAddr) -> u64 {
        (**self).measure_pair(a, b)
    }
    fn reaches_threshold(&mut self, a: PhysAddr, b: PhysAddr, threshold_ns: u64) -> bool {
        (**self).reaches_threshold(a, b, threshold_ns)
    }
    fn measure_pairs(&mut self, pairs: &[(PhysAddr, PhysAddr)]) -> Vec<u64> {
        (**self).measure_pairs(pairs)
    }
    fn memory(&self) -> &PhysMemory {
        (**self).memory()
    }
    fn stats(&self) -> ProbeStats {
        (**self).stats()
    }
    fn rounds(&self) -> u32 {
        (**self).rounds()
    }
    fn begin_phase(&mut self, salt: u64) {
        (**self).begin_phase(salt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_elapsed_seconds() {
        let s = ProbeStats {
            measurements: 1,
            accesses: 2,
            elapsed_ns: 2_500_000_000,
            ..ProbeStats::default()
        };
        assert!((s.elapsed_seconds() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields_and_saturates() {
        let a = ProbeStats {
            measurements: 10,
            accesses: 20,
            elapsed_ns: 30,
            cache_hits: 4,
            cache_misses: 6,
        };
        let b = ProbeStats {
            measurements: 1,
            accesses: 2,
            elapsed_ns: 3,
            cache_hits: 5,
            cache_misses: 5,
        };
        let m = a.merge(b);
        assert_eq!(m.measurements, 11);
        assert_eq!(m.accesses, 22);
        assert_eq!(m.elapsed_ns, 33);
        assert_eq!(m.cache_hits, 9);
        assert_eq!(m.cache_misses, 11);
        // Hits and misses still partition the merged cached-query count.
        assert_eq!(m.cache_hits + m.cache_misses, 4 + 6 + 5 + 5);
        let sat = ProbeStats {
            measurements: u64::MAX,
            ..ProbeStats::default()
        };
        assert_eq!(sat.merge(sat).measurements, u64::MAX);
        // Identity: merging with a default snapshot changes nothing.
        assert_eq!(a.merge(ProbeStats::default()), a);
    }

    #[test]
    fn cache_hit_rate_handles_zero_and_mixed() {
        assert_eq!(ProbeStats::default().cache_hit_rate(), 0.0);
        let s = ProbeStats {
            cache_hits: 3,
            cache_misses: 1,
            ..ProbeStats::default()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    /// A probe whose verdict override contradicts the default, so a call
    /// shows which of the two answered.
    struct Contrarian {
        memory: PhysMemory,
        verdicts: u64,
    }

    impl MemoryProbe for Contrarian {
        fn measure_pair(&mut self, _a: PhysAddr, _b: PhysAddr) -> u64 {
            100
        }
        fn reaches_threshold(&mut self, _a: PhysAddr, _b: PhysAddr, threshold_ns: u64) -> bool {
            self.verdicts += 1;
            100 < threshold_ns
        }
        fn memory(&self) -> &PhysMemory {
            &self.memory
        }
        fn stats(&self) -> ProbeStats {
            ProbeStats::default()
        }
        fn rounds(&self) -> u32 {
            1
        }
    }

    #[test]
    fn mut_ref_forwards_the_verdict_override() {
        fn verdict<Q: MemoryProbe>(mut probe: Q, threshold_ns: u64) -> bool {
            probe.reaches_threshold(PhysAddr::new(0), PhysAddr::new(64), threshold_ns)
        }
        let mut inner = Contrarian {
            memory: PhysMemory::full(1 << 20),
            verdicts: 0,
        };
        // The default would answer `100 >= 200 == false` and `100 >= 50 == true`.
        assert!(verdict(&mut inner, 200));
        assert!(!verdict(&mut &mut inner, 50));
        assert_eq!(inner.verdicts, 2, "both calls reached the override");
    }

    #[test]
    fn mut_ref_forwarding_compiles() {
        // Compile-time check that &mut P implements the trait; exercised via
        // the simulator-backed probe in sim_probe tests.
        fn _check<P: MemoryProbe>(p: &mut P) {
            fn takes_probe<Q: MemoryProbe>(_p: Q) {}
            takes_probe(p);
        }
    }
}
