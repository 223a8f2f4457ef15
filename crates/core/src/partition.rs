//! Step 2b — physical-address partition (Algorithm 2 of the paper).
//!
//! The selected addresses are split into `#banks` piles such that all
//! addresses in a pile live in the same DRAM bank. A random pivot is drawn
//! from the remaining pool, every other remaining address is measured against
//! it, and the addresses that conflict (same bank, different row) form the
//! pivot's pile. A pile is only accepted when its size is within `±δ` of the
//! expected `pool / #banks`, which filters out piles corrupted by measurement
//! noise; partitioning stops once `per_threshold` of the pool is assigned.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use dram_model::gf2::PileBasis;
use dram_model::PhysAddr;
use mem_probe::{ConflictOracle, MemoryProbe};

use crate::config::PartitionStrategy;
use crate::error::DramDigError;

/// Tolerance δ on the expected pile size: a pile is accepted when its size
/// is within `[1-δ, 1+δ] · pool/#banks`. The paper uses δ = 0.2.
pub(crate) const DELTA: f64 = 0.2;

/// Fraction of the selected pool that must be partitioned before
/// Algorithm 2 stops: the paper's `per_threshold`, 85%.
pub(crate) const PER_THRESHOLD: f64 = 0.85;

/// Pivot attempts Algorithm 2 makes before giving up (the paper sets no
/// bound; 4096 is far above the `#banks` plus a few rejections a healthy
/// run needs).
pub(crate) const MAX_PARTITION_ATTEMPTS: u32 = 4096;

/// Measurement budget of the [`partition_decompose`] kernel search before
/// it gives up and [`partition_with_strategy`] falls back to the exhaustive
/// Algorithm 2 (no paper value: the decomposition is not in the paper).
pub(crate) const MAX_DECOMPOSE_QUERIES: u32 = 1024;

/// One same-bank pile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pile {
    /// The pivot address the pile was grown around.
    pub pivot: PhysAddr,
    /// All pool addresses observed to be in the pivot's bank
    /// (including the pivot itself).
    pub members: Vec<PhysAddr>,
}

impl Pile {
    /// Builds the row-echelon GF(2) basis of the pile's `member ⊕ pivot`
    /// differences — the structure Algorithm 3 verifies candidate masks
    /// against in O(rank) instead of O(members).
    #[must_use]
    pub fn basis(&self) -> PileBasis {
        PileBasis::from_members(self.pivot.raw(), self.members.iter().map(|a| a.raw()))
    }
}

/// Outcome of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The accepted piles, in the order they were found.
    pub piles: Vec<Pile>,
    /// Addresses that were never assigned to an accepted pile.
    pub unassigned: Vec<PhysAddr>,
    /// Number of pivot attempts that produced an out-of-tolerance pile.
    pub rejected_piles: u32,
    /// The same-bank difference basis the decomposition strategy learned,
    /// when that strategy produced this partition. Algorithm 3 can verify
    /// candidate masks directly against it without re-deriving it from the
    /// pile members.
    pub kernel: Option<PileBasis>,
}

impl Partition {
    /// Fraction of the original pool that ended up in accepted piles.
    ///
    /// Addresses are counted once even when they appear in several piles
    /// (hand-built partitions may share pivots between piles; the
    /// measurement-driven partitions never produce overlaps).
    #[must_use]
    pub fn assigned_fraction(&self) -> f64 {
        let assigned: std::collections::HashSet<PhysAddr> = self
            .piles
            .iter()
            .flat_map(|p| p.members.iter().copied())
            .collect();
        let unassigned = self
            .unassigned
            .iter()
            .filter(|a| !assigned.contains(a))
            .count();
        let total = assigned.len() + unassigned;
        if total == 0 {
            0.0
        } else {
            assigned.len() as f64 / total as f64
        }
    }
}

/// Runs Algorithm 2 over the selected pool.
///
/// # Errors
///
/// Returns [`DramDigError::Partition`] when the pool is too small, when the
/// maximum number of pivot attempts is exhausted before reaching
/// `per_threshold`, or when the number of accepted piles exceeds `num_banks`.
pub fn partition_into_piles<P: MemoryProbe>(
    oracle: &mut ConflictOracle<P>,
    pool: &[PhysAddr],
    num_banks: u32,
    rng: &mut StdRng,
) -> Result<Partition, DramDigError> {
    let pool_sz = pool.len();
    if pool_sz < num_banks as usize {
        return Err(DramDigError::Partition {
            reason: format!("pool of {pool_sz} addresses cannot fill {num_banks} banks"),
        });
    }
    let pile_sz = pool_sz as f64 / f64::from(num_banks);
    let min_sz = ((1.0 - DELTA) * pile_sz).floor().max(1.0) as usize;
    let max_sz = ((1.0 + DELTA) * pile_sz).ceil() as usize;
    let target_assigned = (PER_THRESHOLD * pool_sz as f64).ceil() as usize;

    let mut remaining: Vec<PhysAddr> = pool.to_vec();
    let mut piles: Vec<Pile> = Vec::with_capacity(num_banks as usize);
    let mut assigned = 0usize;
    let mut rejected = 0u32;
    let mut attempts = 0u32;

    while !remaining.is_empty() {
        let target_reached = assigned >= target_assigned;
        // Once the per-threshold is met, keep going only to complete the
        // expected number of piles (so the numbering check sees every bank),
        // never at the price of an error.
        if target_reached && (piles.len() >= num_banks as usize || remaining.len() < min_sz) {
            break;
        }
        attempts += 1;
        if attempts > MAX_PARTITION_ATTEMPTS {
            if target_reached {
                break;
            }
            return Err(DramDigError::Partition {
                reason: format!(
                    "gave up after {attempts} pivot attempts with only {assigned}/{pool_sz} \
                     addresses assigned ({} piles accepted)",
                    piles.len()
                ),
            });
        }
        let pivot = *remaining.choose(rng).expect("remaining is non-empty");
        let mut members = vec![pivot];
        // Marks which entries of `remaining` joined the pile, so removing
        // an accepted pile is one linear pass (the pool holds each address
        // once, so marking positions removes exactly the members).
        let mut joined = vec![false; remaining.len()];
        if let Some(cache) = oracle.cache_mut() {
            cache.open_sweep();
        }
        for (slot, &other) in joined.iter_mut().zip(&remaining) {
            if other == pivot {
                *slot = true;
            } else if oracle.is_sbdr(pivot, other) {
                *slot = true;
                members.push(other);
            }
        }
        let accepted = members.len() >= min_sz && members.len() <= max_sz;
        // Only a rejected pivot's pairs can be asked about again.
        if let Some(cache) = oracle.cache_mut() {
            cache.close_sweep(!accepted);
        }
        if accepted {
            let mut marks = joined.iter();
            remaining.retain(|_| !marks.next().expect("one mark per address"));
            assigned += members.len();
            piles.push(Pile { pivot, members });
            if piles.len() > num_banks as usize {
                return Err(DramDigError::Partition {
                    reason: format!(
                        "found {} piles but the system reports only {num_banks} banks",
                        piles.len()
                    ),
                });
            }
        } else {
            rejected += 1;
        }
    }

    Ok(Partition {
        piles,
        unassigned: remaining,
        rejected_piles: rejected,
        kernel: None,
    })
}

/// Builds noise-free piles directly from a ground-truth mapping: one
/// address per combination of the mapping's bank-function bits, grouped by
/// true bank, with the lowest address of each bank as the pivot.
///
/// This is the canonical clean input to Algorithm 3, shared by the
/// differential tests and the benchmarks so the pile shape cannot drift
/// between them.
#[must_use]
pub fn synthetic_piles(mapping: &dram_model::AddressMapping) -> Vec<Pile> {
    let bank_bits = mapping.bank_function_bits();
    let addrs: Vec<PhysAddr> = (0..(1u64 << bank_bits.len()))
        .map(|combo| PhysAddr::new(dram_model::bits::scatter_bits(combo, &bank_bits)))
        .collect();
    // Bank numbers come from the bitsliced batch evaluator (64 addresses
    // per block); `bank_of` stays the scalar twin.
    let banks = mapping.banks_of(&addrs);
    let mut piles: std::collections::BTreeMap<u32, Vec<PhysAddr>> = Default::default();
    for (&addr, bank) in addrs.iter().zip(banks) {
        piles.entry(bank).or_default().push(addr);
    }
    piles
        .into_values()
        .map(|members| Pile {
            pivot: members[0],
            members,
        })
        .collect()
}

/// Runs the partition `strategy` selects.
///
/// The decomposition strategy is a measurement-budget optimisation, not a
/// robustness improvement, so when it cannot complete (excess noise, a pool
/// whose kernel cannot be learned within 1024 queries) this falls back to
/// the exhaustive Algorithm 2 instead of failing the pipeline.
///
/// # Errors
///
/// Same conditions as [`partition_into_piles`].
pub fn partition_with_strategy<P: MemoryProbe>(
    oracle: &mut ConflictOracle<P>,
    pool: &[PhysAddr],
    num_banks: u32,
    strategy: PartitionStrategy,
    rng: &mut StdRng,
) -> Result<Partition, DramDigError> {
    match strategy {
        PartitionStrategy::Exhaustive => partition_into_piles(oracle, pool, num_banks, rng),
        PartitionStrategy::Decompose => partition_decompose(oracle, pool, num_banks, rng)
            .or_else(|_| partition_into_piles(oracle, pool, num_banks, rng)),
    }
}

/// GF(2) decomposition partition: instead of timing every pool address
/// against every pivot, learn a basis of the *same-bank difference space*
/// (the kernel of the bank functions restricted to the bits the pool varies)
/// from targeted measurements, then place every address into its coset
/// computationally and spot-check one measured pair per pile.
///
/// Two addresses of the pool are in the same bank exactly when their XOR
/// difference lies in that kernel, so `num_banks` piles need only
/// `dim(kernel) = |varying bits| - log2(num_banks)` independent positive
/// observations plus the probing that finds them. Candidate differences are
/// probed in ascending Hamming weight starting at two — the shape Intel
/// bank-function kernels overwhelmingly take (each isolated XOR function
/// contributes its own mask as a weight-2 kernel vector) — then single
/// bits, then random differences from random base addresses. A noisy
/// observation cannot silently corrupt the result: a wrong kernel either
/// changes the coset count or fails a spot check, both of which surface as
/// an error that [`partition_with_strategy`] answers with the exhaustive
/// fallback.
///
/// # Errors
///
/// Returns [`DramDigError::Partition`] when the pool is too small, when the
/// kernel cannot be completed within 1024 measurements, when the computed
/// cosets do not form exactly `num_banks` piles, or when a spot check fails.
pub fn partition_decompose<P: MemoryProbe>(
    oracle: &mut ConflictOracle<P>,
    pool: &[PhysAddr],
    num_banks: u32,
    rng: &mut StdRng,
) -> Result<Partition, DramDigError> {
    let pool_sz = pool.len();
    if pool_sz < num_banks as usize {
        return Err(DramDigError::Partition {
            reason: format!("pool of {pool_sz} addresses cannot fill {num_banks} banks"),
        });
    }
    if !num_banks.is_power_of_two() || num_banks < 2 {
        return Err(DramDigError::Partition {
            reason: format!("bank count {num_banks} is not a power of two greater than one"),
        });
    }
    let needed = num_banks.trailing_zeros() as usize;

    // The bits the pool actually varies; the kernel lives inside their span.
    let base = pool[0].raw();
    let varying: u64 = pool.iter().fold(0, |m, a| m | (a.raw() ^ base));
    let vbits = dram_model::bits::bit_positions(varying);
    let dim_pool = vbits.len();
    if dim_pool < needed {
        return Err(DramDigError::Partition {
            reason: format!("pool varies only {dim_pool} bits but {num_banks} banks need {needed}"),
        });
    }
    let kernel_rank = dim_pool - needed;

    // Pool membership by binary search; only an unsorted pool pays for a
    // sorted copy.
    let sorted_pool: Cow<'_, [PhysAddr]> = if pool.windows(2).all(|w| w[0] <= w[1]) {
        Cow::Borrowed(pool)
    } else {
        let mut copy = pool.to_vec();
        copy.sort_unstable();
        Cow::Owned(copy)
    };
    let in_pool = |raw: u64| sorted_pool.binary_search(&PhysAddr::new(raw)).is_ok();
    let pivot = *pool.choose(rng).expect("pool is non-empty");
    let mut kernel = PileBasis::new(pivot.raw());
    let mut queries = 0u32;
    // Same-bank pairs observed while learning; their cosets need no
    // further spot check.
    let mut positives: Vec<PhysAddr> = Vec::new();

    // Deterministic candidates: weight-2 differences, then single bits.
    let mut candidates: Vec<u64> = Vec::new();
    for (i, &a) in vbits.iter().enumerate() {
        for &b in vbits.iter().skip(i + 1) {
            candidates.push((1u64 << a) | (1u64 << b));
        }
    }
    candidates.extend(vbits.iter().map(|&b| 1u64 << b));

    let mut next_candidate = 0usize;
    while kernel.rank() < kernel_rank {
        if queries >= MAX_DECOMPOSE_QUERIES {
            return Err(DramDigError::Partition {
                reason: format!(
                    "kernel rank stalled at {}/{kernel_rank} after {queries} decompose queries",
                    kernel.rank()
                ),
            });
        }
        // Pick the next unspanned difference: deterministic list first, then
        // random base/partner pairs (which also re-measure noise-suspect
        // differences through fresh address pairs). Both phases are bounded:
        // a pool whose pairwise differences cannot complete the kernel (the
        // OR of differences over-estimates their XOR-span) must stall out to
        // the exhaustive fallback, not spin here.
        let mut picked = None;
        while next_candidate < candidates.len() {
            let d = candidates[next_candidate];
            next_candidate += 1;
            if !kernel.spans_difference(d) && in_pool(pivot.raw() ^ d) {
                picked = Some((pivot, d));
                break;
            }
        }
        if picked.is_none() {
            for _ in 0..pool_sz.max(64) {
                let r = *pool.choose(rng).expect("pool is non-empty");
                let c = *pool.choose(rng).expect("pool is non-empty");
                let d = r.raw() ^ c.raw();
                if d != 0 && !kernel.spans_difference(d) {
                    picked = Some((r, d));
                    break;
                }
            }
        }
        let Some((base_addr, diff)) = picked else {
            return Err(DramDigError::Partition {
                reason: format!(
                    "no unspanned pool difference left with kernel rank {}/{kernel_rank}",
                    kernel.rank()
                ),
            });
        };
        queries += 1;
        let partner = PhysAddr::new(base_addr.raw() ^ diff);
        if oracle.is_sbdr(base_addr, partner) {
            kernel.insert(pivot.raw() ^ diff);
            positives.push(base_addr);
        }
    }

    // Assign every pool address to its coset — pure computation, reduced in
    // bitsliced blocks of 64 addresses per basis pass (identical output to
    // the per-address `kernel.reduce`, which remains the differential twin).
    // A reduced difference keeps only the varying bits that lead no kernel
    // row, `log2(num_banks)` of them; gathering those bits numbers the
    // cosets densely and in ascending canonical order, so piles keep that
    // order and pool order within each pile.
    let leads = kernel
        .rows()
        .iter()
        .fold(0u64, |m, &row| m | 1u64 << (63 - row.leading_zeros()));
    let coset_bits = dram_model::bits::bit_positions(varying & !leads);
    let coset_index = |reduced: u64| dram_model::bits::gather_bits(reduced, &coset_bits) as usize;
    let differences: Vec<u64> = pool.iter().map(|a| a.raw() ^ pivot.raw()).collect();
    let cosets: Vec<usize> = kernel
        .reduce_batch(&differences)
        .into_iter()
        .map(coset_index)
        .collect();
    let mut sizes = vec![0usize; num_banks as usize];
    for &coset in &cosets {
        sizes[coset] += 1;
    }
    let found = sizes.iter().filter(|&&n| n > 0).count();
    if found != num_banks as usize {
        return Err(DramDigError::Partition {
            reason: format!("decomposition produced {found} cosets for {num_banks} banks"),
        });
    }
    let mut piles_by_coset: Vec<Vec<PhysAddr>> =
        sizes.into_iter().map(Vec::with_capacity).collect();
    for (&addr, &coset) in pool.iter().zip(&cosets) {
        piles_by_coset[coset].push(addr);
    }
    let mut evidenced = vec![false; num_banks as usize];
    for a in &positives {
        evidenced[coset_index(kernel.reduce(a.raw() ^ pivot.raw()))] = true;
    }

    // One measured spot check per pile whose purity no learning query
    // already witnessed: a pair of computed same-bank members must conflict.
    let mut piles = Vec::with_capacity(piles_by_coset.len());
    for (members, evidenced) in piles_by_coset.into_iter().zip(evidenced) {
        if members.len() >= 2 && !evidenced {
            let a = members[0];
            let b = members[members.len() / 2];
            if !oracle.is_sbdr(a, b) {
                return Err(DramDigError::Partition {
                    reason: format!(
                        "spot check failed: {a} and {b} share a computed pile but do not conflict"
                    ),
                });
            }
        }
        piles.push(Pile {
            pivot: members[0],
            members,
        });
    }

    Ok(Partition {
        piles,
        unassigned: Vec::new(),
        rejected_piles: 0,
        kernel: Some(kernel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_addresses;
    use dram_model::MachineSetting;
    use dram_sim::{PhysMemory, SimConfig, SimMachine};
    use mem_probe::{LatencyCalibration, SimProbe};
    use rand::SeedableRng;

    fn oracle_for(number: u8, noisy: bool) -> ConflictOracle<SimProbe> {
        let setting = MachineSetting::by_number(number).unwrap();
        let config = if noisy {
            SimConfig::default()
        } else {
            SimConfig::noiseless()
        };
        let machine = SimMachine::from_setting(&setting, config);
        let threshold = machine.controller().config().timing.oracle_threshold_ns();
        let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
        ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold))
    }

    fn run_partition(number: u8, noisy: bool) -> (Partition, MachineSetting) {
        let setting = MachineSetting::by_number(number).unwrap();
        let mut oracle = oracle_for(number, noisy);
        let bank_bits = setting.mapping().bank_function_bits();
        let pool = select_addresses(oracle.probe().memory(), &bank_bits, Some(2048)).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let partition = partition_into_piles(
            &mut oracle,
            &pool.addresses,
            setting.system.total_banks(),
            &mut rng,
        )
        .unwrap();
        (partition, setting)
    }

    #[test]
    fn piles_are_pure_same_bank_sets() {
        let (partition, setting) = run_partition(4, false);
        let truth = setting.mapping();
        assert_eq!(partition.piles.len(), setting.system.total_banks() as usize);
        for pile in &partition.piles {
            let bank = truth.bank_of(pile.pivot);
            for &member in &pile.members {
                assert_eq!(truth.bank_of(member), bank, "pile must be single-bank");
            }
        }
        assert!(partition.assigned_fraction() >= 0.85);
    }

    #[test]
    fn piles_cover_all_banks_with_noise() {
        let (partition, setting) = run_partition(7, true);
        let truth = setting.mapping();
        let mut banks: Vec<u32> = partition
            .piles
            .iter()
            .map(|p| truth.bank_of(p.pivot))
            .collect();
        banks.sort_unstable();
        banks.dedup();
        assert_eq!(banks.len(), setting.system.total_banks() as usize);
    }

    #[test]
    fn too_small_pool_is_rejected() {
        let mut oracle = oracle_for(4, false);
        let mut rng = StdRng::seed_from_u64(0);
        let pool: Vec<PhysAddr> = (0..4u64).map(|i| PhysAddr::new(i * 4096)).collect();
        let err = partition_into_piles(&mut oracle, &pool, 8, &mut rng).unwrap_err();
        assert!(matches!(err, DramDigError::Partition { .. }));
    }

    #[test]
    fn attempt_budget_is_enforced() {
        let mut oracle = oracle_for(4, false);
        let mut rng = StdRng::seed_from_u64(0);
        // A pool where every address is in a different bank: piles of size 1
        // are far below the expected pool/#banks, so nothing is ever accepted.
        let truth = oracle.probe().machine().ground_truth().clone();
        let pool: Vec<PhysAddr> = (0..8u32)
            .map(|bank| {
                truth
                    .to_phys(dram_model::DramAddress::new(bank, 0, 0))
                    .unwrap()
            })
            .collect();
        // pool=8, banks=8 -> pile_sz 1, min 1: piles of size 1 are accepted...
        // use 2 banks so expected pile size is 4 and singletons get rejected.
        let err = partition_into_piles(&mut oracle, &pool, 2, &mut rng).unwrap_err();
        assert!(matches!(err, DramDigError::Partition { .. }));
        let attempts = MAX_PARTITION_ATTEMPTS + 1;
        assert!(
            err.to_string()
                .contains(&format!("gave up after {attempts} pivot attempts")),
            "{err}"
        );
    }

    #[test]
    fn decompose_matches_exhaustive_bank_structure() {
        let setting = MachineSetting::by_number(4).unwrap();
        let mut oracle = oracle_for(4, false);
        let bank_bits = setting.mapping().bank_function_bits();
        let pool = select_addresses(oracle.probe().memory(), &bank_bits, None).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let before = oracle.stats().measurements;
        let partition = partition_decompose(
            &mut oracle,
            &pool.addresses,
            setting.system.total_banks(),
            &mut rng,
        )
        .unwrap();
        let spent = oracle.stats().measurements - before;
        let truth = setting.mapping();
        assert_eq!(partition.piles.len(), 8);
        assert!(partition.kernel.is_some());
        assert!((partition.assigned_fraction() - 1.0).abs() < 1e-12);
        for pile in &partition.piles {
            let bank = truth.bank_of(pile.pivot);
            for &member in &pile.members {
                assert_eq!(truth.bank_of(member), bank, "pile must be single-bank");
            }
        }
        // The measurement budget is a small fraction of the exhaustive
        // strategy's (which spends ≥ pool²/banks-ish on this pool).
        assert!(spent < 64, "decompose spent {spent} measurements");
    }

    #[test]
    fn decompose_falls_back_cleanly_via_strategy_dispatch() {
        // A pool with a single varying bit cannot host 8 banks: decompose
        // must fail and partition_with_strategy must fall back to the
        // exhaustive path (which then reports its own pool-size error).
        let mut oracle = oracle_for(4, false);
        let mut rng = StdRng::seed_from_u64(1);
        let pool: Vec<PhysAddr> = (0..4u64).map(|i| PhysAddr::new(i * 4096)).collect();
        let err = partition_with_strategy(
            &mut oracle,
            &pool,
            8,
            PartitionStrategy::Decompose,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, DramDigError::Partition { .. }));
    }

    #[test]
    fn strategy_dispatch_uses_decompose_when_possible() {
        let setting = MachineSetting::by_number(7).unwrap();
        let mut oracle = oracle_for(7, false);
        let bank_bits = setting.mapping().bank_function_bits();
        let pool = select_addresses(oracle.probe().memory(), &bank_bits, None).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let partition = partition_with_strategy(
            &mut oracle,
            &pool.addresses,
            setting.system.total_banks(),
            PartitionStrategy::Decompose,
            &mut rng,
        )
        .unwrap();
        assert!(partition.kernel.is_some(), "decompose path should be taken");
        assert_eq!(partition.piles.len(), setting.system.total_banks() as usize);
    }

    #[test]
    fn assigned_fraction_counts_shared_addresses_once() {
        let a = PhysAddr::new(0x1000);
        let b = PhysAddr::new(0x2000);
        let c = PhysAddr::new(0x3000);
        // Two piles sharing the pivot address `a`: 3 unique assigned, 1
        // unassigned -> 0.75, not (4 assigned / 5 total).
        let partition = Partition {
            piles: vec![
                Pile {
                    pivot: a,
                    members: vec![a, b],
                },
                Pile {
                    pivot: a,
                    members: vec![a, c],
                },
            ],
            unassigned: vec![PhysAddr::new(0x4000)],
            rejected_piles: 0,
            kernel: None,
        };
        assert!((partition.assigned_fraction() - 0.75).abs() < 1e-12);
        // An address listed both assigned and unassigned counts as assigned.
        let overlap = Partition {
            piles: vec![Pile {
                pivot: a,
                members: vec![a, b],
            }],
            unassigned: vec![b],
            rejected_piles: 0,
            kernel: None,
        };
        assert!((overlap.assigned_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pile_basis_spans_member_differences() {
        let pile = Pile {
            pivot: PhysAddr::new(0b0000),
            members: vec![
                PhysAddr::new(0b0000),
                PhysAddr::new(0b0110),
                PhysAddr::new(0b1010),
                PhysAddr::new(0b1100),
            ],
        };
        let basis = pile.basis();
        assert_eq!(basis.rank(), 2);
        for m in &pile.members {
            assert!(basis.spans_difference(m.raw() ^ pile.pivot.raw()));
        }
    }

    /// The decomposition as first written — a hash set for pool membership,
    /// a `BTreeMap` keyed by canonical coset — kept as the differential
    /// oracle of [`partition_decompose`].
    fn partition_decompose_reference<P: MemoryProbe>(
        oracle: &mut ConflictOracle<P>,
        pool: &[PhysAddr],
        num_banks: u32,
        rng: &mut StdRng,
    ) -> Result<Partition, DramDigError> {
        let pool_sz = pool.len();
        if pool_sz < num_banks as usize {
            return Err(DramDigError::Partition {
                reason: format!("pool of {pool_sz} addresses cannot fill {num_banks} banks"),
            });
        }
        if !num_banks.is_power_of_two() || num_banks < 2 {
            return Err(DramDigError::Partition {
                reason: format!("bank count {num_banks} is not a power of two greater than one"),
            });
        }
        let needed = num_banks.trailing_zeros() as usize;

        // The bits the pool actually varies; the kernel lives inside their span.
        let base = pool[0].raw();
        let varying: u64 = pool.iter().fold(0, |m, a| m | (a.raw() ^ base));
        let vbits = dram_model::bits::bit_positions(varying);
        let dim_pool = vbits.len();
        if dim_pool < needed {
            return Err(DramDigError::Partition {
                reason: format!(
                    "pool varies only {dim_pool} bits but {num_banks} banks need {needed}"
                ),
            });
        }
        let kernel_rank = dim_pool - needed;

        let pool_set: std::collections::HashSet<u64> = pool.iter().map(|a| a.raw()).collect();
        let pivot = *pool.choose(rng).expect("pool is non-empty");
        let mut kernel = PileBasis::new(pivot.raw());
        let mut queries = 0u32;
        // Same-bank pairs observed while learning; their cosets need no
        // further spot check.
        let mut positives: Vec<PhysAddr> = Vec::new();

        // Deterministic candidates: weight-2 differences, then single bits.
        let mut candidates: Vec<u64> = Vec::new();
        for (i, &a) in vbits.iter().enumerate() {
            for &b in vbits.iter().skip(i + 1) {
                candidates.push((1u64 << a) | (1u64 << b));
            }
        }
        candidates.extend(vbits.iter().map(|&b| 1u64 << b));

        let mut next_candidate = 0usize;
        while kernel.rank() < kernel_rank {
            if queries >= MAX_DECOMPOSE_QUERIES {
                return Err(DramDigError::Partition {
                    reason: format!(
                        "kernel rank stalled at {}/{kernel_rank} after {queries} decompose queries",
                        kernel.rank()
                    ),
                });
            }
            // Pick the next unspanned difference: deterministic list first, then
            // random base/partner pairs (which also re-measure noise-suspect
            // differences through fresh address pairs). Both phases are bounded:
            // a pool whose pairwise differences cannot complete the kernel (the
            // OR of differences over-estimates their XOR-span) must stall out to
            // the exhaustive fallback, not spin here.
            let mut picked = None;
            while next_candidate < candidates.len() {
                let d = candidates[next_candidate];
                next_candidate += 1;
                if !kernel.spans_difference(d) && pool_set.contains(&(pivot.raw() ^ d)) {
                    picked = Some((pivot, d));
                    break;
                }
            }
            if picked.is_none() {
                for _ in 0..pool_sz.max(64) {
                    let r = *pool.choose(rng).expect("pool is non-empty");
                    let c = *pool.choose(rng).expect("pool is non-empty");
                    let d = r.raw() ^ c.raw();
                    if d != 0 && !kernel.spans_difference(d) {
                        picked = Some((r, d));
                        break;
                    }
                }
            }
            let Some((base_addr, diff)) = picked else {
                return Err(DramDigError::Partition {
                    reason: format!(
                        "no unspanned pool difference left with kernel rank {}/{kernel_rank}",
                        kernel.rank()
                    ),
                });
            };
            queries += 1;
            let partner = PhysAddr::new(base_addr.raw() ^ diff);
            if oracle.is_sbdr(base_addr, partner) {
                kernel.insert(pivot.raw() ^ diff);
                positives.push(base_addr);
            }
        }

        // Assign every pool address to its coset — pure computation, reduced in
        // bitsliced blocks of 64 addresses per basis pass (identical output to
        // the per-address `kernel.reduce`, which remains the differential twin).
        let differences: Vec<u64> = pool.iter().map(|a| a.raw() ^ pivot.raw()).collect();
        let cosets = kernel.reduce_batch(&differences);
        let mut piles_by_coset: std::collections::BTreeMap<u64, Vec<PhysAddr>> = Default::default();
        for (&addr, coset) in pool.iter().zip(cosets) {
            piles_by_coset.entry(coset).or_default().push(addr);
        }
        if piles_by_coset.len() != num_banks as usize {
            return Err(DramDigError::Partition {
                reason: format!(
                    "decomposition produced {} cosets for {num_banks} banks",
                    piles_by_coset.len()
                ),
            });
        }
        let evidenced: std::collections::HashSet<u64> = positives
            .iter()
            .map(|a| kernel.reduce(a.raw() ^ pivot.raw()))
            .collect();

        // One measured spot check per pile whose purity no learning query
        // already witnessed: a pair of computed same-bank members must conflict.
        let mut piles = Vec::with_capacity(piles_by_coset.len());
        for (coset, members) in piles_by_coset {
            if members.len() >= 2 && !evidenced.contains(&coset) {
                let a = members[0];
                let b = members[members.len() / 2];
                if !oracle.is_sbdr(a, b) {
                    return Err(DramDigError::Partition {
                        reason: format!(
                            "spot check failed: {a} and {b} share a computed pile but do not conflict"
                        ),
                    });
                }
            }
            piles.push(Pile {
                pivot: members[0],
                members,
            });
        }

        Ok(Partition {
            piles,
            unassigned: Vec::new(),
            rejected_piles: 0,
            kernel: Some(kernel),
        })
    }

    fn generated_oracle(
        machine: &dram_model::GeneratedMachine,
        noisy: bool,
    ) -> ConflictOracle<SimProbe> {
        let config = if noisy {
            SimConfig::default()
        } else {
            SimConfig::noiseless()
        };
        let sim = SimMachine::from_generated(machine, config.with_seed(7));
        let threshold = sim.controller().config().timing.oracle_threshold_ns();
        let probe = SimProbe::new(sim, PhysMemory::full(machine.system.capacity_bytes));
        ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold))
    }

    /// Runs the decomposition and its reference on fresh oracles with equal
    /// seeds and asserts the same outcome and the same measurement stream.
    fn assert_decompose_matches_reference(
        machine: &dram_model::GeneratedMachine,
        pool: &[PhysAddr],
        noisy: bool,
        seed: u64,
    ) {
        let num_banks = machine.system.total_banks();
        let mut oracle = generated_oracle(machine, noisy);
        let fast = partition_decompose(
            &mut oracle,
            pool,
            num_banks,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut reference_oracle = generated_oracle(machine, noisy);
        let reference = partition_decompose_reference(
            &mut reference_oracle,
            pool,
            num_banks,
            &mut StdRng::seed_from_u64(seed),
        );
        match (&fast, &reference) {
            (Ok(fast), Ok(reference)) => assert_eq!(fast, reference, "{machine}"),
            _ => assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{machine}"),
        }
        assert_eq!(oracle.stats(), reference_oracle.stats(), "{machine}");
    }

    #[test]
    fn decompose_matches_the_reference_on_generated_pools() {
        use dram_model::{MachineClass, MachineGen};
        use rand::seq::SliceRandom;
        // One generated machine per pool size from 2^9 to 2^17 addresses.
        let mut sizes_seen = std::collections::BTreeSet::new();
        for seed in 0..400u64 {
            let class = [MachineClass::InScope, MachineClass::RowRemap][seed as usize % 2];
            let machine = MachineGen::new(seed).generate(class);
            let bank_bits = machine.mapping().bank_function_bits();
            if !(9..=17).contains(&bank_bits.len()) || !sizes_seen.insert(bank_bits.len()) {
                continue;
            }
            let memory = PhysMemory::full(machine.system.capacity_bytes);
            let mut pool = select_addresses(&memory, &bank_bits, None)
                .unwrap()
                .addresses;
            assert_decompose_matches_reference(&machine, &pool, false, seed);
            assert_decompose_matches_reference(&machine, &pool, true, seed);
            if sizes_seen.len() == 1 {
                // A deliberately unsorted pool: membership must not assume
                // ascending order, and pile member order follows the pool.
                pool.shuffle(&mut StdRng::seed_from_u64(seed));
                assert_decompose_matches_reference(&machine, &pool, false, seed);
            }
        }
        assert_eq!(
            sizes_seen.into_iter().collect::<Vec<_>>(),
            (9..=17).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partition_is_deterministic_for_fixed_seed() {
        let (a, _) = run_partition(4, true);
        let (b, _) = run_partition(4, true);
        let pivots_a: Vec<PhysAddr> = a.piles.iter().map(|p| p.pivot).collect();
        let pivots_b: Vec<PhysAddr> = b.piles.iter().map(|p| p.pivot).collect();
        assert_eq!(pivots_a, pivots_b);
    }
}
