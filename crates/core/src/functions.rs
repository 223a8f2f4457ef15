//! Step 2c — bank address function detection (Algorithm 3 of the paper).
//!
//! Candidate XOR masks over the bank bits are tested against every pile: a
//! mask that evaluates to the same parity for all addresses of every pile is
//! a possible bank address function. Candidates that are GF(2) linear
//! combinations of smaller candidates are redundant and removed
//! (`prioritize` + `remove_redundant`), and finally a set of exactly
//! `log2(#banks)` functions is chosen that numbers the piles `0 .. #banks-1`
//! distinctly (`check_numbering`).

use dram_model::gf2::PileBasis;
use dram_model::{bits, gf2, PhysAddr, XorFunc};

use crate::error::DramDigError;
use crate::partition::Pile;

/// Widest candidate bank function Algorithm 3 enumerates, in bits. The
/// widest function the paper observes on Intel platforms has 7 bits
/// (Table II).
pub(crate) const MAX_FUNC_BITS: usize = 7;

/// Below this many candidate masks the sweep runs on the calling thread:
/// spawning scoped workers costs more than the whole sweep.
const PARALLEL_SWEEP_MIN_MASKS: usize = 2048;

/// Outcome of Algorithm 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedFunctions {
    /// The selected bank address functions (exactly `log2(#banks)` of them),
    /// in canonical order (fewest bits first).
    pub functions: Vec<XorFunc>,
    /// All masks that were constant on every pile (before redundancy
    /// removal) — exposed for diagnostics and the ablation study.
    pub consistent_masks: Vec<XorFunc>,
}

/// Returns `true` if `mask` evaluates to the same parity for every address in
/// the pile (the paper's `apply_xor_mask_to_pile`).
///
/// This is the naive O(members) scan; the pipeline verifies candidates
/// against a [`PileBasis`] instead (O(rank), same verdicts — the
/// `fast_and_naive_paths_agree` differential tests pin the equivalence).
pub fn mask_constant_on_pile(mask: u64, pile: &Pile) -> bool {
    let mut iter = pile.members.iter();
    let Some(first) = iter.next() else {
        return true;
    };
    let expected = first.masked_parity(mask);
    iter.all(|a| a.masked_parity(mask) == expected)
}

/// Reduces every pile's `member ⊕ pivot` differences into one row-echelon
/// GF(2) basis. A mask is constant on *every* pile exactly when it has even
/// parity against every row of this merged basis, so the candidate sweep
/// costs O(rank ≤ addr_bits) per mask instead of O(total members).
pub fn merged_difference_basis(piles: &[Pile]) -> PileBasis {
    let mut merged = PileBasis::new(0);
    for pile in piles {
        for member in &pile.members {
            merged.insert(member.raw() ^ pile.pivot.raw());
        }
    }
    merged
}

/// Number of sweep workers, resolved once per process: the
/// `available_parallelism` syscall costs more than an entire small sweep.
fn sweep_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    })
}

/// Filters `masks` down to the ones constant on every pile, verifying each
/// against the merged difference `basis`. Large sweeps are chunked across
/// `std::thread::scope` workers; the result order matches the input order
/// regardless of the worker count.
pub fn consistent_masks(masks: &[u64], basis: &PileBasis) -> Vec<XorFunc> {
    let workers = if masks.len() < PARALLEL_SWEEP_MIN_MASKS {
        1
    } else {
        sweep_workers()
    };
    if workers <= 1 {
        return masks
            .iter()
            .filter(|&&m| basis.mask_constant(m))
            .map(|&m| XorFunc::from_mask(m))
            .collect();
    }
    let chunk = masks.len().div_ceil(workers);
    let per_chunk: Vec<Vec<XorFunc>> = std::thread::scope(|scope| {
        let handles: Vec<_> = masks
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    c.iter()
                        .filter(|&&m| basis.mask_constant(m))
                        .map(|&m| XorFunc::from_mask(m))
                        .collect::<Vec<XorFunc>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// The pivots of `piles`, in pile order: all `check_numbering` reads of a
/// pile.
fn pivots_of(piles: &[Pile]) -> Vec<PhysAddr> {
    piles.iter().map(|pile| pile.pivot).collect()
}

/// Numbers a pile by evaluating the candidate functions on its pivot.
fn pile_number(functions: &[XorFunc], pivot: PhysAddr) -> u32 {
    let mut value = 0u32;
    for (i, f) in functions.iter().enumerate() {
        if f.evaluate(pivot) {
            value |= 1 << i;
        }
    }
    value
}

/// Returns `true` if the candidate function set assigns a distinct number to
/// every pile, given one pivot per pile (the paper's `check_numbering`: with
/// `#banks` piles and `log2(#banks)` functions, distinctness is equivalent
/// to counting the piles from `0` to `#banks - 1`).
pub fn numbering_is_valid(functions: &[XorFunc], pivots: &[PhysAddr]) -> bool {
    // Up to six functions the numbers fit a u64 bitset, so distinctness
    // needs no allocation or sort — this sits on the hot combination-search
    // path of Algorithm 3.
    if functions.len() <= 6 {
        let mut seen = 0u64;
        for &pivot in pivots {
            let value = pile_number(functions, pivot);
            if seen >> value & 1 == 1 {
                return false;
            }
            seen |= 1 << value;
        }
        return true;
    }
    let mut numbers: Vec<u32> = pivots
        .iter()
        .map(|&pivot| pile_number(functions, pivot))
        .collect();
    numbers.sort_unstable();
    numbers.windows(2).all(|w| w[0] != w[1])
}

/// Validates the pile/bank inputs shared by every detection entry point and
/// returns `log2(num_banks)`.
fn check_inputs(pivots: &[PhysAddr], num_banks: u32) -> Result<usize, DramDigError> {
    if pivots.is_empty() {
        return Err(DramDigError::FunctionDetection {
            reason: "no piles to analyse".into(),
        });
    }
    let needed = num_banks.trailing_zeros() as usize;
    if !num_banks.is_power_of_two() || needed == 0 {
        return Err(DramDigError::FunctionDetection {
            reason: format!("bank count {num_banks} is not a power of two greater than one"),
        });
    }
    Ok(needed)
}

/// The shared tail of Algorithm 3: prioritise small functions, drop
/// GF(2)-redundant candidates and pick the combination that numbers the
/// piles distinctly.
fn resolve_functions(
    consistent: Vec<XorFunc>,
    pivots: &[PhysAddr],
    needed: usize,
) -> Result<DetectedFunctions, DramDigError> {
    if consistent.is_empty() {
        return Err(DramDigError::FunctionDetection {
            reason: "no XOR mask is constant across all piles".into(),
        });
    }

    // Prioritise small functions and drop GF(2)-redundant ones.
    let independent = gf2::remove_redundant(&consistent);
    if independent.len() < needed {
        return Err(DramDigError::FunctionDetection {
            reason: format!(
                "only {} independent candidate functions but log2(#banks) = {needed}",
                independent.len()
            ),
        });
    }

    // Pick the combination of `needed` functions that numbers the piles
    // distinctly. The canonical order of `remove_redundant` means the first
    // valid combination is also the one built from the smallest functions.
    if independent.len() == needed {
        if !numbering_is_valid(&independent, pivots) {
            return Err(DramDigError::FunctionDetection {
                reason: "the independent functions do not number the piles distinctly".into(),
            });
        }
        return Ok(DetectedFunctions {
            functions: independent,
            consistent_masks: consistent,
        });
    }
    for combo in bits::Combinations::new(&independent, needed) {
        if gf2::functions_independent(&combo) && numbering_is_valid(&combo, pivots) {
            return Ok(DetectedFunctions {
                functions: combo,
                consistent_masks: consistent,
            });
        }
    }
    Err(DramDigError::FunctionDetection {
        reason: format!(
            "no combination of {needed} candidate functions numbers the {} piles distinctly",
            pivots.len()
        ),
    })
}

/// Runs Algorithm 3 over the piles: the reference entry point that builds
/// the merged [`PileBasis`] of all pile differences and hands it, with the
/// pile pivots, to [`detect_bank_functions_with_basis`] (the pipeline calls
/// that directly with the basis its partition artifact carries).
///
/// # Errors
///
/// Returns [`DramDigError::FunctionDetection`] when no candidate masks
/// survive, when fewer than `log2(#banks)` independent functions exist, or
/// when no combination of the surviving functions numbers the piles
/// distinctly.
pub fn detect_bank_functions(
    piles: &[Pile],
    bank_bits: &[u8],
    num_banks: u32,
) -> Result<DetectedFunctions, DramDigError> {
    let basis = merged_difference_basis(piles);
    detect_bank_functions_with_basis(&basis, &pivots_of(piles), bank_bits, num_banks)
}

/// Runs Algorithm 3 against the same-bank difference `basis` of the piles
/// and one pivot per pile — everything the algorithm reads: a candidate
/// mask must be constant on the basis, and the chosen functions must number
/// the pivots distinctly. Candidates are swept in parallel when the
/// candidate space is large.
///
/// # Errors
///
/// Same conditions as [`detect_bank_functions`].
pub fn detect_bank_functions_with_basis(
    basis: &PileBasis,
    pivots: &[PhysAddr],
    bank_bits: &[u8],
    num_banks: u32,
) -> Result<DetectedFunctions, DramDigError> {
    let needed = check_inputs(pivots, num_banks)?;
    let max_bits = MAX_FUNC_BITS.min(bank_bits.len());
    // The masks constant on every pile are exactly the span of the
    // orthogonal complement of the difference basis (restricted to the bank
    // bits), so when that complement is small it is enumerated directly by
    // Gray code — candidate count 2^(n - rank) instead of 2^n. Degenerate
    // low-rank bases fall back to materialising the candidate list and
    // chunking it across scoped workers.
    let n = bank_bits.len();
    let gathered: Vec<u64> = basis
        .rows()
        .iter()
        .map(|&row| bits::gather_bits(row, bank_bits))
        .collect();
    let complement = gf2::nullspace_basis(&gathered, n);
    let consistent = if (1u64 << complement.len()) as usize <= PARALLEL_SWEEP_MIN_MASKS {
        // Bitsliced span walk: each 64-lane block tests 64 combinations of
        // the complement basis at once (vertical-counter weight filter),
        // replacing the one-XOR-one-popcount-per-candidate Gray-code walk.
        // The scalar walk survives as the differential twin in
        // `dram_model`'s bitslice proptest suite.
        let mut survivors: Vec<u64> = gf2::bitslice::span_survivors(&complement, max_bits)
            .into_iter()
            .map(|value| bits::scatter_bits(value, bank_bits))
            .collect();
        survivors.sort_unstable_by(|&a, &b| bits::cmp_masks_enumeration_order(a, b));
        survivors.into_iter().map(XorFunc::from_mask).collect()
    } else {
        // Degenerate low-rank bases: materialize the candidate list and
        // parity-test 64 masks per word op against the basis rows. The
        // scalar sweep is kept as `consistent_masks` and pinned to this
        // path by the differential tests.
        let masks = bits::gen_xor_masks(bank_bits, max_bits);
        gf2::bitslice::filter_constant_masks(&masks, basis.rows())
            .into_iter()
            .map(XorFunc::from_mask)
            .collect()
    };
    resolve_functions(consistent, pivots, needed)
}

/// The seed implementation of Algorithm 3: verifies every candidate mask by
/// scanning every member of every pile on the calling thread. Kept as the
/// reference the fast path is differentially tested against (and as the
/// baseline the benchmarks measure).
///
/// # Errors
///
/// Same conditions as [`detect_bank_functions`].
pub fn detect_bank_functions_naive(
    piles: &[Pile],
    bank_bits: &[u8],
    num_banks: u32,
) -> Result<DetectedFunctions, DramDigError> {
    let pivots = pivots_of(piles);
    let needed = check_inputs(&pivots, num_banks)?;
    let masks = bits::gen_xor_masks(bank_bits, MAX_FUNC_BITS.min(bank_bits.len()));
    let mut consistent: Vec<XorFunc> = Vec::new();
    'mask: for mask in masks {
        for pile in piles {
            if !mask_constant_on_pile(mask, pile) {
                continue 'mask;
            }
        }
        consistent.push(XorFunc::from_mask(mask));
    }
    resolve_functions(consistent, &pivots, needed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;

    use crate::partition::synthetic_piles;

    fn detect_for(setting: &MachineSetting) -> DetectedFunctions {
        let mapping = setting.mapping();
        let piles = synthetic_piles(mapping);
        detect_bank_functions(
            &piles,
            &mapping.bank_function_bits(),
            setting.system.total_banks(),
        )
        .unwrap()
    }

    #[test]
    fn recovers_equivalent_functions_on_every_table_ii_setting() {
        for setting in MachineSetting::all() {
            let detected = detect_for(&setting);
            let truth = gf2::Gf2Matrix::from_funcs(setting.mapping().bank_funcs());
            let mine = gf2::Gf2Matrix::from_funcs(&detected.functions);
            assert_eq!(
                detected.functions.len(),
                setting.mapping().bank_funcs().len(),
                "{}",
                setting.label()
            );
            for f in &detected.functions {
                assert!(
                    truth.spans(f.mask()),
                    "{}: {f} not in ground-truth span",
                    setting.label()
                );
            }
            for f in setting.mapping().bank_funcs() {
                assert!(
                    mine.spans(f.mask()),
                    "{}: {f} not recovered",
                    setting.label()
                );
            }
        }
    }

    #[test]
    fn two_bit_functions_are_recovered_exactly() {
        // On settings whose functions are all 1- or 2-bit masks the minimal
        // basis is unique, so the recovered set matches the paper verbatim.
        for number in [1u8, 3, 4, 7, 8] {
            let setting = MachineSetting::by_number(number).unwrap();
            let detected = detect_for(&setting);
            let mut expected = setting.mapping().bank_funcs().to_vec();
            dram_model::xor_func::canonical_order(&mut expected);
            assert_eq!(detected.functions, expected, "{}", setting.label());
        }
    }

    #[test]
    fn mask_constant_on_pile_detects_inconsistency() {
        let pile = Pile {
            pivot: PhysAddr::new(0),
            members: vec![PhysAddr::new(0), PhysAddr::new(0b100)],
        };
        assert!(!mask_constant_on_pile(0b100, &pile));
        assert!(mask_constant_on_pile(0b1000, &pile));
        let empty = Pile {
            pivot: PhysAddr::new(0),
            members: vec![],
        };
        assert!(mask_constant_on_pile(0b1, &empty));
    }

    #[test]
    fn fast_and_naive_paths_agree_on_every_table_ii_setting() {
        for setting in MachineSetting::all() {
            let mapping = setting.mapping();
            let piles = synthetic_piles(mapping);
            let bank_bits = mapping.bank_function_bits();
            let banks = setting.system.total_banks();
            let fast = detect_bank_functions(&piles, &bank_bits, banks).unwrap();
            let naive = detect_bank_functions_naive(&piles, &bank_bits, banks).unwrap();
            assert_eq!(fast, naive, "{}", setting.label());
        }
    }

    #[test]
    fn merged_basis_verdicts_match_per_pile_scans() {
        let setting = MachineSetting::no6_skylake_ddr4_16g();
        let piles = synthetic_piles(setting.mapping());
        let basis = merged_difference_basis(&piles);
        let bank_bits = setting.mapping().bank_function_bits();
        for mask in bits::gen_xor_masks(&bank_bits, 7) {
            let naive = piles.iter().all(|p| mask_constant_on_pile(mask, p));
            assert_eq!(basis.mask_constant(mask), naive, "mask {mask:#x}");
        }
    }

    #[test]
    fn parallel_sweep_preserves_order_and_verdicts() {
        // A wide synthetic candidate space (16 bits, up to 5-bit masks:
        // 6885 masks) forces the scoped-thread path; verdicts and order
        // must match the serial filter exactly.
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let piles = synthetic_piles(setting.mapping());
        let basis = merged_difference_basis(&piles);
        let wide_bits: Vec<u8> = (8u8..24).collect();
        let masks = bits::gen_xor_masks(&wide_bits, 5);
        assert!(masks.len() >= 2048, "test must exercise the parallel path");
        let parallel = consistent_masks(&masks, &basis);
        let serial: Vec<XorFunc> = masks
            .iter()
            .filter(|&&m| basis.mask_constant(m))
            .map(|&m| XorFunc::from_mask(m))
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn rejects_impossible_inputs() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let piles = synthetic_piles(setting.mapping());
        let bank_bits = setting.mapping().bank_function_bits();
        assert!(matches!(
            detect_bank_functions(&[], &bank_bits, 8),
            Err(DramDigError::FunctionDetection { .. })
        ));
        assert!(matches!(
            detect_bank_functions(&piles, &bank_bits, 12),
            Err(DramDigError::FunctionDetection { .. })
        ));
    }

    #[test]
    fn numbering_check_rejects_dependent_choices() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let pivots = pivots_of(&synthetic_piles(setting.mapping()));
        let funcs = setting.mapping().bank_funcs();
        assert!(numbering_is_valid(funcs, &pivots));
        // Replacing one function with a duplicate of another collapses the
        // numbering.
        let bad = vec![funcs[0], funcs[1], funcs[1]];
        assert!(!numbering_is_valid(&bad, &pivots));
    }
}
