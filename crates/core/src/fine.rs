//! Step 3 — fine-grained row & column bit detection (Section III-E).
//!
//! After Step 2 the bank address functions are known, but some of their input
//! bits double as row or column bits (the "shared bits" of Figure 1). This
//! step classifies every function bit as shared-row, shared-column or pure
//! bank bit using three sources of information:
//!
//! 1. **Two-bit function measurements** — for a two-bit function whose bits
//!    appear in no other function, flipping both bits keeps the bank fixed;
//!    a high latency then proves the *higher* bit is a row bit (and the lower
//!    one a pure bank bit), following the observation of Seaborn and Xiao
//!    et al. that row bits sit above bank bits.
//! 2. **Specification counts** — the DDR data sheet fixes how many row and
//!    column bits exist, so once the measured ones are known the remaining
//!    shared row bits are the highest still-unclassified bits and the shared
//!    column bits are the lowest ones.
//! 3. **The empirical observation** that (since Ivy Bridge) the lowest bit of
//!    the *widest* bank function is not a column bit, which disambiguates the
//!    channel/rank hash functions of dual-channel machines.
//!
//! The validation pass then re-checks every classification of a shared bit with a *compensated* measurement: the bit is
//! flipped together with a set of pure bank bits chosen (by solving a GF(2)
//! system over the recovered functions) so that the bank provably stays the
//! same; the latency must then be high for row bits and low for column bits.

use rand::rngs::StdRng;

use dram_model::{bits, gf2, PhysAddr, XorFunc};
use dram_sim::PhysMemory;
use mem_probe::{ConflictOracle, MemoryProbe};

use crate::coarse::{find_flip_pair, CoarseBits};
use crate::config::{DramDigConfig, PartitionStrategy};
use crate::error::DramDigError;
use crate::knowledge::DomainKnowledge;

/// Final bit classification produced by Step 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FineBits {
    /// All row bits (coarse plus shared), ascending.
    pub row_bits: Vec<u8>,
    /// All column bits (coarse plus shared), ascending.
    pub column_bits: Vec<u8>,
    /// Bits that only feed bank functions, ascending.
    pub pure_bank_bits: Vec<u8>,
    /// Shared row bits confirmed directly by a two-bit-function measurement.
    pub measured_shared_rows: Vec<u8>,
    /// Shared bits assigned from specification counts rather than a direct
    /// measurement.
    pub inferred_bits: Vec<u8>,
}

/// Result of the validation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Number of compensated per-bit checks performed.
    pub bit_checks: u32,
    /// Number of random pair-consistency checks performed.
    pub pair_checks: u32,
    /// Pair classifications replayed from the probe cache (free checks: the
    /// measurement was already paid for by an earlier stage).
    pub cached_checks: u32,
    /// Checks whose outcome disagreed with the recovered mapping.
    pub mismatches: u32,
}

impl ValidationReport {
    /// Fraction of checks that agreed with the recovered mapping.
    pub fn agreement(&self) -> f64 {
        let total = self.bit_checks + self.pair_checks + self.cached_checks;
        if total == 0 {
            1.0
        } else {
            1.0 - f64::from(self.mismatches) / f64::from(total)
        }
    }
}

/// Classifies the shared bits of the recovered bank functions.
///
/// # Errors
///
/// Returns [`DramDigError::Refinement`] when the specification counts cannot
/// be satisfied (too few candidate bits) or when the final pure-bank-bit
/// count does not match the number of functions.
pub fn refine<P: MemoryProbe>(
    oracle: &mut ConflictOracle<P>,
    memory: &PhysMemory,
    coarse: &CoarseBits,
    functions: &[XorFunc],
    knowledge: &DomainKnowledge,
    rng: &mut StdRng,
) -> Result<FineBits, DramDigError> {
    let mut rows: Vec<u8> = coarse.row_bits.clone();
    let mut cols: Vec<u8> = coarse.column_bits.clone();
    let mut pure: Vec<u8> = Vec::new();
    let mut not_row: Vec<u8> = Vec::new();
    let mut measured_shared_rows: Vec<u8> = Vec::new();
    let mut inferred: Vec<u8> = Vec::new();

    let func_union: u64 = functions.iter().fold(0, |m, f| m | f.mask());
    let mut unclassified: Vec<u8> = coarse.bank_bits.clone();

    // --- 1. Two-bit function measurements -------------------------------
    // Pair construction (which consumes the RNG) runs first in function
    // order; the measurements then go to the probe as one batch.
    let mut probes: Vec<((u8, u8), (PhysAddr, PhysAddr))> = Vec::new();
    for f in functions.iter().filter(|f| f.len() == 2) {
        let f_bits = f.bits();
        let (low, high) = (f_bits[0], f_bits[1]);
        let appears_elsewhere = functions
            .iter()
            .filter(|other| *other != f)
            .any(|other| other.contains_bit(low) || other.contains_bit(high));
        if appears_elsewhere {
            continue;
        }
        let Some(pair) = find_flip_pair(memory, f.mask(), rng) else {
            continue;
        };
        probes.push(((low, high), pair));
    }
    let pairs: Vec<(PhysAddr, PhysAddr)> = probes.iter().map(|&(_, p)| p).collect();
    for (&((low, high), _), conflict) in probes.iter().zip(oracle.are_sbdr(&pairs)) {
        if conflict {
            // Same bank by construction, different row: the higher bit is the
            // row bit, the lower one a pure bank bit.
            push_unique(&mut rows, high);
            push_unique(&mut pure, low);
            push_unique(&mut measured_shared_rows, high);
        } else {
            push_unique(&mut not_row, low);
            push_unique(&mut not_row, high);
        }
    }
    unclassified.retain(|b| !rows.contains(b) && !pure.contains(b) && !cols.contains(b));

    // --- 2. Fill the remaining row bits from the specification ----------
    let spec = knowledge.spec().ok();
    if let Some(spec) = spec {
        let expected_rows = spec.row_bits as usize;
        if rows.len() > expected_rows {
            return Err(DramDigError::Refinement {
                reason: format!(
                    "detected {} row bits but the specification allows only {expected_rows}",
                    rows.len()
                ),
            });
        }
        let missing = expected_rows - rows.len();
        let mut candidates: Vec<u8> = unclassified
            .iter()
            .copied()
            .filter(|b| !not_row.contains(b))
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a)); // highest first
        if candidates.len() < missing {
            return Err(DramDigError::Refinement {
                reason: format!(
                    "{missing} row bits still uncovered but only {} candidate bits remain",
                    candidates.len()
                ),
            });
        }
        for &bit in candidates.iter().take(missing) {
            push_unique(&mut rows, bit);
            push_unique(&mut inferred, bit);
        }
        unclassified.retain(|b| !rows.contains(b));

        // --- 3. Fill the remaining column bits --------------------------
        let expected_cols = spec.column_bits as usize;
        if cols.len() > expected_cols {
            return Err(DramDigError::Refinement {
                reason: format!(
                    "detected {} column bits but the specification allows only {expected_cols}",
                    cols.len()
                ),
            });
        }
        let missing_cols = expected_cols - cols.len();
        let mut candidates: Vec<u8> = unclassified.clone();
        if missing_cols > 0 && knowledge.widest_func_rule_applies() {
            if let Some(l) = lowest_bit_of_unique_widest(functions) {
                candidates.retain(|&b| b != l);
            }
        }
        candidates.sort_unstable(); // lowest first
        if candidates.len() < missing_cols {
            return Err(DramDigError::Refinement {
                reason: format!(
                    "{missing_cols} column bits still uncovered but only {} candidate bits remain",
                    candidates.len()
                ),
            });
        }
        for &bit in candidates.iter().take(missing_cols) {
            push_unique(&mut cols, bit);
            push_unique(&mut inferred, bit);
        }
        unclassified.retain(|b| !cols.contains(b));
    } else {
        // Ablation fallback without specification knowledge: every remaining
        // candidate above the lowest known row bit is assumed to be a row
        // bit, the rest pure bank bits. This loses the guarantee that the
        // column count is right — exactly the degradation the ablation
        // experiment quantifies.
        let lowest_row = rows.iter().copied().min().unwrap_or(u8::MAX);
        let (high, low): (Vec<u8>, Vec<u8>) = unclassified
            .iter()
            .copied()
            .filter(|b| !not_row.contains(b))
            .partition(|&b| b > lowest_row);
        for bit in high {
            push_unique(&mut rows, bit);
            push_unique(&mut inferred, bit);
        }
        for bit in low {
            push_unique(&mut inferred, bit);
        }
        unclassified.retain(|b| !rows.contains(b));
        unclassified.extend(
            not_row
                .iter()
                .copied()
                .filter(|b| func_union >> *b & 1 == 0),
        );
    }

    // Everything left over feeds only the bank functions.
    for bit in unclassified {
        push_unique(&mut pure, bit);
    }

    rows.sort_unstable();
    cols.sort_unstable();
    pure.sort_unstable();
    measured_shared_rows.sort_unstable();
    inferred.sort_unstable();

    if spec.is_some() && pure.len() != functions.len() {
        return Err(DramDigError::Refinement {
            reason: format!(
                "{} pure bank bits assigned but {} bank functions were detected",
                pure.len(),
                functions.len()
            ),
        });
    }

    Ok(FineBits {
        row_bits: rows,
        column_bits: cols,
        pure_bank_bits: pure,
        measured_shared_rows,
        inferred_bits: inferred,
    })
}

/// Lowest bit of the function with strictly more bits than every other
/// function, if such a function exists (the empirical rule only applies when
/// the widest function is unambiguous — on single-channel machines all
/// functions are two-bit and the rule is vacuous).
pub fn lowest_bit_of_unique_widest(functions: &[XorFunc]) -> Option<u8> {
    let max_len = functions.iter().map(|f| f.len()).max()?;
    let widest: Vec<&XorFunc> = functions.iter().filter(|f| f.len() == max_len).collect();
    if widest.len() == 1 && max_len >= 3 {
        widest[0].lowest_bit()
    } else {
        None
    }
}

/// Validates the classification with compensated per-bit measurements plus
/// random pair-consistency checks against the fully assembled mapping.
///
/// # Errors
///
/// Returns [`DramDigError::Validation`] when the GF(2) compensation system is
/// singular (cannot happen for a bijective mapping) — measurement
/// disagreements are reported in the [`ValidationReport`], not as errors, so
/// the caller can decide how strict to be.
pub fn validate<P: MemoryProbe>(
    oracle: &mut ConflictOracle<P>,
    memory: &PhysMemory,
    fine: &FineBits,
    functions: &[XorFunc],
    mapping: &dram_model::AddressMapping,
    cfg: &DramDigConfig,
    rng: &mut StdRng,
) -> Result<ValidationReport, DramDigError> {
    let mut report = ValidationReport::default();
    let pure = &fine.pure_bank_bits;
    let a_rows: Vec<u64> = functions
        .iter()
        .map(|f| bits::gather_bits(f.mask(), pure))
        .collect();

    // Compensated per-bit checks for every shared bit.
    let func_union: u64 = functions.iter().fold(0, |m, f| m | f.mask());
    for &bit in fine.row_bits.iter().chain(fine.column_bits.iter()) {
        if func_union >> bit & 1 == 0 {
            continue; // not shared with any function, already covered by Step 1
        }
        let mut rhs = 0u64;
        for (i, f) in functions.iter().enumerate() {
            if f.contains_bit(bit) {
                rhs |= 1 << i;
            }
        }
        let Some(solution) = gf2::solve_square(&a_rows, rhs, functions.len()) else {
            return Err(DramDigError::Validation {
                reason: "pure-bank-bit system is singular; cannot build compensated flips".into(),
            });
        };
        let flip_mask = (1u64 << bit) | bits::scatter_bits(solution, pure);
        let Some((a, b)) = find_flip_pair(memory, flip_mask, rng) else {
            continue;
        };
        let expect_conflict = fine.row_bits.contains(&bit);
        report.bit_checks += 1;
        if oracle.is_sbdr(a, b) != expect_conflict {
            report.mismatches += 1;
        }
    }

    // The decompose path replays the probe cache as free consistency
    // checks: every pair an earlier stage measured must agree with the
    // recovered mapping, and checking costs no measurement at all. A
    // healthy cache then covers the bulk of the confidence budget and the
    // fresh random sample below shrinks accordingly.
    let mut fresh_budget = cfg.validation_samples;
    if cfg.strategy == PartitionStrategy::Decompose {
        if let Some(cache) = oracle.cache() {
            for ((a, b), measured) in cache.entries().take(cfg.validation_samples * 64) {
                report.cached_checks += 1;
                if mapping.is_sbdr(a, b) != measured {
                    report.mismatches += 1;
                }
            }
        }
        if report.cached_checks as usize >= cfg.validation_samples {
            fresh_budget = (cfg.validation_samples / 8).max(4);
        }
    }

    // Random pair-consistency checks: the recovered mapping must predict the
    // measured SBDR relation.
    for _ in 0..fresh_budget {
        let Some(a) = memory.random_page(rng) else {
            break;
        };
        let Some(b) = memory.random_page(rng) else {
            break;
        };
        if a == b {
            continue;
        }
        report.pair_checks += 1;
        let predicted = mapping.is_sbdr(a, b);
        if oracle.is_sbdr(a, b) != predicted {
            report.mismatches += 1;
        }
    }
    Ok(report)
}

fn push_unique(v: &mut Vec<u8>, bit: u8) {
    if !v.contains(&bit) {
        v.push(bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse;
    use dram_model::MachineSetting;
    use dram_sim::{SimConfig, SimMachine};
    use mem_probe::{LatencyCalibration, SimProbe};
    use rand::SeedableRng;

    fn oracle_for(number: u8) -> ConflictOracle<SimProbe> {
        let setting = MachineSetting::by_number(number).unwrap();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let threshold = machine.controller().config().timing.oracle_threshold_ns();
        let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
        ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold))
    }

    fn refine_setting(number: u8) -> (FineBits, MachineSetting) {
        let setting = MachineSetting::by_number(number).unwrap();
        let mut oracle = oracle_for(number);
        let memory = oracle.probe().memory().clone();
        let mut rng = StdRng::seed_from_u64(77);
        let coarse = coarse::detect(&mut oracle, setting.system.address_bits(), &mut rng).unwrap();
        let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
        let fine = refine(
            &mut oracle,
            &memory,
            &coarse,
            setting.mapping().bank_funcs(),
            &knowledge,
            &mut rng,
        )
        .unwrap();
        (fine, setting)
    }

    #[test]
    fn refinement_recovers_exact_bits_on_all_settings() {
        for number in 1..=9u8 {
            let (fine, setting) = refine_setting(number);
            assert_eq!(
                fine.row_bits,
                setting.mapping().row_bits(),
                "{} rows",
                setting.label()
            );
            assert_eq!(
                fine.column_bits,
                setting.mapping().column_bits(),
                "{} columns",
                setting.label()
            );
            assert_eq!(
                fine.pure_bank_bits,
                setting.mapping().pure_bank_bits(),
                "{} pure bank bits",
                setting.label()
            );
        }
    }

    #[test]
    fn two_bit_measurements_cover_isolated_functions() {
        // Machine No.4: all three functions are isolated two-bit functions,
        // so every shared row bit is measured rather than inferred.
        let (fine, _) = refine_setting(4);
        assert_eq!(fine.measured_shared_rows, vec![16, 17, 18]);
        assert!(fine.inferred_bits.is_empty());
    }

    #[test]
    fn spec_counting_fills_entangled_functions() {
        // Machine No.6: bits 19 and 22 sit in two functions each, so they can
        // only be inferred from the specification counts.
        let (fine, _) = refine_setting(6);
        assert!(fine.inferred_bits.contains(&19));
        assert!(fine.inferred_bits.contains(&22));
        assert!(fine.measured_shared_rows.contains(&20));
        assert!(fine.measured_shared_rows.contains(&21));
    }

    #[test]
    fn widest_rule_detection() {
        let no6 = MachineSetting::no6_skylake_ddr4_16g();
        assert_eq!(
            lowest_bit_of_unique_widest(no6.mapping().bank_funcs()),
            Some(8)
        );
        let no2 = MachineSetting::no2_ivy_bridge_ddr3_8g();
        assert_eq!(
            lowest_bit_of_unique_widest(no2.mapping().bank_funcs()),
            Some(7)
        );
        let no7 = MachineSetting::no7_skylake_ddr4_4g();
        assert_eq!(
            lowest_bit_of_unique_widest(no7.mapping().bank_funcs()),
            None
        );
        let no1 = MachineSetting::no1_sandy_bridge_ddr3_8g();
        assert_eq!(
            lowest_bit_of_unique_widest(no1.mapping().bank_funcs()),
            None
        );
        assert_eq!(lowest_bit_of_unique_widest(&[]), None);
    }

    #[test]
    fn validation_agrees_on_a_correct_classification() {
        let (fine, setting) = refine_setting(6);
        let mut oracle = oracle_for(6);
        let memory = oracle.probe().memory().clone();
        let cfg = DramDigConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mapping = dram_model::AddressMapping::new(
            setting.mapping().bank_funcs().to_vec(),
            fine.row_bits.clone(),
            fine.column_bits.clone(),
        )
        .unwrap();
        let report = validate(
            &mut oracle,
            &memory,
            &fine,
            setting.mapping().bank_funcs(),
            &mapping,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert!(report.bit_checks > 0);
        assert!(report.pair_checks > 0);
        assert!(
            report.agreement() > 0.95,
            "agreement {}",
            report.agreement()
        );
    }

    #[test]
    fn validation_flags_a_wrong_classification() {
        let (mut fine, setting) = refine_setting(6);
        // Swap a shared row bit and a shared column bit: 22 (row) <-> 13 (col).
        fine.row_bits.retain(|&b| b != 22);
        fine.row_bits.push(13);
        fine.row_bits.sort_unstable();
        fine.column_bits.retain(|&b| b != 13);
        fine.column_bits.push(22);
        fine.column_bits.sort_unstable();
        let mut oracle = oracle_for(6);
        let memory = oracle.probe().memory().clone();
        let cfg = DramDigConfig::default();
        let mut rng = StdRng::seed_from_u64(6);
        let mapping = dram_model::AddressMapping::new(
            setting.mapping().bank_funcs().to_vec(),
            fine.row_bits.clone(),
            fine.column_bits.clone(),
        )
        .unwrap();
        let report = validate(
            &mut oracle,
            &memory,
            &fine,
            setting.mapping().bank_funcs(),
            &mapping,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert!(report.mismatches > 0, "swapped bits must be caught");
    }

    #[test]
    fn refinement_without_spec_still_finds_measured_rows() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let mut oracle = oracle_for(4);
        let memory = oracle.probe().memory().clone();
        let mut rng = StdRng::seed_from_u64(8);
        let coarse = coarse::detect(&mut oracle, setting.system.address_bits(), &mut rng).unwrap();
        let knowledge =
            DomainKnowledge::new(setting.system, Some(setting.microarch)).without_specifications();
        let fine = refine(
            &mut oracle,
            &memory,
            &coarse,
            setting.mapping().bank_funcs(),
            &knowledge,
            &mut rng,
        )
        .unwrap();
        // The measured shared rows are still found even without the spec.
        assert!(fine.row_bits.contains(&16));
        assert!(fine.row_bits.contains(&17));
        assert!(fine.row_bits.contains(&18));
    }
}
