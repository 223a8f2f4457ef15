//! Step 1 — coarse-grained row & column bit detection (Section III-C).
//!
//! For every physical-address bit the detector measures the latency of a pair
//! of addresses that differ *only* in that bit. A row-buffer conflict (high
//! latency) means the two addresses are in the same bank but different rows,
//! so the flipped bit must index rows. Column bits are found the same way but
//! flipping one *known* row bit together with the candidate bit: if the pair
//! still conflicts, the candidate bit changed neither the bank nor anything
//! that matters for the row, i.e. it is a column bit.
//!
//! Bits that participate in a bank address function change the bank when
//! flipped, so they show *low* latency in both tests and fall through to the
//! "possible bank bits" set `B`, exactly as in the paper's Figure 1 (the grey
//! boxes). Step 3 later decides which of those are actually shared row or
//! column bits.

use rand::rngs::StdRng;

use dram_model::{PhysAddr, PAGE_SHIFT};
use dram_sim::PhysMemory;
use mem_probe::{ConflictOracle, MemoryProbe};

use crate::error::DramDigError;

/// Random base pages [`find_flip_pair`] tries before declaring a flip mask
/// unreachable in the page pool (no paper value: the paper assumes the
/// buddy page is available).
pub(crate) const MAX_BASES_PER_BIT: u32 = 16;

/// Result of the coarse-grained detection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoarseBits {
    /// Bits that index rows and do not participate in bank functions.
    pub row_bits: Vec<u8>,
    /// Bits that index columns and do not participate in bank functions.
    pub column_bits: Vec<u8>,
    /// The remaining bits — candidates for bank address functions
    /// (pure bank bits plus shared row/column bits).
    pub bank_bits: Vec<u8>,
    /// Bits for which no measurable address pair could be built from the
    /// available page pool (they are conservatively treated as bank bits).
    pub undetermined: Vec<u8>,
}

impl CoarseBits {
    /// Total number of classified bits (row + column + bank candidates).
    pub fn total_bits(&self) -> usize {
        self.row_bits.len() + self.column_bits.len() + self.bank_bits.len()
    }
}

/// Finds a pair of addresses in the page pool that differ exactly in the bits
/// of `flip_mask`.
///
/// Bits below the page shift can always be satisfied within a single page;
/// higher bits require the buddy page to be present in the pool, so up to
/// 16 random base pages (`MAX_BASES_PER_BIT`) are tried.
pub fn find_flip_pair(
    memory: &PhysMemory,
    flip_mask: u64,
    rng: &mut StdRng,
) -> Option<(PhysAddr, PhysAddr)> {
    let page_mask = flip_mask >> PAGE_SHIFT << PAGE_SHIFT;
    for _ in 0..MAX_BASES_PER_BIT {
        let base = memory.random_page(rng)?;
        let buddy = base ^ flip_mask;
        if page_mask == 0 || memory.contains(buddy) {
            return Some((base, buddy));
        }
    }
    None
}

/// Performs the coarse-grained detection over `address_bits` physical-address
/// bits.
///
/// # Errors
///
/// Returns [`DramDigError::CoarseDetection`] when no row bit at all can be
/// found (the timing channel is unusable) — column detection depends on
/// having at least one known row bit.
pub fn detect<P: MemoryProbe>(
    oracle: &mut ConflictOracle<P>,
    address_bits: u8,
    rng: &mut StdRng,
) -> Result<CoarseBits, DramDigError> {
    let memory = oracle.probe().memory().clone();
    let mut result = CoarseBits::default();

    // Row bits: flip one bit at a time. The pairs are built first (so the
    // RNG sequence matches the historical per-bit loop) and measured as one
    // batch through the probe's batched entry point.
    let mut row_probes: Vec<(u8, (PhysAddr, PhysAddr))> = Vec::new();
    for bit in 0..address_bits {
        match find_flip_pair(&memory, 1u64 << bit, rng) {
            Some(pair) => row_probes.push((bit, pair)),
            None => result.undetermined.push(bit),
        }
    }
    let row_pairs: Vec<(PhysAddr, PhysAddr)> = row_probes.iter().map(|&(_, p)| p).collect();
    for (&(bit, _), conflict) in row_probes.iter().zip(oracle.are_sbdr(&row_pairs)) {
        if conflict {
            result.row_bits.push(bit);
        }
    }
    if result.row_bits.is_empty() {
        return Err(DramDigError::CoarseDetection {
            reason: "no row bit produced a row-buffer conflict; timing channel unusable".into(),
        });
    }

    // Column bits: flip a known row bit together with the candidate bit.
    // Only the first reachable (candidate, row-bit) pair per candidate is
    // measured, exactly as before — but again as one batch.
    let reference_rows: Vec<u8> = result.row_bits.clone();
    let mut col_probes: Vec<(u8, (PhysAddr, PhysAddr))> = Vec::new();
    for bit in 0..address_bits {
        if result.row_bits.contains(&bit) || result.undetermined.contains(&bit) {
            continue;
        }
        let mut classified = false;
        for &row_bit in &reference_rows {
            let mask = (1u64 << bit) | (1u64 << row_bit);
            if let Some(pair) = find_flip_pair(&memory, mask, rng) {
                col_probes.push((bit, pair));
                classified = true;
                break;
            }
        }
        if !classified {
            result.undetermined.push(bit);
        }
    }
    let col_pairs: Vec<(PhysAddr, PhysAddr)> = col_probes.iter().map(|&(_, p)| p).collect();
    for (&(bit, _), conflict) in col_probes.iter().zip(oracle.are_sbdr(&col_pairs)) {
        if conflict {
            result.column_bits.push(bit);
        }
    }

    // Everything else is a bank-bit candidate.
    for bit in 0..address_bits {
        if !result.row_bits.contains(&bit) && !result.column_bits.contains(&bit) {
            result.bank_bits.push(bit);
        }
    }
    result.undetermined.sort_unstable();
    result.undetermined.dedup();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn ground_truth_coarse(number: u8) -> (Vec<u8>, Vec<u8>) {
        let setting = MachineSetting::by_number(number).unwrap();
        let mapping = setting.mapping();
        let func_bits = mapping.bank_function_bits();
        let rows: Vec<u8> = mapping
            .row_bits()
            .iter()
            .copied()
            .filter(|b| !func_bits.contains(b))
            .collect();
        let cols: Vec<u8> = mapping
            .column_bits()
            .iter()
            .copied()
            .filter(|b| !func_bits.contains(b))
            .collect();
        (rows, cols)
    }

    #[test]
    fn coarse_detection_matches_ground_truth_on_haswell() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let mut oracle = oracle_for(4);
        let mut rng = StdRng::seed_from_u64(1);
        let coarse = detect(&mut oracle, setting.system.address_bits(), &mut rng).unwrap();
        let (rows, cols) = ground_truth_coarse(4);
        assert_eq!(coarse.row_bits, rows);
        assert_eq!(coarse.column_bits, cols);
        assert!(coarse.undetermined.is_empty());
        assert_eq!(coarse.total_bits(), 32);
    }

    #[test]
    fn coarse_detection_matches_ground_truth_on_skylake_ddr4() {
        let setting = MachineSetting::no6_skylake_ddr4_16g();
        let mut oracle = oracle_for(6);
        let mut rng = StdRng::seed_from_u64(2);
        let coarse = detect(&mut oracle, setting.system.address_bits(), &mut rng).unwrap();
        let (rows, cols) = ground_truth_coarse(6);
        assert_eq!(coarse.row_bits, rows);
        assert_eq!(coarse.column_bits, cols);
        // Shared bits must have fallen through to the bank candidates.
        let truth_funcs = setting.mapping().bank_function_bits();
        for bit in truth_funcs {
            assert!(
                coarse.bank_bits.contains(&bit),
                "bit {bit} should be a bank candidate"
            );
        }
    }

    #[test]
    fn find_flip_pair_respects_pool_membership() {
        let memory = PhysMemory::from_frames(vec![0, 1], 1024);
        let mut rng = StdRng::seed_from_u64(3);
        // Bit 12 flips between frames 0 and 1 — both present.
        let (a, b) = find_flip_pair(&memory, 1 << 12, &mut rng).unwrap();
        assert_eq!(a.raw() ^ b.raw(), 1 << 12);
        // Bit 20 would need frame 256, which is absent.
        assert!(find_flip_pair(&memory, 1 << 20, &mut rng).is_none());
        // Sub-page bits never need a second page.
        assert!(find_flip_pair(&memory, 1 << 3, &mut rng).is_some());
    }

    #[test]
    fn missing_high_pages_are_reported_as_undetermined() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let threshold = machine.controller().config().timing.oracle_threshold_ns();
        // Only the low 1 MiB of the module is available: bits ≥ 20 can never
        // be flipped within the pool.
        let memory =
            PhysMemory::from_frames((0..256).collect(), setting.system.capacity_bytes / 4096);
        let probe = SimProbe::new(machine, memory);
        let mut oracle = ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold));
        let mut rng = StdRng::seed_from_u64(4);
        let coarse = detect(&mut oracle, setting.system.address_bits(), &mut rng).unwrap();
        assert!(coarse.undetermined.contains(&31));
        // Undetermined bits are conservatively bank candidates.
        assert!(coarse.bank_bits.contains(&31));
    }
}
