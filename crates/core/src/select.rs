//! Step 2a — physical-address selection (Algorithm 1 of the paper).
//!
//! Given the candidate bank bits `B` from Step 1, the selection picks a set
//! of physical addresses that covers *every combination* of those bits while
//! keeping all other bits fixed, so that the later pile partition exposes all
//! bank address functions. Bits inside the `[b_min, b_max]` range that are
//! not in `B` are forced to 1 through the paper's `miss_mask`, which keeps
//! the pool size at `2^|B|` instead of `2^(b_max - b_min + 1)`.

use dram_model::{PhysAddr, PAGE_SIZE};
use dram_sim::PhysMemory;

use crate::error::DramDigError;

/// Outcome of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedPool {
    /// The selected physical addresses (distinct, ascending).
    pub addresses: Vec<PhysAddr>,
    /// Start of the contiguous physical range the pool was drawn from.
    pub range_start: PhysAddr,
    /// Exclusive end of that range.
    pub range_end: PhysAddr,
    /// The `miss_mask` of Algorithm 1: bits inside the bank-bit span that do
    /// not belong to `B` and were therefore pinned to 1.
    pub miss_mask: u64,
}

impl SelectedPool {
    /// Number of selected addresses.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// Returns `true` if no addresses were selected.
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }
}

/// Runs Algorithm 1: selects physical addresses covering all combinations of
/// the candidate bank bits.
///
/// # Errors
///
/// Returns [`DramDigError::Selection`] when `bank_bits` is empty, when no
/// allocated page has all bank-range bits set (so no suitable range exists),
/// or when the resulting pool is too small to partition.
pub fn select_addresses(
    memory: &PhysMemory,
    bank_bits: &[u8],
    max_pool: Option<usize>,
) -> Result<SelectedPool, DramDigError> {
    select_with(memory, bank_bits, max_pool, enumerate_pool)
}

/// Where Algorithm 1 draws its pool from: the bank-bit span, its miss mask
/// and the contiguous physical range anchored on a page with every
/// page-granular span bit set.
struct PoolFrame {
    b_min: u8,
    range_mask: u64,
    miss_mask: u64,
    range_start: PhysAddr,
    range_end: PhysAddr,
}

/// Algorithm 1 with a pluggable pool enumeration: frames the range, lets
/// `enumerate` list the candidate addresses (distinct, ascending), then
/// applies the optional cap and the minimum-size check.
fn select_with(
    memory: &PhysMemory,
    bank_bits: &[u8],
    max_pool: Option<usize>,
    enumerate: fn(&PhysMemory, &PoolFrame) -> Vec<PhysAddr>,
) -> Result<SelectedPool, DramDigError> {
    if bank_bits.is_empty() {
        return Err(DramDigError::Selection {
            reason: "no candidate bank bits".into(),
        });
    }
    let b_min = *bank_bits.iter().min().expect("non-empty");
    let b_max = *bank_bits.iter().max().expect("non-empty");
    let range_mask = (1u128 << (b_max + 1)) as u64 - (1u64 << b_min);
    let mut miss_mask = 0u64;
    for b in b_min..=b_max {
        if !bank_bits.contains(&b) {
            miss_mask |= 1u64 << b;
        }
    }

    // Find a page whose (page-granular) bank-range bits are all ones and
    // whose preceding range is fully backed by allocated pages (the paper's
    // `page_miss` check). Bits below the page shift are offsets within a
    // page and are always available. Fall back to the last candidate page
    // even if the range has holes — individual addresses are
    // membership-checked below anyway.
    let page_range_mask = range_mask & !(PAGE_SIZE - 1);
    let mut chosen: Option<PhysAddr> = None;
    let mut fallback: Option<PhysAddr> = None;
    for page in memory.pages_with_bits(page_range_mask) {
        fallback = Some(page);
        let start = page - page_range_mask;
        let end = page + PAGE_SIZE;
        if memory.covers_range(start, end) {
            chosen = Some(page);
            break;
        }
    }
    let anchor = chosen.or(fallback).ok_or_else(|| DramDigError::Selection {
        reason: format!(
            "no allocated page has all bank-range bits [{b_min}, {b_max}] set; \
             the page pool does not cover the required range"
        ),
    })?;
    let frame = PoolFrame {
        b_min,
        range_mask,
        miss_mask,
        range_start: anchor - page_range_mask,
        range_end: anchor + PAGE_SIZE,
    };
    let mut addresses = enumerate(memory, &frame);

    if let Some(cap) = max_pool {
        if addresses.len() > cap {
            // Keep a seeded random subsample. Every bank bit keeps varying
            // (unlike a strided subsample, which would pin the low bank
            // bits), but pile sizes become less uniform, so capping trades
            // partition robustness for speed — the default configuration
            // therefore does not cap.
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(addresses.len() as u64);
            addresses.shuffle(&mut rng);
            addresses.truncate(cap);
            addresses.sort_unstable();
        }
    }

    if addresses.len() < 2 {
        return Err(DramDigError::Selection {
            reason: format!(
                "only {} addresses selected; the page pool is too sparse over the bank-bit range",
                addresses.len()
            ),
        });
    }

    Ok(SelectedPool {
        addresses,
        range_start: frame.range_start,
        range_end: frame.range_end,
        miss_mask,
    })
}

/// Lists the pool in `O(2^|free|)`: every subset of the free bits on top of
/// `range_start | miss_mask`, in ascending order, keeping the addresses
/// whose pages we actually own. The free bits are the span bits outside the
/// miss mask plus, when the whole span sits inside one page, the in-page
/// bits above it — exactly the distinct addresses a stride-`2^b_min` walk of
/// the range visits once its miss-mask bits are pinned. `range_start` has
/// every free bit clear, so `base | y` ascends with `y`.
fn enumerate_pool(memory: &PhysMemory, frame: &PoolFrame) -> Vec<PhysAddr> {
    let free =
        (frame.range_mask | (PAGE_SIZE - 1)) & !((1u64 << frame.b_min) - 1) & !frame.miss_mask;
    let base = frame.range_start.raw() | frame.miss_mask;
    // Sized for a fully backed range, capped for sparse pools over wide
    // spans.
    let mut addresses = Vec::with_capacity(1usize << free.count_ones().min(20));
    let mut y = 0u64;
    loop {
        let candidate = PhysAddr::new(base | y);
        if memory.contains(candidate) {
            addresses.push(candidate);
        }
        if y == free {
            break;
        }
        // Next subset of `free` in ascending order: carry through the
        // non-free bits.
        y = (y | !free).wrapping_add(1) & free;
    }
    addresses
}

/// Expected pool size when the page pool fully covers the bank-bit range:
/// one address per combination of the bank bits at or above the page shift,
/// times one per combination of sub-page bank bits.
pub fn expected_pool_size(bank_bits: &[u8]) -> usize {
    1usize << bank_bits.len()
}

/// Convenience: the span mask `[b_min, b_max]` of a bank-bit set.
pub fn range_mask_of(bank_bits: &[u8]) -> u64 {
    if bank_bits.is_empty() {
        return 0;
    }
    let b_min = *bank_bits.iter().min().expect("non-empty");
    let b_max = *bank_bits.iter().max().expect("non-empty");
    ((1u128 << (b_max + 1)) as u64).wrapping_sub(1u64 << b_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::{bits, MachineSetting};

    fn coarse_bank_bits(setting: &MachineSetting) -> Vec<u8> {
        setting.mapping().bank_function_bits()
    }

    /// The original enumeration, kept as the differential oracle of
    /// [`enumerate_pool`]: walk the whole range with a stride of `2^b_min`,
    /// pin the miss-mask bits to one, keep the owned addresses, then sort
    /// and deduplicate.
    fn strided_walk(memory: &PhysMemory, frame: &PoolFrame) -> Vec<PhysAddr> {
        let stride = 1u64 << frame.b_min;
        let mut addresses = Vec::new();
        let mut p = frame.range_start.raw();
        while p < frame.range_end.raw() {
            let candidate = PhysAddr::new(p | frame.miss_mask);
            if memory.contains(candidate) {
                addresses.push(candidate);
            }
            p += stride;
        }
        addresses.sort_unstable();
        addresses.dedup();
        addresses
    }

    /// Asserts that the pool enumeration and the strided oracle select the
    /// same pool (or fail with the same error).
    fn assert_matches_oracle(memory: &PhysMemory, bank_bits: &[u8], max_pool: Option<usize>) {
        let fast = select_addresses(memory, bank_bits, max_pool);
        let oracle = select_with(memory, bank_bits, max_pool, strided_walk);
        match (fast, oracle) {
            (Ok(fast), Ok(oracle)) => {
                assert_eq!(fast, oracle, "bank bits {bank_bits:?}, cap {max_pool:?}")
            }
            (fast, oracle) => assert_eq!(
                format!("{fast:?}"),
                format!("{oracle:?}"),
                "bank bits {bank_bits:?}, cap {max_pool:?}"
            ),
        }
    }

    /// A random bank-bit set inside `[lo, hi]` spanning at most `max_span`
    /// bits.
    fn random_bank_bits(rng: &mut rand::rngs::StdRng, lo: u8, hi: u8, max_span: u8) -> Vec<u8> {
        use rand::Rng;
        let b_min = rng.gen_range(lo..=hi);
        let b_max = rng.gen_range(b_min..=hi.min(b_min + max_span - 1));
        let mut bank_bits = vec![b_min];
        for b in b_min + 1..b_max {
            if rng.gen_bool(0.6) {
                bank_bits.push(b);
            }
        }
        if b_max > b_min {
            bank_bits.push(b_max);
        }
        bank_bits
    }

    #[test]
    fn enumeration_matches_the_strided_oracle_on_generated_machines() {
        use dram_model::{MachineClass, MachineGen};
        let mut checked = 0;
        for seed in 0..24 {
            for class in [
                MachineClass::InScope,
                MachineClass::WideFunction,
                MachineClass::RowRemap,
            ] {
                let machine = MachineGen::new(seed).generate(class);
                let bank_bits = machine.mapping().bank_function_bits();
                // Bound the oracle's walk (2^span candidates) in unoptimised
                // test builds.
                if range_mask_of(&bank_bits).count_ones() > 18 {
                    continue;
                }
                let memory = PhysMemory::full(machine.system.capacity_bytes);
                let cap = (seed % 4 == 0).then_some(1000);
                assert_matches_oracle(&memory, &bank_bits, cap);
                checked += 1;
            }
        }
        assert!(checked >= 60, "only {checked} generated machines checked");
    }

    #[test]
    fn enumeration_matches_the_strided_oracle_on_random_bit_sets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e1ec7);
        let full = PhysMemory::full(1 << 32);
        // Sparse pools: a random 70% of the first 64 MiB, and a few large
        // allocated runs with holes between them.
        let total_frames = (1u64 << 32) / PAGE_SIZE;
        let scattered: Vec<u64> = (0..1u64 << 14).filter(|_| rng.gen_bool(0.7)).collect();
        let scattered = PhysMemory::from_frames(scattered, total_frames);
        let runs: Vec<u64> = (0..1u64 << 16)
            .filter(|f| (f >> 11) % 3 != 1 && f % 517 != 0)
            .collect();
        let runs = PhysMemory::from_frames(runs, total_frames);
        for _ in 0..400 {
            let bank_bits = random_bank_bits(&mut rng, 6, 26, 14);
            let cap = rng.gen_bool(0.3).then(|| rng.gen_range(2..5000usize));
            assert_matches_oracle(&full, &bank_bits, cap);
            assert_matches_oracle(&scattered, &bank_bits, cap);
            assert_matches_oracle(&runs, &bank_bits, cap);
        }
    }

    #[test]
    fn enumeration_matches_the_strided_oracle_below_the_page_shift() {
        // Every bank bit below the page shift: the range is one page and the
        // in-page bits above `b_max` vary too.
        let memory = PhysMemory::full(1 << 30);
        let sparse = PhysMemory::from_frames(vec![3, 4, 9], (1 << 30) / PAGE_SIZE);
        for bank_bits in [
            vec![7],
            vec![6],
            vec![11],
            vec![6, 8],
            vec![6, 9, 11],
            vec![7, 10],
            vec![10, 13],
            vec![6, 12],
        ] {
            for cap in [None, Some(4), Some(40)] {
                assert_matches_oracle(&memory, &bank_bits, cap);
                assert_matches_oracle(&sparse, &bank_bits, cap);
            }
        }
        let pool = select_addresses(&memory, &[7], None).unwrap();
        assert_eq!(pool.len(), 1 << 5, "bits 7..=11 vary inside the page");
    }

    #[test]
    fn full_pool_covers_every_bank_bit_combination() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let bank_bits = coarse_bank_bits(&setting);
        let memory = PhysMemory::full(setting.system.capacity_bytes);
        let pool = select_addresses(&memory, &bank_bits, None).unwrap();
        assert_eq!(pool.len(), expected_pool_size(&bank_bits));
        // Every combination of the bank bits appears exactly once.
        let mut combos: Vec<u64> = pool
            .addresses
            .iter()
            .map(|a| bits::gather_bits(a.raw(), &bank_bits))
            .collect();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), pool.len());
    }

    #[test]
    fn miss_mask_pins_non_bank_bits() {
        let setting = MachineSetting::no8_coffee_lake_ddr4_8g();
        let bank_bits = coarse_bank_bits(&setting); // {6, 13..19}
        let memory = PhysMemory::full(setting.system.capacity_bytes);
        let pool = select_addresses(&memory, &bank_bits, None).unwrap();
        assert_ne!(pool.miss_mask, 0);
        for addr in &pool.addresses {
            assert_eq!(addr.raw() & pool.miss_mask, pool.miss_mask);
        }
    }

    #[test]
    fn addresses_differ_only_in_bank_bits_and_low_bits() {
        let setting = MachineSetting::no7_skylake_ddr4_4g();
        let bank_bits = coarse_bank_bits(&setting);
        let memory = PhysMemory::full(setting.system.capacity_bytes);
        let pool = select_addresses(&memory, &bank_bits, None).unwrap();
        let allowed = bits::mask_of(&bank_bits);
        let base = pool.addresses[0].raw() & !allowed;
        for addr in &pool.addresses {
            assert_eq!(addr.raw() & !allowed, base);
        }
    }

    #[test]
    fn pool_cap_subsamples_uniformly() {
        let setting = MachineSetting::no6_skylake_ddr4_16g();
        let bank_bits = coarse_bank_bits(&setting);
        let memory = PhysMemory::full(setting.system.capacity_bytes);
        let capped = select_addresses(&memory, &bank_bits, Some(1000)).unwrap();
        assert!(capped.len() <= 1000);
        assert!(capped.len() >= 900);
    }

    #[test]
    fn empty_bank_bits_is_rejected() {
        let memory = PhysMemory::full(1 << 20);
        assert!(matches!(
            select_addresses(&memory, &[], None),
            Err(DramDigError::Selection { .. })
        ));
    }

    #[test]
    fn sparse_pool_without_required_range_is_rejected() {
        // Only the first 16 pages of a 1 GiB module: bit 25 can never be set.
        let memory = PhysMemory::from_frames((0..16).collect(), (1 << 30) / PAGE_SIZE);
        assert!(matches!(
            select_addresses(&memory, &[13, 25], None),
            Err(DramDigError::Selection { .. })
        ));
    }

    #[test]
    fn range_mask_helper() {
        assert_eq!(range_mask_of(&[6, 13]), (1 << 14) - (1 << 6));
        assert_eq!(range_mask_of(&[]), 0);
    }
}
