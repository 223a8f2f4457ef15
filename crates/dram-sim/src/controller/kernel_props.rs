//! Differential properties of the alternating-pair kernel
//! ([`MemoryController::access_alternating`]) against its reference twin
//! ([`MemoryController::access_decoded`], reached through
//! [`MemoryController::access`]).
//!
//! Two controllers built identically run the same access sequence, one
//! through the kernel and one access by access through the reference.
//! Everything either can observe must then agree: the latency vectors,
//! [`SimStats`], the next RNG draw, the open rows, the TRR counters, the
//! rowhammer pressure around both aggressors and the flips.

use proptest::prelude::*;
use rand::Rng;

use dram_model::{DramAddress, MachineClass, MachineGen};

use super::*;
use crate::config::TimingParams;

/// The simulator profiles the kernel must reproduce: the default noise, the
/// TRR sampler, no noise at all, an elevated outlier rate, and the fast
/// rowhammer profile whose short refresh window falls inside bursts.
fn profiles() -> [SimConfig; 5] {
    [
        SimConfig::default(),
        SimConfig::trr_noise(),
        SimConfig::noiseless(),
        SimConfig {
            timing: TimingParams {
                outlier_probability: 0.05,
                ..TimingParams::default()
            },
            ..SimConfig::default()
        },
        SimConfig::fast_rowhammer(),
    ]
}

fn controller(seed: u64, remap: bool, config: SimConfig) -> MemoryController {
    let class = if remap {
        MachineClass::RowRemap
    } else {
        MachineClass::InScope
    };
    SimMachine::from_generated(&MachineGen::new(seed).generate(class), config)
        .controller()
        .clone()
}

/// An aggressor pair of the given shape on `c`'s mapping: two unrelated
/// addresses, a same-bank different-row pair, the two rows around a victim
/// (double-sided), or one address twice.
fn pair(c: &MemoryController, shape: u8, pick: u64) -> (PhysAddr, PhysAddr) {
    let m = c.mapping();
    let (banks, rows, cols) = (
        u64::from(m.num_banks()),
        u64::from(m.num_rows()),
        u64::from(m.num_columns()),
    );
    let bank = (pick % banks) as u32;
    let row = (2 + (pick >> 8) % (rows - 4)) as u32;
    let col = ((pick >> 40) % cols) as u32 & !7;
    let at = |bank: u32, row: u32| m.to_phys(DramAddress::new(bank, row, col)).unwrap();
    match shape {
        0 => {
            let other = (pick.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) % m.capacity_bytes();
            (at(bank, row), PhysAddr::new(other & !7))
        }
        1 => (
            at(bank, row),
            at(bank, (row + 1 + (pick >> 24) as u32 % 97) % rows as u32),
        ),
        2 => (at(bank, row - 1), at(bank, row + 1)),
        _ => (at(bank, row), at(bank, row)),
    }
}

/// Everything the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    latencies: Vec<u64>,
    stats: SimStats,
    next_draw: u64,
    open_rows: Vec<Option<u32>>,
    trr_counters: Vec<u64>,
    /// `pressure_on` for the rows at and around both aggressors.
    pressure: Vec<(u32, u32)>,
    /// The flips left after a final refresh.
    flips: Vec<BitFlip>,
}

/// Runs the same `prefix` of reference accesses, then `accesses` accesses
/// alternating between `a` and `b` through the kernel or the reference.
fn run(
    c: &mut MemoryController,
    kernel: bool,
    prefix: &[PhysAddr],
    (a, b): (PhysAddr, PhysAddr),
    accesses: u64,
) -> Observed {
    for &addr in prefix {
        c.access(addr);
    }
    let mut latencies = Vec::new();
    if kernel {
        c.access_alternating(a, b, accesses, |l| latencies.push(l));
    } else {
        for i in 0..accesses {
            latencies.push(c.access(if i % 2 == 0 { a } else { b }));
        }
    }
    let mut pressure = Vec::new();
    for addr in [a, b] {
        let bank = c.decode(addr).bank;
        let row = c.array_row(addr);
        for victim in row.saturating_sub(1)..=row + 1 {
            pressure.push(c.flip_model.pressure_on(bank, victim));
        }
    }
    let stats = c.stats();
    let next_draw = c.rng.gen::<u64>();
    let open_rows = c.open_rows.clone();
    let trr_counters = c.trr_counters.clone();
    c.refresh();
    Observed {
        latencies,
        stats,
        next_draw,
        open_rows,
        trr_counters,
        pressure,
        flips: c.take_flips(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_the_reference_access_by_access(
        seed in 0u64..1 << 20,
        remap in any::<bool>(),
        profile in 0usize..5,
        shape in 0u8..4,
        pick in any::<u64>(),
        prefix_picks in proptest::collection::vec(any::<u64>(), 0..6),
        accesses in 0u64..600,
    ) {
        let config = profiles()[profile].clone();
        let base = controller(seed, remap, config);
        let aggressors = pair(&base, shape, pick);
        let prefix: Vec<PhysAddr> = prefix_picks
            .iter()
            .map(|&p| PhysAddr::new((p % base.mapping().capacity_bytes()) & !7))
            .collect();
        let reference = run(&mut base.clone(), false, &prefix, aggressors, accesses);
        let kernel = run(&mut base.clone(), true, &prefix, aggressors, accesses);
        prop_assert_eq!(kernel, reference);
    }
}

/// A double-sided burst on the fast rowhammer profile long enough to span
/// several refresh windows: the kernel must flush its local pressure before
/// each refresh so the flips it materialises are the reference's.
#[test]
fn kernel_matches_the_reference_across_refreshes_inside_a_burst() {
    for (seed, remap) in [(3, false), (11, true), (29, false), (40, true)] {
        let base = controller(seed, remap, SimConfig::fast_rowhammer());
        let m = base.mapping();
        // Pick the victim in DRAM-array rows; the remap (an involution)
        // turns its array neighbours back into address-space rows.
        let victim = (2..m.num_rows() - 2)
            .find(|&r| base.flip_model.row_vulnerability(0, r) > 0.3)
            .unwrap();
        let logical = |row: u32| base.row_remap.map_or(row, |r| r.apply(row));
        let at = |row: u32| m.to_phys(DramAddress::new(0, logical(row), 0)).unwrap();
        let aggressors = (at(victim - 1), at(victim + 1));
        let accesses = 24_000;
        let reference = run(&mut base.clone(), false, &[], aggressors, accesses);
        let kernel = run(&mut base.clone(), true, &[], aggressors, accesses);
        assert!(
            reference.stats.refreshes >= 3,
            "the burst must contain refreshes ({} seen)",
            reference.stats.refreshes
        );
        assert!(!reference.flips.is_empty(), "the burst must flip bits");
        assert_eq!(kernel, reference, "seed {seed}, remap {remap}");
    }
}

/// Refreshes that sample flips, placed at the seams of the kernel's chunks.
/// A refresh inside a chunk draws from the RNG after the chunk's uniforms
/// were already drawn, so the kernel must rewind and replay exactly the
/// draws of the accesses made before it. The burst (100 accesses, not a
/// multiple of [`noise::CHUNK`]) follows a reference prefix that loads a
/// double-sided victim past its flip threshold with the refresh held off;
/// the refresh deadline is then set to fall right after access `at` of the
/// burst, for every access: the first, each middle and the last access of
/// every chunk, including the partial last one.
#[test]
fn kernel_matches_the_reference_with_a_refresh_at_each_chunk_seam() {
    const BURST: u64 = 100;
    assert_ne!(BURST % noise::CHUNK as u64, 0);
    for (seed, remap, config) in [
        (3, false, SimConfig::fast_rowhammer()),
        (40, true, SimConfig::fast_rowhammer()),
        (
            11,
            false,
            SimConfig {
                timing: TimingParams::trr_noise(),
                ..SimConfig::fast_rowhammer()
            },
        ),
    ] {
        let mut base = controller(seed, remap, config);
        let m = base.mapping().clone();
        let victim = (2..m.num_rows() - 2)
            .find(|&r| base.flip_model.row_vulnerability(0, r) > 0.3)
            .unwrap();
        let logical = |row: u32| base.row_remap.map_or(row, |r| r.apply(row));
        let at_row = |row: u32| m.to_phys(DramAddress::new(0, logical(row), 0)).unwrap();
        let (a, b) = (at_row(victim - 1), at_row(victim + 1));
        base.next_refresh_ns = u64::MAX;
        for i in 0..6_000 {
            base.access(if i % 2 == 0 { a } else { b });
        }
        // The simulated time after each access of the burst.
        let mut probe = base.clone();
        let clock: Vec<u64> = (0..BURST)
            .map(|i| {
                probe.access(if i % 2 == 0 { a } else { b });
                probe.elapsed_ns()
            })
            .collect();
        for at in 0..BURST {
            let mut timed = base.clone();
            timed.next_refresh_ns = clock[at as usize];
            let reference = run(&mut timed.clone(), false, &[], (a, b), BURST);
            let kernel = run(&mut timed.clone(), true, &[], (a, b), BURST);
            assert_eq!(
                reference.stats.refreshes, 1,
                "seed {seed}, refresh after {at}"
            );
            // The refresh inside the burst materialised flips, so it drew.
            let mut drew = timed.clone();
            for i in 0..=at {
                drew.access(if i % 2 == 0 { a } else { b });
            }
            assert_eq!(drew.stats().refreshes, 1);
            assert!(!drew.flips().is_empty(), "seed {seed}, refresh after {at}");
            assert_eq!(kernel, reference, "seed {seed}, refresh after {at}");
        }
    }
}
