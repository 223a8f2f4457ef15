//! Differential regression tests: the fast paths (pile-basis candidate
//! verification, kernel-decomposition partition, cached/batched probing)
//! must agree with the naive reference paths on every Table-II machine
//! setting, for clean *and* noisy piles, under fixed seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dram_model::MachineSetting;
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::functions::{detect_bank_functions, detect_bank_functions_naive};
use dramdig::partition::{partition_into_piles, synthetic_piles, Pile};
use dramdig::select::select_addresses;
use dramdig::{DomainKnowledge, DramDig, DramDigConfig};
use mem_probe::{ConflictOracle, LatencyCalibration, MemoryProbe, SimProbe};

/// Piles produced by the measurement-driven exhaustive partition on a
/// *noisy* simulated machine: the realistic, possibly polluted input
/// Algorithm 3 sees in production.
fn measured_noisy_piles(setting: &MachineSetting, seed: u64) -> Vec<Pile> {
    let machine = SimMachine::from_setting(setting, SimConfig::default().with_seed(seed));
    let threshold = machine.controller().config().timing.oracle_threshold_ns();
    let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
    let mut oracle = ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold));
    let bank_bits = setting.mapping().bank_function_bits();
    let pool = select_addresses(oracle.probe().memory(), &bank_bits, Some(2048)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    partition_into_piles(
        &mut oracle,
        &pool.addresses,
        setting.system.total_banks(),
        &mut rng,
    )
    .unwrap()
    .piles
}

#[test]
fn fast_and_naive_detection_agree_on_clean_piles_for_all_settings() {
    for setting in MachineSetting::all() {
        let piles = synthetic_piles(setting.mapping());
        let bank_bits = setting.mapping().bank_function_bits();
        let banks = setting.system.total_banks();
        let fast = detect_bank_functions(&piles, &bank_bits, banks).unwrap();
        let naive = detect_bank_functions_naive(&piles, &bank_bits, banks).unwrap();
        assert_eq!(
            fast,
            naive,
            "{}: fast and naive paths diverged",
            setting.label()
        );
    }
}

#[test]
fn fast_and_naive_detection_agree_on_noisy_measured_piles() {
    // The exhaustive partition on the default (noisy) simulator produces
    // the real-world pile shapes, including partial piles and any noise
    // pollution the tolerance let through.
    for (number, seed) in [(4u8, 11u64), (6, 23), (7, 31)] {
        let setting = MachineSetting::by_number(number).unwrap();
        let piles = measured_noisy_piles(&setting, seed);
        assert!(!piles.is_empty());
        let bank_bits = setting.mapping().bank_function_bits();
        let banks = setting.system.total_banks();
        let fast = detect_bank_functions(&piles, &bank_bits, banks).unwrap();
        let naive = detect_bank_functions_naive(&piles, &bank_bits, banks).unwrap();
        assert_eq!(
            fast,
            naive,
            "{}: fast and naive paths diverged on noisy piles",
            setting.label()
        );
    }
}

#[test]
fn detection_is_deterministic_for_a_fixed_seed() {
    let setting = MachineSetting::no4_haswell_ddr3_4g();
    let a = measured_noisy_piles(&setting, 77);
    let b = measured_noisy_piles(&setting, 77);
    assert_eq!(a, b, "partition must be seed-deterministic");
    let bank_bits = setting.mapping().bank_function_bits();
    let fast_a = detect_bank_functions(&a, &bank_bits, 8).unwrap();
    let fast_b = detect_bank_functions(&b, &bank_bits, 8).unwrap();
    assert_eq!(fast_a, fast_b);
}

#[test]
fn optimized_pipeline_recovers_the_naive_mapping_end_to_end() {
    // End-to-end: the measurement-minimal profile must land on a mapping
    // equivalent to both the naive profile's and the ground truth (noise
    // enabled). A representative spread of Table II keeps the runtime sane;
    // `bench_json` sweeps all nine settings.
    for number in [1u8, 4, 6, 7] {
        let setting = MachineSetting::by_number(number).unwrap();
        let run = |config: DramDigConfig| {
            let machine = SimMachine::from_setting(&setting, SimConfig::default().with_seed(5));
            let mut probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
            let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
            DramDig::new(knowledge, config).run(&mut probe).unwrap()
        };
        let naive = run(DramDigConfig::naive());
        let fast = run(DramDigConfig::optimized());
        assert!(
            naive.mapping.equivalent_to(setting.mapping()),
            "{}: naive profile missed the ground truth",
            setting.label()
        );
        assert!(
            fast.mapping.equivalent_to(setting.mapping()),
            "{}: optimized profile missed the ground truth",
            setting.label()
        );
        assert!(
            fast.mapping.equivalent_to(&naive.mapping),
            "{}: profiles disagree",
            setting.label()
        );
        assert!(
            fast.total.measurements < naive.total.measurements,
            "{}: optimized profile must measure less ({} vs {})",
            setting.label(),
            fast.total.measurements,
            naive.total.measurements
        );
    }
}
