//! Cross-crate integration tests: the full pipeline from simulated machine to
//! recovered mapping to rowhammer impact, spanning every workspace crate.

use dram_model::{MachineSetting, PhysAddr};
use dram_sim::{AllocationPolicy, PhysMemory, SimConfig, SimMachine};
use dramdig::{DomainKnowledge, DramDig, DramDigConfig};
use mem_probe::SimProbe;
use rowhammer::{run_double_sided, AttackerView, HammerConfig};

fn run_dramdig_on(
    setting: &MachineSetting,
    memory: PhysMemory,
    config: DramDigConfig,
) -> dramdig::RunReport {
    let machine = SimMachine::from_setting(setting, SimConfig::default());
    let mut probe = SimProbe::new(machine, memory);
    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    DramDig::new(knowledge, config)
        .run(&mut probe)
        .expect("DRAMDig must succeed on Table II settings")
}

#[test]
fn dramdig_recovers_every_table_ii_setting() {
    // The full Table II sweep; the fast config caps the partition pool so the
    // whole test stays within seconds while still exercising every phase.
    for setting in MachineSetting::all() {
        let memory = PhysMemory::full(setting.system.capacity_bytes);
        let report = run_dramdig_on(&setting, memory, DramDigConfig::fast());
        assert!(
            report.mapping.equivalent_to(setting.mapping()),
            "{}: recovered {} but ground truth is {}",
            setting.label(),
            report.mapping,
            setting.mapping()
        );
        assert_eq!(
            report.mapping.row_bits(),
            setting.mapping().row_bits(),
            "{} row bits",
            setting.label()
        );
        assert_eq!(
            report.mapping.column_bits(),
            setting.mapping().column_bits(),
            "{} column bits",
            setting.label()
        );
        assert!(report.validation.agreement() > 0.9, "{}", setting.label());
    }
}

#[test]
fn recovered_no4_mapping_round_trips_addresses_exactly() {
    // The full driver on the paper's machine No.4 (Haswell, DDR3 4 GiB):
    // the recovered mapping must not only be equivalent to the ground truth
    // up to GF(2) combinations, it must be a bijection that round-trips
    // physical addresses exactly and decodes every address to the same
    // bank the simulated memory controller uses.
    let setting = MachineSetting::no4_haswell_ddr3_4g();
    let memory = PhysMemory::full(setting.system.capacity_bytes);
    let report = run_dramdig_on(&setting, memory, DramDigConfig::default());
    let recovered = &report.mapping;
    let truth = setting.mapping();
    assert!(recovered.equivalent_to(truth));

    let capacity = recovered.capacity_bytes();
    assert_eq!(capacity, setting.system.capacity_bytes);
    // A deterministic sweep of addresses spread over the whole module,
    // plus the boundary addresses.
    let samples = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % capacity)
        .chain([0, 1, capacity - 1]);
    for raw in samples {
        let addr = PhysAddr::new(raw);
        let dram = recovered.to_dram(addr);
        assert_eq!(
            recovered
                .to_phys(dram)
                .expect("recovered mapping is a bijection"),
            addr,
            "address {raw:#x} does not round-trip through the recovered mapping"
        );
        // Same-bank behaviour must agree with the hardware's ground truth,
        // otherwise rowhammer aggressor placement silently degrades.
        assert_eq!(
            truth.bank_of(addr) == truth.bank_of(PhysAddr::new(0)),
            recovered.bank_of(addr) == recovered.bank_of(PhysAddr::new(0)),
            "address {raw:#x} lands in a different bank partition than the ground truth"
        );
    }
}

#[test]
fn dramdig_copes_with_a_fragmented_page_pool() {
    // The OS rarely hands out perfectly contiguous memory; Algorithm 1 must
    // still find a usable range when pages are missing at random.
    let setting = MachineSetting::no4_haswell_ddr3_4g();
    let memory = PhysMemory::allocate(
        setting.system.capacity_bytes,
        0.9,
        AllocationPolicy::Fragmented {
            start_frame: 0,
            hole_probability: 0.02,
        },
        0xF3A6,
    );
    let report = run_dramdig_on(&setting, memory, DramDigConfig::fast());
    assert!(report.mapping.equivalent_to(setting.mapping()));
}

#[test]
fn recovered_mapping_drives_effective_rowhammer() {
    // The paper's correctness argument: hammering with the recovered mapping
    // induces many more flips than hammering with an incomplete one.
    let setting = MachineSetting::no1_sandy_bridge_ddr3_8g();
    let memory = PhysMemory::full(setting.system.capacity_bytes);
    let report = run_dramdig_on(&setting, memory, DramDigConfig::fast());
    let good_view = AttackerView::from_mapping(&report.mapping);

    let truth = setting.mapping();
    let shared = truth.shared_row_bits();
    let partial_rows: Vec<u8> = truth
        .row_bits()
        .iter()
        .copied()
        .filter(|b| !shared.contains(b))
        .collect();
    let incomplete_view = AttackerView::new(truth.bank_funcs().to_vec(), partial_rows);

    let cfg = HammerConfig {
        victims: 32,
        iterations_per_pair: 4_000,
        duration_ns: None,
        rng_seed: 0xE2E,
    };
    let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
    let good = run_double_sided(&mut machine, &good_view, &cfg);
    let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
    let bad = run_double_sided(&mut machine, &incomplete_view, &cfg);

    assert_eq!(good.truly_double_sided, good.pairs_attempted);
    assert!(good.flips > 0);
    assert!(
        good.flips > bad.flips,
        "correct mapping {} flips vs incomplete mapping {} flips",
        good.flips,
        bad.flips
    );
}

#[test]
fn phase_costs_reflect_pool_size_differences() {
    // Figure 2's explanation: the partition dominates, and machines that
    // select more addresses cost more time.
    let small = MachineSetting::no8_coffee_lake_ddr4_8g();
    let large = MachineSetting::no6_skylake_ddr4_16g();
    let report_small = run_dramdig_on(
        &small,
        PhysMemory::full(small.system.capacity_bytes),
        DramDigConfig::fast(),
    );
    let report_large = run_dramdig_on(
        &large,
        PhysMemory::full(large.system.capacity_bytes),
        DramDigConfig::fast(),
    );
    assert!(report_large.pool_size >= report_small.pool_size);
    assert!(report_large.total.elapsed_ns > report_small.total.elapsed_ns);
    let partition = report_large
        .cost_of(dramdig::driver::Phase::Partition)
        .unwrap();
    assert!(partition.measurements * 2 > report_large.total.measurements);
}
