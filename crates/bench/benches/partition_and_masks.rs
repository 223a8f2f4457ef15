//! Costs of the two halves of Step 2: the measurement-driven pile partition
//! (Algorithm 2) and the pure-computation XOR-mask search (Algorithm 3).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dram_model::MachineSetting;
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::functions::detect_bank_functions;
use dramdig::partition::{partition_into_piles, synthetic_piles};
use dramdig::select::select_addresses;
use mem_probe::{ConflictOracle, LatencyCalibration, MemoryProbe, SimProbe};

fn bench_partition(c: &mut Criterion) {
    let setting = MachineSetting::no4_haswell_ddr3_4g();
    c.bench_function("partition_no4_64_addresses", |b| {
        b.iter(|| {
            let machine = SimMachine::from_setting(&setting, SimConfig::default());
            let threshold = machine.controller().config().timing.oracle_threshold_ns();
            let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
            let mut oracle =
                ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold));
            let pool = select_addresses(
                oracle.probe().memory(),
                &setting.mapping().bank_function_bits(),
                None,
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            std::hint::black_box(
                partition_into_piles(&mut oracle, &pool.addresses, 8, &mut rng).unwrap(),
            )
        })
    });
}

fn bench_mask_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("bank_function_search");
    group.sample_size(20);
    for number in [4u8, 6] {
        let setting = MachineSetting::by_number(number).unwrap();
        let piles = synthetic_piles(setting.mapping());
        let bank_bits = setting.mapping().bank_function_bits();
        let banks = setting.system.total_banks();
        group.bench_function(format!("no{number}_{}bits", bank_bits.len()), |b| {
            b.iter(|| {
                std::hint::black_box(detect_bank_functions(&piles, &bank_bits, banks).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partition, bench_mask_search);
criterion_main!(benches);
