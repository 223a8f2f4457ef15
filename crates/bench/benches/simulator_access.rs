//! Throughput of the simulated memory controller — the substrate cost every
//! reverse-engineering measurement pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dram_model::{DramAddress, MachineSetting, PhysAddr};
use dram_sim::{MemoryController, PhysMemory, SimConfig, SimMachine};
use mem_probe::{rounds_for, MemoryProbe, SimProbe};
use rowhammer::{hammer_pair, FlipAdjacencyConfig};

fn bench_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_access");
    group.sample_size(30);
    for (name, config) in [
        ("noisy", SimConfig::default()),
        ("noiseless", SimConfig::noiseless()),
    ] {
        let setting = MachineSetting::no6_skylake_ddr4_16g();
        let mut controller = MemoryController::new(setting.mapping().clone(), config);
        let addresses: Vec<PhysAddr> = (0..1024u64)
            .map(|i| PhysAddr::new((i * 0x1_3579) & (setting.system.capacity_bytes - 1)))
            .collect();
        group.throughput(Throughput::Elements(addresses.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &addresses, |b, addrs| {
            b.iter(|| {
                let mut total = 0u64;
                for &a in addrs {
                    total += controller.access(a);
                }
                std::hint::black_box(total)
            })
        });
    }
    group.finish();
}

/// `SimProbe::measure_pair` on Table-II machine No.4 under the noiseless,
/// default and TRR profiles, each with the rounds the scenario evaluation
/// gives it, over a mix of same-bank (conflicting) and cross-bank pairs,
/// beside `SimProbe::reaches_threshold` (the oracle's verdict path) at the
/// profile's oracle threshold over the same pairs; plus one `hammer_pair` burst of the flip-adjacency channel's length on
/// the fast rowhammer profile. All of them run the alternating-pair kernel,
/// which is where the simulator spends its host time.
fn bench_measure_pair(c: &mut Criterion) {
    const PAIRS: u32 = 256;
    let setting = MachineSetting::no4_haswell_ddr3_4g();
    let truth = setting.mapping().clone();
    let pairs: Vec<(PhysAddr, PhysAddr)> = (0..PAIRS)
        .map(|i| {
            let at = |bank, row| truth.to_phys(DramAddress::new(bank, row, 0)).unwrap();
            (at(i % 8, 10 + i), at((i / 2) % 8, 600 + i))
        })
        .collect();
    let mut group = c.benchmark_group("measure_pair");
    group.sample_size(30);
    group.throughput(Throughput::Elements(u64::from(PAIRS)));
    for (name, config) in [
        ("noiseless", SimConfig::noiseless()),
        ("default", SimConfig::default()),
        ("trr", SimConfig::trr_noise()),
    ] {
        let rounds = rounds_for(&config);
        let threshold = config.timing.oracle_threshold_ns();
        let machine = SimMachine::from_setting(&setting, config);
        let mut probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes))
            .with_rounds(rounds);
        let mut verdicts = probe.clone();
        group.bench_with_input(BenchmarkId::from_parameter(name), &pairs, |b, pairs| {
            b.iter(|| {
                let mut total = 0u64;
                for &(x, y) in pairs {
                    total += probe.measure_pair(x, y);
                }
                std::hint::black_box(total)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("reaches_threshold", name),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    let mut conflicts = 0u32;
                    for &(x, y) in pairs {
                        conflicts += u32::from(verdicts.reaches_threshold(x, y, threshold));
                    }
                    std::hint::black_box(conflicts)
                })
            },
        );
    }
    let iterations = FlipAdjacencyConfig::default().iterations;
    let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
    let (below, above) = (
        truth.to_phys(DramAddress::new(0, 99, 0)).unwrap(),
        truth.to_phys(DramAddress::new(0, 101, 0)).unwrap(),
    );
    group.throughput(Throughput::Elements(2 * u64::from(iterations)));
    group.bench_function("hammer_pair_burst", |b| {
        b.iter(|| hammer_pair(&mut machine, below, above, iterations).len())
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let setting = MachineSetting::no6_skylake_ddr4_16g();
    let mapping = setting.mapping().clone();
    c.bench_function("mapping_to_dram_and_back", |b| {
        b.iter(|| {
            for i in 0..256u64 {
                let addr = PhysAddr::new(i * 0x00AB_CDEF);
                let dram = mapping.to_dram(std::hint::black_box(addr));
                std::hint::black_box(mapping.to_phys(dram).unwrap());
            }
        })
    });
}

criterion_group!(benches, bench_access, bench_measure_pair, bench_decode);
criterion_main!(benches);
