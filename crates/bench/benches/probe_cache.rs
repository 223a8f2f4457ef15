//! Micro-benchmarks of the pair-keyed conflict cache and the batched/cached
//! oracle entry points.

use criterion::{criterion_group, criterion_main, Criterion};

use dram_model::{DramAddress, MachineSetting, PhysAddr};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use mem_probe::{ConflictCache, ConflictOracle, LatencyCalibration, SimProbe};

fn oracle(cache: bool) -> ConflictOracle<SimProbe> {
    let setting = MachineSetting::no4_haswell_ddr3_4g();
    let machine = SimMachine::from_setting(&setting, SimConfig::noiseless());
    let threshold = machine.controller().config().timing.oracle_threshold_ns();
    let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
    let o = ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold));
    if cache {
        o.with_cache(ConflictCache::new(1 << 16))
    } else {
        o
    }
}

fn sample_pairs(o: &ConflictOracle<SimProbe>, n: u64) -> Vec<(PhysAddr, PhysAddr)> {
    let truth = o.probe().machine().ground_truth().clone();
    (0..n)
        .map(|i| {
            (
                truth
                    .to_phys(DramAddress::new((i % 8) as u32, 10, 0))
                    .unwrap(),
                truth
                    .to_phys(DramAddress::new(((i / 8) % 8) as u32, 20 + i as u32, 0))
                    .unwrap(),
            )
        })
        .collect()
}

fn bench_cache_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_cache");
    group.bench_function("kept_sweep_then_lookup_1k", |b| {
        b.iter(|| {
            let mut cache = ConflictCache::new(1 << 12);
            cache.open_sweep();
            for i in 0..1024u64 {
                let (a, bb) = (PhysAddr::new(i * 64), PhysAddr::new(i * 64 + 4096));
                if cache.lookup(a, bb).is_none() {
                    cache.record(a, bb, i % 3 == 0);
                }
            }
            cache.close_sweep(true);
            let mut hits = 0u32;
            for i in 0..1024u64 {
                let (a, bb) = (PhysAddr::new(i * 64 + 4096), PhysAddr::new(i * 64));
                if cache.lookup(a, bb).is_some() {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
    group.bench_function("log_pressure_4k_into_1k", |b| {
        b.iter(|| {
            let mut cache = ConflictCache::new(1 << 10).with_log(true);
            for i in 0..4096u64 {
                let (a, bb) = (PhysAddr::new(i), PhysAddr::new(i + 1));
                if cache.lookup(a, bb).is_none() {
                    cache.record(a, bb, i % 2 == 0);
                }
            }
            std::hint::black_box(cache.entries().count())
        })
    });
    group.finish();
}

fn bench_oracle_repeat_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_repeated_queries");
    group.sample_size(20);
    for cached in [false, true] {
        let label = if cached { "cached" } else { "uncached" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut o = oracle(cached);
                let pairs = sample_pairs(&o, 64);
                // Three passes over the same pair set: the cached oracle
                // measures each pair once, the uncached one three times.
                let mut conflicts = 0u32;
                for _ in 0..3 {
                    for verdict in o.are_sbdr(&pairs) {
                        conflicts += u32::from(verdict);
                    }
                }
                std::hint::black_box(conflicts)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cache_ops, bench_oracle_repeat_queries);
criterion_main!(benches);
