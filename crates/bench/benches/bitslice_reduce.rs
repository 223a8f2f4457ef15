//! Micro-benchmarks of the bitsliced coset-reduction and RREF kernels
//! against their scalar twins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dram_model::gf2::{bitslice, Gf2Matrix, PileBasis};
use dram_model::MachineSetting;

/// Deterministic pseudo-random values (SplitMix64) below 2^bits.
fn rng_values(seed: u64, count: usize, bits: u32) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & (u64::MAX >> (64 - bits))
        })
        .collect()
}

fn bench_coset_reduce(c: &mut Criterion) {
    // The Decompose workload: reduce pool-address differences against the
    // difference basis of a same-bank pile (rank = addr bits - bank
    // functions on machine No.6).
    let mapping = MachineSetting::no6_skylake_ddr4_16g().mapping().clone();
    let mut group = c.benchmark_group("bitslice_reduce");
    let pool = rng_values(7, 4096, 34);
    let bank = mapping.bank_of(dram_model::PhysAddr::new(pool[0]));
    let basis = PileBasis::from_members(
        pool[0],
        pool.iter()
            .copied()
            .filter(|&a| mapping.bank_of(dram_model::PhysAddr::new(a)) == bank),
    );
    for count in [256usize, 4096] {
        let values = rng_values(11, count, 34);
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("scalar", count), &values, |b, values| {
            b.iter(|| {
                values
                    .iter()
                    .map(|&v| basis.reduce(std::hint::black_box(v)))
                    .fold(0u64, |acc, r| acc ^ r)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("bitsliced", count),
            &values,
            |b, values| {
                b.iter(|| {
                    basis
                        .reduce_batch(std::hint::black_box(values))
                        .iter()
                        .fold(0u64, |acc, r| acc ^ r)
                })
            },
        );
    }
    group.finish();
}

fn bench_rref_keys(c: &mut Criterion) {
    // Canonical dedup keys over the Table-II bank-function sets, the
    // MemRegistry (mapping store) workload.
    let rows: Vec<Vec<u64>> = (1..=9u8)
        .map(|n| {
            MachineSetting::by_number(n)
                .unwrap()
                .mapping()
                .bank_funcs()
                .iter()
                .map(|f| f.mask())
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("rref_canonical_key");
    group.bench_function("scalar", |b| {
        b.iter(|| {
            rows.iter()
                .map(|r| {
                    Gf2Matrix::from_rows(std::hint::black_box(r).clone())
                        .reduced_row_basis()
                        .len()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("bitsliced", |b| {
        b.iter(|| {
            rows.iter()
                .map(|r| bitslice::reduced_row_basis(std::hint::black_box(r)).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_coset_reduce, bench_rref_keys);
criterion_main!(benches);
