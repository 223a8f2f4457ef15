//! Micro-benchmarks of the pile-basis GF(2) verification that replaced the
//! naive per-member candidate sweep in Algorithm 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dram_model::gf2::PileBasis;
use dram_model::{bits, MachineSetting};
use dramdig::functions::{
    consistent_masks, detect_bank_functions, detect_bank_functions_naive,
    detect_bank_functions_with_basis, mask_constant_on_pile, merged_difference_basis,
};
use dramdig::partition::synthetic_piles;
use dramdig::DramDigConfig;

fn bench_detect_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_bank_functions");
    for number in [4u8, 6] {
        let setting = MachineSetting::by_number(number).unwrap();
        let piles = synthetic_piles(setting.mapping());
        let bank_bits = setting.mapping().bank_function_bits();
        let banks = setting.system.total_banks();
        let cfg = DramDigConfig::default();
        let basis = merged_difference_basis(&piles);
        let pivots: Vec<_> = piles.iter().map(|p| p.pivot).collect();
        group.bench_with_input(
            BenchmarkId::new("naive", format!("no{number}")),
            &piles,
            |b, piles| {
                b.iter(|| {
                    detect_bank_functions_naive(
                        std::hint::black_box(piles),
                        &bank_bits,
                        banks,
                        &cfg,
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("basis", format!("no{number}")),
            &pivots,
            |b, pivots| {
                b.iter(|| {
                    detect_bank_functions_with_basis(
                        std::hint::black_box(&basis),
                        pivots,
                        &bank_bits,
                        banks,
                        &cfg,
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("basis_with_build", format!("no{number}")),
            &piles,
            |b, piles| {
                b.iter(|| {
                    detect_bank_functions(std::hint::black_box(piles), &bank_bits, banks, &cfg)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_mask_verification(c: &mut Criterion) {
    let setting = MachineSetting::no6_skylake_ddr4_16g();
    let piles = synthetic_piles(setting.mapping());
    let basis = merged_difference_basis(&piles);
    let bank_bits = setting.mapping().bank_function_bits();
    let masks = bits::gen_xor_masks(&bank_bits, 7);
    let mut group = c.benchmark_group("mask_verification_no6");
    group.bench_function("naive_member_scan", |b| {
        b.iter(|| {
            masks
                .iter()
                .filter(|&&m| piles.iter().all(|p| mask_constant_on_pile(m, p)))
                .count()
        })
    });
    group.bench_function("pile_basis", |b| {
        b.iter(|| {
            masks
                .iter()
                .filter(|&&m| basis.mask_constant(std::hint::black_box(m)))
                .count()
        })
    });
    group.finish();
}

fn bench_parallel_sweep(c: &mut Criterion) {
    // A wide candidate space (16 bits, masks of up to 5 bits: 6884 masks)
    // exercises the scoped-worker chunking of consistent_masks.
    let mut basis = PileBasis::new(0);
    basis.insert(0b0011 << 8);
    basis.insert(0b0101 << 9);
    basis.insert(0b1001 << 10);
    let wide_bits: Vec<u8> = (8u8..24).collect();
    let masks = bits::gen_xor_masks(&wide_bits, 5);
    c.bench_function("parallel_sweep_6884_masks", |b| {
        b.iter(|| consistent_masks(std::hint::black_box(&masks), &basis))
    });
}

criterion_group!(
    benches,
    bench_detect_paths,
    bench_mask_verification,
    bench_parallel_sweep
);
criterion_main!(benches);
