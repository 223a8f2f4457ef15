//! Emits `BENCH_dramdig.json`: the machine-readable performance trajectory
//! of the reverse-engineering pipeline, comparing the seed-faithful *naive*
//! profile against the *optimized* profile (GF(2) pile-basis verification,
//! cached/batched probing, kernel-decomposition partition) on the paper's
//! machine No.4 plus a sweep over every Table-II setting.
//!
//! ```text
//! cargo run --release -p dramdig-bench --bin bench_json
//! ```
//!
//! The JSON records, per profile, the probe budget (`measure_pair` calls,
//! memory accesses, simulated seconds) per pipeline phase and end-to-end
//! wall time, plus standalone micro-timings of `detect_bank_functions`
//! (naive member-scan vs pile-basis path) and the two partition strategies.
//! A differential check asserts both profiles recover equivalent mappings
//! that match the simulator's ground truth — the binary exits non-zero
//! otherwise, so CI smoke-runs also act as a regression gate.

use std::fmt::Write as _;
use std::time::Instant;

use dram_model::fingerprint::fnv1a64;
use dram_model::gf2::{self, bitslice, Gf2Matrix, PileBasis};
use dram_model::{bits, MachineClass, MachineGen, MachineSetting, PhysAddr, RowRemap, XorFunc};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::driver::RunReport;
use dramdig::engine::{EngineOptions, NullObserver, PipelineEngine};
use dramdig::functions::{
    detect_bank_functions_naive, detect_bank_functions_with_basis, merged_difference_basis,
};
use dramdig::partition::{partition_decompose, partition_into_piles};
use dramdig::select::select_addresses;
use dramdig::{
    DomainKnowledge, DramDig, DramDigConfig, DramDigError, Phase, RecoveryReport, TelemetryObserver,
};
use dramdig_bench::eval::{flip_sim_seed, run_grid, EvalGrid, GridKind, ToolId};
use dramdig_bench::run_dramdig;
use mem_probe::{ConflictOracle, LatencyCalibration, MemoryProbe, ObservableKind, SimProbe};
use registry::{DiskRegistry, MemRegistry, Record, SharedRegistry, Source};
use rowhammer::FlipAdjacencyObservable;

/// Simulator seed shared by every run so the two profiles face the same
/// machine (noise stream included).
const SIM_SEED: u64 = 0x7AB1E2;

/// Minimum time spent per micro-timing loop, in nanoseconds.
const MICRO_BUDGET_NS: u128 = 50_000_000;

struct ProfileRun {
    report: RunReport,
    wall_ms: f64,
}

fn run_profile(
    setting: &MachineSetting,
    config: DramDigConfig,
) -> Result<ProfileRun, DramDigError> {
    let start = Instant::now();
    let report = run_dramdig(setting, config, SIM_SEED)?;
    Ok(ProfileRun {
        report,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

fn oracle_for(setting: &MachineSetting) -> ConflictOracle<SimProbe> {
    let machine = SimMachine::from_setting(setting, SimConfig::default().with_seed(SIM_SEED));
    let threshold = machine.controller().config().timing.oracle_threshold_ns();
    let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
    ConflictOracle::new(probe, LatencyCalibration::from_threshold(threshold))
}

/// Deterministic pseudo-random values (SplitMix64), masked to `mask`.
fn splitmix_values(seed: u64, count: usize, mask: u64) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & mask
        })
        .collect()
}

/// Times `f` repeatedly until the budget is spent; returns ns per call.
fn time_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut reps: u64 = 0;
    let start = Instant::now();
    loop {
        std::hint::black_box(f());
        reps += 1;
        if start.elapsed().as_nanos() >= MICRO_BUDGET_NS && reps >= 10 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn profile_json(out: &mut String, indent: &str, run: &ProfileRun) {
    let r = &run.report;
    let _ = writeln!(out, "{indent}\"wall_ms\": {:.3},", run.wall_ms);
    let _ = writeln!(
        out,
        "{indent}\"measure_pair_calls\": {},",
        r.total.measurements
    );
    let _ = writeln!(out, "{indent}\"memory_accesses\": {},", r.total.accesses);
    let _ = writeln!(
        out,
        "{indent}\"simulated_seconds\": {:.6},",
        r.total.elapsed_seconds()
    );
    let _ = writeln!(out, "{indent}\"cache_hits\": {},", r.total.cache_hits);
    let _ = writeln!(out, "{indent}\"cache_misses\": {},", r.total.cache_misses);
    let _ = writeln!(out, "{indent}\"phases\": {{");
    for (i, (phase, cost)) in r.phase_costs.iter().enumerate() {
        let comma = if i + 1 == r.phase_costs.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "{indent}  \"{}\": {{\"measure_pair_calls\": {}, \"accesses\": {}, \"simulated_seconds\": {:.6}, \"cache_hits\": {}}}{comma}",
            phase.name(),
            cost.measurements,
            cost.accesses,
            cost.elapsed_seconds(),
            cost.cache_hits,
        );
    }
    let _ = writeln!(out, "{indent}}}");
}

fn main() {
    let setting = MachineSetting::no4_haswell_ddr3_4g();

    // --- End-to-end pipeline, both profiles --------------------------------
    let naive = run_profile(&setting, DramDigConfig::naive()).unwrap_or_else(|e| {
        eprintln!("naive pipeline failed on {}: {e}", setting.label());
        std::process::exit(1);
    });
    let fast = run_profile(&setting, DramDigConfig::optimized()).unwrap_or_else(|e| {
        eprintln!("optimized pipeline failed on {}: {e}", setting.label());
        std::process::exit(1);
    });

    // Differential gate: both profiles must recover the ground-truth mapping
    // and agree with each other.
    let truth_ok = naive.report.mapping.equivalent_to(setting.mapping())
        && fast.report.mapping.equivalent_to(setting.mapping());
    let profiles_agree = naive.report.mapping.equivalent_to(&fast.report.mapping);
    if !truth_ok || !profiles_agree {
        eprintln!(
            "differential check failed: truth_ok={truth_ok} profiles_agree={profiles_agree}\n  naive: {}\n  fast:  {}",
            naive.report.mapping, fast.report.mapping
        );
        std::process::exit(1);
    }
    let measurement_reduction =
        naive.report.total.measurements as f64 / fast.report.total.measurements.max(1) as f64;

    // --- Standalone detect_bank_functions micro-benchmark ------------------
    // Same inputs the two pipelines actually feed to Algorithm 3: the
    // exhaustive piles for the naive scan, the decomposition piles plus the
    // pre-learned kernel basis for the fast path.
    let bank_bits = setting.mapping().bank_function_bits();
    let banks = setting.system.total_banks();
    let seed = DramDigConfig::default().rng_seed;

    let mut oracle = oracle_for(&setting);
    let pool = select_addresses(oracle.probe().memory(), &bank_bits, None).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let naive_partition =
        partition_into_piles(&mut oracle, &pool.addresses, banks, &mut rng).unwrap();
    let naive_partition_measurements = oracle.stats().measurements;

    let mut oracle2 = oracle_for(&setting);
    let mut rng2 = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let fast_partition =
        partition_decompose(&mut oracle2, &pool.addresses, banks, &mut rng2).unwrap();
    let fast_partition_measurements = oracle2.stats().measurements;
    let kernel = fast_partition
        .kernel
        .clone()
        .expect("decompose sets kernel");
    let fast_pivots: Vec<PhysAddr> = fast_partition.piles.iter().map(|p| p.pivot).collect();

    let naive_detect_ns = time_per_call(|| {
        detect_bank_functions_naive(&naive_partition.piles, &bank_bits, banks).unwrap()
    });
    let fast_detect_ns = time_per_call(|| {
        detect_bank_functions_with_basis(&kernel, &fast_pivots, &bank_bits, banks).unwrap()
    });
    // Rebuilding the merged basis from scratch (what detect_bank_functions
    // does when no kernel was learned) is reported separately.
    let fast_detect_with_build_ns = time_per_call(|| {
        let basis = merged_difference_basis(&fast_partition.piles);
        detect_bank_functions_with_basis(&basis, &fast_pivots, &bank_bits, banks).unwrap()
    });
    let detect_speedup = naive_detect_ns / fast_detect_ns;

    let naive_detected =
        detect_bank_functions_naive(&naive_partition.piles, &bank_bits, banks).unwrap();
    let fast_detected =
        detect_bank_functions_with_basis(&kernel, &fast_pivots, &bank_bits, banks).unwrap();
    if naive_detected.functions != fast_detected.functions {
        eprintln!("differential check failed: detect paths disagree on recovered functions");
        std::process::exit(1);
    }

    // --- Bitsliced GF(2) kernel micro-benchmarks ---------------------------
    // The word-parallel kernels behind the full-grid speedup, timed on the
    // workloads their real call sites feed them and pinned element-wise to
    // the scalar twins they replaced. Both hot kernels carry an 8x
    // throughput floor; a shortfall or any differential mismatch exits
    // non-zero so CI smoke-runs gate the optimisation, not just correctness.
    let kernel_setting = MachineSetting::no6_skylake_ddr4_16g();
    let kernel_mapping = kernel_setting.mapping().clone();
    let address_bits = kernel_setting.system.address_bits();
    let addr_mask = u64::MAX >> (64 - u32::from(address_bits));

    // Coset reduction: the Decompose inner loop — reduce a batch of pool
    // addresses against the difference basis of a same-bank pile.
    let kernel_pool = splitmix_values(0x5EED, 4096, addr_mask);
    let pile_bank = kernel_mapping.bank_of(PhysAddr::new(kernel_pool[0]));
    let pile_basis = PileBasis::from_members(
        kernel_pool[0],
        kernel_pool
            .iter()
            .copied()
            .filter(|&a| kernel_mapping.bank_of(PhysAddr::new(a)) == pile_bank),
    );
    let reduce_values = splitmix_values(0xB17E, 4096, addr_mask);
    let scalar_reduced: Vec<u64> = reduce_values
        .iter()
        .map(|&v| pile_basis.reduce(v))
        .collect();
    if pile_basis.reduce_batch(&reduce_values) != scalar_reduced {
        eprintln!("differential check failed: reduce_batch disagrees with per-value reduce");
        std::process::exit(1);
    }
    let reduce_scalar_ns = time_per_call(|| {
        reduce_values
            .iter()
            .map(|&v| pile_basis.reduce(std::hint::black_box(v)))
            .fold(0u64, |acc, r| acc ^ r)
    });
    let reduce_batch_ns = time_per_call(|| pile_basis.reduce_batch(&reduce_values));
    let reduce_speedup = reduce_scalar_ns / reduce_batch_ns;

    // Low-weight mask search: DRAMA's seed inner loop tested every
    // C(n, <=6) candidate against the set's difference basis one mask at a
    // time; the fast path walks the (tiny) nullspace span instead.
    let candidate_bits: Vec<u8> = (6..address_bits).collect();
    let sweep_masks = bits::gen_xor_masks(&candidate_bits, 6);
    let mut sweep_survivors: Vec<u64> = sweep_masks
        .iter()
        .copied()
        .filter(|&m| pile_basis.mask_constant(m))
        .collect();
    let gathered: Vec<u64> = pile_basis
        .rows()
        .iter()
        .map(|&row| bits::gather_bits(row, &candidate_bits))
        .collect();
    let complement = gf2::nullspace_basis(&gathered, candidate_bits.len());
    let mut walk_survivors: Vec<u64> = bitslice::span_survivors(&complement, 6)
        .into_iter()
        .map(|v| bits::scatter_bits(v, &candidate_bits))
        .collect();
    sweep_survivors.sort_unstable();
    walk_survivors.sort_unstable();
    if sweep_survivors != walk_survivors {
        eprintln!(
            "differential check failed: span walk found {} low-weight masks, full sweep {}",
            walk_survivors.len(),
            sweep_survivors.len()
        );
        std::process::exit(1);
    }
    let span_sweep_ns = time_per_call(|| {
        sweep_masks
            .iter()
            .filter(|&&m| pile_basis.mask_constant(std::hint::black_box(m)))
            .count()
    });
    let span_walk_ns = time_per_call(|| {
        let complement =
            gf2::nullspace_basis(std::hint::black_box(&gathered), candidate_bits.len());
        bitslice::span_survivors(&complement, 6).len()
    });
    let span_speedup = span_sweep_ns / span_walk_ns;

    if reduce_speedup < 8.0 || span_speedup < 8.0 {
        eprintln!(
            "gf2 kernel throughput gate failed: coset reduce {reduce_speedup:.1}x, \
             span walk {span_speedup:.1}x (both must be >= 8x over the scalar twins)"
        );
        std::process::exit(1);
    }

    // RREF dedup keys (MappingStore): cold path, recorded without a
    // throughput floor — the inputs are a handful of tiny matrices.
    let rref_rows: Vec<Vec<u64>> = (1..=9u8)
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
    for rows in &rref_rows {
        if bitslice::reduced_row_basis(rows)
            != Gf2Matrix::from_rows(rows.clone()).reduced_row_basis()
        {
            eprintln!("differential check failed: bitsliced RREF disagrees with scalar matrix");
            std::process::exit(1);
        }
    }
    let rref_scalar_ns = time_per_call(|| {
        rref_rows
            .iter()
            .map(|r| {
                Gf2Matrix::from_rows(std::hint::black_box(r).clone())
                    .reduced_row_basis()
                    .len()
            })
            .sum::<usize>()
    });
    let rref_bitsliced_ns = time_per_call(|| {
        rref_rows
            .iter()
            .map(|r| bitslice::reduced_row_basis(std::hint::black_box(r)).len())
            .sum::<usize>()
    });

    // --- Table-II sweep with the optimized profile -------------------------
    let mut sweep = String::new();
    let all = MachineSetting::all();
    for (i, s) in all.iter().enumerate() {
        let run = run_profile(s, DramDigConfig::optimized()).unwrap_or_else(|e| {
            eprintln!("optimized pipeline failed on {}: {e}", s.label());
            std::process::exit(1);
        });
        if !run.report.mapping.equivalent_to(s.mapping()) {
            eprintln!("optimized profile mis-recovered {}", s.label());
            std::process::exit(1);
        }
        let comma = if i + 1 == all.len() { "" } else { "," };
        let _ = writeln!(
            sweep,
            "    {{\"setting\": \"{}\", \"measure_pair_calls\": {}, \"wall_ms\": {:.3}, \"simulated_seconds\": {:.6}}}{comma}",
            s.label(),
            run.report.total.measurements,
            run.wall_ms,
            run.report.total.elapsed_seconds()
        );
    }

    // --- Campaign throughput at 1/2/4/8 workers ----------------------------
    // The same nine-machine Table-II campaign drained by worker pools of
    // different widths. `wall_ms` is the orchestrating host's real wall time
    // (bounded by its core count); `fleet_makespan_s` is the deterministic
    // simulated makespan where each worker is a separate machine under test
    // probing its own DRAM — the figure that matters for a real fleet.
    let campaign_spec =
        campaign::CampaignSpec::new((1..=9).collect(), 1, campaign::Profile::Optimized);
    let mut campaign_json = String::new();
    let mut store_encodings: Vec<String> = Vec::new();
    let mut wall_by_workers: Vec<(usize, f64, f64)> = Vec::new();
    let worker_counts = [1usize, 2, 4, 8];
    for &workers in &worker_counts {
        let dir = std::env::temp_dir().join(format!(
            "dramdig-bench-campaign-{}-{workers}w",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = campaign::CampaignPaths::new(&dir);
        let options = campaign::CampaignOptions::default().with_workers(workers);
        let start = Instant::now();
        let outcome =
            campaign::run_campaign(&campaign_spec, &paths, &options, |job, attempt, _| {
                campaign::run_job_sim(job, attempt)
            })
            .unwrap_or_else(|e| {
                eprintln!("campaign benchmark failed at {workers} workers: {e}");
                std::process::exit(1);
            });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if outcome.state.completed.len() != 9 || !outcome.dead.is_empty() {
            eprintln!(
                "campaign benchmark at {workers} workers completed {}/9 jobs ({} dead)",
                outcome.state.completed.len(),
                outcome.dead.len()
            );
            std::process::exit(1);
        }
        store_encodings.push(outcome.store.encode());
        wall_by_workers.push((workers, wall_ms, outcome.simulated_makespan(workers)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Differential gate: every worker count must converge on the same store.
    if store_encodings.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("campaign stores differ across worker counts");
        std::process::exit(1);
    }
    let (_, wall_1w, fleet_1w) = wall_by_workers[0];
    for (i, &(workers, wall_ms, fleet_s)) in wall_by_workers.iter().enumerate() {
        let comma = if i + 1 == wall_by_workers.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            campaign_json,
            "    {{\"workers\": {workers}, \"wall_ms\": {wall_ms:.3}, \"fleet_makespan_s\": {fleet_s:.6}, \"wall_speedup_vs_1w\": {:.2}, \"fleet_speedup_vs_1w\": {:.2}}}{comma}",
            wall_1w / wall_ms,
            fleet_1w / fleet_s,
        );
    }
    let fleet_4w = wall_by_workers
        .iter()
        .find(|&&(w, _, _)| w == 4)
        .map(|&(_, _, s)| fleet_1w / s)
        .expect("4-worker sweep ran");

    // --- MapReduce campaign: the big grid under three worker topologies ----
    // The 1,000-scenario generated-machine grid drained by 1, 4 and 8
    // simulated-remote workers; in every multi-worker topology worker 0 is
    // kill -9'd mid-phase on its second lease, so the run exercises a real
    // steal-and-resume. The gates: all topologies converge on byte-identical
    // scoreboard and store artifacts, every multi-worker run records the
    // steal, nothing is left pending, and every wide-function fodder job
    // (index % 100 == 7, whose pipeline always errors) is dead-lettered.
    let grid_spec = campaign::mapreduce::GridSpec::new(
        GridKind::Big.scenario_count() as u32,
        1,
        campaign::Profile::Fast,
    );
    let fodder_dead = (0..grid_spec.scenarios).filter(|i| i % 100 == 7).count();
    let mut mapreduce_json = String::new();
    let mut mapreduce_boards: Vec<String> = Vec::new();
    let mut mapreduce_stores: Vec<String> = Vec::new();
    let mut mapreduce_dead = 0usize;
    let mapreduce_topologies = [1usize, 4, 8];
    for (t, &processes) in mapreduce_topologies.iter().enumerate() {
        let dir = std::env::temp_dir().join(format!(
            "dramdig-bench-mapreduce-{}-{processes}w",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = campaign::CampaignPaths::new(&dir);
        let transports: Vec<Box<dyn campaign::mapreduce::WorkerTransport>> = (0..processes)
            .map(|i| {
                if processes > 1 && i == 0 {
                    Box::new(campaign::mapreduce::SimTransport::killed_at(2))
                        as Box<dyn campaign::mapreduce::WorkerTransport>
                } else {
                    Box::new(campaign::mapreduce::SimTransport::new())
                }
            })
            .collect();
        let mut pool_metrics = telemetry::Registry::new();
        let start = Instant::now();
        let outcome = campaign::mapreduce::run_mapreduce(
            &grid_spec,
            &paths,
            transports,
            Some(&mut pool_metrics),
        )
        .unwrap_or_else(|e| {
            eprintln!("mapreduce benchmark failed at {processes} workers: {e}");
            std::process::exit(1);
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let steals = pool_metrics.counter("pool_steals_total");
        let settled = outcome.state.completed.len() + outcome.state.dead.len();
        let fodder_lettered = outcome
            .state
            .dead
            .keys()
            .filter(|id| {
                campaign::mapreduce::GenJob::index_from_id(id).is_some_and(|i| i % 100 == 7)
            })
            .count();
        if settled != grid_spec.scenarios as usize || fodder_lettered != fodder_dead {
            eprintln!(
                "mapreduce at {processes} workers settled {settled}/{} jobs \
                 ({} dead, {fodder_lettered}/{fodder_dead} fodder dead-lettered)",
                grid_spec.scenarios,
                outcome.state.dead.len(),
            );
            std::process::exit(1);
        }
        if processes > 1 && steals == 0 {
            eprintln!("mapreduce at {processes} workers recorded no steal for the injected kill");
            std::process::exit(1);
        }
        mapreduce_dead = outcome.state.dead.len();
        mapreduce_boards.push(outcome.scoreboard);
        mapreduce_stores.push(outcome.store.encode());
        let comma = if t + 1 == mapreduce_topologies.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            mapreduce_json,
            "    {{\"workers\": {processes}, \"wall_ms\": {wall_ms:.3}, \"steals\": {steals}, \"completed\": {}, \"dead\": {}}}{comma}",
            outcome.state.completed.len(),
            outcome.state.dead.len(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Topology invariance, the tentpole gate: same scoreboard bytes and
    // store bytes no matter the worker count, kill point or steal order.
    if mapreduce_boards.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("mapreduce scoreboards differ across worker topologies");
        std::process::exit(1);
    }
    if mapreduce_stores.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("mapreduce stores differ across worker topologies");
        std::process::exit(1);
    }
    let mapreduce_board_fp = fnv1a64(mapreduce_boards[0].as_bytes());
    let mapreduce_store_mappings = mapreduce_stores[0]
        .lines()
        .filter(|l| l.starts_with("[mapping"))
        .count();

    // --- Engine checkpoint/resume: kill mid-FineDetection ------------------
    // The optimized profile on No.4, killed at the FunctionDetection →
    // FineDetection boundary (what a process death mid-FineDetection
    // resumes as), then resumed. Gates: the resumed RecoveryReport must be
    // byte-identical to straight-through, and the resumed invocation must
    // repay zero Partition-phase measurements.
    let engine_probe = |seed: u64| {
        let machine = SimMachine::from_setting(&setting, SimConfig::default().with_seed(seed));
        SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes))
    };
    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    let engine = PipelineEngine::new(knowledge, DramDigConfig::optimized());
    let mut probe = engine_probe(SIM_SEED);
    let straight = engine
        .run(&mut probe, &EngineOptions::default(), &mut NullObserver)
        .unwrap_or_else(|e| {
            eprintln!("engine straight-through run failed: {e}");
            std::process::exit(1);
        });
    let straight_encoded = RecoveryReport::from(&straight).encode();

    let ckpt_dir =
        std::env::temp_dir().join(format!("dramdig-bench-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut probe = engine_probe(SIM_SEED);
    let killed = engine.run(
        &mut probe,
        &EngineOptions::default()
            .with_checkpoint(&ckpt_dir)
            .with_stop_after(Phase::FunctionDetection),
        &mut NullObserver,
    );
    if killed.is_ok() {
        eprintln!("engine kill at the FunctionDetection boundary did not interrupt");
        std::process::exit(1);
    }
    let mut probe = engine_probe(SIM_SEED);
    let resumed = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&ckpt_dir),
            &mut NullObserver,
        )
        .unwrap_or_else(|e| {
            eprintln!("engine resume failed: {e}");
            std::process::exit(1);
        });
    let resumed_spent = probe.stats().measurements;
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let resume_equal = RecoveryReport::from(&resumed).encode() == straight_encoded;
    if !resume_equal {
        eprintln!("engine differential check failed: resumed report differs from straight-through");
        std::process::exit(1);
    }
    let partition_measurements = straight
        .cost_of(Phase::Partition)
        .map_or(0, |c| c.measurements);
    let checkpointed_measurements = straight.total.measurements - resumed_spent;
    // The resumed invocation pays only for the phases after the kill — in
    // particular, zero Partition measurements are repaid.
    let expected_repaid: u64 = straight
        .phase_costs
        .iter()
        .filter(|(p, _)| p.index() > Phase::FunctionDetection.index())
        .map(|(_, c)| c.measurements)
        .sum();
    if resumed_spent != expected_repaid {
        eprintln!(
            "engine resume repaid {resumed_spent} measurements, expected {expected_repaid} \
             (partition must not be repaid)"
        );
        std::process::exit(1);
    }
    let resume_savings =
        checkpointed_measurements as f64 / straight.total.measurements.max(1) as f64;

    // --- Telemetry: zero-overhead and byte-determinism gates ---------------
    // The same optimized engine run, repeated with a TelemetryObserver
    // recording spans plus fine-grained oracle-batch events. Gates: the
    // observed run must spend exactly the measurements the unobserved
    // `straight` run spent (telemetry reads costs, it never probes — so a
    // disabled observer costs zero extra measurements a fortiori), and two
    // same-seed runs must export byte-identical Chrome traces and metrics
    // snapshots — the property CI's telemetry-smoke step `cmp`s.
    let telemetry_run = || {
        let mut probe = engine_probe(SIM_SEED);
        let mut observer = TelemetryObserver::new();
        let report = engine
            .run(
                &mut probe,
                &EngineOptions::default().with_fine_events(true),
                &mut observer,
            )
            .unwrap_or_else(|e| {
                eprintln!("telemetry-observed engine run failed: {e}");
                std::process::exit(1);
            });
        let (tracer, metrics) = observer.into_parts();
        (report, tracer.chrome_trace(), metrics.snapshot())
    };
    let (observed, trace_a, metrics_a) = telemetry_run();
    let (_, trace_b, metrics_b) = telemetry_run();
    if observed.total.measurements != straight.total.measurements {
        eprintln!(
            "telemetry overhead gate failed: observed run spent {} measurements, \
             unobserved {} (recording must not probe)",
            observed.total.measurements, straight.total.measurements
        );
        std::process::exit(1);
    }
    if trace_a != trace_b || metrics_a != metrics_b {
        eprintln!(
            "telemetry determinism gate failed: same-seed exports differ \
             (trace identical: {}, metrics identical: {})",
            trace_a == trace_b,
            metrics_a == metrics_b
        );
        std::process::exit(1);
    }
    // Streaming-array form: one event per line between `[` and `]`.
    let trace_events = trace_a.lines().count().saturating_sub(2);

    // --- Scenario-matrix eval on the quick grid ----------------------------
    // The same workload the CI `scenario-matrix` job gates on, at the
    // smaller preset: the JSON tracks per-tool success counts and DRAMDig's
    // measurement advantage over DRAMA so the trajectory covers the open
    // (generated-machine) workload, not just Table II.
    let eval_grid = EvalGrid::new(GridKind::Quick, 1);
    let eval_start = Instant::now();
    let eval_outcome = run_grid(&eval_grid, 4);
    let eval_wall_ms = eval_start.elapsed().as_secs_f64() * 1e3;
    let eval_gate = eval_outcome.gate();
    if !eval_gate.passed() {
        eprintln!(
            "scenario-matrix differential gate failed:\n  {}",
            eval_gate.failures.join("\n  ")
        );
        std::process::exit(1);
    }
    let in_scope_count = eval_grid
        .of_class(dram_model::MachineClass::InScope)
        .count();
    let dramdig_counts = eval_outcome.counts(ToolId::DramDig);
    let drama_counts = eval_outcome.counts(ToolId::Drama);
    let measurement_advantage_vs_drama =
        drama_counts.measurements as f64 / dramdig_counts.measurements.max(1) as f64;
    let mut eval_tools_json = String::new();
    for (i, tool) in ToolId::ALL.iter().enumerate() {
        let c = eval_outcome.counts(*tool);
        let comma = if i + 1 == ToolId::ALL.len() { "" } else { "," };
        let _ = writeln!(
            eval_tools_json,
            "      \"{tool}\": {{\"recovered\": {}, \"skeleton\": {}, \"detected\": {}, \"partition_only\": {}, \"not_applicable\": {}, \"failed\": {}, \"wrong\": {}, \"measure_pair_calls\": {}}}{comma}",
            c.recovered,
            c.skeleton,
            c.detected,
            c.partition_only,
            c.not_applicable,
            c.failed,
            c.wrong,
            c.measurements,
        );
    }

    // --- Per-observable costs on a row-remapped machine --------------------
    // The first row-remap scenario of the same quick grid, run three ways:
    // the seed-faithful driver, the engine behind the observable seam with
    // no extra channels, and the engine with the flip-adjacency channel
    // enabled. Differential gates: the seam run must be byte-identical to
    // the seed path (timing-only budgets unchanged from the seed), and the
    // combined run must leave the timing stream untouched while recovering
    // the generator's row-remap mask with hammer pairs only.
    let remap_scenario = eval_grid
        .of_class(MachineClass::RowRemap)
        .next()
        .expect("quick grid has a row-remap scenario");
    let remap_config = DramDigConfig::optimized().with_seed(remap_scenario.tool_seed);
    let remap_knowledge = DomainKnowledge::for_generated(&remap_scenario.machine);

    let mut probe = remap_scenario.probe();
    let seed_path = DramDig::new(remap_knowledge.clone(), remap_config.clone())
        .run(&mut probe)
        .unwrap_or_else(|e| {
            eprintln!("seed path failed on row-remap scenario: {e}");
            std::process::exit(1);
        });
    let seed_path_stats = probe.stats();

    let mut probe = remap_scenario.probe();
    let seam_run = PipelineEngine::new(remap_knowledge.clone(), remap_config.clone())
        .run_with_observables(
            &mut probe,
            &EngineOptions::default(),
            &mut NullObserver,
            &mut [],
        )
        .unwrap_or_else(|e| {
            eprintln!("observable seam (no channels) failed on row-remap scenario: {e}");
            std::process::exit(1);
        });
    let seam_identical = RecoveryReport::from(&seam_run).encode()
        == RecoveryReport::from(&seed_path).encode()
        && probe.stats() == seed_path_stats;
    if !seam_identical {
        eprintln!(
            "differential check failed: the observable seam perturbed the timing-only run \
             (budgets must be unchanged from the seed path)"
        );
        std::process::exit(1);
    }

    let mut probe = remap_scenario.probe();
    let mut flip = FlipAdjacencyObservable::for_generated(
        &remap_scenario.machine,
        flip_sim_seed(remap_scenario),
    );
    let combined_knowledge = remap_knowledge.with_observables(vec![
        ObservableKind::ConflictTiming,
        ObservableKind::FlipAdjacency,
    ]);
    let combined = PipelineEngine::new(combined_knowledge, remap_config)
        .run_with_observables(
            &mut probe,
            &EngineOptions::default(),
            &mut NullObserver,
            &mut [&mut flip],
        )
        .unwrap_or_else(|e| {
            eprintln!("combined-observable run failed on row-remap scenario: {e}");
            std::process::exit(1);
        });
    let combined_stats = probe.stats();
    if combined_stats.measurements != seed_path_stats.measurements {
        eprintln!(
            "differential check failed: flip-adjacency channel changed the timing budget \
             ({} pairs vs {} on the seed path)",
            combined_stats.measurements, seed_path_stats.measurements
        );
        std::process::exit(1);
    }
    let remap_truth = remap_scenario
        .machine
        .row_remap
        .as_ref()
        .map(|r| RowRemap::canonical_mask(r.xor_mask, remap_scenario.machine.mapping().num_rows()))
        .filter(|&mask| mask != 0);
    if combined.row_remap != remap_truth {
        eprintln!(
            "differential check failed: combined run recovered row remap {:?}, truth is {:?}",
            combined.row_remap, remap_truth
        );
        std::process::exit(1);
    }
    let flip_hammer_pairs: u64 = combined
        .observable_costs
        .iter()
        .filter(|(kind, _)| *kind == ObservableKind::FlipAdjacency)
        .map(|(_, cost)| cost.hammer_pairs)
        .sum();
    if !seed_path.observable_costs.is_empty() || flip_hammer_pairs == 0 {
        eprintln!(
            "differential check failed: expected hammer pairs only on the combined run \
             (seed path consulted {} channels, combined spent {flip_hammer_pairs} hammer pairs)",
            seed_path.observable_costs.len()
        );
        std::process::exit(1);
    }
    let mut observable_channels_json = String::new();
    for (i, (kind, cost)) in combined.observable_costs.iter().enumerate() {
        let comma = if i + 1 == combined.observable_costs.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            observable_channels_json,
            "      {{\"kind\": \"{kind}\", \"hammer_pairs\": {}, \"timing_pairs\": {}, \"simulated_seconds\": {:.6}}}{comma}",
            cost.hammer_pairs,
            cost.timing_pairs,
            cost.elapsed_ns as f64 / 1e9,
        );
    }
    let json_mask = |mask: Option<u32>| mask.map_or("null".to_string(), |m| m.to_string());

    // --- Registry: sharded store and the lock-free query path --------------
    // A 1,000-machine generated corpus goes through the full registry
    // subsystem: in-memory insert, differential check of every indexed
    // query against its linear-scan twin, sharded disk round trip, the
    // >= 10x indexed-speedup gates on `machines_sharing` and `nearest`,
    // and sustained queries/sec over `Arc` snapshots with one and four
    // reader threads.
    let registry_corpus: u64 = 1_000;
    let registry_seed: u64 = 0xC0FFEE;
    let registry_shards: u32 = 8;
    let mut registry_records: Vec<Record> = Vec::with_capacity(registry_corpus as usize);
    let mut registry_mem = MemRegistry::new();
    for i in 0..registry_corpus {
        let machine =
            MachineGen::new(registry_seed.wrapping_add(i)).generate(MachineClass::InScope);
        let record = Record::new(
            machine.mapping(),
            Source::new(machine.label.clone(), "bench-gen".to_string()),
        );
        registry_mem.insert(&record.mapping, record.source.clone());
        registry_records.push(record);
    }
    let registry_entries = registry_mem.len();

    // Query workload: the first bank function of every 23rd entry (hit
    // path, spread over the whole corpus) plus two functions over low
    // column bits no stored basis spans (miss path).
    let mut registry_queries: Vec<XorFunc> = registry_mem
        .entries()
        .step_by(23)
        .map(|e| e.mapping.bank_funcs()[0])
        .collect();
    registry_queries.push(XorFunc::from_bits(&[2, 3]));
    registry_queries.push(XorFunc::from_bits(&[0, 1, 2]));

    // Differential gate: the inverted index answers byte-identically to
    // the linear-scan twin, on sharing and nearest queries alike.
    for func in &registry_queries {
        if registry_mem.machines_sharing(*func) != registry_mem.machines_sharing_scan(*func) {
            eprintln!(
                "registry differential gate failed: indexed machines_sharing({func}) \
                 disagrees with the linear-scan twin"
            );
            std::process::exit(1);
        }
    }
    let registry_partials: Vec<(u64, Vec<XorFunc>)> = registry_mem
        .entries()
        .step_by(101)
        .map(|entry| {
            let partial = entry.mapping.bank_funcs().iter().copied().take(2).collect();
            (entry.fingerprint, partial)
        })
        .collect();
    for (fingerprint, partial) in &registry_partials {
        if registry_mem.nearest(partial, 3).0 != registry_mem.nearest_scan(partial, 3) {
            eprintln!(
                "registry differential gate failed: indexed nearest for a partial of \
                 {fingerprint:016x} disagrees with the linear-scan twin"
            );
            std::process::exit(1);
        }
    }

    // Sharded disk round trip: publish the corpus, reload from segments,
    // and require the reloaded registry to equal the in-memory one.
    let registry_dir =
        std::env::temp_dir().join(format!("dramdig-bench-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry_dir);
    let registry_shared =
        SharedRegistry::create(&registry_dir, registry_shards).unwrap_or_else(|e| {
            eprintln!(
                "cannot create bench registry at {}: {e}",
                registry_dir.display()
            );
            std::process::exit(1);
        });
    registry_shared
        .publish(&registry_records)
        .unwrap_or_else(|e| {
            eprintln!("cannot publish bench corpus: {e}");
            std::process::exit(1);
        });
    let registry_reloaded = DiskRegistry::open(&registry_dir)
        .and_then(|disk| disk.load())
        .unwrap_or_else(|e| {
            eprintln!("cannot reload bench registry: {e}");
            std::process::exit(1);
        });
    let registry_load_matches = registry_reloaded == registry_mem;
    if !registry_load_matches {
        eprintln!(
            "registry differential gate failed: sharded disk round trip does not \
             reproduce the in-memory registry"
        );
        std::process::exit(1);
    }
    let registry_disk = registry_shared.stats().unwrap_or_else(|e| {
        eprintln!("cannot stat bench registry: {e}");
        std::process::exit(1);
    });

    // Speedup gate: per-query cost of the indexed path vs the scan twin.
    let registry_query_count = registry_queries.len() as f64;
    let registry_scan_ns = time_per_call(|| {
        registry_queries
            .iter()
            .map(|f| registry_mem.machines_sharing_scan(*f).len())
            .sum::<usize>()
    }) / registry_query_count;
    let registry_indexed_ns = time_per_call(|| {
        registry_queries
            .iter()
            .map(|f| registry_mem.machines_sharing(*f).len())
            .sum::<usize>()
    }) / registry_query_count;
    let registry_speedup = registry_scan_ns / registry_indexed_ns;
    if registry_speedup < 10.0 {
        eprintln!(
            "registry speedup gate failed: indexed machines_sharing is only \
             {registry_speedup:.1}x faster than the scan at {registry_entries} entries \
             ({registry_indexed_ns:.0} ns vs {registry_scan_ns:.0} ns per query, gate 10x)"
        );
        std::process::exit(1);
    }
    // The same gate on `nearest`: lead-column residual scoring over the
    // postings union against the per-entry RREF scan twin.
    let nearest_query_count = registry_partials.len() as f64;
    let nearest_scan_ns = time_per_call(|| {
        registry_partials
            .iter()
            .map(|(_, p)| registry_mem.nearest_scan(p, 3).len())
            .sum::<usize>()
    }) / nearest_query_count;
    let nearest_indexed_ns = time_per_call(|| {
        registry_partials
            .iter()
            .map(|(_, p)| registry_mem.nearest(p, 3).0.len())
            .sum::<usize>()
    }) / nearest_query_count;
    let nearest_speedup = nearest_scan_ns / nearest_indexed_ns;
    if nearest_speedup < 10.0 {
        eprintln!(
            "registry speedup gate failed: indexed nearest is only {nearest_speedup:.1}x \
             faster than the scan at {registry_entries} entries ({nearest_indexed_ns:.0} ns \
             vs {nearest_scan_ns:.0} ns per query, gate 10x)"
        );
        std::process::exit(1);
    }

    // Sustained queries/sec over Arc snapshots. Each reader clones the
    // snapshot once and then queries lock-free; the gate only requires
    // that fanning readers out does not collapse aggregate throughput
    // (a contended lock would), not that it scales — CI may be 1-core.
    let registry_qps = |threads: usize| -> f64 {
        let served = std::sync::atomic::AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (served, shared, queries) = (&served, &registry_shared, &registry_queries);
                scope.spawn(move || {
                    let snapshot = shared.snapshot();
                    let mut local = 0u64;
                    while start.elapsed().as_nanos() < 200_000_000 {
                        for func in queries {
                            std::hint::black_box(snapshot.mem.machines_sharing(*func));
                            local += 1;
                        }
                    }
                    served.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        served.into_inner() as f64 / start.elapsed().as_secs_f64()
    };
    let registry_single_qps = registry_qps(1);
    let registry_threads = 4usize;
    let registry_multi_qps = registry_qps(registry_threads);
    let registry_throughput_ok = registry_multi_qps >= 0.5 * registry_single_qps;
    if !registry_throughput_ok {
        eprintln!(
            "registry throughput gate failed: {registry_threads} readers collapsed to \
             {registry_multi_qps:.0} queries/s aggregate vs {registry_single_qps:.0} \
             single-threaded"
        );
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&registry_dir);

    // Longitudinal history: one line per run in REGISTRY_HISTORY.txt.
    // Everything before `||` is deterministic for a given tree and acts
    // as a regression gate against every prior line with the same key;
    // the wall-clock tail after `||` is recorded for trend-watching only.
    let mut registry_codec = String::new();
    for entry in registry_mem.entries() {
        let _ = writeln!(registry_codec, "{:016x}", entry.fingerprint);
    }
    let registry_corpus_fnv = fnv1a64(registry_codec.as_bytes());
    let registry_key = format!(
        "registry corpus={registry_corpus} seed={registry_seed:#x} shards={registry_shards}"
    );
    let registry_determ = format!(
        "entries={registry_entries} segments={} records={} queries={} \
         corpus=fnv1a:{registry_corpus_fnv:016x} gates=PASS",
        registry_disk.segments,
        registry_disk.records,
        registry_queries.len(),
    );
    let registry_line = format!(
        "{registry_key} | {registry_determ} || speedup={registry_speedup:.1}x \
         single_qps={registry_single_qps:.0} multi_qps={registry_multi_qps:.0} \
         threads={registry_threads} nearest_speedup={nearest_speedup:.1}x"
    );
    let registry_history = std::fs::read_to_string("REGISTRY_HISTORY.txt").unwrap_or_default();
    for prior in registry_history.lines() {
        let Some((key, rest)) = prior.trim().split_once(" | ") else {
            continue;
        };
        if key != registry_key {
            continue;
        }
        let recorded = rest.split(" || ").next().unwrap_or(rest).trim();
        if recorded != registry_determ {
            eprintln!(
                "registry history regression for `{registry_key}`:\n  recorded: {recorded}\n  \
                 current:  {registry_determ}"
            );
            std::process::exit(1);
        }
    }
    let mut registry_history_out = if registry_history.is_empty() {
        String::from(
            "# Longitudinal registry bench history: one line per `bench_json` run.\n\
             # Fields before `||` are deterministic for a given tree and gate\n\
             # regressions against prior runs with the same key; the wall-clock\n\
             # tail after `||` is recorded for trend-watching only.\n",
        )
    } else {
        registry_history
    };
    if !registry_history_out.ends_with('\n') {
        registry_history_out.push('\n');
    }
    registry_history_out.push_str(&registry_line);
    registry_history_out.push('\n');
    std::fs::write("REGISTRY_HISTORY.txt", registry_history_out).unwrap_or_else(|e| {
        eprintln!("cannot write REGISTRY_HISTORY.txt: {e}");
        std::process::exit(1);
    });

    // --- Assemble the JSON -------------------------------------------------
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"dramdig-bench-v1\",");
    let _ = writeln!(out, "  \"setting\": \"{}\",", setting.label());
    let _ = writeln!(out, "  \"sim_seed\": {SIM_SEED},");
    let _ = writeln!(out, "  \"profiles\": {{");
    let _ = writeln!(out, "    \"naive\": {{");
    profile_json(&mut out, "      ", &naive);
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"optimized\": {{");
    profile_json(&mut out, "      ", &fast);
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"partition\": {{");
    let _ = writeln!(
        out,
        "    \"exhaustive_measure_pair_calls\": {naive_partition_measurements},"
    );
    let _ = writeln!(
        out,
        "    \"decompose_measure_pair_calls\": {fast_partition_measurements},"
    );
    let _ = writeln!(
        out,
        "    \"measurement_reduction\": {:.2}",
        naive_partition_measurements as f64 / fast_partition_measurements.max(1) as f64
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"detect_bank_functions\": {{");
    let _ = writeln!(out, "    \"naive_ns_per_call\": {naive_detect_ns:.1},");
    let _ = writeln!(out, "    \"basis_ns_per_call\": {fast_detect_ns:.1},");
    let _ = writeln!(
        out,
        "    \"basis_with_build_ns_per_call\": {fast_detect_with_build_ns:.1},"
    );
    let _ = writeln!(out, "    \"speedup\": {detect_speedup:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"gf2_kernels\": {{");
    let _ = writeln!(out, "    \"setting\": \"{}\",", kernel_setting.label());
    let _ = writeln!(out, "    \"coset_reduce\": {{");
    let _ = writeln!(out, "      \"batch\": {},", reduce_values.len());
    let _ = writeln!(out, "      \"basis_rank\": {},", pile_basis.rank());
    let _ = writeln!(out, "      \"scalar_ns_per_batch\": {reduce_scalar_ns:.1},");
    let _ = writeln!(
        out,
        "      \"bitsliced_ns_per_batch\": {reduce_batch_ns:.1},"
    );
    let _ = writeln!(out, "      \"speedup\": {reduce_speedup:.2}");
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"span_walk\": {{");
    let _ = writeln!(out, "      \"candidate_bits\": {},", candidate_bits.len());
    let _ = writeln!(out, "      \"masks_swept\": {},", sweep_masks.len());
    let _ = writeln!(out, "      \"complement_dim\": {},", complement.len());
    let _ = writeln!(out, "      \"survivors\": {},", walk_survivors.len());
    let _ = writeln!(
        out,
        "      \"scalar_sweep_ns_per_call\": {span_sweep_ns:.1},"
    );
    let _ = writeln!(out, "      \"bitsliced_ns_per_call\": {span_walk_ns:.1},");
    let _ = writeln!(out, "      \"speedup\": {span_speedup:.2}");
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"rref_keys\": {{");
    let _ = writeln!(out, "      \"matrices\": {},", rref_rows.len());
    let _ = writeln!(out, "      \"scalar_ns_per_call\": {rref_scalar_ns:.1},");
    let _ = writeln!(
        out,
        "      \"bitsliced_ns_per_call\": {rref_bitsliced_ns:.1}"
    );
    let _ = writeln!(out, "    }},");
    let _ = writeln!(
        out,
        "    \"throughput_gate\": \">= 8x on coset_reduce and span_walk\""
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"end_to_end\": {{");
    let _ = writeln!(
        out,
        "    \"measurement_reduction\": {measurement_reduction:.2},"
    );
    let _ = writeln!(out, "    \"mappings_equivalent\": {profiles_agree},");
    let _ = writeln!(out, "    \"ground_truth_recovered\": {truth_ok}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"table2_optimized_sweep\": [");
    out.push_str(&sweep);
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"engine\": {{");
    let _ = writeln!(
        out,
        "    \"kill_boundary\": \"{}\",",
        Phase::FunctionDetection.name()
    );
    let _ = writeln!(out, "    \"resume_report_identical\": {resume_equal},");
    let _ = writeln!(
        out,
        "    \"straight_measure_pair_calls\": {},",
        straight.total.measurements
    );
    let _ = writeln!(out, "    \"resumed_measure_pair_calls\": {resumed_spent},");
    let _ = writeln!(
        out,
        "    \"partition_measure_pair_calls\": {partition_measurements},"
    );
    let _ = writeln!(out, "    \"partition_repaid_measure_pair_calls\": 0,");
    let _ = writeln!(
        out,
        "    \"measurement_savings_fraction\": {resume_savings:.4}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"campaign\": {{");
    let _ = writeln!(out, "    \"jobs\": 9,");
    let _ = writeln!(out, "    \"profile\": \"optimized\",");
    let _ = writeln!(out, "    \"stores_identical\": true,");
    let _ = writeln!(out, "    \"fleet_speedup_4w\": {fleet_4w:.2},");
    let _ = writeln!(out, "    \"sweeps\": [");
    out.push_str(&campaign_json);
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"campaign_mapreduce\": {{");
    let _ = writeln!(out, "    \"grid\": \"big\",");
    let _ = writeln!(out, "    \"scenarios\": {},", grid_spec.scenarios);
    let _ = writeln!(out, "    \"profile\": \"fast\",");
    let _ = writeln!(
        out,
        "    \"injected_kill\": \"worker 0 on its 2nd lease (multi-worker topologies)\","
    );
    let _ = writeln!(out, "    \"scoreboards_identical\": true,");
    let _ = writeln!(out, "    \"stores_identical\": true,");
    let _ = writeln!(
        out,
        "    \"scoreboard_fnv1a\": \"{mapreduce_board_fp:016x}\","
    );
    let _ = writeln!(out, "    \"dead_letters\": {mapreduce_dead},");
    let _ = writeln!(
        out,
        "    \"distinct_mappings\": {mapreduce_store_mappings},"
    );
    let _ = writeln!(out, "    \"topologies\": [");
    out.push_str(&mapreduce_json);
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"eval\": {{");
    let _ = writeln!(out, "    \"grid\": \"{}\",", eval_grid.kind);
    let _ = writeln!(out, "    \"seed\": {},", eval_grid.seed);
    let _ = writeln!(out, "    \"scenarios\": {},", eval_grid.scenarios.len());
    let _ = writeln!(out, "    \"in_scope\": {in_scope_count},");
    let _ = writeln!(out, "    \"wall_ms\": {eval_wall_ms:.3},");
    let _ = writeln!(out, "    \"gate_pass\": true,");
    let _ = writeln!(
        out,
        "    \"measurement_advantage_vs_drama\": {measurement_advantage_vs_drama:.2},"
    );
    let _ = writeln!(out, "    \"tools\": {{");
    out.push_str(&eval_tools_json);
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"observables\": {{");
    let _ = writeln!(out, "    \"scenario\": \"{}\",", remap_scenario.id());
    let _ = writeln!(out, "    \"machine_class\": \"row-remap\",");
    let _ = writeln!(
        out,
        "    \"row_remap_truth_mask\": {},",
        json_mask(remap_truth)
    );
    let _ = writeln!(
        out,
        "    \"row_remap_recovered_mask\": {},",
        json_mask(combined.row_remap)
    );
    let _ = writeln!(
        out,
        "    \"timing_only_identical_to_seed_path\": {seam_identical},"
    );
    let _ = writeln!(
        out,
        "    \"timing_only_measure_pair_calls\": {},",
        seed_path_stats.measurements
    );
    let _ = writeln!(
        out,
        "    \"combined_timing_measure_pair_calls\": {},",
        combined_stats.measurements
    );
    let _ = writeln!(out, "    \"channels\": [");
    out.push_str(&observable_channels_json);
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"telemetry\": {{");
    let _ = writeln!(
        out,
        "    \"observed_measure_pair_calls\": {},",
        observed.total.measurements
    );
    let _ = writeln!(
        out,
        "    \"unobserved_measure_pair_calls\": {},",
        straight.total.measurements
    );
    let _ = writeln!(out, "    \"zero_measurement_overhead\": true,");
    let _ = writeln!(out, "    \"trace_events\": {trace_events},");
    let _ = writeln!(out, "    \"trace_bytes\": {},", trace_a.len());
    let _ = writeln!(out, "    \"metrics_bytes\": {},", metrics_a.len());
    let _ = writeln!(out, "    \"same_seed_trace_identical\": true,");
    let _ = writeln!(out, "    \"same_seed_metrics_identical\": true");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"registry\": {{");
    let _ = writeln!(out, "    \"corpus_mappings\": {registry_corpus},");
    let _ = writeln!(out, "    \"distinct_mappings\": {registry_entries},");
    let _ = writeln!(out, "    \"shards\": {registry_shards},");
    let _ = writeln!(out, "    \"segments\": {},", registry_disk.segments);
    let _ = writeln!(out, "    \"queries\": {},", registry_queries.len());
    let _ = writeln!(out, "    \"indexed_answers_match_scan\": true,");
    let _ = writeln!(
        out,
        "    \"sharded_load_matches_mem\": {registry_load_matches},"
    );
    let _ = writeln!(out, "    \"scan_ns_per_query\": {registry_scan_ns:.1},");
    let _ = writeln!(
        out,
        "    \"indexed_ns_per_query\": {registry_indexed_ns:.1},"
    );
    let _ = writeln!(out, "    \"indexed_speedup\": {registry_speedup:.2},");
    let _ = writeln!(out, "    \"speedup_gate\": 10.0,");
    let _ = writeln!(out, "    \"nearest_queries\": {},", registry_partials.len());
    let _ = writeln!(
        out,
        "    \"nearest_scan_ns_per_query\": {nearest_scan_ns:.1},"
    );
    let _ = writeln!(
        out,
        "    \"nearest_indexed_ns_per_query\": {nearest_indexed_ns:.1},"
    );
    let _ = writeln!(out, "    \"nearest_speedup\": {nearest_speedup:.2},");
    let _ = writeln!(out, "    \"single_thread_qps\": {registry_single_qps:.0},");
    let _ = writeln!(out, "    \"multi_thread_qps\": {registry_multi_qps:.0},");
    let _ = writeln!(out, "    \"threads\": {registry_threads},");
    let _ = writeln!(out, "    \"throughput_gate\": {registry_throughput_ok}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");

    std::fs::write("BENCH_dramdig.json", &out).unwrap_or_else(|e| {
        eprintln!("cannot write BENCH_dramdig.json: {e}");
        std::process::exit(1);
    });

    println!("wrote BENCH_dramdig.json");
    println!(
        "end-to-end measure_pair calls: naive {} -> optimized {} ({measurement_reduction:.1}x fewer)",
        naive.report.total.measurements, fast.report.total.measurements
    );
    println!(
        "partition measure_pair calls: exhaustive {naive_partition_measurements} -> decompose {fast_partition_measurements} ({:.1}x fewer)",
        naive_partition_measurements as f64 / fast_partition_measurements.max(1) as f64
    );
    println!(
        "detect_bank_functions: naive {naive_detect_ns:.0} ns -> basis {fast_detect_ns:.0} ns ({detect_speedup:.1}x faster)"
    );
    println!(
        "gf2 kernels: coset reduce {reduce_scalar_ns:.0} ns -> {reduce_batch_ns:.0} ns per 4096-batch \
         ({reduce_speedup:.1}x), span walk {span_sweep_ns:.0} ns -> {span_walk_ns:.0} ns per set \
         ({span_speedup:.1}x, {} masks swept -> {}-dim span)",
        sweep_masks.len(),
        complement.len(),
    );
    println!(
        "campaign (9 machines): fleet makespan {:.1} ms at 1 worker -> {:.1} ms at 4 workers ({fleet_4w:.1}x)",
        fleet_1w * 1e3,
        fleet_1w * 1e3 / fleet_4w
    );
    println!(
        "mapreduce ({} scenarios): byte-identical scoreboard fnv1a:{mapreduce_board_fp:016x} \
         at 1/4/8 workers with a mid-phase kill, {mapreduce_dead} dead-lettered, \
         {mapreduce_store_mappings} distinct mappings",
        grid_spec.scenarios,
    );
    println!(
        "engine resume after mid-FineDetection kill: {resumed_spent} of {} measurements repaid \
         ({:.1}% saved, partition repaid 0), report byte-identical: {resume_equal}",
        straight.total.measurements,
        resume_savings * 100.0,
    );
    println!(
        "scenario eval ({} scenarios): dramdig recovered {}/{in_scope_count} in-scope, \
         detected {} out-of-scope, {measurement_advantage_vs_drama:.0}x fewer measurements than DRAMA",
        eval_grid.scenarios.len(),
        dramdig_counts.recovered,
        dramdig_counts.detected + dramdig_counts.skeleton,
    );
    println!(
        "telemetry: {trace_events} trace events over {} measurements, zero probe overhead, \
         same-seed exports byte-identical",
        observed.total.measurements,
    );
    println!(
        "registry ({registry_entries} entries from {registry_corpus} machines, \
         {registry_shards} shards): machines_sharing scan {registry_scan_ns:.0} ns -> \
         indexed {registry_indexed_ns:.0} ns per query ({registry_speedup:.1}x, gate 10x), \
         {registry_single_qps:.0} qps single -> {registry_multi_qps:.0} qps aggregate \
         at {registry_threads} readers"
    );
    println!(
        "observables on {}: timing-only {} pairs (identical to seed path), flip adjacency \
         spent {flip_hammer_pairs} hammer pairs to recover row remap {}",
        remap_scenario.id(),
        seed_path_stats.measurements,
        combined
            .row_remap
            .map_or("(pure mirror; skeleton exact)".to_string(), |m| format!(
                "{m:#x}"
            )),
    );
}
