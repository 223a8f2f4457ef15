//! Checkpoint/resume differential tests for the pipeline engine: killing a
//! run at any phase boundary and resuming it must produce a serialized
//! `RecoveryReport` byte-identical to an uninterrupted run, repaying none of
//! the already-checkpointed measurements.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use dram_model::MachineSetting;
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::engine::{Budget, EngineEvent, EngineOptions, NullObserver, PipelineEngine};
use dramdig::{
    CheckpointStore, DomainKnowledge, DramDig, DramDigConfig, DramDigError, Phase, PhaseArtifact,
    RecoveryReport, RunReport,
};
use mem_probe::{MemoryProbe, SimProbe};

fn probe_for(number: u8, sim_seed: u64) -> (SimProbe, MachineSetting) {
    let setting = MachineSetting::by_number(number).unwrap();
    let machine = SimMachine::from_setting(&setting, SimConfig::default().with_seed(sim_seed));
    let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
    (probe, setting)
}

fn engine_for(number: u8, config: &DramDigConfig) -> PipelineEngine {
    let setting = MachineSetting::by_number(number).unwrap();
    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    PipelineEngine::new(knowledge, config.clone())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dramdig-engine-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn straight_run(number: u8, config: &DramDigConfig, sim_seed: u64) -> RunReport {
    let (mut probe, _) = probe_for(number, sim_seed);
    engine_for(number, config)
        .run(&mut probe, &EngineOptions::default(), &mut NullObserver)
        .unwrap()
}

/// Kills the run after `boundary`, resumes it from the checkpoint, and
/// returns the resumed report plus the measurements the resumed invocation
/// itself paid for.
fn kill_and_resume(
    number: u8,
    config: &DramDigConfig,
    sim_seed: u64,
    boundary: Phase,
    tag: &str,
) -> (RunReport, u64) {
    let dir = temp_dir(tag);
    let engine = engine_for(number, config);

    let (mut probe, _) = probe_for(number, sim_seed);
    let killed = engine.run(
        &mut probe,
        &EngineOptions::default()
            .with_checkpoint(&dir)
            .with_stop_after(boundary),
        &mut NullObserver,
    );
    if boundary == *Phase::ALL.last().unwrap() {
        // Stopping after the final phase is a completed run, not a kill.
        let report = killed.unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        return (report, probe.stats().measurements);
    }
    assert!(
        matches!(killed, Err(DramDigError::Interrupted { .. })),
        "boundary {boundary}: {killed:?}"
    );

    let (mut probe, _) = probe_for(number, sim_seed);
    let resumed = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&dir),
            &mut NullObserver,
        )
        .unwrap();
    let repaid = probe.stats().measurements;
    let _ = std::fs::remove_dir_all(&dir);
    (resumed, repaid)
}

#[test]
fn kill_at_every_boundary_resumes_byte_identically() {
    let config = DramDigConfig::fast();
    let straight = straight_run(4, &config, 11);
    let straight_encoded = RecoveryReport::from(&straight).encode();
    for boundary in Phase::ALL {
        let (resumed, repaid) = kill_and_resume(
            4,
            &config,
            11,
            boundary,
            &format!("fast-{}", boundary.name()),
        );
        assert_eq!(
            RecoveryReport::from(&resumed).encode(),
            straight_encoded,
            "boundary {boundary}"
        );
        assert_eq!(resumed.mapping, straight.mapping, "boundary {boundary}");
        // The resumed invocation only pays for the phases after the
        // boundary: checkpointed measurements are never repaid. (Stopping
        // after the final phase is a completed run, not a kill, so there
        // is no resumed invocation to account for.)
        if boundary != *Phase::ALL.last().unwrap() {
            let checkpointed: u64 = straight
                .phase_costs
                .iter()
                .filter(|(p, _)| p.index() <= boundary.index())
                .map(|(_, c)| c.measurements)
                .sum();
            assert_eq!(
                repaid,
                straight.total.measurements - checkpointed,
                "boundary {boundary}"
            );
        }
    }
}

#[test]
fn optimized_profile_with_cache_and_kernel_resumes_byte_identically() {
    // The optimized profile exercises the checkpointed kernel basis, the
    // conflict-cache snapshot and cache-backed validation.
    let config = DramDigConfig::optimized();
    let straight = straight_run(4, &config, 7);
    let straight_encoded = RecoveryReport::from(&straight).encode();
    assert!(straight.total.cache_misses > 0, "cache must be exercised");
    for boundary in [Phase::Partition, Phase::FineDetection] {
        let (resumed, _) =
            kill_and_resume(4, &config, 7, boundary, &format!("opt-{}", boundary.name()));
        assert_eq!(
            RecoveryReport::from(&resumed).encode(),
            straight_encoded,
            "boundary {boundary}"
        );
    }
}

#[test]
fn mid_fine_detection_kill_repays_zero_partition_measurements() {
    // A fleet killed mid-FineDetection resumes from the FunctionDetection
    // boundary: the partition phase — the dominant measurement cost per
    // Table II — is restored from its artifact, not re-measured.
    let config = DramDigConfig::fast();
    let straight = straight_run(4, &config, 3);
    let partition_cost = straight.cost_of(Phase::Partition).unwrap().measurements;
    assert!(partition_cost > 0);
    let (resumed, repaid) = kill_and_resume(4, &config, 3, Phase::FunctionDetection, "midfine");
    assert_eq!(
        RecoveryReport::from(&resumed).encode(),
        RecoveryReport::from(&straight).encode()
    );
    let after_kill: u64 = straight
        .phase_costs
        .iter()
        .filter(|(p, _)| p.index() > Phase::FunctionDetection.index())
        .map(|(_, c)| c.measurements)
        .sum();
    assert_eq!(repaid, after_kill, "only fine+validation are paid again");
    assert!(
        repaid < partition_cost,
        "the resumed invocation ({repaid}) must repay less than the \
         partition phase alone ({partition_cost})"
    );
}

#[test]
fn budget_interrupts_at_a_boundary_and_resume_completes() {
    let config = DramDigConfig::fast();
    let dir = temp_dir("budget");
    let engine = engine_for(4, &config);

    // Calibration (200) + coarse fit under 300; the partition blows it.
    let (mut probe, _) = probe_for(4, 11);
    let mut events: Vec<EngineEvent> = Vec::new();
    let err = engine
        .run(
            &mut probe,
            &EngineOptions::default()
                .with_checkpoint(&dir)
                .with_budget(Budget::measurements(300)),
            &mut |event: &EngineEvent| events.push(event.clone()),
        )
        .unwrap_err();
    let DramDigError::Interrupted { phase, reason } = err else {
        panic!("expected interruption, got {err}");
    };
    assert!(reason.contains("budget"), "{reason}");
    assert!(phase.index() > Phase::CoarseDetection.index());
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::BudgetPressure { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::Interrupted { .. })));

    // Re-running the *same* command — same budget included — must make
    // fresh progress: the budget counts this invocation's spend, not the
    // costs already restored from checkpoints. The remaining phases fit
    // under 300 fresh measurements, so the second run completes.
    let (mut probe, _) = probe_for(4, 11);
    let resumed = engine
        .run(
            &mut probe,
            &EngineOptions::default()
                .with_checkpoint(&dir)
                .with_budget(Budget::measurements(300)),
            &mut NullObserver,
        )
        .unwrap();
    assert!(probe.stats().measurements < 300);
    let straight = straight_run(4, &config, 11);
    assert_eq!(
        RecoveryReport::from(&resumed).encode(),
        RecoveryReport::from(&straight).encode()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_validation_is_not_checkpointed_and_a_restored_one_still_fails() {
    let config = DramDigConfig::fast();
    let dir = temp_dir("badvalid");
    let engine = engine_for(4, &config);
    let (mut probe, _) = probe_for(4, 11);
    engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&dir),
            &mut NullObserver,
        )
        .unwrap();
    // Rewrite the persisted validation tally into a failing one (re-saved,
    // so its checksum trailer is valid): a resume must reject it with a
    // validation error, not return a report.
    let store = CheckpointStore::new(&dir);
    let mut checkpoint = store.load_phase(Phase::Validation).unwrap().unwrap();
    let PhaseArtifact::Validation(tally) = &mut checkpoint.artifact else {
        panic!("the validation checkpoint holds a validation tally");
    };
    tally.mismatches = 1000;
    store.save_phase(&checkpoint).unwrap();
    let (mut probe, _) = probe_for(4, 11);
    let err = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&dir),
            &mut NullObserver,
        )
        .unwrap_err();
    assert!(matches!(err, DramDigError::Validation { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_phase_budget_interrupts_after_the_offending_phase() {
    let config = DramDigConfig::fast();
    let engine = engine_for(4, &config);
    let (mut probe, _) = probe_for(4, 11);
    let err = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_budget(Budget {
                max_phase_measurements: Some(10),
                ..Budget::default()
            }),
            &mut NullObserver,
        )
        .unwrap_err();
    // Calibration spends its full sample budget, far over 10 per phase.
    let DramDigError::Interrupted { phase, reason } = err else {
        panic!("expected interruption");
    };
    assert_eq!(phase, Phase::CoarseDetection);
    assert!(reason.contains("per-phase"), "{reason}");
}

#[test]
fn stop_after_the_last_phase_is_a_completed_run() {
    // Boundary stops name the first phase that will not run. After
    // validation there is none, so stopping there — or exhausting a budget
    // exactly at that boundary — is a completed run.
    let config = DramDigConfig::fast();
    let engine = engine_for(4, &config);
    let (mut probe, _) = probe_for(4, 11);
    let stopped = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_stop_after(Phase::Validation),
            &mut NullObserver,
        )
        .unwrap();
    assert_eq!(
        RecoveryReport::from(&stopped).encode(),
        RecoveryReport::from(&straight_run(4, &config, 11)).encode()
    );
    let spent = probe.stats().measurements;
    let (mut probe, _) = probe_for(4, 11);
    let budgeted = engine.run(
        &mut probe,
        &EngineOptions::default().with_budget(Budget::measurements(spent)),
        &mut NullObserver,
    );
    assert!(budgeted.is_ok(), "{budgeted:?}");

    // One phase earlier the same stop is a genuine kill before validation.
    let (mut probe, _) = probe_for(4, 11);
    let err = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_stop_after(Phase::FineDetection),
            &mut NullObserver,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        DramDigError::Interrupted {
            phase: Phase::Validation,
            ..
        }
    ));
}

#[test]
fn cancellation_stops_before_any_phase() {
    let config = DramDigConfig::fast();
    let engine = engine_for(4, &config);
    let (mut probe, _) = probe_for(4, 11);
    let cancel = Arc::new(AtomicBool::new(true));
    let err = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_cancel(Arc::clone(&cancel)),
            &mut NullObserver,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        DramDigError::Interrupted {
            phase: Phase::Calibration,
            ..
        }
    ));
    assert_eq!(probe.stats().measurements, 0, "nothing ran");
    cancel.store(false, Ordering::Relaxed);
    assert!(engine
        .run(
            &mut probe,
            &EngineOptions::default().with_cancel(cancel),
            &mut NullObserver
        )
        .is_ok());
}

#[test]
fn observer_sees_the_phase_lifecycle_in_order() {
    let config = DramDigConfig::fast();
    let dir = temp_dir("observer");
    let engine = engine_for(7, &config);

    let (mut probe, _) = probe_for(7, 5);
    let mut events: Vec<EngineEvent> = Vec::new();
    engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&dir),
            &mut |event: &EngineEvent| events.push(event.clone()),
        )
        .unwrap();
    let phases: Vec<Phase> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::PhaseCompleted {
                phase,
                checkpointed,
                ..
            } => {
                assert!(*checkpointed);
                Some(*phase)
            }
            _ => None,
        })
        .collect();
    assert_eq!(phases, Phase::ALL.to_vec());
    assert!(matches!(
        events.first(),
        Some(EngineEvent::RunStarted { resumed: 0, .. })
    ));
    assert!(matches!(
        events.last(),
        Some(EngineEvent::RunCompleted { .. })
    ));

    // A second run over a complete checkpoint restores every phase and
    // measures nothing.
    let (mut probe, _) = probe_for(7, 5);
    let mut restored = 0usize;
    engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&dir),
            &mut |event: &EngineEvent| {
                if matches!(event, EngineEvent::PhaseRestored { .. }) {
                    restored += 1;
                }
            },
        )
        .unwrap();
    assert_eq!(restored, Phase::ALL.len());
    assert_eq!(probe.stats().measurements, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_of_a_different_configuration_are_rejected() {
    let dir = temp_dir("mismatch");
    CheckpointStore::new(&dir)
        .save_config(&DramDigConfig::fast())
        .unwrap();
    let engine = engine_for(4, &DramDigConfig::optimized());
    let (mut probe, _) = probe_for(4, 1);
    let err = engine
        .run(
            &mut probe,
            &EngineOptions::default().with_checkpoint(&dir),
            &mut NullObserver,
        )
        .unwrap_err();
    assert!(matches!(err, DramDigError::Checkpoint { .. }), "{err}");
    assert!(err.to_string().contains("different configuration"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_and_wrapper_agree() {
    let config = DramDigConfig::fast();
    let (mut probe, setting) = probe_for(4, 11);
    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    let wrapped = DramDig::new(knowledge, config.clone())
        .run(&mut probe)
        .unwrap();
    let engined = straight_run(4, &config, 11);
    assert_eq!(
        RecoveryReport::from(&wrapped).encode(),
        RecoveryReport::from(&engined).encode()
    );
    assert!(wrapped.mapping.equivalent_to(setting.mapping()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every phase boundary (and a spread of machines/noise seeds),
    /// kill-at-boundary + resume yields a `RecoveryReport` text-identical
    /// to an uninterrupted run.
    #[test]
    fn resume_is_byte_identical_at_any_boundary(
        boundary_index in 0usize..6,
        machine_pick in 0usize..2,
        sim_seed in 1u64..500,
    ) {
        let number = [4u8, 7][machine_pick];
        let boundary = Phase::ALL[boundary_index];
        let config = DramDigConfig::fast();
        let straight = straight_run(number, &config, sim_seed);
        let (resumed, _) = kill_and_resume(
            number,
            &config,
            sim_seed,
            boundary,
            &format!("prop-{number}-{sim_seed}-{boundary_index}"),
        );
        prop_assert_eq!(
            RecoveryReport::from(&resumed).encode(),
            RecoveryReport::from(&straight).encode()
        );
    }
}

/// The partition checkpoint of a small generated job (a 512-address
/// Decompose pool), pinned byte for byte: the encoder's output format is
/// what resumes and the perf benchmark's `core.checkpoint.bytes` read.
#[test]
fn partition_checkpoint_text_is_pinned() {
    use dram_model::{MachineClass, MachineGen};
    let machine = MachineGen::new(4).generate(MachineClass::InScope);
    assert_eq!(machine.mapping().bank_function_bits().len(), 9, "{machine}");
    let config = DramDigConfig::optimized().with_seed(5);
    let sim = SimMachine::from_generated(&machine, SimConfig::default().with_seed(5));
    let mut probe = SimProbe::new(sim, PhysMemory::full(machine.system.capacity_bytes));
    let dir = temp_dir("golden-partition");
    let err = PipelineEngine::new(DomainKnowledge::for_generated(&machine), config)
        .run(
            &mut probe,
            &EngineOptions::default()
                .with_checkpoint(&dir)
                .with_stop_after(Phase::Partition),
            &mut NullObserver,
        )
        .unwrap_err();
    assert!(matches!(err, DramDigError::Interrupted { .. }), "{err}");
    let text = std::fs::read_to_string(dir.join("02-partition.phase")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(text, include_str!("golden/partition_checkpoint.phase"));
}
