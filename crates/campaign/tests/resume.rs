//! The acceptance test of the campaign subsystem: a campaign over all nine
//! Table-II machines, interrupted mid-run and resumed, recovers exactly the
//! same nine mappings — and writes byte-identical store artifacts — as an
//! uninterrupted run.

use campaign::{
    campaign_status, run_campaign, run_job_sim_checkpointed_with, run_job_sim_with,
    CampaignOptions, CampaignPaths, CampaignSpec, JobSpec, Profile,
};
use dram_model::{MachineSetting, XorFunc};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::engine::{EngineOptions, NullObserver, PipelineEngine};
use dramdig::{DomainKnowledge, DramDigConfig, Phase, RecoveryReport};
use mem_probe::SimProbe;

/// The optimized profile with test-sized calibration/validation budgets:
/// same recovered mappings, far fewer measurements (this test runs the full
/// pipeline 18 times in debug mode).
fn test_runner(
    job: &JobSpec,
    attempt: u32,
    _checkpoint: Option<&std::path::Path>,
) -> Result<RecoveryReport, String> {
    run_job_sim_with(job, attempt, DramDigConfig::optimized().with_fast_budgets())
}

fn temp_paths(tag: &str) -> CampaignPaths {
    let dir = std::env::temp_dir().join(format!("dramdig-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CampaignPaths::new(dir)
}

#[test]
fn interrupted_and_resumed_campaign_matches_an_uninterrupted_one() {
    let spec = CampaignSpec::new((1..=9).collect(), 1, Profile::Optimized);

    // --- Interrupted run: stop after 4 completions, then resume. ----------
    let interrupted = temp_paths("interrupted");
    let first = run_campaign(
        &spec,
        &interrupted,
        &CampaignOptions::default()
            .with_workers(2)
            .with_max_completions(4),
        test_runner,
    )
    .unwrap();
    assert!(
        first.state.completed.len() < 9,
        "the interruption must land mid-campaign ({} completed)",
        first.state.completed.len()
    );
    let mid_status = campaign_status(&spec, &interrupted).unwrap();
    assert!(!mid_status.pending.is_empty());
    assert_eq!(
        mid_status.completed + mid_status.pending.len(),
        9,
        "no job may be lost at the interruption point"
    );

    let resumed = run_campaign(
        &spec,
        &interrupted,
        &CampaignOptions::default().with_workers(4),
        test_runner,
    )
    .unwrap();
    assert_eq!(resumed.state.completed.len(), 9);
    assert!(resumed.dead.is_empty());
    // The resume only ran what the interruption left behind.
    assert_eq!(
        first.state.completed.len() + resumed.completed.len(),
        9,
        "resume must not re-run completed jobs"
    );

    // --- Uninterrupted reference run. -------------------------------------
    let straight = temp_paths("straight");
    let reference =
        run_campaign(&spec, &straight, &CampaignOptions::serial(), test_runner).unwrap();
    assert_eq!(reference.state.completed.len(), 9);

    // --- Same nine mappings, same artifacts. ------------------------------
    for (job_id, report) in &reference.state.completed {
        let resumed_report = &resumed.state.completed[job_id];
        assert_eq!(
            resumed_report.mapping, report.mapping,
            "{job_id} must recover the same mapping either way"
        );
        let machine: u8 = job_id
            .strip_prefix('m')
            .and_then(|r| r.split('-').next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        let setting = MachineSetting::by_number(machine).unwrap();
        assert!(
            report.mapping.equivalent_to(setting.mapping()),
            "{job_id} must match the Table-II ground truth"
        );
    }
    assert_eq!(resumed.store.encode(), reference.store.encode());
    let on_disk_interrupted = std::fs::read_to_string(interrupted.store()).unwrap();
    let on_disk_straight = std::fs::read_to_string(straight.store()).unwrap();
    assert_eq!(on_disk_interrupted, on_disk_straight);

    // Nine machines, eight distinct mappings (No.6 and No.9 share one), and
    // the component-function query sees across jobs.
    assert_eq!(reference.store.len(), 8);
    let sharing = reference
        .store
        .machines_sharing(XorFunc::from_bits(&[14, 18]));
    assert_eq!(
        sharing.into_iter().collect::<Vec<_>>(),
        vec!["No.2", "No.3", "No.5"]
    );

    // Campaign totals merge per-job costs without double counting.
    let sum: u64 = reference
        .state
        .completed
        .values()
        .map(|r| r.total.measurements)
        .sum();
    assert_eq!(reference.totals.measurements, sum);
    assert!(
        reference.totals.cache_hits + reference.totals.cache_misses > 0,
        "the optimized profile routes SBDR queries through the cache"
    );

    // The fleet makespan model: 4 parallel machines beat 1 by >= 2x.
    let serial = reference.simulated_makespan(1);
    let four = reference.simulated_makespan(4);
    assert!(
        serial / four >= 2.0,
        "fleet speedup at 4 workers was only {:.2}x",
        serial / four
    );

    std::fs::remove_dir_all(interrupted.dir()).unwrap();
    std::fs::remove_dir_all(straight.dir()).unwrap();
}

#[test]
fn mid_pipeline_kill_resumes_at_the_phase_boundary_with_identical_report() {
    // One job, killed mid-pipeline on its first attempt (the worker process
    // dies after the Partition phase — emulated with the engine's
    // deterministic stop point while checkpoints land in the directory the
    // orchestrator handed out). The retry resumes the *same* attempt from
    // its surviving artifacts: zero partition measurements are repaid and
    // the final report is byte-identical to a never-interrupted run.
    let spec = CampaignSpec::new(vec![4], 1, Profile::Fast);
    let paths = temp_paths("phase-resume");
    let config = DramDigConfig::fast();

    let kill_first = |job: &JobSpec, attempt: u32, checkpoint: Option<&std::path::Path>| {
        if attempt == 1 {
            // Emulate the kill: run the engine exactly like the sim runner
            // would, but die after Partition. The checkpoint dir keeps the
            // completed phases.
            let dir = checkpoint.expect("orchestrator hands out a checkpoint dir");
            let setting = MachineSetting::by_number(job.machine).unwrap();
            let seed = job.attempt_seed(attempt);
            let machine = SimMachine::from_setting(&setting, SimConfig::default().with_seed(seed));
            let mut probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
            let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
            let err = PipelineEngine::new(knowledge, config.clone().with_seed(seed))
                .run(
                    &mut probe,
                    &EngineOptions::default()
                        .with_checkpoint(dir)
                        .with_stop_after(Phase::Partition),
                    &mut NullObserver,
                )
                .unwrap_err();
            Err(err.to_string())
        } else {
            run_job_sim_checkpointed_with(job, attempt, config.clone(), checkpoint)
        }
    };
    let outcome = run_campaign(
        &spec,
        &paths,
        &CampaignOptions::serial().with_phase_checkpoints(true),
        kill_first,
    )
    .unwrap();
    assert_eq!(outcome.completed.len(), 1);
    assert_eq!(
        outcome.completed[0].attempt, 2,
        "the killed attempt burns, the retry resumes its artifacts"
    );
    let resumed_report = &outcome.completed[0].report;

    // Reference: the same job, same attempt-1 seed, never interrupted.
    let job = spec.jobs().remove(0);
    let straight = run_job_sim_with(&job, 1, config.clone()).unwrap();
    assert_eq!(
        resumed_report.encode(),
        straight.encode(),
        "kill + phase resume must be byte-identical to straight-through"
    );
    // Zero partition measurements were repaid: the resumed attempt's costs
    // are the checkpointed ones, and the journal shows the checkpoint path.
    assert!(resumed_report
        .phase_costs
        .iter()
        .any(|(p, c)| { *p == Phase::Partition && c.measurements > 0 }));
    assert_eq!(
        outcome.state.checkpoints[&job.id()],
        paths.job_checkpoint(&job).to_string_lossy()
    );
    assert!(
        !paths.job_checkpoint(&job).exists(),
        "completed jobs clean their checkpoint directory"
    );
    std::fs::remove_dir_all(paths.dir()).unwrap();
}

#[test]
fn real_failures_wipe_checkpoints_so_retries_reseed() {
    // A genuine pipeline failure (ablated system info -> no bank count)
    // must not leave artifacts behind for the retry to half-trust.
    let spec = CampaignSpec {
        machines: vec![4],
        seeds: vec![1],
        profiles: vec![Profile::Fast],
        ablations: vec![Some(campaign::Ablation::SystemInfo)],
        max_retries: 0,
    };
    let paths = temp_paths("wipe");
    let outcome = run_campaign(
        &spec,
        &paths,
        &CampaignOptions::serial().with_phase_checkpoints(true),
        |job, attempt, checkpoint| {
            run_job_sim_checkpointed_with(job, attempt, DramDigConfig::fast(), checkpoint)
        },
    )
    .unwrap();
    assert_eq!(outcome.dead.len(), 1);
    let job = spec.jobs().remove(0);
    assert!(!paths.job_checkpoint(&job).exists());
    std::fs::remove_dir_all(paths.dir()).unwrap();
}

#[test]
fn ablated_jobs_dead_letter_through_the_sim_runner() {
    let mut spec = CampaignSpec {
        machines: vec![4],
        seeds: vec![1],
        profiles: vec![Profile::Optimized],
        ablations: vec![None, Some(campaign::Ablation::SystemInfo)],
        max_retries: 1,
    };
    spec.max_retries = 1;
    let paths = temp_paths("ablate");
    let outcome = run_campaign(&spec, &paths, &CampaignOptions::serial(), test_runner).unwrap();
    assert_eq!(outcome.completed.len(), 1);
    assert_eq!(
        outcome.dead.len(),
        1,
        "no system info -> no bank count -> dead letter"
    );
    let (dead_job, reason) = &outcome.dead[0];
    assert_eq!(dead_job.id(), "m4-s1-optimized-sysinfo");
    assert!(!reason.is_empty());
    // The store only holds the successful job.
    assert_eq!(outcome.store.len(), 1);
    let status = campaign_status(&spec, &paths).unwrap();
    assert_eq!(status.dead.len(), 1);
    assert_eq!(status.distinct_mappings, 1);
    std::fs::remove_dir_all(paths.dir()).unwrap();
}
