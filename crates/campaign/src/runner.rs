//! The Table-II campaign: a [`CampaignSpec`] job set drained in process.
//!
//! [`run_campaign`] hands the spec's jobs to the campaign engine
//! (`engine.rs`), the same drain and reduce a map/reduce grid goes
//! through, with one pool thread per worker and the caller's `run_job` as
//! the runner. Every transition is journaled write-ahead, failed jobs are
//! retried with a fresh attempt seed up to the spec's retry budget and then
//! dead-lettered, and the mapping store is rebuilt from the merged journal
//! after every invocation — so an interrupted campaign resumed later
//! converges on exactly the artifacts of an uninterrupted one.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use dram_model::MachineSetting;
use dram_sim::{PhysMemory, SimMachine};
use dramdig::driver::PhaseCosts;
use dramdig::{DomainKnowledge, DramDigConfig, RecoveryReport};

use crate::engine;
use crate::journal::{JournalError, JournalState};
use crate::pool::{Attempt, PoolConfig};
use crate::spec::{CampaignSpec, JobSpec};
use crate::store::MappingStore;

/// Filesystem layout of one campaign: a directory holding the spec, the
/// journal and the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPaths {
    dir: PathBuf,
}

impl CampaignPaths {
    /// A campaign living in `dir` (created on first run).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CampaignPaths { dir: dir.into() }
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persisted spec, written by `campaign run` and read by
    /// `campaign resume`.
    pub fn spec(&self) -> PathBuf {
        self.dir.join("campaign.spec")
    }

    /// The persisted grid spec of a map/reduce campaign, written by
    /// `campaign mapreduce` in place of [`CampaignPaths::spec`].
    pub fn grid_spec(&self) -> PathBuf {
        self.dir.join("grid.spec")
    }

    /// The write-ahead journal.
    pub fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// The mapping store artifact.
    pub fn store(&self) -> PathBuf {
        self.dir.join("store.txt")
    }

    /// The rendered dead-letter queue artifact (see [`crate::dlq`]).
    pub fn dlq(&self) -> PathBuf {
        self.dir.join("dlq.txt")
    }

    /// Root of the per-job phase-checkpoint directories (one subdirectory
    /// per job id when [`CampaignOptions::phase_checkpoints`] is enabled).
    pub fn checkpoints(&self) -> PathBuf {
        self.dir.join("checkpoints")
    }

    /// The phase-checkpoint directory of one job.
    pub fn job_checkpoint(&self, job: &JobSpec) -> PathBuf {
        self.checkpoints().join(job.id())
    }
}

/// Orchestration knobs that are *not* part of the campaign's identity (they
/// may differ between the original run and a resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Stop picking up new jobs once this many completions happened in this
    /// invocation (used to simulate an interruption, and by tests).
    pub max_completions: Option<usize>,
    /// Hand every job a phase-checkpoint directory (under
    /// [`CampaignPaths::checkpoints`]) and journal its path, so a job killed
    /// mid-pipeline resumes from its last completed phase instead of
    /// repaying the whole partition. Even when disabled, checkpoint paths
    /// already recorded in the journal are handed back to pending jobs.
    pub phase_checkpoints: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            workers: 4,
            max_completions: None,
            phase_checkpoints: false,
        }
    }
}

impl CampaignOptions {
    /// A single-worker option set.
    pub fn serial() -> Self {
        CampaignOptions {
            workers: 1,
            ..CampaignOptions::default()
        }
    }

    /// Sets the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Caps completions for this invocation.
    #[must_use]
    pub fn with_max_completions(mut self, limit: usize) -> Self {
        self.max_completions = Some(limit);
        self
    }

    /// Enables per-job phase checkpointing.
    #[must_use]
    pub fn with_phase_checkpoints(mut self, enabled: bool) -> Self {
        self.phase_checkpoints = enabled;
        self
    }
}

/// Errors produced by the orchestrator.
#[derive(Debug)]
pub enum CampaignError {
    /// Journal IO or decode failure.
    Journal(JournalError),
    /// A campaign file (spec, store) could not be read or written.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The spec or a persisted artifact did not decode.
    Codec(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            CampaignError::Codec(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// One completed job of this invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job that ran.
    pub job: JobSpec,
    /// The attempt that succeeded (1-based).
    pub attempt: u32,
    /// The run's durable outcome.
    pub report: RecoveryReport,
}

/// What one [`run_campaign`] invocation did, plus the campaign-wide state
/// after it.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Jobs completed by *this* invocation, in completion order.
    pub completed: Vec<JobOutcome>,
    /// Jobs dead-lettered by *this* invocation.
    pub dead: Vec<(JobSpec, String)>,
    /// The journal state after this invocation (covers prior invocations
    /// too).
    pub state: JournalState,
    /// The mapping store rebuilt from the full journal and persisted to
    /// [`CampaignPaths::store`].
    pub store: MappingStore,
    /// Aggregate probe cost over every completed job in the journal, merged
    /// without double counting (each job owns its probe and cache).
    pub totals: PhaseCosts,
}

impl CampaignOutcome {
    /// Simulated per-job durations (seconds) of every completed job in the
    /// journal, in deterministic (job-id) order.
    pub fn job_durations(&self) -> Vec<f64> {
        self.state
            .completed
            .values()
            .map(RecoveryReport::elapsed_seconds)
            .collect()
    }

    /// The campaign's simulated makespan with `workers` machines measuring
    /// in parallel (see [`fleet_makespan`]).
    pub fn simulated_makespan(&self, workers: usize) -> f64 {
        fleet_makespan(&self.job_durations(), workers)
    }
}

/// The makespan of running jobs with the given simulated `durations`
/// (seconds) on `workers` parallel machines: jobs are assigned in order to
/// the earliest-free worker, exactly like the queue drain. This models fleet
/// throughput — on real deployments every worker is a *different physical
/// machine* probing its own DRAM, so the fleet speedup is genuine regardless
/// of how many cores the orchestrating host has.
pub fn fleet_makespan(durations: &[f64], workers: usize) -> f64 {
    let mut clocks = vec![0.0f64; workers.max(1)];
    for &d in durations {
        let earliest = clocks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("clocks are finite"))
            .map(|(i, _)| i)
            .expect("at least one worker");
        clocks[earliest] += d;
    }
    clocks.into_iter().fold(0.0, f64::max)
}

/// Runs one job on the simulated Table-II machine it names, with the
/// profile's configuration. Retries perturb both the simulator seed and the
/// tool seed, so a failure under one noise stream is not replayed verbatim.
///
/// # Errors
///
/// Returns a human-readable reason string (the journal's failure payload)
/// when the machine is unknown or any pipeline phase fails.
pub fn run_job_sim(job: &JobSpec, attempt: u32) -> Result<RecoveryReport, String> {
    run_job_sim_with(job, attempt, job.profile.config())
}

/// [`run_job_sim`] with an explicit base configuration (the job's profile is
/// ignored; tests and benchmarks use this to tune budgets).
///
/// # Errors
///
/// See [`run_job_sim`].
pub fn run_job_sim_with(
    job: &JobSpec,
    attempt: u32,
    base_config: DramDigConfig,
) -> Result<RecoveryReport, String> {
    run_job_sim_checkpointed_with(job, attempt, base_config, None)
}

/// [`run_job_sim`] with phase-granular resume: the engine checkpoints every
/// completed phase into `checkpoint`, and when the directory already holds
/// artifacts (a previous attempt was killed mid-pipeline), the run continues
/// that attempt — with its recorded configuration and seed — from the last
/// phase boundary instead of repaying the earlier phases.
///
/// A genuine pipeline *failure* (as opposed to an interruption) wipes the
/// checkpoint directory: the retry must re-measure under a fresh seed rather
/// than resume artifacts that may embody the noise that broke the run.
///
/// # Errors
///
/// See [`run_job_sim`].
pub fn run_job_sim_checkpointed(
    job: &JobSpec,
    attempt: u32,
    checkpoint: Option<&Path>,
) -> Result<RecoveryReport, String> {
    run_job_sim_checkpointed_with(job, attempt, job.profile.config(), checkpoint)
}

/// [`run_job_sim_checkpointed`] with an explicit base configuration.
///
/// # Errors
///
/// See [`run_job_sim`].
pub fn run_job_sim_checkpointed_with(
    job: &JobSpec,
    attempt: u32,
    base_config: DramDigConfig,
    checkpoint: Option<&Path>,
) -> Result<RecoveryReport, String> {
    let setting = MachineSetting::by_number(job.machine)
        .ok_or_else(|| format!("unknown machine number {}", job.machine))?;
    let mut knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    if let Some(ablation) = job.ablation {
        knowledge = ablation.apply(knowledge);
    }
    engine::run_engine(
        knowledge,
        |sim| SimMachine::from_setting(&setting, sim),
        PhysMemory::full(setting.system.capacity_bytes),
        base_config.with_seed(job.attempt_seed(attempt)),
        checkpoint,
        None,
    )
}

/// Runs (or resumes) a campaign: drains every pending job of `spec` through
/// `run_job` on a pool of `options.workers` threads, journaling every
/// transition into per-worker shards, then compacts them into
/// `paths.journal()` and rewrites `paths.store()` from the merged journal.
///
/// `run_job` receives `(job, attempt, checkpoint_dir)`; the directory is
/// `Some` when [`CampaignOptions::phase_checkpoints`] is enabled or a prior
/// invocation journaled a checkpoint path for the job, and runners that
/// honour it (see [`run_job_sim_checkpointed`]) resume a killed job from its
/// last completed phase. The directory of a completed or dead-lettered job
/// is removed.
///
/// # Errors
///
/// Returns [`CampaignError`] on journal/store IO failures. Job failures are
/// *not* errors — they are retried and eventually dead-lettered.
pub fn run_campaign<R>(
    spec: &CampaignSpec,
    paths: &CampaignPaths,
    options: &CampaignOptions,
    run_job: R,
) -> Result<CampaignOutcome, CampaignError>
where
    R: Fn(&JobSpec, u32, Option<&Path>) -> Result<RecoveryReport, String> + Sync,
{
    run_campaign_with_metrics(spec, paths, options, None, run_job)
}

/// [`run_campaign`] with pool telemetry: when `metrics` is given, the
/// pool is metered through [`crate::pool::MeteredHooks`] so queue depth and
/// dequeue/completion/retry/dead-letter counters land in the registry. The
/// counters are order-independent totals, so the snapshot is deterministic
/// at any worker count.
pub fn run_campaign_with_metrics<R>(
    spec: &CampaignSpec,
    paths: &CampaignPaths,
    options: &CampaignOptions,
    metrics: Option<&mut telemetry::Registry>,
    run_job: R,
) -> Result<CampaignOutcome, CampaignError>
where
    R: Fn(&JobSpec, u32, Option<&Path>) -> Result<RecoveryReport, String> + Sync,
{
    let pool = PoolConfig {
        workers: options.workers.max(1),
        max_retries: spec.max_retries,
        max_completions: options.max_completions,
    };
    let jobs = spec.jobs().into_iter().map(|job| (job.id(), job)).collect();
    let drained = engine::drain(
        paths,
        jobs,
        &pool,
        options.phase_checkpoints,
        vec![(); pool.workers],
        metrics,
        |(), job, attempt, checkpoint| match run_job(job, attempt, checkpoint) {
            Ok(report) => Attempt::Completed(report),
            Err(reason) => Attempt::Failed(reason),
        },
    )?;
    let (state, store) = engine::reduce(paths, table_label(spec))?;
    let totals = state
        .completed
        .values()
        .fold(PhaseCosts::default(), |acc, r| acc.merge(r.total));
    Ok(CampaignOutcome {
        completed: drained
            .completed
            .into_iter()
            .map(|(queued, attempt, report)| JobOutcome {
                job: queued.job,
                attempt,
                report,
            })
            .collect(),
        dead: drained
            .dead
            .into_iter()
            .map(|(queued, reason)| (queued.job, reason))
            .collect(),
        state,
        store,
        totals,
    })
}

/// The store provenance label of a Table-II job id: the machine its spec
/// job names. Ids from older specs fall back to the id itself.
fn table_label(spec: &CampaignSpec) -> impl Fn(&str) -> String {
    let jobs: BTreeMap<String, JobSpec> = spec.jobs().into_iter().map(|j| (j.id(), j)).collect();
    move |id| {
        jobs.get(id)
            .map_or_else(|| id.to_string(), JobSpec::machine_label)
    }
}

/// Rebuilds the mapping store from a journal state. Job ids found in the
/// journal are resolved against `spec` for their machine label; ids from
/// older specs fall back to the id itself.
pub fn store_from_state(state: &JournalState, spec: &CampaignSpec) -> MappingStore {
    engine::rebuild_store(state, table_label(spec))
}

/// A point-in-time summary of campaign progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Jobs the spec expands to.
    pub total_jobs: usize,
    /// Completed jobs.
    pub completed: usize,
    /// Dead-lettered jobs with their final reason.
    pub dead: Vec<(String, String)>,
    /// Jobs still pending, with the attempt they would resume at.
    pub pending: Vec<(String, u32)>,
    /// Distinct mappings in the rebuilt store.
    pub distinct_mappings: usize,
}

/// Summarizes a campaign directory without running anything.
///
/// # Errors
///
/// Returns [`CampaignError`] when the journals cannot be read.
pub fn campaign_status(
    spec: &CampaignSpec,
    paths: &CampaignPaths,
) -> Result<CampaignStatus, CampaignError> {
    let ids = spec.jobs().iter().map(JobSpec::id).collect();
    engine::status(paths, ids, table_label(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalRecord};
    use crate::spec::{Ablation, Profile};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_paths(tag: &str) -> CampaignPaths {
        let dir =
            std::env::temp_dir().join(format!("dramdig-campaign-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignPaths::new(dir)
    }

    fn fake_report(machine: u8) -> RecoveryReport {
        let setting = MachineSetting::by_number(machine).unwrap();
        RecoveryReport {
            mapping: setting.mapping().clone(),
            pool_size: 64,
            pile_count: 8,
            threshold_ns: 290,
            row_remap: None,
            validation_agreement: None,
            phase_costs: Vec::new(),
            total: PhaseCosts {
                measurements: 10,
                accesses: 20,
                elapsed_ns: u64::from(machine) * 1_000_000_000,
                cache_hits: 3,
                cache_misses: 7,
            },
        }
    }

    #[test]
    fn drains_a_queue_and_builds_the_store() {
        let spec = CampaignSpec::new(vec![4, 7], 1, Profile::Fast);
        let paths = temp_paths("drain");
        let outcome = run_campaign(&spec, &paths, &CampaignOptions::default(), |job, _, _| {
            Ok(fake_report(job.machine))
        })
        .unwrap();
        assert_eq!(outcome.completed.len(), 2);
        assert!(outcome.dead.is_empty());
        assert_eq!(outcome.store.len(), 2);
        assert_eq!(outcome.totals.measurements, 20);
        assert_eq!(outcome.totals.cache_hits, 6);
        // Artifacts exist on disk.
        assert!(paths.journal().exists());
        assert!(paths.store().exists());
        // Re-running has nothing to do but reports the same state.
        let again = run_campaign(&spec, &paths, &CampaignOptions::default(), |_, _, _| {
            panic!("nothing should run on an already-complete campaign")
        })
        .unwrap();
        assert!(again.completed.is_empty());
        assert_eq!(again.state.completed.len(), 2);
        std::fs::remove_dir_all(paths.dir()).unwrap();
    }

    #[test]
    fn retries_then_dead_letters_and_resumes_attempt_numbering() {
        let mut spec = CampaignSpec::new(vec![4], 1, Profile::Fast);
        spec.max_retries = 2;
        let paths = temp_paths("retry");
        let calls = AtomicU32::new(0);
        // Fails attempts 1 and 2, succeeds on 3.
        let outcome = run_campaign(
            &spec,
            &paths,
            &CampaignOptions::serial(),
            |job, attempt, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                if attempt < 3 {
                    Err(format!("injected noise on attempt {attempt}"))
                } else {
                    Ok(fake_report(job.machine))
                }
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(outcome.completed.len(), 1);
        assert_eq!(outcome.completed[0].attempt, 3);
        assert!(outcome.dead.is_empty());

        // A permanently failing job dead-letters after 1 + max_retries tries.
        let mut spec2 = CampaignSpec::new(vec![7], 1, Profile::Fast);
        spec2.max_retries = 1;
        let paths2 = temp_paths("dead");
        let calls2 = AtomicU32::new(0);
        let outcome2 = run_campaign(&spec2, &paths2, &CampaignOptions::serial(), |_, _, _| {
            calls2.fetch_add(1, Ordering::SeqCst);
            Err("always broken".to_string())
        })
        .unwrap();
        assert_eq!(calls2.load(Ordering::SeqCst), 2);
        assert!(outcome2.completed.is_empty());
        assert_eq!(outcome2.dead.len(), 1);
        assert_eq!(outcome2.dead[0].1, "always broken");
        // Dead jobs stay dead on resume.
        let status = campaign_status(&spec2, &paths2).unwrap();
        assert_eq!(status.dead.len(), 1);
        assert!(status.pending.is_empty());
        std::fs::remove_dir_all(paths.dir()).unwrap();
        std::fs::remove_dir_all(paths2.dir()).unwrap();
    }

    #[test]
    fn interruption_via_completion_cap_resumes_cleanly() {
        let spec = CampaignSpec::new(vec![1, 2, 3, 4], 1, Profile::Fast);
        let paths = temp_paths("interrupt");
        let first = run_campaign(
            &spec,
            &paths,
            &CampaignOptions::serial().with_max_completions(2),
            |job, _, _| Ok(fake_report(job.machine)),
        )
        .unwrap();
        // Workers may start one extra job before observing the cap; at least
        // the cap must be respected within one job per worker.
        assert!(first.completed.len() >= 2);
        assert!(first.completed.len() < 4);
        let status = campaign_status(&spec, &paths).unwrap();
        assert_eq!(status.completed + status.pending.len(), 4);

        let resumed = run_campaign(&spec, &paths, &CampaignOptions::default(), |job, _, _| {
            Ok(fake_report(job.machine))
        })
        .unwrap();
        assert_eq!(resumed.state.completed.len(), 4);
        assert_eq!(resumed.store.len(), 4);
        let final_status = campaign_status(&spec, &paths).unwrap();
        assert_eq!(final_status.completed, 4);
        assert!(final_status.pending.is_empty());
        std::fs::remove_dir_all(paths.dir()).unwrap();
    }

    #[test]
    fn parallel_workers_complete_every_job_exactly_once() {
        let spec = CampaignSpec {
            machines: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
            seeds: vec![1, 2],
            profiles: vec![Profile::Fast],
            ablations: vec![None],
            max_retries: 0,
        };
        let paths = temp_paths("parallel");
        let outcome = run_campaign(
            &spec,
            &paths,
            &CampaignOptions::default().with_workers(8),
            |job, _, _| Ok(fake_report(job.machine)),
        )
        .unwrap();
        assert_eq!(outcome.completed.len(), 18);
        let mut ids: Vec<String> = outcome.completed.iter().map(|o| o.job.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 18, "no job ran twice");
        // Two seeds per machine dedup, and No.6 and No.9 share one mapping
        // (same DDR4 16 GiB configuration), so nine machines store eight
        // distinct mappings.
        assert_eq!(outcome.store.len(), 8);
        let shared = outcome
            .store
            .entries()
            .find(|e| e.machines().len() > 1)
            .expect("No.6 and No.9 collapse into one entry");
        assert_eq!(
            shared.machines().into_iter().collect::<Vec<_>>(),
            vec!["No.6", "No.9"]
        );
        std::fs::remove_dir_all(paths.dir()).unwrap();
    }

    #[test]
    fn a_job_settled_in_a_leftover_worker_shard_is_not_rerun() {
        // A coordinator killed before its reduce leaves a worker shard that
        // settles a job: the next run must honour the shard, compact it away
        // and converge on an uninterrupted run's artifacts.
        let spec = CampaignSpec::new(vec![4, 7], 1, Profile::Fast);
        let straight = temp_paths("shard-straight");
        run_campaign(&spec, &straight, &CampaignOptions::serial(), |job, _, _| {
            Ok(fake_report(job.machine))
        })
        .unwrap();

        let paths = temp_paths("shard-resume");
        std::fs::create_dir_all(paths.dir()).unwrap();
        let settled = spec.jobs().remove(0);
        let mut shard =
            Journal::open_append(&paths.dir().join("journal-worker-000.jsonl")).unwrap();
        shard
            .append(&JournalRecord::Started {
                job: settled.id(),
                attempt: 1,
            })
            .unwrap();
        shard
            .append(&JournalRecord::Completed {
                job: settled.id(),
                attempt: 1,
                report: fake_report(settled.machine),
            })
            .unwrap();
        drop(shard);

        let outcome = run_campaign(&spec, &paths, &CampaignOptions::serial(), |job, _, _| {
            assert_ne!(job.id(), settled.id(), "a job settled in a shard re-ran");
            Ok(fake_report(job.machine))
        })
        .unwrap();
        assert_eq!(outcome.completed.len(), 1);
        let leftover = std::fs::read_dir(paths.dir())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .find(|name| name.starts_with("journal-worker-"));
        assert_eq!(leftover, None, "shards compact into journal.jsonl");
        assert_eq!(
            std::fs::read(paths.store()).unwrap(),
            std::fs::read(straight.store()).unwrap()
        );
        assert_eq!(
            campaign_status(&spec, &paths).unwrap(),
            campaign_status(&spec, &straight).unwrap()
        );
        std::fs::remove_dir_all(paths.dir()).unwrap();
        std::fs::remove_dir_all(straight.dir()).unwrap();
    }

    #[test]
    fn fleet_makespan_models_parallel_machines() {
        let durations = [3.0, 3.0, 3.0, 3.0];
        assert_eq!(fleet_makespan(&durations, 1), 12.0);
        assert_eq!(fleet_makespan(&durations, 2), 6.0);
        assert_eq!(fleet_makespan(&durations, 4), 3.0);
        assert_eq!(fleet_makespan(&durations, 8), 3.0, "more workers than jobs");
        // Uneven jobs: the longest chain dominates.
        assert_eq!(fleet_makespan(&[5.0, 1.0, 1.0, 1.0], 2), 5.0);
        assert_eq!(fleet_makespan(&[], 4), 0.0);
        assert_eq!(fleet_makespan(&[2.0], 0), 2.0, "zero workers clamp to one");
    }

    #[test]
    fn sim_runner_runs_a_real_job_and_reports_ablation_failures() {
        let job = JobSpec {
            machine: 4,
            seed: 1,
            profile: Profile::Fast,
            ablation: None,
        };
        let report = run_job_sim(&job, 1).unwrap();
        let setting = MachineSetting::by_number(4).unwrap();
        assert!(report.mapping.equivalent_to(setting.mapping()));
        // Unknown machines and ablated system info fail with a reason.
        let bad = JobSpec {
            machine: 42,
            ..job.clone()
        };
        assert!(run_job_sim(&bad, 1)
            .unwrap_err()
            .contains("unknown machine"));
        let ablated = JobSpec {
            ablation: Some(Ablation::SystemInfo),
            ..job
        };
        assert!(run_job_sim(&ablated, 1).is_err());
    }
}
