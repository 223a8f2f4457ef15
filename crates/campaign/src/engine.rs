//! The one campaign engine. Both kinds of campaign — the Table-II job set
//! drained in process ([`crate::runner`]) and the generated-machine grid
//! drained over worker transports ([`crate::mapreduce`]) — run, journal and
//! reduce through the functions here:
//!
//! * [`run_engine`] runs the pipeline on one simulated machine with
//!   phase-granular resume;
//! * [`drain`] leases every pending job to a pool of workers; each worker
//!   journals its attempts write-ahead into its own
//!   `journal-worker-NNN.jsonl` shard;
//! * [`reduce`] compacts the shards into `journal.jsonl` and rewrites
//!   `store.txt` and `dlq.txt` as pure functions of the merged journal;
//! * [`status`] summarizes a campaign directory without running anything.

use std::path::{Path, PathBuf};

use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::engine::{EngineOptions, NullObserver, PipelineEngine};
use dramdig::{
    CheckpointStore, DomainKnowledge, DramDigConfig, DramDigError, Phase, RecoveryReport,
};
use mem_probe::SimProbe;
use registry::{MemRegistry, Source};

use crate::journal::{
    read_journal, read_journal_counted, read_journal_lines, Journal, JournalRecord, JournalState,
    JOURNAL_TORN_LINES,
};
use crate::pool::{
    drain_pool_ctx, Attempt, Lease, MeteredHooks, PoolConfig, PoolHooks, PoolOutcome,
};
use crate::runner::{CampaignError, CampaignPaths, CampaignStatus};

/// Runs the pipeline on a simulated machine with phase-granular resume.
/// `config` is the attempt's configuration (its seed derived from the
/// attempt) and `sim` builds the machine for a simulator configuration.
///
/// A surviving checkpoint in `checkpoint` means an earlier attempt was
/// killed mid-pipeline: the run continues *that* attempt under its stored
/// configuration, so the finished report is byte-identical to what the
/// killed run would have produced. A genuine failure (anything but an
/// interruption) wipes the directory: the retry must re-measure under a
/// fresh seed rather than resume artifacts that may embody the noise that
/// broke the run.
pub(crate) fn run_engine(
    knowledge: DomainKnowledge,
    sim: impl FnOnce(SimConfig) -> SimMachine,
    memory: PhysMemory,
    mut config: DramDigConfig,
    checkpoint: Option<&Path>,
    stop_after: Option<Phase>,
) -> Result<RecoveryReport, String> {
    let mut options = EngineOptions::default();
    if let Some(dir) = checkpoint {
        if let Ok(Some(stored)) = CheckpointStore::new(dir).load_config() {
            config = stored;
        }
        options = options.with_checkpoint(dir);
    }
    if let Some(phase) = stop_after {
        options = options.with_stop_after(phase);
    }
    let mut probe = SimProbe::new(sim(SimConfig::default().with_seed(config.rng_seed)), memory);
    match PipelineEngine::new(knowledge, config).run(&mut probe, &options, &mut NullObserver) {
        Ok(run) => Ok(RecoveryReport::from(&run)),
        Err(e) => {
            if let Some(dir) = checkpoint {
                if !matches!(e, DramDigError::Interrupted { .. }) {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            Err(e.to_string())
        }
    }
}

/// One leased job: its journal id, the job and the phase-checkpoint
/// directory handed to its runner (if any).
pub(crate) struct Queued<J> {
    pub(crate) id: String,
    pub(crate) job: J,
    pub(crate) checkpoint: Option<PathBuf>,
}

/// Pool hooks of the engine: the journaling happens per worker, inside the
/// attempt, so each shard is written without holding the pool lock.
struct ShardHooks;

impl<J> PoolHooks<Queued<J>, RecoveryReport> for ShardHooks {
    type Error = CampaignError;
}

/// Drains every pending job of `jobs` (id and job, in spec order) with one
/// pool thread per element of `contexts`, and returns what this drain
/// settled.
///
/// A job is pending unless the merged journal settled it (completed or
/// dead-lettered); it resumes at the attempt after the highest one the
/// journal knows began. With `phase_checkpoints` every job gets a directory
/// under [`CampaignPaths::checkpoints`]; otherwise a job gets back only a
/// checkpoint path an earlier invocation journaled.
///
/// Each worker journals into its own shard: `Started` and `Checkpoint`
/// before `run` sees the job, then `Completed`, `Failed` or `Dead`, after
/// which a completed or dead job's checkpoint directory is removed.
///
/// # Errors
///
/// Returns [`CampaignError`] on journal IO failures.
pub(crate) fn drain<J, C>(
    paths: &CampaignPaths,
    jobs: Vec<(String, J)>,
    pool: &PoolConfig,
    phase_checkpoints: bool,
    contexts: Vec<C>,
    metrics: Option<&mut telemetry::Registry>,
    run: impl Fn(&mut C, &J, u32, Option<&Path>) -> Attempt<RecoveryReport> + Sync,
) -> Result<PoolOutcome<Queued<J>, RecoveryReport>, CampaignError>
where
    J: Send + Sync,
    C: Send,
{
    std::fs::create_dir_all(paths.dir()).map_err(|error| CampaignError::Io {
        path: paths.dir().to_path_buf(),
        error,
    })?;
    let (records, torn) = read_merged_journal_counted(paths)?;
    let prior = JournalState::replay(&records);
    let queue: Vec<Lease<Queued<J>>> = jobs
        .into_iter()
        .filter(|(id, _)| !prior.completed.contains_key(id) && !prior.dead.contains_key(id))
        .map(|(id, job)| {
            let checkpoint = if phase_checkpoints {
                Some(paths.checkpoints().join(&id))
            } else {
                // Checkpoint paths journaled by an earlier invocation keep
                // working even when this resume forgot the option.
                prior.checkpoints.get(&id).map(PathBuf::from)
            };
            let attempt = prior.next_attempt(&id);
            Lease::new(
                Queued {
                    id,
                    job,
                    checkpoint,
                },
                attempt,
            )
        })
        .collect();

    let workers = contexts
        .into_iter()
        .enumerate()
        .map(|(i, context)| {
            Ok((
                context,
                Journal::open_append(&worker_journal_path(paths, i))?,
            ))
        })
        .collect::<Result<Vec<_>, CampaignError>>()?;
    let journaled = |(context, journal): &mut (C, Journal),
                     queued: &Queued<J>,
                     attempt: u32|
     -> Result<Attempt<RecoveryReport>, CampaignError> {
        let Queued {
            id,
            job,
            checkpoint,
        } = queued;
        journal.append(&JournalRecord::Started {
            job: id.clone(),
            attempt,
        })?;
        // Write-ahead: record where the job's phase artifacts will live
        // before the runner sees the path, so a kill at any point leaves a
        // resumable trail.
        if let Some(dir) = checkpoint {
            journal.append(&JournalRecord::Checkpoint {
                job: id.clone(),
                path: dir.to_string_lossy().into_owned(),
            })?;
        }
        let outcome = run(context, job, attempt, checkpoint.as_deref());
        let record = match &outcome {
            Attempt::Completed(report) => JournalRecord::Completed {
                job: id.clone(),
                attempt,
                report: report.clone(),
            },
            Attempt::Failed(reason) if attempt > pool.max_retries => JournalRecord::Dead {
                job: id.clone(),
                attempts: attempt,
                reason: reason.clone(),
            },
            Attempt::Failed(reason) => JournalRecord::Failed {
                job: id.clone(),
                attempt,
                reason: reason.clone(),
            },
            // No outcome record: the merged journal shows a started attempt
            // without a settle, and the checkpoint survives for whichever
            // worker steals the lease.
            Attempt::Interrupted(_) => return Ok(outcome),
        };
        journal.append(&record)?;
        // The journal now owns the durable outcome; the phase artifacts of a
        // completed or dead job have served their purpose.
        if !matches!(record, JournalRecord::Failed { .. }) {
            if let Some(dir) = checkpoint {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        Ok(outcome)
    };

    match metrics {
        Some(registry) => {
            registry.counter_add(JOURNAL_TORN_LINES, torn);
            let depth = queue.len();
            let mut metered = MeteredHooks::new(ShardHooks, registry, depth);
            drain_pool_ctx(queue, pool, &mut metered, workers, journaled)
        }
        None => drain_pool_ctx(queue, pool, &mut ShardHooks, workers, journaled),
    }
}

/// The reduce step: folds the worker shards into `journal.jsonl` and
/// rewrites `store.txt` and `dlq.txt` from the merged journal. `label`
/// names the machine of a job id in the store's provenance.
///
/// # Errors
///
/// Returns [`CampaignError`] on journal or artifact IO failures, or when
/// the per-shard stores diverge from the merged-journal rebuild (a
/// reduce-side bug — never expected).
pub(crate) fn reduce(
    paths: &CampaignPaths,
    label: impl Fn(&str) -> String,
) -> Result<(JournalState, MemRegistry), CampaignError> {
    // Differential check: the shards' own stores, merged, must agree byte
    // for byte with the store rebuilt from the merged journal.
    let mut merged = rebuild_store(
        &JournalState::replay(&read_journal(&paths.journal())?),
        &label,
    );
    for shard in worker_journal_paths(paths)? {
        merged.merge(&rebuild_store(
            &JournalState::replay(&read_journal(&shard)?),
            &label,
        ));
    }
    let state = JournalState::replay(&read_merged_journal(paths)?);
    let store = rebuild_store(&state, &label);
    if merged.encode() != store.encode() {
        return Err(CampaignError::Codec(
            "campaign reduce: merged store shards diverge from journal replay".into(),
        ));
    }
    compact_journals(paths)?;
    write_atomic(&paths.store(), &store.encode())?;
    crate::dlq::write_dlq(&paths.dlq(), &state)?;
    Ok((state, store))
}

/// Rebuilds the mapping store from a journal state: every completed job's
/// mapping, content-addressed, with `label(job_id)` naming its machine.
pub(crate) fn rebuild_store(state: &JournalState, label: impl Fn(&str) -> String) -> MemRegistry {
    let mut store = MemRegistry::new();
    for (job_id, report) in &state.completed {
        store.insert(&report.mapping, Source::new(label(job_id), job_id.as_str()));
    }
    store
}

/// Summarizes the campaign in `paths` over its job ids, from the merged
/// journal.
///
/// # Errors
///
/// Returns [`CampaignError`] when the journals cannot be read.
pub(crate) fn status(
    paths: &CampaignPaths,
    job_ids: Vec<String>,
    label: impl Fn(&str) -> String,
) -> Result<CampaignStatus, CampaignError> {
    let state = JournalState::replay(&read_merged_journal(paths)?);
    let total_jobs = job_ids.len();
    let pending = job_ids
        .into_iter()
        .filter(|id| !state.completed.contains_key(id) && !state.dead.contains_key(id))
        .map(|id| {
            let attempt = state.next_attempt(&id);
            (id, attempt)
        })
        .collect();
    Ok(CampaignStatus {
        total_jobs,
        completed: state.completed.len(),
        dead: state
            .dead
            .iter()
            .map(|(job, reason)| (job.clone(), reason.clone()))
            .collect(),
        pending,
        store: rebuild_store(&state, label),
    })
}

/// Writes `contents` to `path` via write-then-rename, so a kill mid-write
/// never leaves a truncated artifact behind.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] when the write or rename fails.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), CampaignError> {
    let staged = path.with_extension("txt.tmp");
    std::fs::write(&staged, contents)
        .and_then(|()| std::fs::rename(&staged, path))
        .map_err(|error| CampaignError::Io {
            path: path.to_path_buf(),
            error,
        })
}

fn worker_journal_path(paths: &CampaignPaths, index: usize) -> PathBuf {
    paths.dir().join(format!("journal-worker-{index:03}.jsonl"))
}

/// Every worker journal shard currently on disk, in file-name order.
pub(crate) fn worker_journal_paths(paths: &CampaignPaths) -> Result<Vec<PathBuf>, CampaignError> {
    let dir = paths.dir();
    let io = |error| CampaignError::Io {
        path: dir.to_path_buf(),
        error,
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(error) => return Err(io(error)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("journal-worker-") && name.ends_with(".jsonl") {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

/// The full journal of a campaign: the compacted top-level journal followed
/// by any per-worker shards not yet compacted (e.g. after a killed
/// coordinator). Top-level records are chronologically oldest, so DLQ
/// requeue records always fold after the dead letters they revive.
///
/// # Errors
///
/// Returns [`CampaignError`] when a journal file cannot be read or decoded.
pub fn read_merged_journal(paths: &CampaignPaths) -> Result<Vec<JournalRecord>, CampaignError> {
    Ok(read_merged_journal_counted(paths)?.0)
}

/// [`read_merged_journal`] plus the torn final lines dropped across all the
/// journal files.
fn read_merged_journal_counted(
    paths: &CampaignPaths,
) -> Result<(Vec<JournalRecord>, u64), CampaignError> {
    let (mut records, mut torn) = read_journal_counted(&paths.journal())?;
    for path in worker_journal_paths(paths)? {
        let (shard, shard_torn) = read_journal_counted(&path)?;
        records.extend(shard);
        torn += shard_torn;
    }
    Ok((records, torn))
}

/// Folds every worker journal shard into the top-level `journal.jsonl` and
/// removes the shard files. Each shard is decoded in full first (a
/// malformed line refuses the compaction), then its whole lines are
/// appended verbatim with one write and one flush. Idempotent under a kill
/// at any point: a shard is deleted only after that flush, and replay
/// tolerates the duplicates a mid-compaction kill can leave.
///
/// # Errors
///
/// Returns [`CampaignError`] on journal IO failures.
pub fn compact_journals(paths: &CampaignPaths) -> Result<(), CampaignError> {
    let shards = worker_journal_paths(paths)?;
    if shards.is_empty() {
        return Ok(());
    }
    let mut journal = Journal::open_append(&paths.journal())?;
    for shard in shards {
        journal.append_lines(&read_journal_lines(&shard)?)?;
        std::fs::remove_file(&shard).map_err(|error| CampaignError::Io {
            path: shard.clone(),
            error,
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(job: &str, attempt: u32) -> JournalRecord {
        JournalRecord::Started {
            job: job.into(),
            attempt,
        }
    }

    fn lines(records: &[JournalRecord]) -> String {
        records.iter().map(|r| r.encode_line() + "\n").collect()
    }

    #[test]
    fn compaction_appends_each_shards_whole_lines_verbatim() {
        let dir = std::env::temp_dir().join(format!("dramdig-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let paths = CampaignPaths::new(&dir);
        let top = lines(&[started("g0000-s1-fast", 1)]);
        let first = lines(&[started("g0001-s1-fast", 1), started("g0002-s1-fast", 2)]);
        let second = lines(&[started("g0003-s1-fast", 1)]);
        std::fs::write(paths.journal(), &top).unwrap();
        // A torn final line (a worker killed mid-append) is left out.
        std::fs::write(
            worker_journal_path(&paths, 0),
            format!("{first}{{\"kind\":\"sta"),
        )
        .unwrap();
        std::fs::write(worker_journal_path(&paths, 1), &second).unwrap();

        compact_journals(&paths).unwrap();
        let merged = std::fs::read_to_string(paths.journal()).unwrap();
        assert_eq!(merged, format!("{top}{first}{second}"));
        assert!(worker_journal_paths(&paths).unwrap().is_empty());

        // A malformed line refuses the compaction and keeps the shard.
        let bad = format!("not a record\n{second}");
        std::fs::write(worker_journal_path(&paths, 2), &bad).unwrap();
        assert!(compact_journals(&paths).is_err());
        assert_eq!(
            std::fs::read_to_string(worker_journal_path(&paths, 2)).unwrap(),
            bad
        );
        assert_eq!(std::fs::read_to_string(paths.journal()).unwrap(), merged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
