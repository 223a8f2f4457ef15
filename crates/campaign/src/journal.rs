//! The campaign's write-ahead journal.
//!
//! Every state transition of every job is appended (and flushed) to a JSONL
//! file *before* the orchestrator acts on it, so a campaign killed at any
//! point resumes from its last completed job instead of restarting:
//!
//! ```text
//! {"kind":"started","job":"m4-s1-optimized","attempt":1}
//! {"kind":"completed","job":"m4-s1-optimized","attempt":1,"report":"funcs = ...\n..."}
//! {"kind":"failed","job":"m6-s1-optimized","attempt":1,"reason":"validation: ..."}
//! {"kind":"dead","job":"m6-s1-optimized","attempts":3,"reason":"validation: ..."}
//! ```
//!
//! [`JournalState::replay`] folds a record sequence into the **resume
//! frontier**: which jobs are done (with their decoded
//! [`RecoveryReport`]s), which are dead-lettered, and at which attempt a
//! still-pending job should continue. Replay is order-independent across
//! distinct jobs — interleavings produced by different worker schedules all
//! fold to the same frontier (see `tests/journal_props.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use dramdig::RecoveryReport;

use crate::jsonl::{self, JsonValue};
use crate::spec::{CampaignSpec, JobSpec};

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A worker picked the job up (write-ahead marker; carries no completion
    /// guarantee).
    Started {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The job finished and produced a report.
    Completed {
        /// Job id.
        job: String,
        /// 1-based attempt number that succeeded.
        attempt: u32,
        /// The run's durable outcome.
        report: RecoveryReport,
    },
    /// One attempt failed; the job will be retried.
    Failed {
        /// Job id.
        job: String,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Failure reason.
        reason: String,
    },
    /// The job exhausted its retry budget and was dead-lettered.
    Dead {
        /// Job id.
        job: String,
        /// Total attempts made.
        attempts: u32,
        /// Final failure reason.
        reason: String,
    },
    /// The job's phase checkpoints live at this path (write-ahead marker:
    /// recorded when the worker hands the path to the job runner, so a
    /// later resume — even one started without phase checkpointing enabled
    /// — finds the surviving artifacts and restarts from the last phase
    /// boundary instead of from scratch).
    Checkpoint {
        /// Job id.
        job: String,
        /// Directory holding the job's phase checkpoints.
        path: String,
    },
    /// A dead-lettered job was put back in play by a DLQ operation
    /// (`dramdig campaign dlq retry|reprocess`).
    Requeued {
        /// Job id.
        job: String,
        /// How the job re-enters the queue.
        mode: RequeueMode,
    },
}

/// How a dead-lettered job re-enters the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequeueMode {
    /// Keep the attempt history: the next run continues at one past the
    /// dead-lettered attempt count, so it draws a *fresh* attempt-derived
    /// seed instead of replaying the sequence that already failed.
    Retry,
    /// Forget the attempt history entirely (the operator fixed the
    /// environment or config): the next run restarts at attempt 1 with the
    /// job's base seed, as if the job had never run.
    Reprocess,
}

impl RequeueMode {
    /// Stable identifier used in journal records and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            RequeueMode::Retry => "retry",
            RequeueMode::Reprocess => "reprocess",
        }
    }
}

impl JournalRecord {
    /// The job id this record concerns.
    pub fn job(&self) -> &str {
        match self {
            JournalRecord::Started { job, .. }
            | JournalRecord::Completed { job, .. }
            | JournalRecord::Failed { job, .. }
            | JournalRecord::Dead { job, .. }
            | JournalRecord::Checkpoint { job, .. }
            | JournalRecord::Requeued { job, .. } => job,
        }
    }

    /// Encodes the record as one JSON line (no trailing newline).
    pub fn encode_line(&self) -> String {
        match self {
            JournalRecord::Started { job, attempt } => jsonl::encode_object(&[
                ("kind", JsonValue::Str("started".into())),
                ("job", JsonValue::Str(job.clone())),
                ("attempt", JsonValue::Num(u64::from(*attempt))),
            ]),
            JournalRecord::Completed {
                job,
                attempt,
                report,
            } => jsonl::encode_object(&[
                ("kind", JsonValue::Str("completed".into())),
                ("job", JsonValue::Str(job.clone())),
                ("attempt", JsonValue::Num(u64::from(*attempt))),
                ("report", JsonValue::Str(report.encode())),
            ]),
            JournalRecord::Failed {
                job,
                attempt,
                reason,
            } => jsonl::encode_object(&[
                ("kind", JsonValue::Str("failed".into())),
                ("job", JsonValue::Str(job.clone())),
                ("attempt", JsonValue::Num(u64::from(*attempt))),
                ("reason", JsonValue::Str(reason.clone())),
            ]),
            JournalRecord::Dead {
                job,
                attempts,
                reason,
            } => jsonl::encode_object(&[
                ("kind", JsonValue::Str("dead".into())),
                ("job", JsonValue::Str(job.clone())),
                ("attempts", JsonValue::Num(u64::from(*attempts))),
                ("reason", JsonValue::Str(reason.clone())),
            ]),
            JournalRecord::Checkpoint { job, path } => jsonl::encode_object(&[
                ("kind", JsonValue::Str("checkpoint".into())),
                ("job", JsonValue::Str(job.clone())),
                ("path", JsonValue::Str(path.clone())),
            ]),
            JournalRecord::Requeued { job, mode } => jsonl::encode_object(&[
                ("kind", JsonValue::Str("requeued".into())),
                ("job", JsonValue::Str(job.clone())),
                ("mode", JsonValue::Str(mode.as_str().into())),
            ]),
        }
    }

    /// Parses a line written by [`JournalRecord::encode_line`].
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Malformed`] for anything else.
    pub fn decode_line(line: &str) -> Result<Self, JournalError> {
        let malformed = |reason: String| JournalError::Malformed {
            line: line.to_string(),
            reason,
        };
        let fields = jsonl::parse_object(line).map_err(|e| malformed(format!("bad JSON: {e}")))?;
        let str_field = |key: &str| -> Result<String, JournalError> {
            jsonl::field(&fields, key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| malformed(format!("missing string field `{key}`")))
        };
        let num_field = |key: &str| -> Result<u32, JournalError> {
            jsonl::field(&fields, key)
                .and_then(JsonValue::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| malformed(format!("missing integer field `{key}`")))
        };
        match str_field("kind")?.as_str() {
            "started" => Ok(JournalRecord::Started {
                job: str_field("job")?,
                attempt: num_field("attempt")?,
            }),
            "completed" => Ok(JournalRecord::Completed {
                job: str_field("job")?,
                attempt: num_field("attempt")?,
                report: RecoveryReport::decode(&str_field("report")?)
                    .map_err(|e| malformed(format!("bad report: {e}")))?,
            }),
            "failed" => Ok(JournalRecord::Failed {
                job: str_field("job")?,
                attempt: num_field("attempt")?,
                reason: str_field("reason")?,
            }),
            "dead" => Ok(JournalRecord::Dead {
                job: str_field("job")?,
                attempts: num_field("attempts")?,
                reason: str_field("reason")?,
            }),
            "checkpoint" => Ok(JournalRecord::Checkpoint {
                job: str_field("job")?,
                path: str_field("path")?,
            }),
            "requeued" => Ok(JournalRecord::Requeued {
                job: str_field("job")?,
                mode: match str_field("mode")?.as_str() {
                    "retry" => RequeueMode::Retry,
                    "reprocess" => RequeueMode::Reprocess,
                    other => return Err(malformed(format!("unknown requeue mode `{other}`"))),
                },
            }),
            other => Err(malformed(format!("unknown record kind `{other}`"))),
        }
    }
}

/// Errors produced while reading or writing a journal.
#[derive(Debug)]
pub enum JournalError {
    /// The journal file could not be read or written.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A journal line did not parse.
    Malformed {
        /// The offending line.
        line: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal {}: {error}", path.display())
            }
            JournalError::Malformed { line, reason } => {
                write!(f, "malformed journal line `{line}`: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// An append-only handle on a journal file. Each record is written as one
/// line and flushed immediately (write-ahead semantics).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Journal {
    /// Opens (creating if necessary) a journal for appending. A torn final
    /// line (a writer killed mid-append) is cut off first, so the next
    /// record starts on a line of its own instead of fusing with the
    /// fragment into a malformed line mid-file.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be opened, read or
    /// truncated.
    pub fn open_append(path: &Path) -> Result<Self, JournalError> {
        let io = |error| JournalError::Io {
            path: path.to_path_buf(),
            error,
        };
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let mut last = [b'\n'];
        if file.metadata().map_err(io)?.len() > 0 {
            (&file)
                .seek(SeekFrom::End(-1))
                .and_then(|_| (&file).read_exact(&mut last))
                .map_err(io)?;
        }
        if last[0] != b'\n' {
            let bytes = std::fs::read(path).map_err(io)?;
            file.set_len(whole_lines(&bytes).len() as u64).map_err(io)?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
        })
    }

    /// Appends one record and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the write or flush fails.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let io = |error| JournalError::Io {
            path: self.path.clone(),
            error,
        };
        self.writer
            .write_all(record.encode_line().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(io)
    }

    /// Appends already-validated, newline-terminated journal lines
    /// verbatim (see [`read_journal_lines`]) with one write and one flush.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the write or flush fails.
    pub(crate) fn append_lines(&mut self, lines: &[u8]) -> Result<(), JournalError> {
        debug_assert!(lines.is_empty() || lines.ends_with(b"\n"));
        self.writer
            .write_all(lines)
            .and_then(|()| self.writer.flush())
            .map_err(|error| JournalError::Io {
                path: self.path.clone(),
                error,
            })
    }
}

/// Metrics counter: torn final journal lines a resume dropped.
pub(crate) const JOURNAL_TORN_LINES: &str = "journal_torn_lines_total";

/// The prefix of `bytes` up to and including its last newline. Every
/// append ends its record with `\n`, so anything after that is the torn
/// remainder of a record whose writer died mid-write.
fn whole_lines(bytes: &[u8]) -> &[u8] {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    &bytes[..end]
}

/// Reads and decodes every record of a journal file. A missing file is an
/// empty journal (the campaign simply has not started yet). A torn
/// (unterminated) final line is dropped; a malformed line before it is
/// refused.
///
/// # Errors
///
/// Returns [`JournalError`] on IO failures or malformed lines.
pub fn read_journal(path: &Path) -> Result<Vec<JournalRecord>, JournalError> {
    Ok(read_journal_counted(path)?.0)
}

/// [`read_journal`] plus the number of torn final lines it dropped (0 or
/// 1). Only an unterminated *final* line is tolerated — the one place a
/// killed writer can leave a partial record; a malformed line anywhere
/// before it is still refused.
///
/// # Errors
///
/// Returns [`JournalError`] on IO failures or malformed lines.
pub(crate) fn read_journal_counted(path: &Path) -> Result<(Vec<JournalRecord>, u64), JournalError> {
    let (_, records, torn) = read_journal_parts(path)?;
    Ok((records, torn))
}

/// The whole lines of a journal file, byte for byte, once every one of
/// them has been decoded like [`read_journal`] does: what compaction
/// appends to the merged journal. A torn final line is left out.
///
/// # Errors
///
/// Returns [`JournalError`] on IO failures or malformed lines.
pub(crate) fn read_journal_lines(path: &Path) -> Result<Vec<u8>, JournalError> {
    Ok(read_journal_parts(path)?.0)
}

/// A journal file's whole lines (the torn remainder cut off), their
/// decoded records and the number of torn final lines dropped.
fn read_journal_parts(path: &Path) -> Result<(Vec<u8>, Vec<JournalRecord>, u64), JournalError> {
    let io = |error| JournalError::Io {
        path: path.to_path_buf(),
        error,
    };
    let mut bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), Vec::new(), 0))
        }
        Err(error) => return Err(io(error)),
    };
    let whole = whole_lines(&bytes).len();
    let torn = u64::from(!bytes[whole..].trim_ascii().is_empty());
    bytes.truncate(whole);
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    let records = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(JournalRecord::decode_line)
        .collect::<Result<_, _>>()?;
    Ok((bytes, records, torn))
}

/// The resume frontier: everything the journal knows about job progress.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// Completed jobs and their reports (job id → report).
    pub completed: BTreeMap<String, RecoveryReport>,
    /// Highest failed attempt per still-retryable job.
    pub failed_attempts: BTreeMap<String, u32>,
    /// Dead-lettered jobs and their final failure reason.
    pub dead: BTreeMap<String, String>,
    /// Total attempts made by each dead-lettered job (DLQ bookkeeping; a
    /// `retry` requeue resumes the attempt ladder from here).
    pub dead_attempts: BTreeMap<String, u32>,
    /// Highest started attempt per job (write-ahead markers).
    pub started: BTreeMap<String, u32>,
    /// Phase-checkpoint directory recorded per job (latest wins). A resume
    /// hands this back to the job runner so a killed job restarts from its
    /// last completed phase, not from scratch.
    pub checkpoints: BTreeMap<String, String>,
}

impl JournalState {
    /// Folds a record sequence into the frontier. Records for distinct jobs
    /// commute: any interleaving of per-job record sequences folds to the
    /// same state.
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a JournalRecord>) -> Self {
        let mut state = JournalState::default();
        for record in records {
            match record {
                JournalRecord::Started { job, attempt } => {
                    let entry = state.started.entry(job.clone()).or_insert(0);
                    *entry = (*entry).max(*attempt);
                }
                JournalRecord::Completed { job, report, .. } => {
                    state.completed.insert(job.clone(), report.clone());
                    state.failed_attempts.remove(job);
                }
                JournalRecord::Failed { job, attempt, .. } => {
                    if !state.completed.contains_key(job) {
                        let entry = state.failed_attempts.entry(job.clone()).or_insert(0);
                        *entry = (*entry).max(*attempt);
                    }
                }
                JournalRecord::Dead {
                    job,
                    attempts,
                    reason,
                } => {
                    state.dead.insert(job.clone(), reason.clone());
                    let entry = state.dead_attempts.entry(job.clone()).or_insert(0);
                    *entry = (*entry).max(*attempts);
                    state.failed_attempts.remove(job);
                }
                JournalRecord::Checkpoint { job, path } => {
                    state.checkpoints.insert(job.clone(), path.clone());
                }
                JournalRecord::Requeued { job, mode } => {
                    // Requeueing a job that is not dead is a harmless no-op,
                    // so replay stays order-independent across distinct jobs
                    // and idempotent under duplicated requeue records.
                    if let Some(attempts) = state.dead_attempts.remove(job) {
                        state.dead.remove(job);
                        match mode {
                            RequeueMode::Retry => {
                                // The burned attempts stay on the ledger: the
                                // next run continues at attempts + 1 and thus
                                // draws a fresh attempt-derived seed.
                                let entry = state.failed_attempts.entry(job.clone()).or_insert(0);
                                *entry = (*entry).max(attempts);
                            }
                            RequeueMode::Reprocess => {
                                // Wipe the slate: attempt 1, base seed, no
                                // stale checkpoints.
                                state.failed_attempts.remove(job);
                                state.started.remove(job);
                                state.checkpoints.remove(job);
                            }
                        }
                    }
                }
            }
        }
        state
    }

    /// The attempt number the next try of `job` should use: one past the
    /// highest attempt known to have *begun* (failed or merely started).
    /// A `started` marker without a matching outcome means the process died
    /// mid-attempt — the write-ahead semantics burn that attempt, so the
    /// retry gets a fresh attempt-derived seed instead of replaying the
    /// crashed one verbatim.
    pub fn next_attempt(&self, job: &str) -> u32 {
        let failed = self.failed_attempts.get(job).copied().unwrap_or(0);
        let started = self.started.get(job).copied().unwrap_or(0);
        failed.max(started) + 1
    }

    /// The jobs of `spec` that still need to run: neither completed nor
    /// dead-lettered, in spec order.
    pub fn pending(&self, spec: &CampaignSpec) -> Vec<JobSpec> {
        spec.jobs()
            .into_iter()
            .filter(|job| {
                let id = job.id();
                !self.completed.contains_key(&id) && !self.dead.contains_key(&id)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Profile;
    use dram_model::MachineSetting;
    use dramdig::driver::{Phase, PhaseCosts};
    use dramdig::RecoveryReport;

    fn report_for(machine: u8) -> RecoveryReport {
        let setting = MachineSetting::by_number(machine).unwrap();
        RecoveryReport {
            mapping: setting.mapping().clone(),
            pool_size: 128,
            pile_count: 8,
            threshold_ns: 290,
            row_remap: None,
            validation_agreement: Some(0.97),
            phase_costs: vec![(
                Phase::Partition,
                PhaseCosts {
                    measurements: 5,
                    accesses: 10,
                    elapsed_ns: 100,
                    cache_hits: 1,
                    cache_misses: 4,
                },
            )],
            total: PhaseCosts {
                measurements: 5,
                accesses: 10,
                elapsed_ns: 100,
                cache_hits: 1,
                cache_misses: 4,
            },
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let records = [
            JournalRecord::Started {
                job: "m4-s1-optimized".into(),
                attempt: 1,
            },
            JournalRecord::Completed {
                job: "m4-s1-optimized".into(),
                attempt: 2,
                report: report_for(4),
            },
            JournalRecord::Failed {
                job: "m6-s1-naive".into(),
                attempt: 1,
                reason: "validation: only 71.0% agree\nnoise?".into(),
            },
            JournalRecord::Dead {
                job: "m6-s1-naive".into(),
                attempts: 3,
                reason: "gave \"up\"".into(),
            },
            JournalRecord::Checkpoint {
                job: "m4-s1-optimized".into(),
                path: "t2/checkpoints/m4-s1-optimized".into(),
            },
            JournalRecord::Requeued {
                job: "m6-s1-naive".into(),
                mode: RequeueMode::Retry,
            },
            JournalRecord::Requeued {
                job: "m6-s1-naive".into(),
                mode: RequeueMode::Reprocess,
            },
        ];
        for record in &records {
            let line = record.encode_line();
            assert!(!line.contains('\n'), "JSONL: one line per record");
            assert_eq!(&JournalRecord::decode_line(&line).unwrap(), record);
            assert!(!record.job().is_empty());
        }
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(JournalRecord::decode_line("not json").is_err());
        assert!(JournalRecord::decode_line("{\"kind\":\"warp\"}").is_err());
        assert!(JournalRecord::decode_line("{\"kind\":\"started\",\"job\":\"x\"}").is_err());
        assert!(JournalRecord::decode_line(
            "{\"kind\":\"completed\",\"job\":\"x\",\"attempt\":1,\"report\":\"garbage\"}"
        )
        .is_err());
        assert!(JournalRecord::decode_line(
            "{\"kind\":\"requeued\",\"job\":\"x\",\"mode\":\"warp\"}"
        )
        .is_err());
    }

    #[test]
    fn append_then_read_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("dramdig-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            JournalRecord::Started {
                job: "m4-s1-fast".into(),
                attempt: 1,
            },
            JournalRecord::Completed {
                job: "m4-s1-fast".into(),
                attempt: 1,
                report: report_for(4),
            },
        ];
        {
            let mut journal = Journal::open_append(&path).unwrap();
            for r in &records {
                journal.append(r).unwrap();
            }
        }
        assert_eq!(read_journal(&path).unwrap(), records);
        // Re-opening appends instead of truncating.
        {
            let mut journal = Journal::open_append(&path).unwrap();
            journal
                .append(&JournalRecord::Failed {
                    job: "m5-s1-fast".into(),
                    attempt: 1,
                    reason: "x".into(),
                })
                .unwrap();
        }
        assert_eq!(read_journal(&path).unwrap().len(), 3);
        // A missing journal is empty, not an error.
        assert_eq!(read_journal(&dir.join("nope.jsonl")).unwrap(), vec![]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_but_mid_file_garbage_is_refused() {
        let dir = std::env::temp_dir().join(format!("dramdig-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let started = JournalRecord::Started {
            job: "m4-s1-fast".into(),
            attempt: 1,
        };
        let line = started.encode_line();
        let torn = format!("{line}\n{}", &line[..line.len() / 2]);
        std::fs::write(&path, &torn).unwrap();
        assert_eq!(
            read_journal_counted(&path).unwrap(),
            (vec![started.clone()], 1)
        );
        // Re-opening for append cuts the fragment, so the next record lands
        // on a line of its own.
        Journal::open_append(&path)
            .unwrap()
            .append(&started)
            .unwrap();
        assert_eq!(
            read_journal_counted(&path).unwrap(),
            (vec![started.clone(), started.clone()], 0)
        );
        // The same fragment followed by a newline is mid-file corruption.
        std::fs::write(&path, format!("{torn}\n{line}\n")).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::Malformed { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_builds_the_resume_frontier() {
        let report = report_for(4);
        let records = vec![
            JournalRecord::Started {
                job: "a".into(),
                attempt: 1,
            },
            JournalRecord::Failed {
                job: "a".into(),
                attempt: 1,
                reason: "x".into(),
            },
            JournalRecord::Started {
                job: "b".into(),
                attempt: 1,
            },
            JournalRecord::Completed {
                job: "b".into(),
                attempt: 1,
                report: report.clone(),
            },
            JournalRecord::Started {
                job: "a".into(),
                attempt: 2,
            },
            JournalRecord::Failed {
                job: "a".into(),
                attempt: 2,
                reason: "y".into(),
            },
            JournalRecord::Started {
                job: "c".into(),
                attempt: 1,
            },
            JournalRecord::Failed {
                job: "c".into(),
                attempt: 1,
                reason: "z".into(),
            },
            JournalRecord::Dead {
                job: "c".into(),
                attempts: 1,
                reason: "z".into(),
            },
            // "d" crashed mid-attempt: started but no outcome record. Its
            // phase checkpoints survive at the recorded path.
            JournalRecord::Started {
                job: "d".into(),
                attempt: 1,
            },
            JournalRecord::Checkpoint {
                job: "d".into(),
                path: "dir/checkpoints/d".into(),
            },
        ];
        let state = JournalState::replay(&records);
        assert_eq!(state.completed.len(), 1);
        assert_eq!(state.completed["b"], report);
        assert_eq!(state.next_attempt("a"), 3);
        assert_eq!(
            state.next_attempt("b"),
            2,
            "b's attempt 1 started (and completed); a retry would be attempt 2"
        );
        assert_eq!(state.dead["c"], "z");
        assert!(
            !state.failed_attempts.contains_key("c"),
            "dead clears failure counts"
        );
        assert_eq!(state.started["a"], 2);
        assert_eq!(
            state.next_attempt("d"),
            2,
            "a crashed attempt is burned: the retry gets a fresh seed"
        );
        assert_eq!(state.checkpoints["d"], "dir/checkpoints/d");
        assert!(!state.checkpoints.contains_key("a"));
    }

    #[test]
    fn requeue_retry_resumes_the_attempt_ladder_and_reprocess_wipes_it() {
        let dead = |job: &str| JournalRecord::Dead {
            job: job.into(),
            attempts: 3,
            reason: "noise".into(),
        };
        let base = vec![
            JournalRecord::Started {
                job: "a".into(),
                attempt: 3,
            },
            JournalRecord::Checkpoint {
                job: "a".into(),
                path: "dir/checkpoints/a".into(),
            },
            dead("a"),
        ];

        // retry: the job leaves the DLQ but keeps its attempt history, so
        // the next run continues at attempt 4 (fresh attempt-derived seed).
        let mut records = base.clone();
        records.push(JournalRecord::Requeued {
            job: "a".into(),
            mode: RequeueMode::Retry,
        });
        let state = JournalState::replay(&records);
        assert!(state.dead.is_empty());
        assert!(state.dead_attempts.is_empty());
        assert_eq!(state.next_attempt("a"), 4);

        // reprocess: the slate is wiped — attempt 1, base seed, no stale
        // checkpoint pointers.
        let mut records = base.clone();
        records.push(JournalRecord::Requeued {
            job: "a".into(),
            mode: RequeueMode::Reprocess,
        });
        let state = JournalState::replay(&records);
        assert!(state.dead.is_empty());
        assert_eq!(state.next_attempt("a"), 1);
        assert!(!state.checkpoints.contains_key("a"));

        // Requeueing a live (non-dead) job is a no-op.
        let records = vec![
            JournalRecord::Started {
                job: "b".into(),
                attempt: 1,
            },
            JournalRecord::Requeued {
                job: "b".into(),
                mode: RequeueMode::Reprocess,
            },
        ];
        let state = JournalState::replay(&records);
        assert_eq!(state.next_attempt("b"), 2, "requeue ignored for live jobs");

        // The dead ledger records total attempts for DLQ rendering.
        let state = JournalState::replay(&base);
        assert_eq!(state.dead_attempts["a"], 3);
    }

    #[test]
    fn pending_respects_completed_and_dead() {
        let spec = CampaignSpec::new(vec![4, 6, 7], 1, Profile::Fast);
        let records = vec![
            JournalRecord::Completed {
                job: "m4-s1-fast".into(),
                attempt: 1,
                report: report_for(4),
            },
            JournalRecord::Dead {
                job: "m6-s1-fast".into(),
                attempts: 3,
                reason: "noise".into(),
            },
        ];
        let state = JournalState::replay(&records);
        let pending = state.pending(&spec);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id(), "m7-s1-fast");
        // An empty journal leaves everything pending.
        assert_eq!(JournalState::default().pending(&spec).len(), 3);
    }
}
