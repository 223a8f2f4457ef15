//! The first-class dead-letter queue.
//!
//! Jobs that exhaust their retry budget used to survive only as `dead`
//! records inside the journal. This module promotes them to an inspectable,
//! operable artifact:
//!
//! * [`dead_letters`] lists the DLQ from a replayed [`JournalState`] in
//!   deterministic (job-id) order;
//! * [`render_dlq`] / [`write_dlq`] persist it as `dlq.txt` next to the
//!   journal (atomic write-then-rename, like `store.txt`);
//! * [`requeue`] appends [`JournalRecord::Requeued`] records, which is how
//!   `dramdig campaign dlq retry|reprocess` puts jobs back in play — the
//!   journal stays the single source of truth, so replaying it reproduces
//!   the DLQ state order-independently.
//!
//! `retry` keeps the attempt ledger (the next run continues one past the
//! dead-lettered attempt and therefore draws a fresh attempt-derived seed);
//! `reprocess` wipes it (attempt 1, base seed) for the case where the
//! operator fixed the config or environment and wants a clean slate.

use std::path::Path;

use crate::journal::{Journal, JournalRecord, JournalState, RequeueMode};
use crate::runner::CampaignError;

/// One dead-lettered job, as listed by `dramdig campaign dlq list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Job id.
    pub job: String,
    /// Total attempts made before dead-lettering.
    pub attempts: u32,
    /// Final failure reason (may span multiple lines).
    pub reason: String,
}

/// The dead-letter queue of a replayed journal, in job-id order.
pub fn dead_letters(state: &JournalState) -> Vec<DeadLetter> {
    state
        .dead
        .iter()
        .map(|(job, reason)| DeadLetter {
            job: job.clone(),
            attempts: state.dead_attempts.get(job).copied().unwrap_or(0),
            reason: reason.clone(),
        })
        .collect()
}

/// Renders the DLQ as a deterministic text artifact: one `job` line per dead
/// letter in job-id order, reasons escaped onto one line. A byte-identical
/// artifact falls out of any journal interleaving that folds to the same
/// state, so `dlq.txt` participates in the campaign's byte-for-byte
/// reproducibility guarantees.
pub fn render_dlq(state: &JournalState) -> String {
    let letters = dead_letters(state);
    let mut out = String::from("# dramdig dead-letter queue\n");
    out.push_str(&format!("# jobs = {}\n", letters.len()));
    for letter in &letters {
        out.push_str(&format!(
            "job {} attempts={} reason={}\n",
            letter.job,
            letter.attempts,
            escape_line(&letter.reason)
        ));
    }
    out
}

/// Escapes `text` onto one line (`\` → `\\`, newline → `\n`), as
/// `dlq.txt` and `SCOREBOARD.txt` print failure reasons.
pub(crate) fn escape_line(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Writes [`render_dlq`] to `path` via write-then-rename, so a kill mid-write
/// never leaves a truncated artifact.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] when the write or rename fails.
pub fn write_dlq(path: &Path, state: &JournalState) -> Result<(), CampaignError> {
    crate::engine::write_atomic(path, &render_dlq(state))
}

/// Puts dead-lettered jobs back in play by appending
/// [`JournalRecord::Requeued`] records to the journal at `journal_path`.
/// With `job = Some(id)` only that job is requeued; with `None`, every dead
/// letter is. Returns the requeued job ids in job-id order.
///
/// # Errors
///
/// Returns [`CampaignError::Codec`] when a named job is not dead-lettered,
/// and journal IO errors as [`CampaignError::Journal`].
pub fn requeue(
    journal_path: &Path,
    state: &JournalState,
    mode: RequeueMode,
    job: Option<&str>,
) -> Result<Vec<String>, CampaignError> {
    let targets: Vec<String> = match job {
        Some(id) => {
            if !state.dead.contains_key(id) {
                return Err(CampaignError::Codec(format!(
                    "job `{id}` is not dead-lettered (see `campaign dlq list`)"
                )));
            }
            vec![id.to_string()]
        }
        None => state.dead.keys().cloned().collect(),
    };
    let mut journal = Journal::open_append(journal_path)?;
    for id in &targets {
        journal.append(&JournalRecord::Requeued {
            job: id.clone(),
            mode,
        })?;
    }
    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_state() -> JournalState {
        JournalState::replay(&[
            JournalRecord::Dead {
                job: "m6-s1-naive".into(),
                attempts: 3,
                reason: "validation: only 71.0% agree\nnoise?".into(),
            },
            JournalRecord::Dead {
                job: "m4-s1-fast".into(),
                attempts: 1,
                reason: "back\\slash".into(),
            },
        ])
    }

    #[test]
    fn dlq_lists_and_renders_deterministically() {
        let state = dead_state();
        let letters = dead_letters(&state);
        assert_eq!(letters.len(), 2);
        // BTreeMap order: m4 before m6.
        assert_eq!(letters[0].job, "m4-s1-fast");
        assert_eq!(letters[1].attempts, 3);
        let rendered = render_dlq(&state);
        assert_eq!(
            rendered,
            "# dramdig dead-letter queue\n\
             # jobs = 2\n\
             job m4-s1-fast attempts=1 reason=back\\\\slash\n\
             job m6-s1-naive attempts=3 reason=validation: only 71.0% agree\\nnoise?\n"
        );
        // Empty DLQ renders a header-only artifact.
        assert_eq!(
            render_dlq(&JournalState::default()),
            "# dramdig dead-letter queue\n# jobs = 0\n"
        );
    }

    #[test]
    fn requeue_appends_records_and_validates_job_ids() {
        let dir = std::env::temp_dir().join(format!("dramdig-dlq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("journal.jsonl");
        let state = dead_state();

        // A named requeue touches only that job.
        let requeued = requeue(
            &journal_path,
            &state,
            RequeueMode::Retry,
            Some("m6-s1-naive"),
        )
        .unwrap();
        assert_eq!(requeued, vec!["m6-s1-naive".to_string()]);

        // Requeue-all covers every dead letter in job-id order.
        let requeued = requeue(&journal_path, &state, RequeueMode::Reprocess, None).unwrap();
        assert_eq!(
            requeued,
            vec!["m4-s1-fast".to_string(), "m6-s1-naive".to_string()]
        );

        // A live job id is rejected with a pointer to `dlq list`.
        let err = requeue(
            &journal_path,
            &state,
            RequeueMode::Retry,
            Some("m9-s1-fast"),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("not dead-lettered"), "{err}");

        // The appended records replay into the expected frontier when folded
        // onto the original dead records.
        let mut records = vec![
            JournalRecord::Dead {
                job: "m6-s1-naive".into(),
                attempts: 3,
                reason: "validation: only 71.0% agree\nnoise?".into(),
            },
            JournalRecord::Dead {
                job: "m4-s1-fast".into(),
                attempts: 1,
                reason: "back\\slash".into(),
            },
        ];
        records.extend(crate::journal::read_journal(&journal_path).unwrap());
        let replayed = JournalState::replay(&records);
        assert!(replayed.dead.is_empty(), "everything was requeued");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_dlq_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("dramdig-dlq-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dlq.txt");
        write_dlq(&path, &dead_state()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# dramdig dead-letter queue"));
        assert!(!path.with_extension("txt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
