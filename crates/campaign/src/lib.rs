//! # Campaign orchestration for DRAMDig fleets
//!
//! The paper's headline result (Table II) is the same reverse-engineering
//! pipeline re-run across nine machine configurations. This crate scales
//! that workflow with **one campaign engine** that every campaign goes
//! through: a job set is drained by a worker pool, each worker journaling
//! its attempts, and a reduce step turns the merged journal into the
//! campaign's artifacts. Two job sets sit on top of it:
//!
//! * a Table-II **campaign** ([`runner`]): a spec (machines × seeds ×
//!   profiles × ablations) drained in process by pool threads;
//! * a generated-machine **grid** ([`mapreduce`]): `MachineGen` scenarios
//!   drained over worker transports, including worker processes.
//!
//! Both get
//!
//! * a **write-ahead journal** (hand-rolled JSONL): each worker appends to
//!   its own `journal-worker-NNN.jsonl` shard, and the reduce compacts the
//!   shards into `journal.jsonl`, so an interrupted campaign resumes from
//!   its last settled job;
//! * **retry with a dead-letter queue** for jobs whose recovery fails under
//!   measurement noise (each retry re-seeds the noise stream), and
//! * a persistent **mapping store** (`store.txt`): a
//!   [`registry::MemRegistry`] that deduplicates recovered XOR-function
//!   sets across jobs via canonical GF(2) basis reduction and answers
//!   queries like *which machines share bank function `(13, 16)`?*
//!
//! The store is a pure function of the merged journal, so a killed and
//! resumed campaign produces byte-identical artifacts to an uninterrupted
//! one.
//!
//! ```no_run
//! use campaign::{run_campaign, run_job_sim, CampaignOptions, CampaignPaths, CampaignSpec, Profile};
//!
//! let spec = CampaignSpec::new((1..=9).collect(), 1, Profile::Optimized);
//! let paths = CampaignPaths::new("table2-campaign");
//! let outcome = run_campaign(
//!     &spec,
//!     &paths,
//!     &CampaignOptions::default()
//!         .with_workers(4)
//!         .with_phase_checkpoints(true),
//!     None,
//!     |job, attempt, checkpoint| run_job_sim(job, attempt, job.profile.config(), checkpoint),
//! )?;
//! println!(
//!     "{} jobs done, {} distinct mappings",
//!     outcome.state.completed.len(),
//!     outcome.store.len()
//! );
//! # Ok::<(), campaign::CampaignError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod dlq;
mod engine;
pub mod journal;
pub mod mapreduce;
pub mod pool;
pub mod runner;
pub mod spec;

/// The flat JSONL codec backing the journal. It lives in the dependency-free
/// `telemetry` crate so the trace exporters share it; re-exported here under
/// its historical path.
pub use telemetry::jsonl;

pub use dlq::{dead_letters, render_dlq, requeue, write_dlq, DeadLetter};
pub use engine::{compact_journals, read_merged_journal};
pub use journal::{read_journal, Journal, JournalError, JournalRecord, JournalState, RequeueMode};
pub use pool::{
    drain_pool, drain_pool_ctx, Attempt, Lease, MeteredHooks, NoHooks, PoolConfig, PoolHooks,
    PoolOutcome, Verdict,
};
pub use runner::{
    campaign_status, fleet_makespan, run_campaign, run_job_sim, CampaignError, CampaignOptions,
    CampaignOutcome, CampaignPaths, CampaignStatus, JobOutcome,
};
pub use spec::{parse_machine_number, Ablation, CampaignSpec, JobSpec, Profile};
