//! Map/reduce campaigns over generated machine grids.
//!
//! The Table-II campaign ([`crate::runner`]) drains a fixed nine-machine
//! job set through in-process pool threads. A grid goes through the same
//! campaign engine — drain, journal shards, reduce — with its jobs leased
//! to **worker transports**, a shape fit for thousand-scenario sweeps of
//! [`MachineGen`]:
//!
//! * a [`GridSpec`] shards a `MachineGen` stream into [`GenJob`] work units
//!   (deterministic machine, class and seeds per index);
//! * the coordinator ([`run_mapreduce`]) dispatches leases over
//!   [`WorkerTransport`]s — real worker *processes* speaking a line-oriented
//!   JSONL protocol over stdin/stdout ([`ProcessTransport`], the `dramdig
//!   campaign worker` subcommand), or an in-process simulated-remote
//!   transport with deterministic kill injection ([`SimTransport`]) for
//!   tests and benches;
//! * a worker death surfaces as [`WorkerLost`]: the lease goes back at the
//!   **same attempt** and a surviving worker steals it, resuming from the
//!   job's last `PhaseCheckpoint` via the atomic checkpoint store — so the
//!   finished report is byte-identical to an unkilled run;
//! * the reduce side merges the per-worker journals, rebuilds the
//!   content-addressed [`MappingStore`] and renders a scoreboard, all pure
//!   functions of the merged journal state — **byte-identical regardless of
//!   worker topology, kill points or steal order**.
//!
//! Every artifact lives in one campaign directory: `grid.spec`,
//! `journal.jsonl` (plus transient `journal-worker-NNN.jsonl` files compacted
//! into it after each run), `store.txt`, `dlq.txt` and `SCOREBOARD.txt`.

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use dram_model::fingerprint::fnv1a64;
use dram_model::{mix_seed, GeneratedMachine, MachineClass, MachineGen};
use dram_sim::{PhysMemory, SimMachine};
use dramdig::codec::{self, CodecError};
use dramdig::driver::Phase;
use dramdig::{DomainKnowledge, DramDigConfig, RecoveryReport};

use crate::engine;
use crate::journal::JournalState;
use crate::pool::{Attempt, PoolConfig};
use crate::runner::{CampaignError, CampaignPaths, CampaignStatus};
use crate::spec::Profile;
use crate::store::MappingStore;

/// The description of a generated-machine grid campaign: `scenarios` jobs
/// sampled from [`MachineGen`] under one grid seed and one configuration
/// profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// How many scenarios the grid expands to.
    pub scenarios: u32,
    /// The grid seed every per-job seed derives from.
    pub seed: u64,
    /// Configuration profile every job runs with.
    pub profile: Profile,
    /// Failed attempts beyond this count are dead-lettered (0 = one try).
    pub max_retries: u32,
}

impl GridSpec {
    /// A grid of `scenarios` jobs with the default retry budget.
    pub fn new(scenarios: u32, seed: u64, profile: Profile) -> Self {
        GridSpec {
            scenarios,
            seed,
            profile,
            max_retries: 1,
        }
    }

    /// Expands the grid into its deterministic job list, in index order.
    pub fn jobs(&self) -> Vec<GenJob> {
        (0..self.scenarios)
            .map(|index| GenJob {
                index,
                seed: self.seed,
                profile: self.profile,
            })
            .collect()
    }

    /// Serializes the spec as `key = value` lines; [`GridSpec::decode`] is
    /// the inverse.
    pub fn encode(&self) -> String {
        format!(
            concat!(
                "# dramdig grid spec\n",
                "scenarios = {}\n",
                "seed = {}\n",
                "profile = {}\n",
                "max_retries = {}\n",
            ),
            self.scenarios, self.seed, self.profile, self.max_retries,
        )
    }

    /// Parses a spec written by [`GridSpec::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed lines, unknown keys or values,
    /// or a grid of zero scenarios.
    pub fn decode(text: &str) -> Result<Self, CodecError> {
        let mut scenarios = 0;
        let mut seed = 0;
        let mut profile = Profile::Fast;
        let mut max_retries = 1;
        for (line, key, value) in codec::parse_kv_lines(text)? {
            match key {
                "scenarios" => scenarios = codec::parse_u32(line, key, value)?,
                "seed" => seed = codec::parse_u64(line, key, value)?,
                "profile" => {
                    profile = Profile::from_name(value).ok_or_else(|| {
                        CodecError::at(line, format!("unknown profile `{value}`"))
                    })?;
                }
                "max_retries" => max_retries = codec::parse_u32(line, key, value)?,
                other => return Err(CodecError::at(line, format!("unknown grid key `{other}`"))),
            }
        }
        if scenarios == 0 {
            return Err(CodecError::whole("grid expands to zero scenarios"));
        }
        Ok(GridSpec {
            scenarios,
            seed,
            profile,
            max_retries,
        })
    }
}

/// One work unit of a grid campaign: a pipeline run on a generated machine.
/// The machine, its class and every seed are pure functions of
/// `(index, seed, profile)`, so a worker process regenerates exactly the
/// coordinator's machine from the three protocol fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenJob {
    /// Position in the grid.
    pub index: u32,
    /// The grid seed.
    pub seed: u64,
    /// Configuration profile.
    pub profile: Profile,
}

impl GenJob {
    /// The stable id naming this job in the journal, the store and the DLQ,
    /// e.g. `g0007-s1-fast`.
    pub fn id(&self) -> String {
        format!("g{:04}-s{}-{}", self.index, self.seed, self.profile)
    }

    /// The machine class at this grid index: mostly in-scope, with every
    /// `index % 10 == 3` slot row-remapped and every `index % 100 == 7` slot
    /// a wide-function machine. Wide functions are outside DRAMDig's
    /// assumptions, so the pipeline refuses them loudly on every attempt —
    /// they are the grid's deterministic dead-letter population.
    pub fn class(&self) -> MachineClass {
        if self.index % 100 == 7 {
            MachineClass::WideFunction
        } else if self.index % 10 == 3 {
            MachineClass::RowRemap
        } else {
            MachineClass::InScope
        }
    }

    /// The machine-generator seed of this job.
    pub fn gen_seed(&self) -> u64 {
        mix_seed(self.seed, u64::from(self.index))
    }

    /// The generated machine under test.
    pub fn machine(&self) -> GeneratedMachine {
        MachineGen::new(self.gen_seed()).generate(self.class())
    }

    /// The tool/simulator seed attempt `attempt` (1-based) runs with:
    /// distinct per attempt so a noisy failure is never replayed verbatim,
    /// exactly like [`crate::spec::JobSpec::attempt_seed`].
    #[must_use]
    pub fn attempt_seed(&self, attempt: u32) -> u64 {
        mix_seed(self.seed, 0x7001 ^ (u64::from(self.index) << 8))
            .wrapping_add(u64::from(attempt.saturating_sub(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The grid index encoded in a job id produced by [`GenJob::id`].
    pub fn index_from_id(id: &str) -> Option<u32> {
        id.strip_prefix('g')?.split('-').next()?.parse::<u32>().ok()
    }
}

/// The configuration grid jobs run with: the job profile's configuration
/// at [`DramDigConfig::with_fast_budgets`], so a thousand-scenario sweep
/// does not pay full calibration and validation budgets per job (for
/// `Profile::Fast` this is exactly [`DramDigConfig::fast`]). Grid workers
/// and the benchmark's grid workload both read a job's configuration here.
pub fn grid_config(profile: Profile) -> DramDigConfig {
    profile.config().with_fast_budgets()
}

/// Runs one grid job through the campaign engine's phase-granular resume:
/// a surviving checkpoint continues the killed attempt under its stored
/// configuration (byte-identical report), and a genuine failure wipes the
/// directory so the retry re-measures under a fresh attempt-derived seed.
///
/// # Errors
///
/// Returns the human-readable failure reason (the journal's payload).
pub fn run_gen_job(
    job: &GenJob,
    attempt: u32,
    checkpoint: Option<&Path>,
) -> Result<RecoveryReport, String> {
    run_gen_job_engine(job, attempt, checkpoint, None)
}

fn run_gen_job_engine(
    job: &GenJob,
    attempt: u32,
    checkpoint: Option<&Path>,
    stop_after: Option<Phase>,
) -> Result<RecoveryReport, String> {
    let machine = job.machine();
    engine::run_engine(
        DomainKnowledge::for_generated(&machine),
        |sim| SimMachine::from_generated(&machine, sim),
        PhysMemory::full(machine.system.capacity_bytes),
        grid_config(job.profile).with_seed(job.attempt_seed(attempt)),
        checkpoint,
        stop_after,
    )
}

/// Runs the first phases of a grid job and stops at the partition boundary,
/// leaving its phase checkpoints on disk — the "killed mid-phase" state a
/// stealing worker resumes from. Used by both kill injectors.
fn checkpoint_then_abandon(job: &GenJob, attempt: u32, checkpoint: &Path) {
    let _ = run_gen_job_engine(job, attempt, Some(checkpoint), Some(Phase::Partition));
}

// ---------------------------------------------------------------------------
// The line-oriented worker protocol.
// ---------------------------------------------------------------------------

/// One dispatched work unit, as carried by the worker protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkRequest {
    /// The job to run.
    pub job: GenJob,
    /// The attempt this lease runs at.
    pub attempt: u32,
    /// Phase-checkpoint directory (always set by the coordinator).
    pub checkpoint: Option<PathBuf>,
}

use crate::jsonl::{self, JsonValue};

impl WorkRequest {
    /// Encodes the request as one JSONL line (no trailing newline).
    pub fn encode_line(&self) -> String {
        let mut fields = vec![
            ("op", JsonValue::Str("run".into())),
            ("index", JsonValue::Num(u64::from(self.job.index))),
            ("seed", JsonValue::Num(self.job.seed)),
            ("profile", JsonValue::Str(self.job.profile.as_str().into())),
            ("attempt", JsonValue::Num(u64::from(self.attempt))),
        ];
        if let Some(dir) = &self.checkpoint {
            fields.push(("checkpoint", JsonValue::Str(dir.display().to_string())));
        }
        jsonl::encode_object(&fields)
    }
}

/// One line read by a worker: a job to run, or the shutdown sentinel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerInput {
    /// Run a job and write one response line.
    Run(WorkRequest),
    /// Exit cleanly.
    Shutdown,
}

impl WorkerInput {
    /// Parses a line written by [`WorkRequest::encode_line`] or the shutdown
    /// sentinel `{"op":"shutdown"}`.
    ///
    /// # Errors
    ///
    /// Returns a reason string for malformed lines.
    pub fn decode_line(line: &str) -> Result<Self, String> {
        let fields = jsonl::parse_object(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let str_field = |key: &str| {
            jsonl::field(&fields, key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let num_field = |key: &str| {
            jsonl::field(&fields, key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing integer field `{key}`"))
        };
        match str_field("op")?.as_str() {
            "shutdown" => Ok(WorkerInput::Shutdown),
            "run" => {
                let profile_name = str_field("profile")?;
                let profile = Profile::from_name(&profile_name)
                    .ok_or_else(|| format!("unknown profile `{profile_name}`"))?;
                let index = u32::try_from(num_field("index")?)
                    .map_err(|_| "index out of range".to_string())?;
                let attempt = u32::try_from(num_field("attempt")?)
                    .map_err(|_| "attempt out of range".to_string())?;
                Ok(WorkerInput::Run(WorkRequest {
                    job: GenJob {
                        index,
                        seed: num_field("seed")?,
                        profile,
                    },
                    attempt,
                    checkpoint: str_field("checkpoint").ok().map(PathBuf::from),
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Encodes a worker's response to one [`WorkRequest`].
pub fn encode_response(job_id: &str, result: &Result<RecoveryReport, String>) -> String {
    match result {
        Ok(report) => jsonl::encode_object(&[
            ("job", JsonValue::Str(job_id.into())),
            ("report", JsonValue::Str(report.encode())),
        ]),
        Err(reason) => jsonl::encode_object(&[
            ("job", JsonValue::Str(job_id.into())),
            ("error", JsonValue::Str(reason.clone())),
        ]),
    }
}

/// Parses a line written by [`encode_response`].
///
/// # Errors
///
/// Returns a reason string for malformed lines (the coordinator treats that
/// as a lost worker).
pub fn decode_response(line: &str) -> Result<Result<RecoveryReport, String>, String> {
    let fields = jsonl::parse_object(line).map_err(|e| format!("bad response JSON: {e}"))?;
    if let Some(reason) = jsonl::field(&fields, "error").and_then(JsonValue::as_str) {
        return Ok(Err(reason.to_string()));
    }
    let encoded = jsonl::field(&fields, "report")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "response carries neither `report` nor `error`".to_string())?;
    let report = RecoveryReport::decode(encoded).map_err(|e| format!("bad report: {e}"))?;
    Ok(Ok(report))
}

/// The blocking request loop of one worker process: reads one JSONL request
/// per line from `input`, runs it, writes one JSONL response to `output`.
/// Returns cleanly on the shutdown sentinel or EOF (the coordinator went
/// away).
///
/// With `inject_kill = Some(n)`, the `n`-th run request (1-based) checkpoints
/// the job's early phases and then the process SIGKILLs itself — the CI
/// smoke test's deterministic mid-phase kill.
///
/// # Errors
///
/// Returns a reason string on malformed requests or broken pipes.
pub fn run_worker(
    input: impl BufRead,
    mut output: impl std::io::Write,
    inject_kill: Option<u32>,
) -> Result<(), String> {
    let mut served = 0u32;
    for line in input.lines() {
        let line = line.map_err(|e| format!("worker stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match WorkerInput::decode_line(&line)? {
            WorkerInput::Shutdown => return Ok(()),
            WorkerInput::Run(request) => request,
        };
        served += 1;
        if inject_kill == Some(served) {
            if let Some(dir) = request.checkpoint.as_deref() {
                checkpoint_then_abandon(&request.job, request.attempt, dir);
            }
            kill_self_hard();
        }
        let result = run_gen_job(&request.job, request.attempt, request.checkpoint.as_deref());
        let response = encode_response(&request.job.id(), &result);
        writeln!(output, "{response}").map_err(|e| format!("worker stdout: {e}"))?;
        output.flush().map_err(|e| format!("worker stdout: {e}"))?;
    }
    Ok(())
}

/// SIGKILLs the current process — no unwinding, no flushes, exactly the
/// failure mode the steal path must survive. Falls back to `abort` on
/// platforms without a `kill` binary.
fn kill_self_hard() -> ! {
    let _ = Command::new("kill")
        .args(["-9", &std::process::id().to_string()])
        .status();
    std::process::abort();
}

// ---------------------------------------------------------------------------
// Transports.
// ---------------------------------------------------------------------------

/// A worker died underneath its job (killed process, closed pipe, garbled
/// protocol). The coordinator re-queues the lease at the same attempt and
/// retires the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLost(pub String);

/// One remote worker the coordinator can dispatch jobs to. The outer
/// `Result` is transport health (`Err` = the worker is gone); the inner one
/// is the job outcome as reported by a live worker.
pub trait WorkerTransport: Send {
    /// Dispatches one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Returns [`WorkerLost`] when the worker died mid-request.
    fn run(&mut self, request: &WorkRequest) -> Result<Result<RecoveryReport, String>, WorkerLost>;
}

/// A real worker process (`dramdig campaign worker`) driven over
/// stdin/stdout. Dropping the transport sends the shutdown sentinel and
/// reaps the child.
#[derive(Debug)]
pub struct ProcessTransport {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ProcessTransport {
    /// Spawns `worker_bin campaign worker <extra_args>` with piped standard
    /// streams. The binary is usually [`std::env::current_exe`] — the CLI
    /// re-enters itself — but tests may point at an explicit build.
    ///
    /// # Errors
    ///
    /// Returns the spawn error.
    pub fn spawn(worker_bin: &Path, extra_args: &[String]) -> std::io::Result<Self> {
        let mut child = Command::new(worker_bin)
            .arg("campaign")
            .arg("worker")
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(ProcessTransport {
            child,
            stdin,
            stdout,
        })
    }
}

impl WorkerTransport for ProcessTransport {
    fn run(&mut self, request: &WorkRequest) -> Result<Result<RecoveryReport, String>, WorkerLost> {
        let lost = |reason: String| WorkerLost(format!("worker process lost: {reason}"));
        writeln!(self.stdin, "{}", request.encode_line()).map_err(|e| lost(e.to_string()))?;
        self.stdin.flush().map_err(|e| lost(e.to_string()))?;
        let mut line = String::new();
        let read = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| lost(e.to_string()))?;
        if read == 0 {
            return Err(lost("stdout closed (killed?)".into()));
        }
        decode_response(line.trim_end()).map_err(lost)
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        let _ = writeln!(self.stdin, "{{\"op\":\"shutdown\"}}");
        let _ = self.stdin.flush();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An in-process simulated-remote worker: runs jobs through the same
/// [`run_gen_job`] path a real worker process uses, with a deterministic
/// kill switch — on the `kill_at`-th request (1-based) it checkpoints the
/// job mid-phase and then reports itself lost, and stays lost thereafter.
#[derive(Debug, Clone, Default)]
pub struct SimTransport {
    kill_at: Option<u32>,
    served: u32,
    dead: bool,
}

impl SimTransport {
    /// A healthy simulated worker.
    pub fn new() -> Self {
        SimTransport::default()
    }

    /// A simulated worker that dies on its `kill_at`-th request (1-based),
    /// leaving that job's phase checkpoints behind for the stealing worker.
    pub fn killed_at(kill_at: u32) -> Self {
        SimTransport {
            kill_at: Some(kill_at),
            served: 0,
            dead: false,
        }
    }
}

impl WorkerTransport for SimTransport {
    fn run(&mut self, request: &WorkRequest) -> Result<Result<RecoveryReport, String>, WorkerLost> {
        if self.dead {
            return Err(WorkerLost("simulated worker already dead".into()));
        }
        self.served += 1;
        if self.kill_at == Some(self.served) {
            self.dead = true;
            if let Some(dir) = request.checkpoint.as_deref() {
                checkpoint_then_abandon(&request.job, request.attempt, dir);
            }
            return Err(WorkerLost(format!(
                "kill -9 injected on request {}",
                self.served
            )));
        }
        Ok(run_gen_job(
            &request.job,
            request.attempt,
            request.checkpoint.as_deref(),
        ))
    }
}

// ---------------------------------------------------------------------------
// The coordinator (map) and the merge (reduce).
// ---------------------------------------------------------------------------

/// What one [`run_mapreduce`] invocation did, plus the grid-wide state after
/// its reduce step.
#[derive(Debug)]
pub struct MapReduceOutcome {
    /// Jobs completed by *this* invocation.
    pub completed_now: usize,
    /// The merged journal state (covers prior invocations too).
    pub state: JournalState,
    /// The merged mapping store persisted to `store.txt`.
    pub store: MappingStore,
    /// The rendered scoreboard persisted to `SCOREBOARD.txt`.
    pub scoreboard: String,
}

/// Runs (or resumes) a grid campaign across `transports`: shards the pending
/// jobs of `spec` into leases, dispatches them over the worker transports
/// with checkpoint-granular stealing, then reduces — merges the per-worker
/// journal and store shards, compacts the worker journals into
/// `journal.jsonl`, and rewrites `store.txt`, `dlq.txt` and `SCOREBOARD.txt`
/// as pure functions of the merged state.
///
/// Phase checkpoints are always on: every lease carries a checkpoint
/// directory, which is what makes a steal resume mid-pipeline.
///
/// # Errors
///
/// Returns [`CampaignError`] on journal/store IO failures, or when the
/// merged store shards diverge from the journal replay (a reduce-side bug —
/// never expected). Job failures and lost workers are *not* errors.
pub fn run_mapreduce(
    spec: &GridSpec,
    paths: &CampaignPaths,
    transports: Vec<Box<dyn WorkerTransport>>,
    metrics: Option<&mut telemetry::Registry>,
) -> Result<MapReduceOutcome, CampaignError> {
    let pool = PoolConfig {
        workers: transports.len(),
        max_retries: spec.max_retries,
        max_completions: None,
    };
    let jobs = spec.jobs().into_iter().map(|job| (job.id(), job)).collect();
    let drained = engine::drain(
        paths,
        jobs,
        &pool,
        true,
        transports,
        metrics,
        |transport, job, attempt, checkpoint| {
            let request = WorkRequest {
                job: job.clone(),
                attempt,
                checkpoint: checkpoint.map(Path::to_path_buf),
            };
            match transport.run(&request) {
                Err(WorkerLost(reason)) => Attempt::Interrupted(reason),
                Ok(Ok(report)) => Attempt::Completed(report),
                Ok(Err(reason)) => Attempt::Failed(reason),
            }
        },
    )?;
    let (state, store) = engine::reduce(paths, grid_label)?;
    let scoreboard = render_grid_scoreboard(spec, &state, &store);
    engine::write_atomic(&paths.dir().join("SCOREBOARD.txt"), &scoreboard)?;
    Ok(MapReduceOutcome {
        completed_now: drained.completed.len(),
        state,
        store,
        scoreboard,
    })
}

/// The store provenance label of a grid job id: the generated machine's
/// class. Ids that do not parse fall back to the id itself.
fn grid_label(job_id: &str) -> String {
    GenJob::index_from_id(job_id).map_or_else(
        || job_id.to_string(),
        |index| {
            let probe = GenJob {
                index,
                seed: 0,
                profile: Profile::Fast,
            };
            format!("gen-{}", probe.class().as_str())
        },
    )
}

/// Rebuilds the mapping store from a merged grid journal state: every
/// completed job's mapping, content-addressed, with the generated machine's
/// class as its provenance label.
pub fn grid_store_from_state(state: &JournalState) -> MappingStore {
    engine::rebuild_store(state, grid_label)
}

fn escape_line(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders the grid scoreboard: a pure function of the spec and the merged
/// journal state. Worker topology, kill points and steal order never appear,
/// which is what makes the artifact byte-identical across them — per-job
/// report fingerprints pin the actual recovered bytes, not just counts.
pub fn render_grid_scoreboard(
    spec: &GridSpec,
    state: &JournalState,
    store: &MappingStore,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# dramdig mapreduce scoreboard v1");
    let _ = writeln!(out, "scenarios = {}", spec.scenarios);
    let _ = writeln!(out, "seed = {}", spec.seed);
    let _ = writeln!(out, "profile = {}", spec.profile);
    let mut completed = 0usize;
    let mut dead = 0usize;
    let mut pending = 0usize;
    let mut body = String::new();
    for job in spec.jobs() {
        let id = job.id();
        if let Some(report) = state.completed.get(&id) {
            completed += 1;
            let _ = writeln!(
                body,
                "{id} [{}] ok report=fnv1a:{:016x}",
                job.class().as_str(),
                fnv1a64(report.encode().as_bytes()),
            );
        } else if let Some(reason) = state.dead.get(&id) {
            dead += 1;
            let _ = writeln!(
                body,
                "{id} [{}] dead attempts={} reason={}",
                job.class().as_str(),
                state.dead_attempts.get(&id).copied().unwrap_or(0),
                escape_line(reason),
            );
        } else {
            pending += 1;
            let _ = writeln!(
                body,
                "{id} [{}] pending attempt={}",
                job.class().as_str(),
                state.next_attempt(&id),
            );
        }
    }
    let _ = writeln!(out, "completed = {completed}");
    let _ = writeln!(out, "dead = {dead}");
    let _ = writeln!(out, "pending = {pending}");
    let _ = writeln!(out, "distinct_mappings = {}", store.len());
    let _ = writeln!(
        out,
        "store = fnv1a:{:016x}",
        fnv1a64(store.encode().as_bytes())
    );
    out.push_str(&body);
    out
}

/// Encodes a finished grid run as one stable history line for
/// `SCOREBOARD_HISTORY.txt`. The part before the `|` is the identity key;
/// re-running the same key must reproduce the line byte-for-byte (any drift
/// is a regression the history gate catches).
pub fn grid_history_line(spec: &GridSpec, outcome: &MapReduceOutcome) -> String {
    let pending =
        spec.scenarios as usize - outcome.state.completed.len() - outcome.state.dead.len();
    format!(
        "grid=mapreduce scenarios={} seed={} profile={} | board=fnv1a:{:016x} completed={} dead={} pending={} mappings={}",
        spec.scenarios,
        spec.seed,
        spec.profile,
        fnv1a64(outcome.scoreboard.as_bytes()),
        outcome.state.completed.len(),
        outcome.state.dead.len(),
        pending,
        outcome.store.len(),
    )
}

/// Summarizes a grid campaign directory without running anything.
///
/// # Errors
///
/// Returns [`CampaignError`] when the journals cannot be read.
pub fn grid_status(
    spec: &GridSpec,
    paths: &CampaignPaths,
) -> Result<CampaignStatus, CampaignError> {
    let ids = spec.jobs().iter().map(GenJob::id).collect();
    engine::status(paths, ids, grid_label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{read_merged_journal, worker_journal_paths};
    use crate::journal::{read_journal_counted, JournalRecord, JOURNAL_TORN_LINES};

    fn temp_paths(tag: &str) -> CampaignPaths {
        let dir =
            std::env::temp_dir().join(format!("dramdig-mapreduce-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignPaths::new(dir)
    }

    fn boxed(transports: Vec<SimTransport>) -> Vec<Box<dyn WorkerTransport>> {
        transports
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn WorkerTransport>)
            .collect()
    }

    #[test]
    fn grid_spec_round_trips_and_rejects_garbage() {
        let spec = GridSpec {
            scenarios: 1000,
            seed: 7,
            profile: Profile::Fast,
            max_retries: 2,
        };
        assert_eq!(GridSpec::decode(&spec.encode()).unwrap(), spec);
        assert!(GridSpec::decode("scenarios = 0\nseed = 1\n").is_err());
        assert!(GridSpec::decode("scenarios = 4\nprofile = warp\n").is_err());
        assert!(GridSpec::decode("wat = 1\n").is_err());
    }

    #[test]
    fn gen_jobs_are_deterministic_with_classes_by_index() {
        let spec = GridSpec::new(200, 1, Profile::Fast);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 200);
        assert_eq!(jobs[7].class(), MachineClass::WideFunction);
        assert_eq!(jobs[107].class(), MachineClass::WideFunction);
        assert_eq!(jobs[3].class(), MachineClass::RowRemap);
        assert_eq!(jobs[13].class(), MachineClass::RowRemap);
        assert_eq!(jobs[0].class(), MachineClass::InScope);
        assert_eq!(jobs[7].id(), "g0007-s1-fast");
        assert_eq!(GenJob::index_from_id("g0007-s1-fast"), Some(7));
        assert_eq!(GenJob::index_from_id("m4-s1-fast"), None);
        // Same (index, seed) → same machine; different index → different.
        assert_eq!(jobs[5].machine().mapping(), jobs[5].machine().mapping());
        assert_ne!(jobs[5].gen_seed(), jobs[6].gen_seed());
        // Attempt seeds are distinct per attempt.
        assert_ne!(jobs[5].attempt_seed(1), jobs[5].attempt_seed(2));
    }

    #[test]
    fn worker_protocol_round_trips() {
        let request = WorkRequest {
            job: GenJob {
                index: 42,
                seed: 7,
                profile: Profile::Optimized,
            },
            attempt: 3,
            checkpoint: Some(PathBuf::from("/tmp/ck/g0042")),
        };
        let decoded = WorkerInput::decode_line(&request.encode_line()).unwrap();
        assert_eq!(decoded, WorkerInput::Run(request.clone()));
        assert_eq!(
            WorkerInput::decode_line("{\"op\":\"shutdown\"}").unwrap(),
            WorkerInput::Shutdown
        );
        assert!(WorkerInput::decode_line("{\"op\":\"warp\"}").is_err());
        assert!(WorkerInput::decode_line("not json").is_err());

        // Error responses round-trip; garbled ones are rejected.
        let err_line = encode_response("g0042-s7-optimized", &Err("validation: noise".into()));
        assert_eq!(
            decode_response(&err_line).unwrap(),
            Err("validation: noise".to_string())
        );
        assert!(decode_response("{\"job\":\"x\"}").is_err());
    }

    #[test]
    fn mapreduce_grid_is_topology_invariant_under_kills() {
        // One small grid covering all three classes (index 7 = wide-function
        // dead-letter fodder, 3 = row-remap), run under three topologies:
        // single worker, three workers, and three workers with one killed
        // mid-phase. The merged scoreboard and store must be byte-identical.
        let spec = GridSpec {
            scenarios: 8,
            seed: 1,
            profile: Profile::Fast,
            max_retries: 1,
        };

        let run = |tag: &str, transports: Vec<SimTransport>| {
            let paths = temp_paths(tag);
            let outcome = run_mapreduce(&spec, &paths, boxed(transports), None).unwrap();
            let store_bytes = std::fs::read_to_string(paths.store()).unwrap();
            let board_bytes = std::fs::read_to_string(paths.dir().join("SCOREBOARD.txt")).unwrap();
            assert_eq!(board_bytes, outcome.scoreboard);
            // Worker journals were compacted into the top-level journal.
            assert!(worker_journal_paths(&paths).unwrap().is_empty());
            std::fs::remove_dir_all(paths.dir()).unwrap();
            (outcome, store_bytes, board_bytes)
        };

        let (single, single_store, single_board) = run("t1", vec![SimTransport::new()]);
        assert_eq!(single.state.completed.len(), 7);
        assert_eq!(single.state.dead.len(), 1, "index 7 dead-letters");
        assert!(single.state.dead.contains_key("g0007-s1-fast"));

        let (multi, multi_store, multi_board) = run(
            "t3",
            vec![
                SimTransport::new(),
                SimTransport::new(),
                SimTransport::new(),
            ],
        );
        assert_eq!(multi.state.completed.len(), 7);
        assert_eq!(multi_board, single_board, "topology changes the bytes");
        assert_eq!(multi_store, single_store);

        let (killed, killed_store, killed_board) = run(
            "kill",
            vec![
                SimTransport::killed_at(2),
                SimTransport::new(),
                SimTransport::new(),
            ],
        );
        assert_eq!(killed.state.completed.len(), 7);
        assert_eq!(
            killed_board, single_board,
            "a mid-phase kill changes the bytes"
        );
        assert_eq!(killed_store, single_store);
    }

    #[test]
    fn all_transports_dead_leaves_a_resumable_grid() {
        let spec = GridSpec {
            scenarios: 4,
            seed: 1,
            profile: Profile::Fast,
            max_retries: 0,
        };
        let paths = temp_paths("stall");
        // Both workers die immediately: nothing completes, nothing is lost.
        let outcome = run_mapreduce(
            &spec,
            &paths,
            boxed(vec![SimTransport::killed_at(1), SimTransport::killed_at(1)]),
            None,
        )
        .unwrap();
        assert_eq!(outcome.completed_now, 0);
        assert!(outcome.state.dead.is_empty());
        let status = grid_status(&spec, &paths).unwrap();
        assert_eq!(status.pending.len(), 4);
        // Interrupted leases resume at attempt 2 (the crashed attempt burns
        // across coordinator restarts) — but their checkpoints survive, so
        // the resumed run still continues the killed attempt byte-for-byte.
        let resumed = run_mapreduce(&spec, &paths, boxed(vec![SimTransport::new()]), None).unwrap();
        assert_eq!(resumed.state.completed.len(), 4);
        assert!(grid_status(&spec, &paths).unwrap().pending.is_empty());
        std::fs::remove_dir_all(paths.dir()).unwrap();
    }

    #[test]
    fn dlq_requeue_puts_grid_jobs_back_in_play() {
        let spec = GridSpec {
            scenarios: 8,
            seed: 1,
            profile: Profile::Fast,
            max_retries: 0,
        };
        let paths = temp_paths("dlq");
        let outcome = run_mapreduce(&spec, &paths, boxed(vec![SimTransport::new()]), None).unwrap();
        assert_eq!(outcome.state.dead.len(), 1);
        // Retry: the fodder job re-enters the queue at a later attempt...
        let requeued = crate::dlq::requeue(
            &paths.journal(),
            &outcome.state,
            crate::journal::RequeueMode::Retry,
            None,
        )
        .unwrap();
        assert_eq!(requeued, vec!["g0007-s1-fast".to_string()]);
        let state = JournalState::replay(&read_merged_journal(&paths).unwrap());
        assert!(state.dead.is_empty());
        assert_eq!(state.next_attempt("g0007-s1-fast"), 2);
        // ...and dead-letters again on the next run (wide functions always
        // refuse), landing back in the DLQ with a higher attempt count.
        let again = run_mapreduce(&spec, &paths, boxed(vec![SimTransport::new()]), None).unwrap();
        assert_eq!(again.state.dead.len(), 1);
        assert_eq!(again.state.dead_attempts["g0007-s1-fast"], 2);
        std::fs::remove_dir_all(paths.dir()).unwrap();
    }

    #[test]
    fn torn_journal_tail_resumes_to_the_same_scoreboard_at_every_offset() {
        let spec = GridSpec {
            scenarios: 2,
            seed: 1,
            profile: Profile::Fast,
            max_retries: 0,
        };
        let paths = temp_paths("torn");
        run_mapreduce(&spec, &paths, boxed(vec![SimTransport::new()]), None).unwrap();
        let board_path = paths.dir().join("SCOREBOARD.txt");
        let board = std::fs::read_to_string(&board_path).unwrap();
        let journal = std::fs::read(paths.journal()).unwrap();
        let last_start = journal[..journal.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let last = std::str::from_utf8(&journal[last_start..journal.len() - 1]).unwrap();
        let Ok(JournalRecord::Completed { job, attempt, .. }) = JournalRecord::decode_line(last)
        else {
            panic!("the final record is a completion: {last}");
        };
        // A coordinator killed while appending that completion dies before
        // the checkpoint removal that follows it, so the job's phase
        // checkpoints are still on disk when the grid resumes.
        let gen_job = spec.jobs().into_iter().find(|j| j.id() == job).unwrap();
        let stash = paths.dir().join("stash");
        run_gen_job(&gen_job, attempt, Some(&stash)).unwrap();
        let checkpoint = paths.checkpoints().join(&job);
        for cut in last_start..journal.len() {
            std::fs::write(paths.journal(), &journal[..cut]).unwrap();
            std::fs::create_dir_all(&checkpoint).unwrap();
            for file in std::fs::read_dir(&stash).unwrap() {
                let file = file.unwrap().path();
                std::fs::copy(&file, checkpoint.join(file.file_name().unwrap())).unwrap();
            }
            let mut metrics = telemetry::Registry::new();
            run_mapreduce(
                &spec,
                &paths,
                boxed(vec![SimTransport::new()]),
                Some(&mut metrics),
            )
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&board_path).unwrap(),
                board,
                "cut at byte {cut}"
            );
            // Only a partial line counts as torn; the resumed journal is
            // whole lines again.
            assert_eq!(
                metrics.counter(JOURNAL_TORN_LINES),
                u64::from(cut > last_start)
            );
            assert_eq!(read_journal_counted(&paths.journal()).unwrap().1, 0);
        }
        std::fs::remove_dir_all(paths.dir()).unwrap();
    }

    #[test]
    fn in_process_worker_loop_speaks_the_protocol() {
        let spec = GridSpec::new(2, 1, Profile::Fast);
        let job = spec.jobs().remove(0);
        let request = WorkRequest {
            job: job.clone(),
            attempt: 1,
            checkpoint: None,
        };
        let input = format!("{}\n{{\"op\":\"shutdown\"}}\n", request.encode_line());
        let mut output = Vec::new();
        run_worker(input.as_bytes(), &mut output, None).unwrap();
        let text = String::from_utf8(output).unwrap();
        let response = decode_response(text.trim()).unwrap();
        let report = response.expect("in-scope job completes");
        // The worker's report matches a direct in-process run byte-for-byte.
        let direct = run_gen_job(&job, 1, None).unwrap();
        assert_eq!(report.encode(), direct.encode());
        // Garbage requests error instead of wedging the loop.
        let mut sink = Vec::new();
        assert!(run_worker(b"garbage\n".as_slice(), &mut sink, None).is_err());
    }
}
