//! `dramdig campaign`: Table-II campaigns, mapreduce grids, workers and
//! the dead-letter queue.

use std::fmt::Write as _;
use std::path::Path;

use campaign::{
    campaign_status, run_campaign, CampaignOptions, CampaignOutcome, CampaignPaths, CampaignSpec,
    CampaignStatus, Profile,
};

use campaign::mapreduce::{grid_history_line, grid_status, GridSpec};
use registry::MemRegistry;

use crate::flags::{parse_flags, parse_u64};
use crate::{machines_sharing, one_bank_function, record_history, write_trace_files, CliError};

/// What a `dramdig campaign` invocation does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignAction {
    /// `dramdig campaign run --dir D --machines 1-9 [--seeds S] [--profiles P]
    /// [--ablations A] [--retries N] [--workers N] [--limit N] [--trace PATH]
    /// [--metrics PATH]`
    Run {
        /// Campaign directory (spec, journal and store live here).
        dir: String,
        /// The expanded campaign description.
        spec: CampaignSpec,
        /// Worker threads draining the job queue.
        workers: usize,
        /// Stop after this many completions (simulates an interruption).
        limit: Option<usize>,
        /// Optional path a Chrome-trace JSON of the campaign is written to.
        trace: Option<String>,
        /// Optional path a metrics snapshot of the campaign is written to.
        metrics: Option<String>,
    },
    /// `dramdig campaign resume --dir D [--workers N] [--limit N]`
    Resume {
        /// Campaign directory holding the persisted spec.
        dir: String,
        /// Worker threads draining the job queue.
        workers: usize,
        /// Stop after this many completions (simulates an interruption).
        limit: Option<usize>,
    },
    /// `dramdig campaign status --dir D`
    Status {
        /// Campaign directory.
        dir: String,
    },
    /// `dramdig campaign query --dir D --func "(13, 16)"`
    Query {
        /// Campaign directory.
        dir: String,
        /// Bank function in paper notation.
        func: String,
    },
    /// `dramdig campaign mapreduce --dir D --scenarios N [--seed S]
    /// [--profile P] [--retries N] [--processes N] [--transport process|sim]
    /// [--inject-kill W:J] [--history PATH] [--metrics PATH]`
    Mapreduce {
        /// Grid campaign directory (grid spec, journal, store, scoreboard).
        dir: String,
        /// The generated-machine grid description.
        spec: GridSpec,
        /// Worker count (processes or simulated in-process workers).
        processes: usize,
        /// Worker transport: real processes or in-process simulated remotes.
        transport: MapTransport,
        /// Fault injection: worker W dies on its J-th request (`W:J`).
        inject_kill: Option<(u32, u32)>,
        /// Longitudinal history file the finished grid is appended to under
        /// the drift gate.
        history: Option<String>,
        /// Optional path a metrics snapshot of the run is written to.
        metrics: Option<String>,
    },
    /// `dramdig campaign worker [--inject-kill N]` — the JSONL request loop
    /// a coordinator drives over stdin/stdout.
    Worker {
        /// Fault injection: SIGKILL self on the N-th request.
        inject_kill: Option<u32>,
    },
    /// `dramdig campaign dlq <list|inspect|retry|reprocess> --dir D
    /// [--job ID]`
    Dlq {
        /// Campaign directory (classic or mapreduce).
        dir: String,
        /// What to do with the dead-letter queue.
        op: DlqOp,
        /// Restrict retry/reprocess/inspect to one job id.
        job: Option<String>,
    },
}

/// How `campaign mapreduce` talks to its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapTransport {
    /// Spawn real `dramdig campaign worker` processes.
    Process,
    /// In-process simulated remote workers (deterministic tests/benches).
    Sim,
}

/// What a `dramdig campaign dlq` invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlqOp {
    /// Print the dead-letter queue, one job per line.
    List,
    /// Print one dead letter in full (unescaped reason).
    Inspect,
    /// Requeue dead letters keeping the attempt ledger (fresh seeds).
    Retry,
    /// Requeue dead letters from scratch (attempt 1, base seed).
    Reprocess,
}

/// Parses a machine list with ranges, e.g. `1-9` or `4,7` or `1,3-5`.
/// Each number goes through [`campaign::parse_machine_number`], so
/// out-of-range values are rejected instead of truncated onto a valid
/// machine.
fn parse_machine_list(text: &str) -> Result<Vec<u8>, CliError> {
    let number = |item: &str| campaign::parse_machine_number(item).map_err(CliError::Usage);
    let mut machines = Vec::new();
    for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if let Some((lo, hi)) = item.split_once('-') {
            let lo = number(lo)?;
            let hi = number(hi)?;
            if lo > hi {
                return Err(CliError::Usage(format!("empty machine range `{item}`")));
            }
            machines.extend(lo..=hi);
        } else {
            machines.push(number(item)?);
        }
    }
    if machines.is_empty() {
        return Err(CliError::Usage(format!("`{text}` names no machines")));
    }
    Ok(machines)
}

/// The flag `campaign worker` reads its fault injection from. The
/// coordinator passes it on to the worker it is told to kill.
const INJECT_KILL: &str = "--inject-kill";

/// Parses a 32-bit fault-injection count.
fn parse_u32(text: &str) -> Result<u32, CliError> {
    u32::try_from(parse_u64(text)?)
        .map_err(|_| CliError::Usage(format!("`{text}` is out of range")))
}

/// Parses `dramdig campaign` and its action's flags.
pub(crate) fn parse(rest: &[String]) -> Result<CampaignAction, CliError> {
    let Some((action, rest)) = rest.split_first() else {
        return Err(CliError::Usage(
            "`dramdig campaign` requires run, resume, status, query, mapreduce, worker or dlq"
                .into(),
        ));
    };
    match action.as_str() {
        "run" => {
            let (
                [dir, machines, seeds, profiles, ablations, retries, workers, limit, trace, metrics],
                [],
            ) = parse_flags(
                rest,
                "campaign run",
                [
                    "--dir",
                    "--machines",
                    "--seeds",
                    "--profiles",
                    "--ablations",
                    "--retries",
                    "--workers",
                    "--limit",
                    "--trace",
                    "--metrics",
                ],
                [],
            )?;
            let dir = dir.need()?.to_string();
            let spec = CampaignSpec {
                machines: parse_machine_list(machines.need()?)?,
                seeds: match seeds.get() {
                    Some(list) => list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(parse_u64)
                        .collect::<Result<Vec<u64>, CliError>>()?,
                    None => vec![1],
                },
                profiles: match profiles.get() {
                    Some(list) => Profile::parse_list(list).map_err(CliError::Usage)?,
                    None => vec![Profile::Optimized],
                },
                ablations: match ablations.get() {
                    Some(list) => campaign::Ablation::parse_list(list).map_err(CliError::Usage)?,
                    None => vec![None],
                },
                max_retries: retries.u32_in(0..=u32::MAX)?.unwrap_or(2),
            };
            if spec.seeds.is_empty() || spec.profiles.is_empty() || spec.ablations.is_empty() {
                return Err(CliError::Usage("campaign spec expands to zero jobs".into()));
            }
            Ok(CampaignAction::Run {
                dir,
                spec,
                workers: workers.count_or(4)?,
                limit: limit.u64()?.map(|v| v as usize),
                trace: trace.string(),
                metrics: metrics.string(),
            })
        }
        "resume" => {
            let ([dir, workers, limit], []) = parse_flags(
                rest,
                "campaign resume",
                ["--dir", "--workers", "--limit"],
                [],
            )?;
            Ok(CampaignAction::Resume {
                dir: dir.need()?.to_string(),
                workers: workers.count_or(4)?,
                limit: limit.u64()?.map(|v| v as usize),
            })
        }
        "status" => {
            let ([dir], []) = parse_flags(rest, "campaign status", ["--dir"], [])?;
            Ok(CampaignAction::Status {
                dir: dir.need()?.to_string(),
            })
        }
        "query" => {
            let ([dir, func], []) = parse_flags(rest, "campaign query", ["--dir", "--func"], [])?;
            Ok(CampaignAction::Query {
                dir: dir.need()?.to_string(),
                func: func.need()?.to_string(),
            })
        }
        "mapreduce" => {
            let (
                [dir, scenarios, seed, profile, retries, processes, transport, inject_kill, history, metrics],
                [],
            ) = parse_flags(
                rest,
                "campaign mapreduce",
                [
                    "--dir",
                    "--scenarios",
                    "--seed",
                    "--profile",
                    "--retries",
                    "--processes",
                    "--transport",
                    INJECT_KILL,
                    "--history",
                    "--metrics",
                ],
                [],
            )?;
            let dir = dir.need()?.to_string();
            let spec = GridSpec {
                scenarios: scenarios
                    .u32_in(1..=u32::MAX)?
                    .ok_or_else(|| scenarios.missing())?,
                seed: seed.u64_or(1)?,
                profile: match profile.get() {
                    Some(name) => Profile::from_name(name)
                        .ok_or_else(|| CliError::Usage(format!("unknown profile `{name}`")))?,
                    None => Profile::Fast,
                },
                max_retries: retries.u32_in(0..=u32::MAX)?.unwrap_or(1),
            };
            let processes = processes.count_or(4)?;
            let transport = match transport.get() {
                Some("process") | None => MapTransport::Process,
                Some("sim") => MapTransport::Sim,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown transport `{other}` (expected process or sim)"
                    )))
                }
            };
            let inject_kill = inject_kill
                .get()
                .map(|text| {
                    let (worker, request) = text.split_once(':').ok_or_else(|| {
                        CliError::Usage(format!(
                            "{INJECT_KILL} expects <worker>:<request>, got `{text}`"
                        ))
                    })?;
                    Ok::<_, CliError>((parse_u32(worker)?, parse_u32(request)?))
                })
                .transpose()?;
            Ok(CampaignAction::Mapreduce {
                dir,
                spec,
                processes,
                transport,
                inject_kill,
                history: history.string(),
                metrics: metrics.string(),
            })
        }
        "worker" => {
            let ([inject_kill], []) = parse_flags(rest, "campaign worker", [INJECT_KILL], [])?;
            Ok(CampaignAction::Worker {
                inject_kill: inject_kill.get().map(parse_u32).transpose()?,
            })
        }
        "dlq" => {
            let Some((op, rest)) = rest.split_first() else {
                return Err(CliError::Usage(
                    "`dramdig campaign dlq` requires list, inspect, retry or reprocess".into(),
                ));
            };
            let op = match op.as_str() {
                "list" => DlqOp::List,
                "inspect" => DlqOp::Inspect,
                "retry" => DlqOp::Retry,
                "reprocess" => DlqOp::Reprocess,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown dlq action `{other}` (expected list, inspect, retry or reprocess)"
                    )))
                }
            };
            let ([dir, job], []) = parse_flags(rest, "campaign dlq", ["--dir", "--job"], [])?;
            let job = job.string();
            if op == DlqOp::Inspect && job.is_none() {
                return Err(CliError::Usage(
                    "`dramdig campaign dlq inspect` requires --job <id>".into(),
                ));
            }
            Ok(CampaignAction::Dlq {
                dir: dir.need()?.to_string(),
                op,
                job,
            })
        }
        other => Err(CliError::Usage(format!(
            "unknown campaign action `{other}` (expected run, resume, status, query, mapreduce, \
             worker or dlq)"
        ))),
    }
}

/// Reassembles a campaign's completed jobs into a trace on a virtual serial
/// timeline. The journal state's completed map is keyed (and iterated) by
/// job id, so the span order — and the exported bytes — are independent of
/// the nondeterministic completion order of the worker pool.
fn campaign_tracer(outcome: &CampaignOutcome) -> telemetry::Tracer {
    let mut tracer = telemetry::Tracer::new();
    let run = tracer.begin_with(
        telemetry::SpanKind::Run,
        "campaign",
        &[("jobs", outcome.state.completed.len() as u64)],
    );
    for (job_id, report) in &outcome.state.completed {
        let span = tracer.begin(telemetry::SpanKind::CampaignJob, job_id);
        tracer.advance_ns(report.total.elapsed_ns);
        tracer.end_with(span, &[("measurements", report.total.measurements)]);
    }
    tracer.end_with(run, &[("measurements", outcome.totals.measurements)]);
    tracer
}

/// Reads the spec `campaign run` persists in a campaign directory.
fn read_campaign_spec(paths: &CampaignPaths) -> Result<CampaignSpec, CliError> {
    let text = std::fs::read_to_string(paths.spec()).map_err(|e| {
        CliError::Tool(format!(
            "cannot read {} ({e}); was this campaign started with `campaign run`?",
            paths.spec().display()
        ))
    })?;
    CampaignSpec::decode(&text).map_err(|e| CliError::Tool(format!("corrupt campaign spec: {e}")))
}

/// Reads the grid spec `campaign mapreduce` persists in its directory.
fn read_grid_spec(paths: &CampaignPaths) -> Result<GridSpec, CliError> {
    let path = paths.grid_spec();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        CliError::Tool(format!(
            "cannot read {} ({e}); was this grid started with `campaign mapreduce`?",
            path.display()
        ))
    })?;
    GridSpec::decode(&text).map_err(|e| CliError::Tool(format!("corrupt grid spec: {e}")))
}

/// Writes the `kind` spec (`campaign` or `grid`) to `path` in a directory
/// that holds none yet, and refuses a directory whose spec, as `read`
/// decodes it, differs from `spec`.
fn persist_spec<S: PartialEq>(
    dir: &str,
    path: &Path,
    kind: &str,
    spec: &S,
    text: String,
    read: impl FnOnce() -> Result<S, CliError>,
) -> Result<(), CliError> {
    if !path.exists() {
        return std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(path, text))
            .map_err(|e| CliError::Tool(format!("cannot persist {kind} spec in {dir}: {e}")));
    }
    if read()? != *spec {
        return Err(CliError::Tool(format!(
            "{dir} already holds a different {kind}; resume it or pick a new --dir"
        )));
    }
    Ok(())
}

/// The report line naming a campaign's mapping store.
fn store_line(store: &MemRegistry, paths: &CampaignPaths) -> String {
    format!(
        "store: {} distinct mappings ({})\n",
        store.len(),
        paths.store().display()
    )
}

fn drive_campaign(
    dir: &str,
    spec: &CampaignSpec,
    workers: usize,
    limit: Option<usize>,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> Result<String, CliError> {
    let paths = CampaignPaths::new(dir);
    // Phase checkpoints are always on for CLI campaigns: a worker killed
    // mid-pipeline resumes its job from the last phase boundary instead of
    // repaying the partition.
    let mut options = CampaignOptions::default()
        .with_workers(workers)
        .with_phase_checkpoints(true);
    if let Some(limit) = limit {
        options = options.with_max_completions(limit);
    }
    let mut pool_metrics = telemetry::Registry::new();
    let outcome = run_campaign(
        spec,
        &paths,
        &options,
        metrics.is_some().then_some(&mut pool_metrics),
        |job, attempt, checkpoint| {
            campaign::run_job_sim(job, attempt, job.profile.config(), checkpoint)
        },
    )
    .map_err(CliError::tool)?;
    if trace.is_some() || metrics.is_some() {
        write_trace_files(&campaign_tracer(&outcome), &pool_metrics, trace, metrics)?;
    }

    let mut out = String::new();
    let total = spec.jobs().len();
    writeln!(
        out,
        "campaign {dir}: {}/{total} jobs completed ({} this invocation, {} dead-lettered)",
        outcome.state.completed.len(),
        outcome.completed.len(),
        outcome.state.dead.len(),
    )
    .expect("write to string");
    for done in &outcome.completed {
        writeln!(
            out,
            "  {} (attempt {}): {}",
            done.job.id(),
            done.attempt,
            done.report.mapping
        )
        .expect("write to string");
    }
    for (job, reason) in &outcome.dead {
        writeln!(out, "  DEAD {}: {reason}", job.id()).expect("write to string");
    }
    let pending = outcome.state.pending(spec).len();
    if pending > 0 {
        writeln!(
            out,
            "  {pending} jobs still pending; continue with `dramdig campaign resume --dir {dir}`"
        )
        .expect("write to string");
    }
    out.push_str(&store_line(&outcome.store, &paths));
    writeln!(
        out,
        "totals: {} measurements, {:.3} s simulated; fleet makespan {:.3} s at 1 machine, {:.3} s at {} machines",
        outcome.totals.measurements,
        outcome.totals.elapsed_seconds(),
        outcome.simulated_makespan(1),
        outcome.simulated_makespan(workers),
        workers,
    )
    .expect("write to string");
    Ok(out)
}

/// Runs a `dramdig campaign` action.
pub(crate) fn execute(action: &CampaignAction) -> Result<String, CliError> {
    match action {
        CampaignAction::Run {
            dir,
            spec,
            workers,
            limit,
            trace,
            metrics,
        } => {
            let paths = CampaignPaths::new(dir);
            persist_spec(dir, &paths.spec(), "campaign", spec, spec.encode(), || {
                read_campaign_spec(&paths)
            })?;
            drive_campaign(
                dir,
                spec,
                *workers,
                *limit,
                trace.as_deref(),
                metrics.as_deref(),
            )
        }
        CampaignAction::Resume {
            dir,
            workers,
            limit,
        } => {
            let spec = read_campaign_spec(&CampaignPaths::new(dir))?;
            drive_campaign(dir, &spec, *workers, *limit, None, None)
        }
        CampaignAction::Status { dir } => {
            let status = directory_status(&CampaignPaths::new(dir))?;
            let mut out = String::new();
            writeln!(
                out,
                "campaign {dir}: {}/{} completed, {} dead, {} pending, {} distinct mappings",
                status.completed,
                status.total_jobs,
                status.dead.len(),
                status.pending.len(),
                status.store.len(),
            )
            .expect("write to string");
            for (job, attempt) in &status.pending {
                writeln!(out, "  pending {job} (next attempt {attempt})").expect("write to string");
            }
            for (job, reason) in &status.dead {
                writeln!(out, "  DEAD {job}: {reason}").expect("write to string");
            }
            Ok(out)
        }
        CampaignAction::Query { dir, func } => {
            let paths = CampaignPaths::new(dir);
            let func = one_bank_function(func)?;
            let store = load_campaign_store(&paths)?;
            let mut out = String::new();
            let entries = store.entries_sharing(func);
            writeln!(
                out,
                "bank function {func} appears in {} of {} stored mappings",
                entries.len(),
                store.len(),
            )
            .expect("write to string");
            for entry in &entries {
                let sources: Vec<String> = entry.sources.iter().map(|s| s.to_string()).collect();
                writeln!(out, "  {}", entry.mapping).expect("write to string");
                writeln!(out, "    recovered by {}", sources.join(", ")).expect("write to string");
            }
            out.push_str(&machines_sharing(
                entries.iter().flat_map(|entry| entry.machines()),
            ));
            Ok(out)
        }
        CampaignAction::Mapreduce {
            dir,
            spec,
            processes,
            transport,
            inject_kill,
            history,
            metrics,
        } => {
            use campaign::mapreduce::{ProcessTransport, SimTransport, WorkerTransport};

            // The request worker `i` dies on, if it is the one told to die.
            let kill_at = |i: usize| {
                inject_kill
                    .filter(|&(worker, _)| worker as usize == i)
                    .map(|(_, request)| request)
            };

            let paths = CampaignPaths::new(dir);
            persist_spec(dir, &paths.grid_spec(), "grid", spec, spec.encode(), || {
                read_grid_spec(&paths)
            })?;

            let transports: Vec<Box<dyn WorkerTransport>> = match transport {
                MapTransport::Sim => (0..*processes)
                    .map(|i| {
                        let sim =
                            kill_at(i).map_or_else(SimTransport::new, SimTransport::killed_at);
                        Box::new(sim) as Box<dyn WorkerTransport>
                    })
                    .collect(),
                MapTransport::Process => {
                    let bin = std::env::current_exe()
                        .map_err(|e| CliError::Tool(format!("cannot locate own binary: {e}")))?;
                    (0..*processes)
                        .map(|i| {
                            let extra = kill_at(i)
                                .map(|request| vec![INJECT_KILL.to_string(), request.to_string()])
                                .unwrap_or_default();
                            ProcessTransport::spawn(&bin, &extra)
                                .map(|t| Box::new(t) as Box<dyn WorkerTransport>)
                        })
                        .collect::<std::io::Result<Vec<_>>>()
                        .map_err(|e| CliError::Tool(format!("cannot spawn workers: {e}")))?
                }
            };

            let mut pool_metrics = telemetry::Registry::new();
            let outcome = campaign::mapreduce::run_mapreduce(
                spec,
                &paths,
                transports,
                metrics.is_some().then_some(&mut pool_metrics),
            )
            .map_err(CliError::tool)?;
            write_trace_files(
                &telemetry::Tracer::new(),
                &pool_metrics,
                None,
                metrics.as_deref(),
            )?;

            if let Some(path) = history {
                record_history(path, &grid_history_line(spec, &outcome), "grid")?;
            }

            let pending =
                spec.scenarios as usize - outcome.state.completed.len() - outcome.state.dead.len();
            let mut out = String::new();
            writeln!(
                out,
                "mapreduce {dir}: {}/{} jobs completed ({} this invocation, {} dead-lettered, {} pending)",
                outcome.state.completed.len(),
                spec.scenarios,
                outcome.completed_now,
                outcome.state.dead.len(),
                pending,
            )
            .expect("write to string");
            if pending > 0 {
                writeln!(
                    out,
                    "  continue with `dramdig campaign mapreduce --dir {dir} --scenarios {}`",
                    spec.scenarios
                )
                .expect("write to string");
            }
            out.push_str(&store_line(&outcome.store, &paths));
            writeln!(
                out,
                "scoreboard: fnv1a:{:016x} ({})",
                dram_model::fingerprint::fnv1a64(outcome.scoreboard.as_bytes()),
                paths.dir().join("SCOREBOARD.txt").display()
            )
            .expect("write to string");
            if !outcome.state.dead.is_empty() {
                writeln!(
                    out,
                    "dead letters: inspect with `dramdig campaign dlq list --dir {dir}`"
                )
                .expect("write to string");
            }
            Ok(out)
        }
        CampaignAction::Worker { inject_kill } => {
            campaign::mapreduce::run_worker(
                std::io::stdin().lock(),
                std::io::stdout().lock(),
                *inject_kill,
            )
            .map_err(CliError::Tool)?;
            Ok(String::new())
        }
        CampaignAction::Dlq { dir, op, job } => execute_dlq(dir, *op, job.as_deref()),
    }
}

fn execute_dlq(dir: &str, op: DlqOp, job: Option<&str>) -> Result<String, CliError> {
    let paths = CampaignPaths::new(dir);
    let records = campaign::read_merged_journal(&paths).map_err(CliError::tool)?;
    let state = campaign::JournalState::replay(&records);
    let letters = campaign::dead_letters(&state);
    let mut out = String::new();
    match op {
        DlqOp::List => {
            writeln!(out, "dead-letter queue of {dir}: {} job(s)", letters.len())
                .expect("write to string");
            for letter in &letters {
                let reason = letter.reason.replace('\n', " / ");
                writeln!(
                    out,
                    "  {} attempts={} reason={}",
                    letter.job, letter.attempts, reason
                )
                .expect("write to string");
            }
        }
        DlqOp::Inspect => {
            let id = job.expect("parser enforces --job for inspect");
            let letter = letters.iter().find(|l| l.job == id).ok_or_else(|| {
                CliError::Tool(format!(
                    "job `{id}` is not dead-lettered (see `campaign dlq list`)"
                ))
            })?;
            writeln!(out, "job: {}", letter.job).expect("write to string");
            writeln!(out, "attempts: {}", letter.attempts).expect("write to string");
            writeln!(
                out,
                "next retry attempt: {}",
                state.next_attempt(&letter.job)
            )
            .expect("write to string");
            writeln!(out, "reason:\n{}", letter.reason).expect("write to string");
        }
        DlqOp::Retry | DlqOp::Reprocess => {
            let mode = match op {
                DlqOp::Retry => campaign::RequeueMode::Retry,
                _ => campaign::RequeueMode::Reprocess,
            };
            // Requeue records must land *after* the dead records they revive:
            // fold any worker journal shards into the top-level journal first.
            campaign::compact_journals(&paths).map_err(CliError::tool)?;
            let requeued =
                campaign::requeue(&paths.journal(), &state, mode, job).map_err(CliError::tool)?;
            // dlq.txt mirrors the journal: rewrite it from the post-requeue state.
            let records = campaign::read_journal(&paths.journal()).map_err(CliError::tool)?;
            campaign::write_dlq(&paths.dlq(), &campaign::JournalState::replay(&records))
                .map_err(CliError::tool)?;
            writeln!(
                out,
                "requeued {} job(s) for {}:",
                requeued.len(),
                mode.as_str()
            )
            .expect("write to string");
            for id in &requeued {
                writeln!(out, "  {id}").expect("write to string");
            }
            writeln!(
                out,
                "run `dramdig campaign mapreduce --dir {dir} ...` (or `campaign resume`) to drain them"
            )
            .expect("write to string");
        }
    }
    Ok(out)
}

/// Summarizes a campaign directory from its merged journal. A mapreduce
/// grid directory holds `grid.spec` instead of `campaign.spec`; this is the
/// one place that tells the two apart.
fn directory_status(paths: &CampaignPaths) -> Result<CampaignStatus, CliError> {
    if paths.grid_spec().exists() {
        grid_status(&read_grid_spec(paths)?, paths)
    } else {
        campaign_status(&read_campaign_spec(paths)?, paths)
    }
    .map_err(CliError::tool)
}

/// Rebuilds a campaign's mapping store from its merged journal — the
/// durable record of truth, exactly what `campaign status` counts — so a
/// kill between a journaled completion and the store rewrite never makes
/// the commands disagree. Only when the spec or the journal cannot be read
/// does a persisted `store.txt` answer instead.
pub(crate) fn load_campaign_store(paths: &CampaignPaths) -> Result<MemRegistry, CliError> {
    directory_status(paths)
        .map(|status| status.store)
        .or_else(|error| {
            std::fs::read_to_string(paths.store())
                .ok()
                .and_then(|text| MemRegistry::decode(&text).ok())
                .ok_or(error)
        })
}
