//! Command-line front end for the DRAMDig reproduction.
//!
//! The binary is called `dramdig` and offers one sub-command per workflow:
//!
//! ```text
//! dramdig list-machines
//! dramdig uncover  --machine 4 [--seed 7] [--ablate spec|sysinfo|empirical]
//!                  [--checkpoint dir] [--resume] [--budget 600]
//! dramdig compare  --machine 2
//! dramdig hammer   --machine 1 [--tool dramdig|drama|truth] [--tests 5]
//! dramdig decode   --machine 6 --addr 0x3fe4c40
//! dramdig validate --funcs "(13, 16), (14, 17), (15, 18)" --rows 16~31 --cols 0~12
//! dramdig eval     --grid ci [--seed 1] [--workers 4] [--out SCOREBOARD.txt]
//! dramdig campaign run    --dir t2 --machines 1-9 [--seeds 1] [--profiles optimized]
//! dramdig campaign resume --dir t2 [--workers 4]
//! dramdig campaign status --dir t2
//! dramdig campaign query  --dir t2 --func "(13, 16)"
//! dramdig campaign mapreduce --dir grid --scenarios 1000 [--processes 4]
//! dramdig campaign worker [--inject-kill 2]
//! dramdig campaign dlq    list --dir grid
//! dramdig registry import --campaign t2 --registry reg [--shards 4]
//! dramdig registry gen    --registry reg --grid ci
//! dramdig registry query  --registry reg --func "(13, 16)"
//! dramdig registry stats  --registry reg
//! dramdig serve    --registry reg [--input requests.txt] [--metrics m.txt]
//! ```
//!
//! Everything runs against the simulated machines of Table II; on a real
//! machine the same library calls can be driven with
//! [`mem_probe::HwProbe`] instead (see the `hardware_probe` example).
//!
//! Argument parsing is deliberately dependency-free: [`Command::parse`]
//! understands `--flag value` pairs and returns a typed command that
//! [`execute`] turns into a plain-text report.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;
use std::fmt::Write as _;

use campaign::{
    campaign_status, run_campaign_with_metrics, CampaignOptions, CampaignOutcome, CampaignPaths,
    CampaignSpec, MappingStore, Profile,
};
use dram_baselines::{BaselineError, Drama, DramaConfig, Xiao};
use dram_model::{parse, MachineSetting, PhysAddr};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::engine::{Budget, EngineEvent, EngineOptions, Observer, PipelineEngine};
use dramdig::{
    CheckpointStore, DomainKnowledge, DramDig, DramDigConfig, DramDigError, TelemetryObserver,
};
use dramdig_bench::eval::{
    outcome_metrics, outcome_tracer, run_grid_metered, run_grid_with_observables, summary_line,
    EvalGrid, GridKind,
};
use mem_probe::{ObservableKind, SimProbe};
use rowhammer::{
    run_double_sided, AttackerView, FlipAdjacencyConfig, FlipAdjacencyObservable, HammerConfig,
};

/// Which knowledge group to disable in an `uncover --ablate` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Drop the DDR specification (row/column bit counts).
    Specifications,
    /// Drop the system information (total bank count).
    SystemInfo,
    /// Drop the empirical observations.
    Empirical,
}

/// Which tool's mapping to hammer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HammerTool {
    /// The mapping DRAMDig uncovers.
    DramDig,
    /// The (partial) mapping DRAMA uncovers.
    Drama,
    /// The simulator's ground truth (upper bound).
    Truth,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `dramdig list-machines`
    ListMachines,
    /// `dramdig uncover --machine N [--seed S] [--ablate GROUP]
    /// [--checkpoint DIR] [--resume] [--budget N] [--trace PATH]
    /// [--metrics PATH]`
    Uncover {
        /// Table-II machine number (1–9).
        machine: u8,
        /// Simulator noise seed.
        seed: u64,
        /// Optional knowledge group to disable.
        ablate: Option<Ablation>,
        /// Phase-checkpoint directory: completed phases are persisted here
        /// and an interrupted run can be continued with `--resume`.
        checkpoint: Option<String>,
        /// Resume from the checkpoint directory's recorded configuration
        /// instead of starting fresh.
        resume: bool,
        /// Measurement budget: stop (checkpointing, when `--checkpoint` is
        /// given) once this many pair measurements were spent.
        budget: Option<u64>,
        /// Observable channels to run with; declaring `flip-adjacency`
        /// additionally consults a rowhammer channel after the pipeline.
        observables: Vec<ObservableKind>,
        /// Optional path a Chrome-trace JSON of the run is written to.
        trace: Option<String>,
        /// Optional path a metrics snapshot of the run is written to.
        metrics: Option<String>,
    },
    /// `dramdig compare --machine N`
    Compare {
        /// Table-II machine number (1–9).
        machine: u8,
    },
    /// `dramdig hammer --machine N [--tool T] [--tests K]`
    Hammer {
        /// Table-II machine number (1–9).
        machine: u8,
        /// Whose mapping to hammer with.
        tool: HammerTool,
        /// Number of repeated tests.
        tests: u32,
    },
    /// `dramdig decode --machine N --addr A`
    Decode {
        /// Table-II machine number (1–9).
        machine: u8,
        /// Physical address to decode.
        addr: u64,
    },
    /// `dramdig validate --funcs F --rows R --cols C`
    Validate {
        /// Bank functions in paper notation.
        funcs: String,
        /// Row bits in range notation.
        rows: String,
        /// Column bits in range notation.
        cols: String,
    },
    /// `dramdig eval --grid G [--seed S] [--workers N] [--out PATH]
    /// [--history PATH] [--trace PATH] [--metrics PATH]`
    Eval {
        /// Scenario grid preset (quick, ci or full).
        grid: GridKind,
        /// Grid seed every scenario derives from.
        seed: u64,
        /// Worker threads draining the scenario × tool cells.
        workers: usize,
        /// Optional path the scoreboard artifact is written to.
        out: Option<String>,
        /// Optional longitudinal history file the run is appended to under
        /// the regression gate (same key must reproduce its line).
        history: Option<String>,
        /// Observable channels DRAMDig runs with across the grid.
        observables: Vec<ObservableKind>,
        /// Optional path a Chrome-trace JSON of the grid is written to.
        trace: Option<String>,
        /// Optional path a metrics snapshot of the grid is written to.
        metrics: Option<String>,
    },
    /// `dramdig campaign <run|resume|status|query> ...`
    Campaign(CampaignAction),
    /// `dramdig registry <import|gen|query|stats> ...`
    Registry(RegistryAction),
    /// `dramdig serve --registry DIR [--input PATH] [--metrics PATH]`
    Serve {
        /// Registry directory to answer from.
        registry: String,
        /// Read request lines from this file instead of stdin.
        input: Option<String>,
        /// Optional path a metrics snapshot of the session is written to.
        metrics: Option<String>,
    },
    /// `dramdig help`
    Help,
}

/// What a `dramdig registry` invocation does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryAction {
    /// `dramdig registry import --campaign D --registry R [--shards N]
    /// [--crash-after N]`
    Import {
        /// Campaign directory whose journal feeds the import.
        campaign_dir: String,
        /// Registry directory (created on first import).
        registry_dir: String,
        /// Shard count when the registry is created (ignored on reopen).
        shards: u32,
        /// Fault injection: crash after writing this many segment files,
        /// before the manifest publish (CI recovery smoke).
        crash_after: Option<usize>,
    },
    /// `dramdig registry gen --registry R (--grid G | --count N)
    /// [--seed S] [--shards N]`
    Gen {
        /// Registry directory (created when missing).
        registry_dir: String,
        /// Source the corpus from an eval scenario grid.
        grid: Option<GridKind>,
        /// Source the corpus from N generated in-scope machines.
        count: Option<u64>,
        /// Generator / grid seed.
        seed: u64,
        /// Shard count when the registry is created (ignored on reopen).
        shards: u32,
    },
    /// `dramdig registry query --registry R
    /// (--func F | --fingerprint X | --nearest "F, .." [--k N])`
    Query {
        /// Registry directory.
        registry_dir: String,
        /// Span-membership query: one bank function in paper notation.
        func: Option<String>,
        /// Exact content-addressed lookup (hex fingerprint).
        fingerprint: Option<String>,
        /// Nearest stored mappings to a partial recovery (function list).
        nearest: Option<String>,
        /// Maximum hits a `--nearest` query returns.
        k: usize,
    },
    /// `dramdig registry stats --registry R`
    Stats {
        /// Registry directory.
        registry_dir: String,
    },
}

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
    /// [--worker-bin PATH] [--inject-kill W:J] [--history PATH]
    /// [--metrics PATH]`
    Mapreduce {
        /// Grid campaign directory (grid spec, journal, store, scoreboard).
        dir: String,
        /// The generated-machine grid description.
        spec: campaign::mapreduce::GridSpec,
        /// Worker count (processes or simulated in-process workers).
        processes: usize,
        /// Worker transport: real processes or in-process simulated remotes.
        transport: MapTransport,
        /// Worker binary override (defaults to the running executable).
        worker_bin: Option<String>,
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

/// Errors produced while parsing or executing a command.
#[derive(Debug)]
pub enum CliError {
    /// The command line could not be parsed.
    Usage(String),
    /// The requested machine number does not exist.
    UnknownMachine(u8),
    /// A library call failed.
    Tool(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::UnknownMachine(n) => {
                write!(
                    f,
                    "unknown machine number {n}; expected 1..=9 (see `dramdig list-machines`)"
                )
            }
            CliError::Tool(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage string printed on parse errors and by `dramdig help`.
pub fn usage() -> String {
    concat!(
        "dramdig — knowledge-assisted DRAM address mapping reverse engineering\n",
        "\n",
        "USAGE:\n",
        "  dramdig list-machines\n",
        "  dramdig uncover  --machine <1-9> [--seed <u64>] [--ablate spec|sysinfo|empirical]\n",
        "                   [--checkpoint <dir>] [--resume] [--budget <measurements>]\n",
        "                   [--observables timing[,flip-adjacency]]\n",
        "                   [--trace <path>] [--metrics <path>]\n",
        "  dramdig compare  --machine <1-9>\n",
        "  dramdig hammer   --machine <1-9> [--tool dramdig|drama|truth] [--tests <n>]\n",
        "  dramdig decode   --machine <1-9> --addr <hex or decimal physical address>\n",
        "  dramdig validate --funcs \"(13, 16), ...\" --rows 16~31 --cols 0~12\n",
        "  dramdig eval     --grid quick|ci|full [--seed <u64>] [--workers <n>]\n",
        "                   [--out <path>] [--history <path>]\n",
        "                   [--observables timing[,flip-adjacency]]\n",
        "                   [--trace <path>] [--metrics <path>]\n",
        "  dramdig campaign run    --dir <dir> --machines <1-9|4,7> [--seeds <s,..>]\n",
        "                          [--profiles naive|default|fast|optimized[,..]]\n",
        "                          [--ablations none|spec|sysinfo|empirical[,..]]\n",
        "                          [--retries <n>] [--workers <n>] [--limit <n>]\n",
        "                          [--trace <path>] [--metrics <path>]\n",
        "  dramdig campaign resume --dir <dir> [--workers <n>] [--limit <n>]\n",
        "  dramdig campaign status --dir <dir>\n",
        "  dramdig campaign query  --dir <dir> --func \"(13, 16)\"\n",
        "  dramdig campaign mapreduce --dir <dir> --scenarios <n> [--seed <u64>]\n",
        "                          [--profile naive|default|fast|optimized]\n",
        "                          [--retries <n>] [--processes <n>]\n",
        "                          [--transport process|sim] [--worker-bin <path>]\n",
        "                          [--inject-kill <worker>:<request>]\n",
        "                          [--history <path>] [--metrics <path>]\n",
        "  dramdig campaign worker [--inject-kill <n>]\n",
        "  dramdig campaign dlq    list|inspect|retry|reprocess --dir <dir> [--job <id>]\n",
        "  dramdig registry import --campaign <dir> --registry <dir> [--shards <n>]\n",
        "                          [--crash-after <n>]\n",
        "  dramdig registry gen    --registry <dir> (--grid quick|ci|full | --count <n>)\n",
        "                          [--seed <u64>] [--shards <n>]\n",
        "  dramdig registry query  --registry <dir> (--func \"(13, 16)\"\n",
        "                          | --fingerprint <hex> | --nearest \"(13, 16), ...\" [--k <n>])\n",
        "  dramdig registry stats  --registry <dir>\n",
        "  dramdig serve    --registry <dir> [--input <request file>] [--metrics <path>]\n",
        "  dramdig help\n",
    )
    .to_string()
}

/// Extracts `--key value` pairs from an argument list.
fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(text: &str) -> Result<u64, CliError> {
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| CliError::Usage(format!("`{text}` is not a valid number")))
}

/// Parses the `--observables` channel list (comma-separated
/// [`ObservableKind`] names, deduplicated, order preserved). Defaults to
/// timing-only, the channel the pipeline itself runs on.
fn parse_observables(rest: &[String]) -> Result<Vec<ObservableKind>, CliError> {
    let Some(list) = flag_value(rest, "--observables") else {
        return Ok(vec![ObservableKind::ConflictTiming]);
    };
    let mut kinds = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let kind = ObservableKind::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = ObservableKind::ALL.iter().map(|k| k.as_str()).collect();
            CliError::Usage(format!(
                "unknown observable `{name}` (expected {})",
                known.join(", ")
            ))
        })?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err(CliError::Usage("`--observables` names no channels".into()));
    }
    Ok(kinds)
}

fn required<'a>(args: &'a [String], key: &str, command: &str) -> Result<&'a str, CliError> {
    flag_value(args, key)
        .ok_or_else(|| CliError::Usage(format!("`dramdig {command}` requires {key} <value>")))
}

/// Parses the required `--machine` number (decimal or `0x` hex) and checks
/// its range with [`campaign::parse_machine_number`], so `260` is refused
/// instead of truncated onto machine No.4.
fn parse_machine(rest: &[String], command: &str) -> Result<u8, CliError> {
    let number = parse_u64(required(rest, "--machine", command)?)?;
    campaign::parse_machine_number(&number.to_string()).map_err(CliError::Usage)
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

/// Rejects anything that is not a known `--flag value` pair. A misspelled
/// dimension flag (`--profile` for `--profiles`) must fail up front, not
/// silently sweep the default dimension and persist the wrong spec.
fn reject_unknown_flags(rest: &[String], allowed: &[&str], command: &str) -> Result<(), CliError> {
    reject_unknown_flags_with_bare(rest, allowed, &[], command)
}

/// [`reject_unknown_flags`] with an extra set of `bare` flags that take no
/// value (e.g. `--resume`).
fn reject_unknown_flags_with_bare(
    rest: &[String],
    allowed: &[&str],
    bare: &[&str],
    command: &str,
) -> Result<(), CliError> {
    let mut i = 0;
    while i < rest.len() {
        let token = rest[i].as_str();
        if !token.starts_with("--") {
            return Err(CliError::Usage(format!(
                "unexpected argument `{token}` for `dramdig {command}`"
            )));
        }
        if bare.contains(&token) {
            i += 1;
            continue;
        }
        if !allowed.contains(&token) {
            let mut expected: Vec<&str> = allowed.iter().chain(bare).copied().collect();
            expected.sort_unstable();
            return Err(CliError::Usage(format!(
                "unknown flag `{token}` for `dramdig {command}` (expected {})",
                expected.join(", ")
            )));
        }
        if i + 1 >= rest.len() {
            return Err(CliError::Usage(format!("`{token}` requires a value")));
        }
        i += 2;
    }
    Ok(())
}

fn parse_campaign(rest: &[String]) -> Result<CampaignAction, CliError> {
    let Some(action) = rest.first() else {
        return Err(CliError::Usage(
            "`dramdig campaign` requires run, resume, status, query, mapreduce, worker or dlq"
                .into(),
        ));
    };
    let rest = &rest[1..];
    let workers = |rest: &[String]| -> Result<usize, CliError> {
        match flag_value(rest, "--workers") {
            Some(w) => {
                let workers = parse_u64(w)? as usize;
                if workers == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".into()));
                }
                Ok(workers)
            }
            None => Ok(4),
        }
    };
    let limit = |rest: &[String]| -> Result<Option<usize>, CliError> {
        flag_value(rest, "--limit")
            .map(|l| parse_u64(l).map(|v| v as usize))
            .transpose()
    };
    match action.as_str() {
        "run" => {
            reject_unknown_flags(
                rest,
                &[
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
                "campaign run",
            )?;
            let dir = required(rest, "--dir", "campaign run")?.to_string();
            let machines = parse_machine_list(required(rest, "--machines", "campaign run")?)?;
            let seeds = match flag_value(rest, "--seeds") {
                Some(list) => list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(parse_u64)
                    .collect::<Result<Vec<u64>, CliError>>()?,
                None => vec![1],
            };
            let profiles = match flag_value(rest, "--profiles") {
                Some(list) => Profile::parse_list(list).map_err(CliError::Usage)?,
                None => vec![Profile::Optimized],
            };
            let ablations = match flag_value(rest, "--ablations") {
                Some(list) => campaign::Ablation::parse_list(list).map_err(CliError::Usage)?,
                None => vec![None],
            };
            let max_retries = match flag_value(rest, "--retries") {
                Some(r) => u32::try_from(parse_u64(r)?).map_err(|_| {
                    CliError::Usage(format!("--retries {r} does not fit a 32-bit count"))
                })?,
                None => 2,
            };
            let spec = CampaignSpec {
                machines,
                seeds,
                profiles,
                ablations,
                max_retries,
            };
            if spec.seeds.is_empty() || spec.profiles.is_empty() || spec.ablations.is_empty() {
                return Err(CliError::Usage("campaign spec expands to zero jobs".into()));
            }
            Ok(CampaignAction::Run {
                dir,
                spec,
                workers: workers(rest)?,
                limit: limit(rest)?,
                trace: flag_value(rest, "--trace").map(str::to_string),
                metrics: flag_value(rest, "--metrics").map(str::to_string),
            })
        }
        "resume" => {
            reject_unknown_flags(rest, &["--dir", "--workers", "--limit"], "campaign resume")?;
            Ok(CampaignAction::Resume {
                dir: required(rest, "--dir", "campaign resume")?.to_string(),
                workers: workers(rest)?,
                limit: limit(rest)?,
            })
        }
        "status" => {
            reject_unknown_flags(rest, &["--dir"], "campaign status")?;
            Ok(CampaignAction::Status {
                dir: required(rest, "--dir", "campaign status")?.to_string(),
            })
        }
        "query" => {
            reject_unknown_flags(rest, &["--dir", "--func"], "campaign query")?;
            Ok(CampaignAction::Query {
                dir: required(rest, "--dir", "campaign query")?.to_string(),
                func: required(rest, "--func", "campaign query")?.to_string(),
            })
        }
        "mapreduce" => {
            reject_unknown_flags(
                rest,
                &[
                    "--dir",
                    "--scenarios",
                    "--seed",
                    "--profile",
                    "--retries",
                    "--processes",
                    "--transport",
                    "--worker-bin",
                    "--inject-kill",
                    "--history",
                    "--metrics",
                ],
                "campaign mapreduce",
            )?;
            let dir = required(rest, "--dir", "campaign mapreduce")?.to_string();
            let scenarios = u32::try_from(parse_u64(required(
                rest,
                "--scenarios",
                "campaign mapreduce",
            )?)?)
            .map_err(|_| CliError::Usage("--scenarios does not fit a 32-bit count".into()))?;
            if scenarios == 0 {
                return Err(CliError::Usage("--scenarios must be at least 1".into()));
            }
            let seed = match flag_value(rest, "--seed") {
                Some(s) => parse_u64(s)?,
                None => 1,
            };
            let profile = match flag_value(rest, "--profile") {
                Some(name) => Profile::from_name(name)
                    .ok_or_else(|| CliError::Usage(format!("unknown profile `{name}`")))?,
                None => Profile::Fast,
            };
            let max_retries = match flag_value(rest, "--retries") {
                Some(r) => u32::try_from(parse_u64(r)?).map_err(|_| {
                    CliError::Usage(format!("--retries {r} does not fit a 32-bit count"))
                })?,
                None => 1,
            };
            let processes = match flag_value(rest, "--processes") {
                Some(p) => {
                    let processes = parse_u64(p)? as usize;
                    if processes == 0 {
                        return Err(CliError::Usage("--processes must be at least 1".into()));
                    }
                    processes
                }
                None => 4,
            };
            let transport = match flag_value(rest, "--transport") {
                Some("process") | None => MapTransport::Process,
                Some("sim") => MapTransport::Sim,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown transport `{other}` (expected process or sim)"
                    )))
                }
            };
            let inject_kill = flag_value(rest, "--inject-kill")
                .map(|text| {
                    let (worker, request) = text.split_once(':').ok_or_else(|| {
                        CliError::Usage(format!(
                            "--inject-kill expects <worker>:<request>, got `{text}`"
                        ))
                    })?;
                    let parse = |part: &str| {
                        u32::try_from(parse_u64(part)?)
                            .map_err(|_| CliError::Usage(format!("`{part}` is out of range")))
                    };
                    Ok::<_, CliError>((parse(worker)?, parse(request)?))
                })
                .transpose()?;
            Ok(CampaignAction::Mapreduce {
                dir,
                spec: campaign::mapreduce::GridSpec {
                    scenarios,
                    seed,
                    profile,
                    max_retries,
                },
                processes,
                transport,
                worker_bin: flag_value(rest, "--worker-bin").map(str::to_string),
                inject_kill,
                history: flag_value(rest, "--history").map(str::to_string),
                metrics: flag_value(rest, "--metrics").map(str::to_string),
            })
        }
        "worker" => {
            reject_unknown_flags(rest, &["--inject-kill"], "campaign worker")?;
            let inject_kill = flag_value(rest, "--inject-kill")
                .map(|n| {
                    u32::try_from(parse_u64(n)?)
                        .map_err(|_| CliError::Usage(format!("`{n}` is out of range")))
                })
                .transpose()?;
            Ok(CampaignAction::Worker { inject_kill })
        }
        "dlq" => {
            let Some(op) = rest.first() else {
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
            let rest = &rest[1..];
            reject_unknown_flags(rest, &["--dir", "--job"], "campaign dlq")?;
            let job = flag_value(rest, "--job").map(str::to_string);
            if op == DlqOp::Inspect && job.is_none() {
                return Err(CliError::Usage(
                    "`dramdig campaign dlq inspect` requires --job <id>".into(),
                ));
            }
            Ok(CampaignAction::Dlq {
                dir: required(rest, "--dir", "campaign dlq")?.to_string(),
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

fn parse_registry(rest: &[String]) -> Result<RegistryAction, CliError> {
    let Some(action) = rest.first() else {
        return Err(CliError::Usage(
            "`dramdig registry` requires import, gen, query or stats".into(),
        ));
    };
    let rest = &rest[1..];
    // Shard count is only honoured when the registry directory is created;
    // reopening keeps the persisted count, so routing never changes under
    // an existing manifest.
    let shards = |rest: &[String]| -> Result<u32, CliError> {
        match flag_value(rest, "--shards") {
            Some(s) => {
                let shards = parse_u64(s)?;
                if !(1..=99).contains(&shards) {
                    return Err(CliError::Usage("--shards must be between 1 and 99".into()));
                }
                Ok(shards as u32)
            }
            None => Ok(4),
        }
    };
    match action.as_str() {
        "import" => {
            reject_unknown_flags(
                rest,
                &["--campaign", "--registry", "--shards", "--crash-after"],
                "registry import",
            )?;
            Ok(RegistryAction::Import {
                campaign_dir: required(rest, "--campaign", "registry import")?.to_string(),
                registry_dir: required(rest, "--registry", "registry import")?.to_string(),
                shards: shards(rest)?,
                crash_after: flag_value(rest, "--crash-after")
                    .map(|v| parse_u64(v).map(|v| v as usize))
                    .transpose()?,
            })
        }
        "gen" => {
            reject_unknown_flags(
                rest,
                &["--registry", "--grid", "--count", "--seed", "--shards"],
                "registry gen",
            )?;
            let grid = match flag_value(rest, "--grid") {
                None => None,
                Some(name) => Some(GridKind::from_name(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown --grid `{name}` (expected quick, ci or full)"
                    ))
                })?),
            };
            let count = flag_value(rest, "--count").map(parse_u64).transpose()?;
            match (grid, count) {
                (None, None) => {
                    return Err(CliError::Usage(
                        "`dramdig registry gen` needs --grid or --count".into(),
                    ))
                }
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "--grid and --count are mutually exclusive".into(),
                    ))
                }
                (_, Some(0)) => {
                    return Err(CliError::Usage("--count must be at least 1".into()));
                }
                _ => {}
            }
            Ok(RegistryAction::Gen {
                registry_dir: required(rest, "--registry", "registry gen")?.to_string(),
                grid,
                count,
                seed: match flag_value(rest, "--seed") {
                    Some(s) => parse_u64(s)?,
                    None => 1,
                },
                shards: shards(rest)?,
            })
        }
        "query" => {
            reject_unknown_flags(
                rest,
                &["--registry", "--func", "--fingerprint", "--nearest", "--k"],
                "registry query",
            )?;
            let func = flag_value(rest, "--func").map(str::to_string);
            let fingerprint = flag_value(rest, "--fingerprint").map(str::to_string);
            let nearest = flag_value(rest, "--nearest").map(str::to_string);
            let given = [&func, &fingerprint, &nearest]
                .iter()
                .filter(|v| v.is_some())
                .count();
            if given != 1 {
                return Err(CliError::Usage(
                    "`dramdig registry query` takes exactly one of --func, --fingerprint \
                     or --nearest"
                        .into(),
                ));
            }
            let k = match flag_value(rest, "--k") {
                Some(k) => {
                    let k = parse_u64(k)? as usize;
                    if k == 0 {
                        return Err(CliError::Usage("--k must be at least 1".into()));
                    }
                    k
                }
                None => 3,
            };
            Ok(RegistryAction::Query {
                registry_dir: required(rest, "--registry", "registry query")?.to_string(),
                func,
                fingerprint,
                nearest,
                k,
            })
        }
        "stats" => {
            reject_unknown_flags(rest, &["--registry"], "registry stats")?;
            Ok(RegistryAction::Stats {
                registry_dir: required(rest, "--registry", "registry stats")?.to_string(),
            })
        }
        other => Err(CliError::Usage(format!(
            "unknown registry action `{other}` (expected import, gen, query or stats)"
        ))),
    }
}

impl Command {
    /// Parses a command line (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] describing what is missing or malformed.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let Some(sub) = args.first() else {
            return Err(CliError::Usage("no sub-command given".into()));
        };
        let rest = &args[1..];
        match sub.as_str() {
            "list-machines" => Ok(Command::ListMachines),
            "help" | "--help" | "-h" => Ok(Command::Help),
            "uncover" => {
                // A misspelled stateful flag (`--chekpoint`, `--budjet`)
                // must fail loudly: silently running without checkpoints
                // would lose all work on the next kill.
                reject_unknown_flags_with_bare(
                    rest,
                    &[
                        "--machine",
                        "--seed",
                        "--ablate",
                        "--checkpoint",
                        "--budget",
                        "--observables",
                        "--trace",
                        "--metrics",
                    ],
                    &["--resume"],
                    "uncover",
                )?;
                let machine = parse_machine(rest, "uncover")?;
                let seed = match flag_value(rest, "--seed") {
                    Some(s) => parse_u64(s)?,
                    None => 0xD16,
                };
                let ablate = match flag_value(rest, "--ablate") {
                    None => None,
                    Some("spec") => Some(Ablation::Specifications),
                    Some("sysinfo") => Some(Ablation::SystemInfo),
                    Some("empirical") => Some(Ablation::Empirical),
                    Some(other) => {
                        return Err(CliError::Usage(format!(
                            "unknown --ablate group `{other}` (expected spec, sysinfo or empirical)"
                        )))
                    }
                };
                let checkpoint = flag_value(rest, "--checkpoint").map(str::to_string);
                let resume = rest.iter().any(|a| a == "--resume");
                if resume && checkpoint.is_none() {
                    return Err(CliError::Usage(
                        "`--resume` requires `--checkpoint <dir>` naming the run to continue"
                            .into(),
                    ));
                }
                let budget = match flag_value(rest, "--budget") {
                    None => None,
                    Some(b) => {
                        let cap = parse_u64(b)?;
                        // Caught at parse time: a zero budget can only ever
                        // interrupt before calibration, which reads as a
                        // confusing mid-run failure instead of a bad flag.
                        if cap == 0 {
                            return Err(CliError::Usage(
                                "--budget must be at least 1 pair measurement \
                                 (a budget of 0 cannot run any phase)"
                                    .into(),
                            ));
                        }
                        Some(cap)
                    }
                };
                Ok(Command::Uncover {
                    machine,
                    seed,
                    ablate,
                    checkpoint,
                    resume,
                    budget,
                    observables: parse_observables(rest)?,
                    trace: flag_value(rest, "--trace").map(str::to_string),
                    metrics: flag_value(rest, "--metrics").map(str::to_string),
                })
            }
            "compare" => {
                reject_unknown_flags(rest, &["--machine"], "compare")?;
                Ok(Command::Compare {
                    machine: parse_machine(rest, "compare")?,
                })
            }
            "hammer" => {
                reject_unknown_flags(rest, &["--machine", "--tool", "--tests"], "hammer")?;
                let machine = parse_machine(rest, "hammer")?;
                let tool = match flag_value(rest, "--tool") {
                    None | Some("dramdig") => HammerTool::DramDig,
                    Some("drama") => HammerTool::Drama,
                    Some("truth") => HammerTool::Truth,
                    Some(other) => {
                        return Err(CliError::Usage(format!(
                            "unknown --tool `{other}` (expected dramdig, drama or truth)"
                        )))
                    }
                };
                let tests = match flag_value(rest, "--tests") {
                    Some(t) => u32::try_from(parse_u64(t)?).map_err(|_| {
                        CliError::Usage(format!("--tests `{t}` does not fit 32 bits"))
                    })?,
                    None => 1,
                };
                Ok(Command::Hammer {
                    machine,
                    tool,
                    tests,
                })
            }
            "decode" => {
                reject_unknown_flags(rest, &["--machine", "--addr"], "decode")?;
                Ok(Command::Decode {
                    machine: parse_machine(rest, "decode")?,
                    addr: parse_u64(required(rest, "--addr", "decode")?)?,
                })
            }
            "validate" => {
                reject_unknown_flags(rest, &["--funcs", "--rows", "--cols"], "validate")?;
                Ok(Command::Validate {
                    funcs: required(rest, "--funcs", "validate")?.to_string(),
                    rows: required(rest, "--rows", "validate")?.to_string(),
                    cols: required(rest, "--cols", "validate")?.to_string(),
                })
            }
            "eval" => {
                reject_unknown_flags(
                    rest,
                    &[
                        "--grid",
                        "--seed",
                        "--workers",
                        "--out",
                        "--history",
                        "--observables",
                        "--trace",
                        "--metrics",
                    ],
                    "eval",
                )?;
                let grid_name = required(rest, "--grid", "eval")?;
                let grid = GridKind::from_name(grid_name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown --grid `{grid_name}` (expected quick, ci or full)"
                    ))
                })?;
                let seed = match flag_value(rest, "--seed") {
                    Some(s) => parse_u64(s)?,
                    None => 1,
                };
                let workers = match flag_value(rest, "--workers") {
                    Some(w) => {
                        let workers = parse_u64(w)? as usize;
                        if workers == 0 {
                            return Err(CliError::Usage("--workers must be at least 1".into()));
                        }
                        workers
                    }
                    None => 4,
                };
                Ok(Command::Eval {
                    grid,
                    seed,
                    workers,
                    out: flag_value(rest, "--out").map(str::to_string),
                    history: flag_value(rest, "--history").map(str::to_string),
                    observables: parse_observables(rest)?,
                    trace: flag_value(rest, "--trace").map(str::to_string),
                    metrics: flag_value(rest, "--metrics").map(str::to_string),
                })
            }
            "campaign" => parse_campaign(rest).map(Command::Campaign),
            "registry" => parse_registry(rest).map(Command::Registry),
            "serve" => {
                reject_unknown_flags(rest, &["--registry", "--input", "--metrics"], "serve")?;
                Ok(Command::Serve {
                    registry: required(rest, "--registry", "serve")?.to_string(),
                    input: flag_value(rest, "--input").map(str::to_string),
                    metrics: flag_value(rest, "--metrics").map(str::to_string),
                })
            }
            other => Err(CliError::Usage(format!("unknown sub-command `{other}`"))),
        }
    }
}

fn setting_for(machine: u8) -> Result<MachineSetting, CliError> {
    MachineSetting::by_number(machine).ok_or(CliError::UnknownMachine(machine))
}

/// Live progress line for `uncover`, fed by the engine's [`Observer`]
/// events. Everything goes to stderr so stdout stays a clean report that
/// scripts (and the CI kill/resume smoke) can compare byte-for-byte.
struct ProgressLine;

impl Observer for ProgressLine {
    fn on_event(&mut self, event: &EngineEvent) {
        match event {
            EngineEvent::RunStarted { phases, resumed } if *resumed > 0 => {
                eprintln!(
                    "[dramdig] resuming: {resumed}/{phases} phases restored from checkpoints"
                );
            }
            EngineEvent::PhaseStarted { phase } => eprintln!("[dramdig] {phase} ..."),
            EngineEvent::PhaseCompleted {
                phase,
                costs,
                checkpointed,
            } => eprintln!(
                "[dramdig] {phase}: {} measurements, {:.3} s{}",
                costs.measurements,
                costs.elapsed_seconds(),
                if *checkpointed { " [checkpointed]" } else { "" }
            ),
            EngineEvent::PhaseRestored { phase, costs } => eprintln!(
                "[dramdig] {phase}: restored ({} measurements already paid)",
                costs.measurements
            ),
            EngineEvent::BudgetPressure {
                spent_measurements,
                max_measurements,
                ..
            } => eprintln!(
                "[dramdig] budget pressure: {spent_measurements}/{max_measurements} measurements"
            ),
            EngineEvent::ObservableQueried { kind, cost } => eprintln!(
                "[dramdig] observable {}: {} timing + {} hammer pairs, {:.3} s",
                kind.as_str(),
                cost.timing_pairs,
                cost.hammer_pairs,
                cost.elapsed_ns as f64 / 1e9,
            ),
            // Per-batch oracle events are opt-in debugging detail
            // (`EngineOptions::fine_events`); a line per batch would drown
            // the per-phase progress.
            EngineEvent::OracleBatch { .. } => {}
            EngineEvent::Interrupted { phase, reason } => {
                eprintln!("[dramdig] interrupted before {phase}: {reason}");
            }
            EngineEvent::RunCompleted { total } => eprintln!(
                "[dramdig] done: {} measurements, {:.3} s simulated",
                total.measurements,
                total.elapsed_seconds()
            ),
            EngineEvent::RunStarted { .. } => {}
        }
    }
}

/// Writes a run's recorded telemetry to the `--trace` / `--metrics` paths.
/// A no-op when neither flag was given (`telemetry` is `None`).
fn write_telemetry(
    telemetry: Option<TelemetryObserver>,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> Result<(), CliError> {
    let Some(observer) = telemetry else {
        return Ok(());
    };
    let (tracer, registry) = observer.into_parts();
    write_trace_files(&tracer, &registry, trace, metrics)
}

/// Writes a tracer's Chrome trace and a registry's snapshot to optional
/// paths. Both exports are byte-deterministic (simulated clock only).
fn write_trace_files(
    tracer: &telemetry::Tracer,
    registry: &telemetry::Registry,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> Result<(), CliError> {
    if let Some(path) = trace {
        std::fs::write(path, tracer.chrome_trace())
            .map_err(|e| CliError::Tool(format!("cannot write trace to {path}: {e}")))?;
    }
    if let Some(path) = metrics {
        std::fs::write(path, registry.snapshot())
            .map_err(|e| CliError::Tool(format!("cannot write metrics to {path}: {e}")))?;
    }
    Ok(())
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

/// What `uncover --checkpoint` remembers about the run besides the pipeline
/// configuration: enough to refuse a `--resume` against the wrong machine
/// or ablation.
fn uncover_meta(machine: u8, ablate: Option<Ablation>) -> String {
    let ablate = match ablate {
        None => "none",
        Some(Ablation::Specifications) => "spec",
        Some(Ablation::SystemInfo) => "sysinfo",
        Some(Ablation::Empirical) => "empirical",
    };
    format!("machine = {machine}\nablate = {ablate}\n")
}

fn probe_for(setting: &MachineSetting, seed: u64) -> SimProbe {
    let machine = SimMachine::from_setting(setting, SimConfig::default().with_seed(seed));
    SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes))
}

/// Executes a parsed command and returns its textual report.
///
/// # Errors
///
/// Returns [`CliError`] when the machine number is unknown or a library call
/// fails.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage()),
        Command::ListMachines => {
            let mut out = String::new();
            writeln!(out, "Table II machine settings:").expect("write to string");
            for setting in MachineSetting::all() {
                writeln!(out, "  {setting}").expect("write to string");
            }
            Ok(out)
        }
        Command::Uncover {
            machine,
            seed,
            ablate,
            checkpoint,
            resume,
            budget,
            observables,
            trace,
            metrics,
        } => {
            let setting = setting_for(*machine)?;
            let mut config = DramDigConfig::default().with_seed(*seed);
            let meta = uncover_meta(*machine, *ablate);
            if let Some(dir) = checkpoint {
                let store = CheckpointStore::new(dir);
                let meta_path = store.dir().join("uncover.meta");
                match std::fs::read_to_string(&meta_path) {
                    Ok(stored_meta) => {
                        if stored_meta != meta {
                            return Err(CliError::Tool(format!(
                                "{dir} holds a checkpoint for a different run \
                                 (recorded: {}; requested: {})",
                                stored_meta.replace('\n', " "),
                                meta.replace('\n', " "),
                            )));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        if *resume {
                            return Err(CliError::Tool(format!(
                                "{dir} holds no checkpoint to resume; run without --resume first"
                            )));
                        }
                        store.save_sidecar("uncover.meta", &meta).map_err(|e| {
                            CliError::Tool(format!("cannot prepare checkpoint dir {dir}: {e}"))
                        })?;
                    }
                    Err(e) => {
                        return Err(CliError::Tool(format!(
                            "cannot read {}: {e}",
                            meta_path.display()
                        )))
                    }
                }
                if *resume {
                    // Continue exactly the recorded run: its configuration
                    // (seed included) governs both the tool and the
                    // simulated machine.
                    config = store
                        .load_config()
                        .map_err(|e| CliError::Tool(e.to_string()))?
                        .ok_or_else(|| {
                            CliError::Tool(format!(
                                "{dir} holds no recorded configuration to resume"
                            ))
                        })?;
                }
            }
            let mut knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch))
                .with_observables(observables.clone());
            knowledge = match ablate {
                Some(Ablation::Specifications) => knowledge.without_specifications(),
                Some(Ablation::SystemInfo) => knowledge.without_system_info(),
                Some(Ablation::Empirical) => knowledge.without_empirical(),
                None => knowledge,
            };
            let mut options = EngineOptions::default();
            if let Some(dir) = checkpoint {
                options = options.with_checkpoint(dir);
            }
            if let Some(cap) = budget {
                options = options.with_budget(Budget::measurements(*cap));
            }
            let telemetry_on = trace.is_some() || metrics.is_some();
            if telemetry_on {
                // Per-batch oracle events only exist when someone records
                // them; they cost nothing otherwise.
                options = options.with_fine_events(true);
            }
            let mut probe = probe_for(&setting, config.rng_seed);
            let hammer_seed = config.rng_seed ^ 0xF11A;
            let engine = PipelineEngine::new(knowledge, config);
            let mut progress = ProgressLine;
            let mut telemetry = telemetry_on.then(TelemetryObserver::new);
            // Tee the event stream: the progress line narrates to stderr
            // while the telemetry observer (when requested) records spans.
            let mut observer = |event: &EngineEvent| {
                progress.on_event(event);
                if let Some(recorder) = telemetry.as_mut() {
                    recorder.on_event(event);
                }
            };
            let run_result = if observables.contains(&ObservableKind::FlipAdjacency) {
                // The flip channel hammers its own simulated module (the
                // hammer-friendly noise profile, seeded from the run), so
                // the timing probe's measurement stream stays untouched.
                let mut flip = FlipAdjacencyObservable::new(
                    SimMachine::from_setting(
                        &setting,
                        SimConfig::fast_rowhammer().with_seed(hammer_seed),
                    ),
                    FlipAdjacencyConfig::default(),
                );
                engine.run_with_observables(&mut probe, &options, &mut observer, &mut [&mut flip])
            } else {
                engine.run(&mut probe, &options, &mut observer)
            };
            // Written before the result is inspected: an interrupted run's
            // trace (a byte-prefix of the full run's) is evidence too.
            write_telemetry(telemetry, trace.as_deref(), metrics.as_deref())?;
            let report = match run_result {
                Ok(report) => report,
                Err(DramDigError::Interrupted { phase, reason }) if checkpoint.is_some() => {
                    let dir = checkpoint.as_deref().unwrap_or_default();
                    // The suggested command must reproduce this run exactly,
                    // ablation included, or the uncover.meta guard refuses it.
                    let ablate_flag = match ablate {
                        None => String::new(),
                        Some(Ablation::Specifications) => " --ablate spec".into(),
                        Some(Ablation::SystemInfo) => " --ablate sysinfo".into(),
                        Some(Ablation::Empirical) => " --ablate empirical".into(),
                    };
                    let mut out = String::new();
                    writeln!(out, "machine        : {setting}").expect("write to string");
                    writeln!(out, "interrupted before {phase}: {reason}").expect("write");
                    writeln!(
                        out,
                        "checkpoints saved in {dir}; continue with:\n  dramdig uncover --machine {machine}{ablate_flag} --checkpoint {dir} --resume"
                    )
                    .expect("write to string");
                    return Ok(out);
                }
                Err(e) => return Err(CliError::Tool(e.to_string())),
            };
            let mut out = String::new();
            writeln!(out, "machine        : {setting}").expect("write to string");
            writeln!(out, "{report}").expect("write to string");
            writeln!(
                out,
                "ground truth   : {} (recovered mapping {})",
                setting.mapping(),
                if report.mapping.equivalent_to(setting.mapping()) {
                    "matches"
                } else {
                    "DOES NOT match"
                }
            )
            .expect("write to string");
            Ok(out)
        }
        Command::Compare { machine } => {
            let setting = setting_for(*machine)?;
            let mut out = String::new();
            writeln!(out, "comparing tools on {setting}").expect("write to string");

            let mut probe = probe_for(&setting, 1);
            let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
            match DramDig::new(knowledge, DramDigConfig::default()).run(&mut probe) {
                Ok(r) => writeln!(
                    out,
                    "  DRAMDig    : correct={} measurements={} time={:.1}s",
                    r.mapping.equivalent_to(setting.mapping()),
                    r.total.measurements,
                    r.elapsed_seconds()
                )
                .expect("write to string"),
                Err(e) => writeln!(out, "  DRAMDig    : failed ({e})").expect("write to string"),
            }

            let mut probe = probe_for(&setting, 1);
            match Drama::new(DramaConfig::fast()).run(&mut probe, setting.system.address_bits()) {
                Ok(o) => writeln!(
                    out,
                    "  DRAMA      : bank-partition-correct={} full-mapping={} measurements={} time={:.1}s",
                    o.bank_partition_matches(setting.mapping()),
                    o.mapping.is_some(),
                    o.measurements,
                    o.elapsed_seconds()
                )
                .expect("write to string"),
                Err(e) => writeln!(out, "  DRAMA      : failed ({e})").expect("write to string"),
            }

            let mut probe = probe_for(&setting, 1);
            match Xiao::with_defaults().run(&mut probe, &setting.system) {
                Ok(o) => writeln!(
                    out,
                    "  Xiao et al.: correct={} measurements={} time={:.1}s",
                    o.matches(setting.mapping()),
                    o.measurements,
                    o.elapsed_seconds()
                )
                .expect("write to string"),
                Err(BaselineError::Stuck { reason, .. }) => {
                    writeln!(out, "  Xiao et al.: stuck ({reason})").expect("write to string")
                }
                Err(e) => {
                    writeln!(out, "  Xiao et al.: not applicable ({e})").expect("write to string")
                }
            }
            Ok(out)
        }
        Command::Hammer {
            machine,
            tool,
            tests,
        } => {
            let setting = setting_for(*machine)?;
            let view = match tool {
                HammerTool::Truth => AttackerView::from_mapping(setting.mapping()),
                HammerTool::DramDig => {
                    let mut probe = probe_for(&setting, 2);
                    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
                    let report = DramDig::new(knowledge, DramDigConfig::default())
                        .run(&mut probe)
                        .map_err(|e| CliError::Tool(e.to_string()))?;
                    AttackerView::from_mapping(&report.mapping)
                }
                HammerTool::Drama => {
                    let mut probe = probe_for(&setting, 2);
                    let outcome = Drama::new(DramaConfig::fast())
                        .run(&mut probe, setting.system.address_bits())
                        .map_err(|e| CliError::Tool(e.to_string()))?;
                    AttackerView::new(outcome.functions, outcome.row_bits)
                }
            };
            let mut out = String::new();
            writeln!(
                out,
                "double-sided rowhammer on {} with the {:?} mapping:",
                setting.label(),
                tool
            )
            .expect("write to string");
            let mut total = 0usize;
            for test in 0..*tests {
                let mut sim = SimMachine::from_setting(
                    &setting,
                    SimConfig::fast_rowhammer().with_seed(0xCC + u64::from(test)),
                );
                let cfg = HammerConfig::timed(300 * 2_000_000, u64::from(test));
                let result = run_double_sided(&mut sim, &view, &cfg);
                total += result.flips;
                writeln!(
                    out,
                    "  test {:>2}: {:>5} flips ({} pairs, {:.0}% truly adjacent)",
                    test + 1,
                    result.flips,
                    result.pairs_attempted,
                    result.adjacency_rate() * 100.0
                )
                .expect("write to string");
            }
            writeln!(out, "  total  : {total} flips over {tests} tests").expect("write to string");
            Ok(out)
        }
        Command::Decode { machine, addr } => {
            let setting = setting_for(*machine)?;
            let mapping = setting.mapping();
            let capacity = mapping.capacity_bytes();
            if *addr >= capacity {
                return Err(CliError::Tool(format!(
                    "address {addr:#x} is beyond the {capacity:#x}-byte module"
                )));
            }
            let dram = mapping.to_dram(PhysAddr::new(*addr));
            let back = mapping
                .to_phys(dram)
                .map_err(|e| CliError::Tool(e.to_string()))?;
            Ok(format!(
                "machine {}: {:#x} -> {dram} (round-trips to {back})\n",
                setting.label(),
                addr
            ))
        }
        Command::Eval {
            grid,
            seed,
            workers,
            out,
            history,
            observables,
            trace,
            metrics,
        } => {
            let expanded = EvalGrid::new(*grid, *seed);
            let mut pool_metrics = telemetry::Registry::new();
            let outcome = if metrics.is_some() {
                run_grid_metered(&expanded, *workers, observables, &mut pool_metrics)
            } else {
                run_grid_with_observables(&expanded, *workers, observables)
            };
            let scoreboard = outcome.render_scoreboard();
            // The artifacts are written even when the gate fails below — a
            // failing CI run must still upload the evidence.
            if let Some(path) = out {
                std::fs::write(path, &scoreboard).map_err(|e| {
                    CliError::Tool(format!("cannot write scoreboard to {path}: {e}"))
                })?;
            }
            if trace.is_some() || metrics.is_some() {
                let tracer = outcome_tracer(&outcome);
                let mut registry = outcome_metrics(&outcome);
                registry.merge(&pool_metrics);
                write_trace_files(&tracer, &registry, trace.as_deref(), metrics.as_deref())?;
            }
            // Simulated time, not wall time: the line is a pure function of
            // the outcome, so same-seed runs print identical bytes.
            eprintln!("{}", summary_line(&outcome));
            let gate = outcome.gate();
            if !gate.passed() {
                return Err(CliError::Tool(format!(
                    "scenario-matrix gate FAILED:\n  {}",
                    gate.failures.join("\n  ")
                )));
            }
            // Only passing boards enter the longitudinal history; a key
            // recorded before must reproduce its line byte-for-byte or the
            // run fails as a scoreboard regression.
            if let Some(path) = history {
                let existing = match std::fs::read_to_string(path) {
                    Ok(contents) => contents,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                    Err(e) => {
                        return Err(CliError::Tool(format!("cannot read history {path}: {e}")))
                    }
                };
                let line = dramdig_bench::eval::history_line(&outcome);
                match dramdig_bench::eval::append_history(&existing, &line) {
                    Ok(Some(updated)) => {
                        std::fs::write(path, updated).map_err(|e| {
                            CliError::Tool(format!("cannot write history {path}: {e}"))
                        })?;
                        eprintln!("[dramdig] history: recorded new run in {path}");
                    }
                    Ok(None) => {
                        eprintln!("[dramdig] history: run already recorded in {path}, unchanged");
                    }
                    Err(drift) => {
                        return Err(CliError::Tool(format!("scoreboard {drift}")));
                    }
                }
            }
            Ok(scoreboard)
        }
        Command::Campaign(action) => execute_campaign(action),
        Command::Registry(action) => execute_registry(action),
        Command::Serve {
            registry,
            input,
            metrics,
        } => execute_serve(registry, input.as_deref(), metrics.as_deref()),
        Command::Validate { funcs, rows, cols } => match parse::parse_mapping(funcs, rows, cols) {
            Ok(mapping) => Ok(format!(
                "valid mapping: {mapping}\n  banks: {}, rows per bank: {}, row size: {} bytes\n",
                mapping.num_banks(),
                mapping.num_rows(),
                mapping.row_size_bytes()
            )),
            Err(e) => Err(CliError::Tool(format!("invalid mapping: {e}"))),
        },
    }
}

fn read_campaign_spec(paths: &CampaignPaths) -> Result<CampaignSpec, CliError> {
    let text = std::fs::read_to_string(paths.spec()).map_err(|e| {
        CliError::Tool(format!(
            "cannot read {} ({e}); was this campaign started with `campaign run`?",
            paths.spec().display()
        ))
    })?;
    CampaignSpec::decode(&text).map_err(|e| CliError::Tool(format!("corrupt campaign spec: {e}")))
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
    let outcome = run_campaign_with_metrics(
        spec,
        &paths,
        &options,
        metrics.is_some().then_some(&mut pool_metrics),
        campaign::run_job_sim_checkpointed,
    )
    .map_err(|e| CliError::Tool(e.to_string()))?;
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
    writeln!(
        out,
        "store: {} distinct mappings ({})",
        outcome.store.len(),
        paths.store().display()
    )
    .expect("write to string");
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

fn execute_campaign(action: &CampaignAction) -> Result<String, CliError> {
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
            if paths.spec().exists() {
                let existing = read_campaign_spec(&paths)?;
                if &existing != spec {
                    return Err(CliError::Tool(format!(
                        "{} already holds a different campaign; resume it or pick a new --dir",
                        dir
                    )));
                }
            } else {
                std::fs::create_dir_all(paths.dir())
                    .and_then(|()| std::fs::write(paths.spec(), spec.encode()))
                    .map_err(|e| {
                        CliError::Tool(format!("cannot persist campaign spec in {dir}: {e}"))
                    })?;
            }
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
            let paths = CampaignPaths::new(dir);
            // A mapreduce grid directory holds `grid.spec` instead of
            // `campaign.spec`; both summarize into the same status.
            let status = if paths.grid_spec().exists() {
                campaign::mapreduce::grid_status(&read_grid_spec(&paths)?, &paths)
            } else {
                campaign_status(&read_campaign_spec(&paths)?, &paths)
            }
            .map_err(|e| CliError::Tool(e.to_string()))?;
            let mut out = String::new();
            writeln!(
                out,
                "campaign {dir}: {}/{} completed, {} dead, {} pending, {} distinct mappings",
                status.completed,
                status.total_jobs,
                status.dead.len(),
                status.pending.len(),
                status.distinct_mappings,
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
            let funcs = parse::parse_functions(func)
                .map_err(|e| CliError::Tool(format!("invalid --func: {e}")))?;
            let [func] = funcs.as_slice() else {
                return Err(CliError::Tool(
                    "--func expects exactly one bank function, e.g. \"(13, 16)\"".into(),
                ));
            };
            let store = load_campaign_store(&paths)?;
            let mut out = String::new();
            let entries = store.entries_sharing(*func);
            writeln!(
                out,
                "bank function {func} appears in {} of {} stored mappings",
                entries.len(),
                store.len(),
            )
            .expect("write to string");
            // One span scan: the machine set falls out of the matching
            // entries (what MappingStore::machines_sharing would recompute).
            let machines: std::collections::BTreeSet<&str> =
                entries.iter().flat_map(|entry| entry.machines()).collect();
            for entry in &entries {
                let sources: Vec<String> = entry.sources.iter().map(|s| s.to_string()).collect();
                writeln!(out, "  {}", entry.mapping).expect("write to string");
                writeln!(out, "    recovered by {}", sources.join(", ")).expect("write to string");
            }
            if machines.is_empty() {
                writeln!(out, "no machine shares it").expect("write to string");
            } else {
                let machines: Vec<&str> = machines.into_iter().collect();
                writeln!(out, "machines sharing it: {}", machines.join(", "))
                    .expect("write to string");
            }
            Ok(out)
        }
        CampaignAction::Mapreduce {
            dir,
            spec,
            processes,
            transport,
            worker_bin,
            inject_kill,
            history,
            metrics,
        } => execute_mapreduce(
            dir,
            spec,
            *processes,
            *transport,
            worker_bin.as_deref(),
            *inject_kill,
            history.as_deref(),
            metrics.as_deref(),
        ),
        CampaignAction::Worker { inject_kill } => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            campaign::mapreduce::run_worker(stdin.lock(), stdout.lock(), *inject_kill)
                .map_err(CliError::Tool)?;
            Ok(String::new())
        }
        CampaignAction::Dlq { dir, op, job } => execute_dlq(dir, *op, job.as_deref()),
    }
}

/// Reads the grid spec persisted in a mapreduce campaign directory.
fn read_grid_spec(paths: &CampaignPaths) -> Result<campaign::mapreduce::GridSpec, CliError> {
    let path = paths.grid_spec();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        CliError::Tool(format!(
            "cannot read {} ({e}); was this grid started with `campaign mapreduce`?",
            path.display()
        ))
    })?;
    campaign::mapreduce::GridSpec::decode(&text)
        .map_err(|e| CliError::Tool(format!("corrupt grid spec: {e}")))
}

#[allow(clippy::too_many_arguments)]
fn execute_mapreduce(
    dir: &str,
    spec: &campaign::mapreduce::GridSpec,
    processes: usize,
    transport: MapTransport,
    worker_bin: Option<&str>,
    inject_kill: Option<(u32, u32)>,
    history: Option<&str>,
    metrics: Option<&str>,
) -> Result<String, CliError> {
    use campaign::mapreduce::{ProcessTransport, SimTransport, WorkerTransport};

    let paths = CampaignPaths::new(dir);
    let spec_path = paths.grid_spec();
    if spec_path.exists() {
        let existing = read_grid_spec(&paths)?;
        if &existing != spec {
            return Err(CliError::Tool(format!(
                "{dir} already holds a different grid; resume it or pick a new --dir"
            )));
        }
    } else {
        std::fs::create_dir_all(paths.dir())
            .and_then(|()| std::fs::write(&spec_path, spec.encode()))
            .map_err(|e| CliError::Tool(format!("cannot persist grid spec in {dir}: {e}")))?;
    }

    let transports: Vec<Box<dyn WorkerTransport>> = match transport {
        MapTransport::Sim => (0..processes)
            .map(|i| {
                let sim = match inject_kill {
                    Some((worker, request)) if worker as usize == i => {
                        SimTransport::killed_at(request)
                    }
                    _ => SimTransport::new(),
                };
                Box::new(sim) as Box<dyn WorkerTransport>
            })
            .collect(),
        MapTransport::Process => {
            let bin = match worker_bin {
                Some(path) => std::path::PathBuf::from(path),
                None => std::env::current_exe()
                    .map_err(|e| CliError::Tool(format!("cannot locate own binary: {e}")))?,
            };
            (0..processes)
                .map(|i| {
                    let extra = match inject_kill {
                        Some((worker, request)) if worker as usize == i => {
                            vec!["--inject-kill".to_string(), request.to_string()]
                        }
                        _ => Vec::new(),
                    };
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
    .map_err(|e| CliError::Tool(e.to_string()))?;
    if metrics.is_some() {
        write_trace_files(&telemetry::Tracer::new(), &pool_metrics, None, metrics)?;
    }

    if let Some(path) = history {
        let existing = match std::fs::read_to_string(path) {
            Ok(contents) => contents,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(CliError::Tool(format!("cannot read history {path}: {e}"))),
        };
        let line = campaign::mapreduce::grid_history_line(spec, &outcome);
        match dramdig_bench::eval::append_history(&existing, &line) {
            Ok(Some(updated)) => {
                std::fs::write(path, updated)
                    .map_err(|e| CliError::Tool(format!("cannot write history {path}: {e}")))?;
                eprintln!("[dramdig] history: recorded new grid in {path}");
            }
            Ok(None) => {
                eprintln!("[dramdig] history: grid already recorded in {path}, unchanged");
            }
            Err(drift) => return Err(CliError::Tool(format!("scoreboard {drift}"))),
        }
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
    writeln!(
        out,
        "store: {} distinct mappings ({})",
        outcome.store.len(),
        paths.store().display()
    )
    .expect("write to string");
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

fn execute_dlq(dir: &str, op: DlqOp, job: Option<&str>) -> Result<String, CliError> {
    let paths = CampaignPaths::new(dir);
    let records =
        campaign::read_merged_journal(&paths).map_err(|e| CliError::Tool(e.to_string()))?;
    let state = campaign::JournalState::replay(&records);
    let letters = campaign::dead_letters(&state);
    match op {
        DlqOp::List => {
            let mut out = String::new();
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
            Ok(out)
        }
        DlqOp::Inspect => {
            let id = job.expect("parser enforces --job for inspect");
            let letter = letters.iter().find(|l| l.job == id).ok_or_else(|| {
                CliError::Tool(format!(
                    "job `{id}` is not dead-lettered (see `campaign dlq list`)"
                ))
            })?;
            let mut out = String::new();
            writeln!(out, "job: {}", letter.job).expect("write to string");
            writeln!(out, "attempts: {}", letter.attempts).expect("write to string");
            writeln!(
                out,
                "next retry attempt: {}",
                state.next_attempt(&letter.job)
            )
            .expect("write to string");
            writeln!(out, "reason:\n{}", letter.reason).expect("write to string");
            Ok(out)
        }
        DlqOp::Retry | DlqOp::Reprocess => {
            let mode = match op {
                DlqOp::Retry => campaign::RequeueMode::Retry,
                _ => campaign::RequeueMode::Reprocess,
            };
            // Requeue records must land *after* the dead records they revive:
            // fold any worker journal shards into the top-level journal first.
            campaign::compact_journals(&paths).map_err(|e| CliError::Tool(e.to_string()))?;
            let requeued = campaign::requeue(&paths.journal(), &state, mode, job)
                .map_err(|e| CliError::Tool(e.to_string()))?;
            // dlq.txt mirrors the journal: rewrite it from the post-requeue state.
            let records = campaign::read_journal(&paths.journal())
                .map_err(|e| CliError::Tool(e.to_string()))?;
            campaign::write_dlq(&paths.dlq(), &campaign::JournalState::replay(&records))
                .map_err(|e| CliError::Tool(e.to_string()))?;
            let mut out = String::new();
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
            Ok(out)
        }
    }
}

/// Rebuilds a campaign's mapping store from its merged journal — the
/// durable record of truth, exactly what `campaign status` counts — so a
/// kill between a journaled completion and the store rewrite never makes
/// the commands disagree. Only when the journal cannot be replayed does a
/// persisted `store.txt` answer instead.
fn load_campaign_store(paths: &CampaignPaths) -> Result<MappingStore, CliError> {
    let rebuilt = campaign::read_merged_journal(paths)
        .map_err(|e| CliError::Tool(e.to_string()))
        .and_then(|records| {
            let state = campaign::JournalState::replay(&records);
            if paths.grid_spec().exists() {
                Ok(campaign::mapreduce::grid_store_from_state(&state))
            } else {
                Ok(campaign::store_from_state(
                    &state,
                    &read_campaign_spec(paths)?,
                ))
            }
        });
    match rebuilt {
        Ok(store) => Ok(store),
        Err(journal_error) => std::fs::read_to_string(paths.store())
            .ok()
            .and_then(|text| MappingStore::decode(&text).ok())
            .ok_or(journal_error),
    }
}

/// Opens (or creates, with `shards`) a registry directory and appends the
/// not-yet-present `(mapping, source)` attributions from `records`,
/// optionally crashing mid-append for the CI recovery smoke. Returns the
/// shared report text both `registry import` and `registry gen` print.
fn append_to_registry(
    registry_dir: &str,
    shards: u32,
    records: Vec<registry::Record>,
    crash_after: Option<usize>,
    corpus: &str,
) -> Result<String, CliError> {
    let mut disk = registry::DiskRegistry::open_or_create(registry_dir, shards)
        .map_err(|e| CliError::Tool(format!("cannot open registry {registry_dir}: {e}")))?;
    let existing = disk.load().map_err(|e| CliError::Tool(e.to_string()))?;
    let offered = records.len();
    // Skip attributions the registry already holds so a retried import
    // appends nothing instead of duplicate records.
    let fresh: Vec<registry::Record> = records
        .into_iter()
        .filter(|r| {
            existing
                .lookup(r.fingerprint)
                .is_none_or(|entry| !entry.sources.contains(&r.source))
        })
        .collect();
    let report = disk
        .append_with_fault(&fresh, crash_after)
        .map_err(|e| CliError::Tool(format!("append to {registry_dir} failed: {e}")))?;
    let mem = disk.load().map_err(|e| CliError::Tool(e.to_string()))?;
    let stats = disk.stats().map_err(|e| CliError::Tool(e.to_string()))?;
    let mut out = String::new();
    writeln!(
        out,
        "appended {} of {} {corpus} records to {registry_dir} ({} already present)",
        report.records_appended,
        offered,
        offered - fresh.len(),
    )
    .expect("write to string");
    writeln!(
        out,
        "registry now: {} entries, {} records in {} segments across {} shards",
        mem.len(),
        stats.records,
        stats.segments,
        stats.shards,
    )
    .expect("write to string");
    Ok(out)
}

fn execute_registry(action: &RegistryAction) -> Result<String, CliError> {
    match action {
        RegistryAction::Import {
            campaign_dir,
            registry_dir,
            shards,
            crash_after,
        } => {
            let store = load_campaign_store(&CampaignPaths::new(campaign_dir))?;
            append_to_registry(
                registry_dir,
                *shards,
                store.records(),
                *crash_after,
                "campaign",
            )
        }
        RegistryAction::Gen {
            registry_dir,
            grid,
            count,
            seed,
            shards,
        } => {
            let records: Vec<registry::Record> = match (grid, count) {
                (Some(grid), None) => EvalGrid::new(*grid, *seed)
                    .scenarios
                    .iter()
                    .map(|scenario| {
                        registry::Record::new(
                            scenario.machine.mapping(),
                            registry::Source::new(
                                scenario.machine.label.clone(),
                                format!("gen-{}", scenario.id()),
                            ),
                        )
                    })
                    .collect(),
                (None, Some(count)) => (0..*count)
                    .map(|i| {
                        let machine = dram_model::MachineGen::new(seed.wrapping_add(i))
                            .generate(dram_model::MachineClass::InScope);
                        registry::Record::new(
                            machine.mapping(),
                            registry::Source::new(machine.label.clone(), "gen-inscope"),
                        )
                    })
                    .collect(),
                // Parsing enforces exactly one corpus source.
                _ => unreachable!("parse_registry enforces --grid xor --count"),
            };
            append_to_registry(registry_dir, *shards, records, None, "generated")
        }
        RegistryAction::Query {
            registry_dir,
            func,
            fingerprint,
            nearest,
            k,
        } => {
            let shared = registry::SharedRegistry::open(registry_dir)
                .map_err(|e| CliError::Tool(format!("cannot open registry {registry_dir}: {e}")))?;
            let snapshot = shared.snapshot();
            let mut out = String::new();
            if let Some(func) = func {
                let funcs = parse::parse_functions(func)
                    .map_err(|e| CliError::Tool(format!("invalid --func: {e}")))?;
                let [func] = funcs.as_slice() else {
                    return Err(CliError::Tool(
                        "--func expects exactly one bank function, e.g. \"(13, 16)\"".into(),
                    ));
                };
                let (entries, cost) = snapshot.mem.entries_sharing_costed(*func);
                writeln!(
                    out,
                    "bank function {func} appears in {} of {} registry entries \
                     ({} candidates examined)",
                    entries.len(),
                    snapshot.mem.len(),
                    cost.candidates,
                )
                .expect("write to string");
                let mut machines = std::collections::BTreeSet::new();
                for entry in &entries {
                    let entry_machines = entry.machines();
                    writeln!(
                        out,
                        "entry = {:016x} machines = {}",
                        entry.fingerprint,
                        entry_machines
                            .iter()
                            .copied()
                            .collect::<Vec<_>>()
                            .join(", "),
                    )
                    .expect("write to string");
                    machines.extend(entry_machines);
                }
                if machines.is_empty() {
                    writeln!(out, "no machine shares it").expect("write to string");
                } else {
                    writeln!(
                        out,
                        "machines sharing it: {}",
                        machines.into_iter().collect::<Vec<_>>().join(", ")
                    )
                    .expect("write to string");
                }
            } else if let Some(fingerprint) = fingerprint {
                let parsed = u64::from_str_radix(fingerprint, 16).map_err(|e| {
                    CliError::Tool(format!("invalid --fingerprint `{fingerprint}`: {e}"))
                })?;
                match snapshot.mem.lookup(parsed) {
                    Some(entry) => {
                        let (funcs, rows, cols) = parse::render_mapping(&entry.mapping);
                        writeln!(out, "fingerprint {parsed:016x}: found").expect("write to string");
                        writeln!(out, "funcs = {funcs}").expect("write to string");
                        writeln!(out, "rows = {rows}").expect("write to string");
                        writeln!(out, "cols = {cols}").expect("write to string");
                        let sources: Vec<String> =
                            entry.sources.iter().map(|s| s.to_string()).collect();
                        writeln!(out, "sources = {}", sources.join(", ")).expect("write to string");
                    }
                    None => {
                        writeln!(out, "fingerprint {parsed:016x}: not found")
                            .expect("write to string");
                    }
                }
            } else if let Some(nearest) = nearest {
                let funcs = parse::parse_functions(nearest)
                    .map_err(|e| CliError::Tool(format!("invalid --nearest: {e}")))?;
                if funcs.is_empty() {
                    return Err(CliError::Tool("--nearest names no functions".into()));
                }
                let (hits, _cost) = snapshot.mem.nearest(&funcs, *k);
                let masks: Vec<u64> = funcs.iter().map(|f| f.mask()).collect();
                let rank = dram_model::gf2::bitslice::reduced_row_basis(&masks).len();
                writeln!(out, "nearest k={k} to partial of rank {rank}").expect("write to string");
                for hit in &hits {
                    let machines = snapshot
                        .mem
                        .lookup(hit.fingerprint)
                        .map(|e| e.machines().iter().copied().collect::<Vec<_>>().join(","))
                        .unwrap_or_default();
                    writeln!(
                        out,
                        "hit = {:016x} contained={}/{} rank={} machines={machines}",
                        hit.fingerprint, hit.contained, hit.partial_rank, hit.rank,
                    )
                    .expect("write to string");
                }
                writeln!(out, "hits = {}", hits.len()).expect("write to string");
            }
            Ok(out)
        }
        RegistryAction::Stats { registry_dir } => {
            let shared = registry::SharedRegistry::open(registry_dir)
                .map_err(|e| CliError::Tool(format!("cannot open registry {registry_dir}: {e}")))?;
            let snapshot = shared.snapshot();
            let stats = shared.stats().map_err(|e| CliError::Tool(e.to_string()))?;
            let mut out = String::new();
            writeln!(
                out,
                "registry {registry_dir}: {} entries, {} records in {} segments \
                 across {} shards (generation {})",
                snapshot.mem.len(),
                stats.records,
                stats.segments,
                stats.shards,
                snapshot.generation,
            )
            .expect("write to string");
            if stats.orphans.is_empty() {
                writeln!(out, "orphans: none").expect("write to string");
            } else {
                writeln!(out, "orphans: {}", stats.orphans.join(", ")).expect("write to string");
            }
            Ok(out)
        }
    }
}

/// Runs a `dramdig serve` session: request lines from `--input` (or
/// stdin), byte-deterministic responses on stdout, wall-clock latency only
/// in the optional `--metrics` sidecar.
fn execute_serve(
    registry_dir: &str,
    input: Option<&str>,
    metrics_path: Option<&str>,
) -> Result<String, CliError> {
    let shared = registry::SharedRegistry::open(registry_dir)
        .map_err(|e| CliError::Tool(format!("cannot open registry {registry_dir}: {e}")))?;
    let requests = match input {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Tool(format!("cannot read {path}: {e}")))?,
        None => {
            use std::io::Read as _;
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| CliError::Tool(format!("cannot read stdin: {e}")))?;
            text
        }
    };
    let mut metrics = telemetry::Registry::new();
    let out = registry::serve_text(&requests, &shared, &mut metrics)
        .map_err(|e| CliError::Tool(e.to_string()))?;
    if let Some(path) = metrics_path {
        std::fs::write(path, metrics.snapshot())
            .map_err(|e| CliError::Tool(format!("cannot write metrics to {path}: {e}")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_sub_command() {
        assert_eq!(
            Command::parse(&args(&["list-machines"])).unwrap(),
            Command::ListMachines
        );
        assert_eq!(Command::parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            Command::parse(&args(&["uncover", "--machine", "4", "--seed", "9"])).unwrap(),
            Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 9,
                ablate: None,
                checkpoint: None,
                resume: false,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
            }
        );
        assert_eq!(
            Command::parse(&args(&["uncover", "--machine", "4", "--ablate", "spec"])).unwrap(),
            Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 0xD16,
                ablate: Some(Ablation::Specifications),
                checkpoint: None,
                resume: false,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
            }
        );
        assert_eq!(
            Command::parse(&args(&["compare", "--machine", "2"])).unwrap(),
            Command::Compare { machine: 2 }
        );
        assert_eq!(
            Command::parse(&args(&[
                "hammer",
                "--machine",
                "1",
                "--tool",
                "drama",
                "--tests",
                "3"
            ]))
            .unwrap(),
            Command::Hammer {
                machine: 1,
                tool: HammerTool::Drama,
                tests: 3
            }
        );
        assert_eq!(
            Command::parse(&args(&["decode", "--machine", "6", "--addr", "0x1f00"])).unwrap(),
            Command::Decode {
                machine: 6,
                addr: 0x1f00
            }
        );
        assert!(matches!(
            Command::parse(&args(&[
                "validate", "--funcs", "(6)", "--rows", "1~2", "--cols", "0"
            ])),
            Ok(Command::Validate { .. })
        ));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(Command::parse(&[]).is_err());
        assert!(Command::parse(&args(&["frobnicate"])).is_err());
        assert!(Command::parse(&args(&["uncover"])).is_err());
        assert!(Command::parse(&args(&["uncover", "--machine", "four"])).is_err());
        assert!(
            Command::parse(&args(&["uncover", "--machine", "4", "--ablate", "magic"])).is_err()
        );
        assert!(Command::parse(&args(&["hammer", "--machine", "1", "--tool", "hope"])).is_err());
        assert!(Command::parse(&args(&["decode", "--machine", "1"])).is_err());
    }

    #[test]
    fn machine_numbers_outside_one_to_nine_are_refused_not_truncated() {
        // 260 must not wrap onto machine No.4 (260 mod 256).
        for machine in ["260", "0", "10"] {
            for line in [
                vec!["uncover", "--machine", machine],
                vec!["compare", "--machine", machine],
                vec!["hammer", "--machine", machine],
                vec!["decode", "--machine", machine, "--addr", "0x3fe4c40"],
            ] {
                let err = Command::parse(&args(&line)).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(msg) if msg.contains("1..=9")),
                    "{line:?}: {err}"
                );
            }
        }
        // `--tests` is refused rather than truncated to 32 bits.
        assert!(Command::parse(&args(&[
            "hammer",
            "--machine",
            "1",
            "--tests",
            "4294967298"
        ]))
        .is_err());
    }

    #[test]
    fn compare_hammer_decode_and_validate_reject_unknown_flags() {
        for line in [
            vec!["compare", "--machine", "1", "--seed", "2"],
            vec!["hammer", "--machine", "1", "--test", "2"],
            vec!["decode", "--machine", "1", "--addr", "0", "--adr", "1"],
            vec![
                "validate", "--funcs", "(6)", "--rows", "1~2", "--cols", "0", "--col", "1",
            ],
        ] {
            let err = Command::parse(&args(&line)).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("unknown flag")),
                "{line:?}: {err}"
            );
        }
    }

    #[test]
    fn list_machines_mentions_all_nine() {
        let out = execute(&Command::ListMachines).unwrap();
        for n in 1..=9 {
            assert!(out.contains(&format!("No.{n}")), "{out}");
        }
    }

    #[test]
    fn decode_round_trips_and_validates_range() {
        let out = execute(&Command::Decode {
            machine: 4,
            addr: 0x1234_5678,
        })
        .unwrap();
        assert!(out.contains("bank"));
        assert!(execute(&Command::Decode {
            machine: 4,
            addr: u64::MAX
        })
        .is_err());
        assert!(execute(&Command::Decode {
            machine: 42,
            addr: 0
        })
        .is_err());
    }

    #[test]
    fn validate_accepts_table_ii_and_rejects_garbage() {
        let ok = execute(&Command::Validate {
            funcs: "(13, 16), (14, 17), (15, 18)".into(),
            rows: "16~31".into(),
            cols: "0~12".into(),
        })
        .unwrap();
        assert!(ok.contains("valid mapping"));
        assert!(ok.contains("banks: 8"));
        assert!(execute(&Command::Validate {
            funcs: "(13, 16)".into(),
            rows: "16~31".into(),
            cols: "0~12".into(),
        })
        .is_err());
    }

    #[test]
    fn uncover_runs_on_a_small_machine() {
        let out = execute(&Command::Uncover {
            trace: None,
            metrics: None,
            machine: 4,
            seed: 1,
            ablate: None,
            checkpoint: None,
            resume: false,
            budget: None,
            observables: vec![ObservableKind::ConflictTiming],
        })
        .unwrap();
        assert!(out.contains("matches"));
        assert!(out.contains("recovered mapping"));
    }

    #[test]
    fn usage_mentions_every_sub_command() {
        let text = usage();
        for cmd in [
            "uncover",
            "compare",
            "hammer",
            "decode",
            "validate",
            "eval",
            "list-machines",
            "campaign run",
            "campaign resume",
            "campaign status",
            "campaign query",
            "campaign mapreduce",
            "campaign worker",
            "campaign dlq",
            "registry import",
            "registry gen",
            "registry query",
            "registry stats",
            "serve",
        ] {
            assert!(text.contains(cmd), "usage must mention `{cmd}`");
        }
    }

    #[test]
    fn registry_and_serve_parse() {
        assert_eq!(
            Command::parse(&args(&[
                "registry",
                "import",
                "--campaign",
                "t2",
                "--registry",
                "reg"
            ]))
            .unwrap(),
            Command::Registry(RegistryAction::Import {
                campaign_dir: "t2".into(),
                registry_dir: "reg".into(),
                shards: 4,
                crash_after: None,
            })
        );
        assert_eq!(
            Command::parse(&args(&[
                "registry",
                "import",
                "--campaign",
                "t2",
                "--registry",
                "reg",
                "--shards",
                "7",
                "--crash-after",
                "1",
            ]))
            .unwrap(),
            Command::Registry(RegistryAction::Import {
                campaign_dir: "t2".into(),
                registry_dir: "reg".into(),
                shards: 7,
                crash_after: Some(1),
            })
        );
        assert_eq!(
            Command::parse(&args(&[
                "registry",
                "gen",
                "--registry",
                "reg",
                "--grid",
                "ci"
            ]))
            .unwrap(),
            Command::Registry(RegistryAction::Gen {
                registry_dir: "reg".into(),
                grid: Some(GridKind::Ci),
                count: None,
                seed: 1,
                shards: 4,
            })
        );
        assert_eq!(
            Command::parse(&args(&[
                "registry",
                "gen",
                "--registry",
                "reg",
                "--count",
                "12",
                "--seed",
                "5"
            ]))
            .unwrap(),
            Command::Registry(RegistryAction::Gen {
                registry_dir: "reg".into(),
                grid: None,
                count: Some(12),
                seed: 5,
                shards: 4,
            })
        );
        assert_eq!(
            Command::parse(&args(&[
                "registry",
                "query",
                "--registry",
                "reg",
                "--func",
                "(13, 16)"
            ]))
            .unwrap(),
            Command::Registry(RegistryAction::Query {
                registry_dir: "reg".into(),
                func: Some("(13, 16)".into()),
                fingerprint: None,
                nearest: None,
                k: 3,
            })
        );
        assert_eq!(
            Command::parse(&args(&[
                "registry",
                "query",
                "--registry",
                "reg",
                "--nearest",
                "(13, 16)",
                "--k",
                "2"
            ]))
            .unwrap(),
            Command::Registry(RegistryAction::Query {
                registry_dir: "reg".into(),
                func: None,
                fingerprint: None,
                nearest: Some("(13, 16)".into()),
                k: 2,
            })
        );
        assert_eq!(
            Command::parse(&args(&["registry", "stats", "--registry", "reg"])).unwrap(),
            Command::Registry(RegistryAction::Stats {
                registry_dir: "reg".into(),
            })
        );
        assert_eq!(
            Command::parse(&args(&[
                "serve",
                "--registry",
                "reg",
                "--input",
                "q.txt",
                "--metrics",
                "m.txt"
            ]))
            .unwrap(),
            Command::Serve {
                registry: "reg".into(),
                input: Some("q.txt".into()),
                metrics: Some("m.txt".into()),
            }
        );
        // Malformed registry command lines fail loudly.
        assert!(Command::parse(&args(&["registry"])).is_err());
        assert!(Command::parse(&args(&["registry", "frobnicate"])).is_err());
        assert!(Command::parse(&args(&["registry", "gen", "--registry", "reg"])).is_err());
        assert!(Command::parse(&args(&[
            "registry",
            "gen",
            "--registry",
            "reg",
            "--grid",
            "ci",
            "--count",
            "3"
        ]))
        .is_err());
        assert!(Command::parse(&args(&[
            "registry",
            "gen",
            "--registry",
            "reg",
            "--count",
            "0"
        ]))
        .is_err());
        assert!(Command::parse(&args(&[
            "registry",
            "import",
            "--campaign",
            "t2",
            "--registry",
            "reg",
            "--shards",
            "0"
        ]))
        .is_err());
        assert!(Command::parse(&args(&["registry", "query", "--registry", "reg"])).is_err());
        assert!(Command::parse(&args(&[
            "registry",
            "query",
            "--registry",
            "reg",
            "--func",
            "(1)",
            "--fingerprint",
            "00",
        ]))
        .is_err());
        assert!(Command::parse(&args(&["serve"])).is_err());
        assert!(Command::parse(&args(&["serve", "--registry", "reg", "--port", "1"])).is_err());
    }

    #[test]
    fn eval_parses_and_rejects_bad_flags() {
        assert_eq!(
            Command::parse(&args(&["eval", "--grid", "ci"])).unwrap(),
            Command::Eval {
                trace: None,
                metrics: None,
                grid: GridKind::Ci,
                seed: 1,
                workers: 4,
                out: None,
                history: None,
                observables: vec![ObservableKind::ConflictTiming],
            }
        );
        assert_eq!(
            Command::parse(&args(&[
                "eval",
                "--grid",
                "quick",
                "--seed",
                "9",
                "--workers",
                "2",
                "--out",
                "sb.txt",
                "--history",
                "hist.txt"
            ]))
            .unwrap(),
            Command::Eval {
                trace: None,
                metrics: None,
                grid: GridKind::Quick,
                seed: 9,
                workers: 2,
                out: Some("sb.txt".into()),
                history: Some("hist.txt".into()),
                observables: vec![ObservableKind::ConflictTiming],
            }
        );
        assert!(Command::parse(&args(&["eval"])).is_err());
        assert!(Command::parse(&args(&["eval", "--grid", "huge"])).is_err());
        assert!(Command::parse(&args(&["eval", "--grid", "ci", "--workers", "0"])).is_err());
        assert!(Command::parse(&args(&["eval", "--grid", "ci", "--grids", "x"])).is_err());
    }

    #[test]
    fn observables_flag_parses_and_budget_zero_is_rejected_up_front() {
        // The channel list parses on both sub-commands, deduplicated and
        // order-preserving.
        let both = vec![
            ObservableKind::ConflictTiming,
            ObservableKind::FlipAdjacency,
        ];
        match Command::parse(&args(&[
            "eval",
            "--grid",
            "ci",
            "--observables",
            "timing,flip-adjacency,timing",
        ]))
        .unwrap()
        {
            Command::Eval { observables, .. } => assert_eq!(observables, both),
            other => panic!("parsed {other:?}"),
        }
        match Command::parse(&args(&[
            "uncover",
            "--machine",
            "4",
            "--observables",
            "flip-adjacency",
        ]))
        .unwrap()
        {
            Command::Uncover { observables, .. } => {
                assert_eq!(observables, vec![ObservableKind::FlipAdjacency]);
            }
            other => panic!("parsed {other:?}"),
        }
        // Unknown channels and empty lists are usage errors naming the
        // known channels.
        let err = Command::parse(&args(&["eval", "--grid", "ci", "--observables", "psychic"]))
            .unwrap_err();
        assert!(err.to_string().contains("flip-adjacency"), "{err}");
        assert!(Command::parse(&args(&["eval", "--grid", "ci", "--observables", ","])).is_err());

        // `--budget 0` can never run a phase: rejected at parse time with a
        // clear message instead of surfacing as a mid-run interruption.
        let err =
            Command::parse(&args(&["uncover", "--machine", "4", "--budget", "0"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("at least 1")),
            "{err}"
        );
        assert!(Command::parse(&args(&["uncover", "--machine", "4", "--budget", "1"])).is_ok());
    }

    #[test]
    fn eval_quick_grid_writes_a_deterministic_scoreboard() {
        let out_a = std::env::temp_dir().join(format!("dramdig-eval-a-{}", std::process::id()));
        let out_b = std::env::temp_dir().join(format!("dramdig-eval-b-{}", std::process::id()));
        let hist = std::env::temp_dir().join(format!("dramdig-eval-hist-{}", std::process::id()));
        let run = |path: &std::path::Path, workers: usize| {
            execute(&Command::Eval {
                trace: None,
                metrics: None,
                grid: GridKind::Quick,
                seed: 1,
                workers,
                out: Some(path.to_str().unwrap().to_string()),
                history: Some(hist.to_str().unwrap().to_string()),
                observables: vec![ObservableKind::ConflictTiming],
            })
            .unwrap()
        };
        let stdout_a = run(&out_a, 4);
        let stdout_b = run(&out_b, 1);
        let file_a = std::fs::read_to_string(&out_a).unwrap();
        let file_b = std::fs::read_to_string(&out_b).unwrap();
        assert_eq!(file_a, file_b, "scoreboard must be byte-identical");
        assert_eq!(stdout_a, file_a);
        assert_eq!(stdout_b, file_b);
        assert!(file_a.contains("gate = PASS"), "{file_a}");
        // The second identical run must not duplicate the history line.
        let history = std::fs::read_to_string(&hist).unwrap();
        assert_eq!(history.lines().count(), 1, "{history}");
        assert!(
            history.starts_with("grid=quick seed=1 observables=timing | gate=PASS"),
            "{history}"
        );
        std::fs::remove_file(&out_a).unwrap();
        std::fs::remove_file(&out_b).unwrap();
        std::fs::remove_file(&hist).unwrap();
    }

    #[test]
    fn eval_telemetry_artifacts_are_byte_identical_across_runs() {
        let base = std::env::temp_dir().join(format!("dramdig-eval-telem-{}", std::process::id()));
        let path = |name: &str| base.join(name).to_str().unwrap().to_string();
        std::fs::create_dir_all(&base).unwrap();
        let run = |tag: &str, workers: usize| {
            execute(&Command::Eval {
                grid: GridKind::Quick,
                seed: 1,
                workers,
                out: None,
                history: None,
                observables: vec![ObservableKind::ConflictTiming],
                trace: Some(path(&format!("{tag}.json"))),
                metrics: Some(path(&format!("{tag}.txt"))),
            })
            .unwrap()
        };
        run("a", 4);
        run("b", 1);
        let trace_a = std::fs::read_to_string(base.join("a.json")).unwrap();
        let trace_b = std::fs::read_to_string(base.join("b.json")).unwrap();
        assert_eq!(trace_a, trace_b, "trace must not depend on worker count");
        let metrics_a = std::fs::read_to_string(base.join("a.txt")).unwrap();
        let metrics_b = std::fs::read_to_string(base.join("b.txt")).unwrap();
        assert_eq!(metrics_a, metrics_b, "metrics must not depend on workers");
        assert!(trace_a.starts_with("[\n"), "{trace_a}");
        assert!(trace_a.contains("\"cat\":\"eval_cell\""), "{trace_a}");
        // Pool counters merged in next to the outcome-derived ones.
        assert!(
            metrics_a.contains("counter eval_cells_total 32"),
            "{metrics_a}"
        );
        assert!(
            metrics_a.contains("counter pool_completed_total 32"),
            "{metrics_a}"
        );
        assert!(
            metrics_a.contains("gauge pool_queue_depth 32"),
            "{metrics_a}"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn uncover_telemetry_artifacts_are_deterministic() {
        let base =
            std::env::temp_dir().join(format!("dramdig-uncover-telem-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let run = |tag: &str| {
            let trace = base.join(format!("{tag}.json"));
            let metrics = base.join(format!("{tag}.txt"));
            execute(&Command::Uncover {
                machine: 4,
                seed: 1,
                ablate: None,
                checkpoint: None,
                resume: false,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
                trace: Some(trace.to_str().unwrap().to_string()),
                metrics: Some(metrics.to_str().unwrap().to_string()),
            })
            .unwrap();
            (
                std::fs::read_to_string(trace).unwrap(),
                std::fs::read_to_string(metrics).unwrap(),
            )
        };
        let (trace_a, metrics_a) = run("a");
        let (trace_b, metrics_b) = run("b");
        assert_eq!(trace_a, trace_b, "same-seed traces must be byte-identical");
        assert_eq!(metrics_a, metrics_b);
        // Spans for every phase, plus the fine-grained oracle batches that
        // `--trace` switches on.
        for needle in [
            "\"name\":\"calibration\"",
            "\"name\":\"validation\"",
            "\"cat\":\"oracle_batch\"",
        ] {
            assert!(trace_a.contains(needle), "missing {needle}");
        }
        assert!(
            metrics_a.contains("counter measurements_total "),
            "{metrics_a}"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// Table-driven coverage of the whole parse surface: each row is a
    /// command line and either the command it must parse to or `None` for a
    /// usage error.
    #[test]
    fn parse_table_covers_campaign_and_existing_flags() {
        fn spec(machines: Vec<u8>) -> CampaignSpec {
            CampaignSpec {
                machines,
                seeds: vec![1],
                profiles: vec![Profile::Optimized],
                ablations: vec![None],
                max_retries: 2,
            }
        }
        let table: Vec<(&[&str], Option<Command>)> = vec![
            // --- campaign run: defaults, ranges, explicit dimensions -------
            (
                &["campaign", "run", "--dir", "t2", "--machines", "1-9"],
                Some(Command::Campaign(CampaignAction::Run {
                    trace: None,
                    metrics: None,
                    dir: "t2".into(),
                    spec: spec(vec![1, 2, 3, 4, 5, 6, 7, 8, 9]),
                    workers: 4,
                    limit: None,
                })),
            ),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4,7",
                    "--workers",
                    "8",
                    "--limit",
                    "3",
                ],
                Some(Command::Campaign(CampaignAction::Run {
                    trace: None,
                    metrics: None,
                    dir: "d".into(),
                    spec: spec(vec![4, 7]),
                    workers: 8,
                    limit: Some(3),
                })),
            ),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "1,3-5",
                    "--seeds",
                    "1,2",
                    "--profiles",
                    "naive,optimized",
                    "--ablations",
                    "none,sysinfo",
                    "--retries",
                    "0",
                ],
                Some(Command::Campaign(CampaignAction::Run {
                    trace: None,
                    metrics: None,
                    dir: "d".into(),
                    spec: CampaignSpec {
                        machines: vec![1, 3, 4, 5],
                        seeds: vec![1, 2],
                        profiles: vec![Profile::Naive, Profile::Optimized],
                        ablations: vec![None, Some(campaign::Ablation::SystemInfo)],
                        max_retries: 0,
                    },
                    workers: 4,
                    limit: None,
                })),
            ),
            // --- campaign resume/status/query ------------------------------
            (
                &["campaign", "resume", "--dir", "t2"],
                Some(Command::Campaign(CampaignAction::Resume {
                    dir: "t2".into(),
                    workers: 4,
                    limit: None,
                })),
            ),
            (
                &[
                    "campaign",
                    "resume",
                    "--dir",
                    "t2",
                    "--workers",
                    "2",
                    "--limit",
                    "1",
                ],
                Some(Command::Campaign(CampaignAction::Resume {
                    dir: "t2".into(),
                    workers: 2,
                    limit: Some(1),
                })),
            ),
            (
                &["campaign", "status", "--dir", "t2"],
                Some(Command::Campaign(CampaignAction::Status {
                    dir: "t2".into(),
                })),
            ),
            (
                &["campaign", "query", "--dir", "t2", "--func", "(13, 16)"],
                Some(Command::Campaign(CampaignAction::Query {
                    dir: "t2".into(),
                    func: "(13, 16)".into(),
                })),
            ),
            // --- campaign mapreduce/worker/dlq ------------------------------
            (
                &[
                    "campaign",
                    "mapreduce",
                    "--dir",
                    "grid",
                    "--scenarios",
                    "1000",
                ],
                Some(Command::Campaign(CampaignAction::Mapreduce {
                    dir: "grid".into(),
                    spec: campaign::mapreduce::GridSpec {
                        scenarios: 1000,
                        seed: 1,
                        profile: Profile::Fast,
                        max_retries: 1,
                    },
                    processes: 4,
                    transport: MapTransport::Process,
                    worker_bin: None,
                    inject_kill: None,
                    history: None,
                    metrics: None,
                })),
            ),
            (
                &[
                    "campaign",
                    "mapreduce",
                    "--dir",
                    "grid",
                    "--scenarios",
                    "24",
                    "--seed",
                    "7",
                    "--profile",
                    "optimized",
                    "--retries",
                    "2",
                    "--processes",
                    "3",
                    "--transport",
                    "sim",
                    "--inject-kill",
                    "1:2",
                    "--history",
                    "h.txt",
                ],
                Some(Command::Campaign(CampaignAction::Mapreduce {
                    dir: "grid".into(),
                    spec: campaign::mapreduce::GridSpec {
                        scenarios: 24,
                        seed: 7,
                        profile: Profile::Optimized,
                        max_retries: 2,
                    },
                    processes: 3,
                    transport: MapTransport::Sim,
                    worker_bin: None,
                    inject_kill: Some((1, 2)),
                    history: Some("h.txt".into()),
                    metrics: None,
                })),
            ),
            (
                &["campaign", "worker"],
                Some(Command::Campaign(CampaignAction::Worker {
                    inject_kill: None,
                })),
            ),
            (
                &["campaign", "worker", "--inject-kill", "2"],
                Some(Command::Campaign(CampaignAction::Worker {
                    inject_kill: Some(2),
                })),
            ),
            (
                &["campaign", "dlq", "list", "--dir", "grid"],
                Some(Command::Campaign(CampaignAction::Dlq {
                    dir: "grid".into(),
                    op: DlqOp::List,
                    job: None,
                })),
            ),
            (
                &[
                    "campaign",
                    "dlq",
                    "inspect",
                    "--dir",
                    "grid",
                    "--job",
                    "g0007-s1-fast",
                ],
                Some(Command::Campaign(CampaignAction::Dlq {
                    dir: "grid".into(),
                    op: DlqOp::Inspect,
                    job: Some("g0007-s1-fast".into()),
                })),
            ),
            (
                &["campaign", "dlq", "retry", "--dir", "grid"],
                Some(Command::Campaign(CampaignAction::Dlq {
                    dir: "grid".into(),
                    op: DlqOp::Retry,
                    job: None,
                })),
            ),
            (
                &[
                    "campaign",
                    "dlq",
                    "reprocess",
                    "--dir",
                    "grid",
                    "--job",
                    "g0007-s1-fast",
                ],
                Some(Command::Campaign(CampaignAction::Dlq {
                    dir: "grid".into(),
                    op: DlqOp::Reprocess,
                    job: Some("g0007-s1-fast".into()),
                })),
            ),
            // --- mapreduce/worker/dlq usage errors --------------------------
            (&["campaign", "mapreduce", "--dir", "grid"], None), // no --scenarios
            (
                &["campaign", "mapreduce", "--dir", "g", "--scenarios", "0"],
                None,
            ),
            (
                &[
                    "campaign",
                    "mapreduce",
                    "--dir",
                    "g",
                    "--scenarios",
                    "4",
                    "--transport",
                    "carrier-pigeon",
                ],
                None,
            ),
            (
                &[
                    "campaign",
                    "mapreduce",
                    "--dir",
                    "g",
                    "--scenarios",
                    "4",
                    "--inject-kill",
                    "2",
                ],
                None, // missing worker:request separator
            ),
            (&["campaign", "worker", "--inject-kill"], None), // value-less flag
            (&["campaign", "dlq"], None),
            (&["campaign", "dlq", "purge", "--dir", "g"], None),
            (&["campaign", "dlq", "inspect", "--dir", "g"], None), // no --job
            (&["campaign", "dlq", "list"], None),                  // no --dir
            // --- campaign usage errors -------------------------------------
            (&["campaign"], None),
            (&["campaign", "launch"], None),
            (&["campaign", "run", "--machines", "1-9"], None), // no --dir
            (&["campaign", "run", "--dir", "d"], None),        // no --machines
            (
                &["campaign", "run", "--dir", "d", "--machines", "9-1"],
                None,
            ),
            (&["campaign", "run", "--dir", "d", "--machines", "x"], None),
            // 260 must not truncate onto machine 4 (260 % 256).
            (
                &["campaign", "run", "--dir", "d", "--machines", "260"],
                None,
            ),
            (&["campaign", "run", "--dir", "d", "--machines", "0"], None),
            // Misspelled flags must fail up front, not run a default sweep.
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4",
                    "--profile",
                    "naive",
                ],
                None,
            ),
            (
                &["campaign", "run", "--dir", "d", "--machines", "4", "stray"],
                None,
            ),
            (&["campaign", "run", "--dir", "d", "--machines"], None),
            (
                &["campaign", "resume", "--dir", "d", "--machines", "4"],
                None,
            ),
            (
                &["campaign", "status", "--dir", "d", "--workers", "2"],
                None,
            ),
            (&["campaign", "query", "--dir", "d", "--funcs", "(6)"], None),
            (
                &["campaign", "run", "--dir", "d", "--machines", "1-300"],
                None,
            ),
            (&["campaign", "run", "--dir", "d", "--machines", ","], None),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4",
                    "--profiles",
                    "warp",
                ],
                None,
            ),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4",
                    "--ablations",
                    "warp",
                ],
                None,
            ),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4",
                    "--workers",
                    "0",
                ],
                None,
            ),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4",
                    "--seeds",
                    ",",
                ],
                None,
            ),
            (&["campaign", "resume"], None),
            (&["campaign", "status"], None),
            (&["campaign", "query", "--dir", "t2"], None),
            // --- existing sub-commands stay intact -------------------------
            (
                &["uncover", "--machine", "4", "--seed", "9"],
                Some(Command::Uncover {
                    trace: None,
                    metrics: None,
                    machine: 4,
                    seed: 9,
                    ablate: None,
                    checkpoint: None,
                    resume: false,
                    budget: None,
                    observables: vec![ObservableKind::ConflictTiming],
                }),
            ),
            (
                &["uncover", "--machine", "0x4", "--ablate", "empirical"],
                Some(Command::Uncover {
                    trace: None,
                    metrics: None,
                    machine: 4,
                    seed: 0xD16,
                    ablate: Some(Ablation::Empirical),
                    checkpoint: None,
                    resume: false,
                    budget: None,
                    observables: vec![ObservableKind::ConflictTiming],
                }),
            ),
            (
                &[
                    "uncover",
                    "--machine",
                    "4",
                    "--checkpoint",
                    "ckpt",
                    "--budget",
                    "600",
                ],
                Some(Command::Uncover {
                    trace: None,
                    metrics: None,
                    machine: 4,
                    seed: 0xD16,
                    ablate: None,
                    checkpoint: Some("ckpt".into()),
                    resume: false,
                    budget: Some(600),
                    observables: vec![ObservableKind::ConflictTiming],
                }),
            ),
            (
                &[
                    "uncover",
                    "--machine",
                    "4",
                    "--checkpoint",
                    "ckpt",
                    "--resume",
                ],
                Some(Command::Uncover {
                    trace: None,
                    metrics: None,
                    machine: 4,
                    seed: 0xD16,
                    ablate: None,
                    checkpoint: Some("ckpt".into()),
                    resume: true,
                    budget: None,
                    observables: vec![ObservableKind::ConflictTiming],
                }),
            ),
            // --resume without --checkpoint has nothing to resume from.
            (&["uncover", "--machine", "4", "--resume"], None),
            (&["uncover", "--machine", "4", "--budget", "lots"], None),
            // Misspelled stateful flags must fail loudly, not silently run
            // an uncheckpointed pipeline.
            (&["uncover", "--machine", "4", "--chekpoint", "d"], None),
            (
                &[
                    "uncover",
                    "--machine",
                    "4",
                    "--checkpoint",
                    "d",
                    "--budjet",
                    "600",
                ],
                None,
            ),
            (&["uncover", "--machine", "4", "stray"], None),
            (
                &["compare", "--machine", "2"],
                Some(Command::Compare { machine: 2 }),
            ),
            (
                &["hammer", "--machine", "1", "--tool", "truth"],
                Some(Command::Hammer {
                    machine: 1,
                    tool: HammerTool::Truth,
                    tests: 1,
                }),
            ),
            (
                &["decode", "--machine", "6", "--addr", "64"],
                Some(Command::Decode {
                    machine: 6,
                    addr: 64,
                }),
            ),
            (&["list-machines"], Some(Command::ListMachines)),
            (&["help"], Some(Command::Help)),
            (&["uncover"], None),
            (&["uncover", "--machine", "four"], None),
            (&["hammer", "--machine", "1", "--tool", "hope"], None),
            (&["frobnicate"], None),
            // --- telemetry flags on uncover, eval and campaign run ---------
            (
                &[
                    "uncover",
                    "--machine",
                    "4",
                    "--trace",
                    "trace.json",
                    "--metrics",
                    "metrics.txt",
                ],
                Some(Command::Uncover {
                    machine: 4,
                    seed: 0xD16,
                    ablate: None,
                    checkpoint: None,
                    resume: false,
                    budget: None,
                    observables: vec![ObservableKind::ConflictTiming],
                    trace: Some("trace.json".into()),
                    metrics: Some("metrics.txt".into()),
                }),
            ),
            (
                &["eval", "--grid", "ci", "--trace", "trace.json"],
                Some(Command::Eval {
                    grid: GridKind::Ci,
                    seed: 1,
                    workers: 4,
                    out: None,
                    history: None,
                    observables: vec![ObservableKind::ConflictTiming],
                    trace: Some("trace.json".into()),
                    metrics: None,
                }),
            ),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "t2",
                    "--machines",
                    "4",
                    "--metrics",
                    "metrics.txt",
                ],
                Some(Command::Campaign(CampaignAction::Run {
                    dir: "t2".into(),
                    spec: spec(vec![4]),
                    workers: 4,
                    limit: None,
                    trace: None,
                    metrics: Some("metrics.txt".into()),
                })),
            ),
            // Misspelled telemetry flags fail loudly instead of silently
            // running without the requested artifact.
            (&["uncover", "--machine", "4", "--traces", "t.json"], None),
            (&["eval", "--grid", "ci", "--metric", "m.txt"], None),
            (
                &[
                    "campaign",
                    "run",
                    "--dir",
                    "d",
                    "--machines",
                    "4",
                    "--trace-out",
                    "t.json",
                ],
                None,
            ),
        ];
        for (words, expected) in table {
            let parsed = Command::parse(&args(words));
            match expected {
                Some(command) => {
                    assert_eq!(parsed.ok(), Some(command), "while parsing {words:?}")
                }
                None => {
                    let err = parsed.expect_err(&format!("{words:?} must be rejected"));
                    assert!(
                        matches!(err, CliError::Usage(_)),
                        "{words:?} must be a usage error, got {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn uncover_checkpoint_budget_resume_lifecycle() {
        let dir = std::env::temp_dir().join(format!("dramdig-cli-uncover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap().to_string();
        let uncover = |checkpoint: Option<String>, resume: bool, budget: Option<u64>| {
            execute(&Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 1,
                ablate: None,
                checkpoint,
                resume,
                budget,
                observables: vec![ObservableKind::ConflictTiming],
            })
        };

        // Budget kills the run after the partition; the interruption is a
        // report, not an error, and names the resume command.
        let out = uncover(Some(dir_str.clone()), false, Some(600)).unwrap();
        assert!(out.contains("interrupted before"), "{out}");
        assert!(out.contains("--resume"), "{out}");
        assert!(dir.join("02-partition.phase").exists());

        // Resuming without a prior checkpoint in a fresh dir is refused.
        let err = uncover(Some(format!("{dir_str}-nope")), true, None).unwrap_err();
        assert!(err.to_string().contains("no checkpoint"), "{err}");

        // A different run (other machine/ablation) must not adopt the dir.
        let err = execute(&Command::Uncover {
            trace: None,
            metrics: None,
            machine: 7,
            seed: 1,
            ablate: None,
            checkpoint: Some(dir_str.clone()),
            resume: true,
            budget: None,
            observables: vec![ObservableKind::ConflictTiming],
        })
        .unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");

        // Resume completes, and the report is byte-identical to an
        // uninterrupted run of the same seed.
        let resumed = uncover(Some(dir_str.clone()), true, None).unwrap();
        let straight = uncover(None, false, None).unwrap();
        assert_eq!(resumed, straight);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_lifecycle_run_interrupt_resume_status_query() {
        let dir = std::env::temp_dir().join(format!("dramdig-cli-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap().to_string();
        let spec = CampaignSpec {
            machines: vec![4, 7],
            seeds: vec![1],
            profiles: vec![Profile::Fast],
            ablations: vec![None],
            max_retries: 2,
        };

        // Run with --limit 1: an interrupted campaign.
        let out = execute(&Command::Campaign(CampaignAction::Run {
            trace: None,
            metrics: None,
            dir: dir_str.clone(),
            spec: spec.clone(),
            workers: 1,
            limit: Some(1),
        }))
        .unwrap();
        assert!(out.contains("1/2 jobs completed"), "{out}");
        assert!(out.contains("campaign resume"), "{out}");

        // Status sees the pending half.
        let out = execute(&Command::Campaign(CampaignAction::Status {
            dir: dir_str.clone(),
        }))
        .unwrap();
        assert!(out.contains("1/2 completed"), "{out}");
        assert!(out.contains("pending"), "{out}");

        // Re-running with a different spec is refused.
        let err = execute(&Command::Campaign(CampaignAction::Run {
            trace: None,
            metrics: None,
            dir: dir_str.clone(),
            spec: CampaignSpec {
                machines: vec![4],
                ..spec.clone()
            },
            workers: 1,
            limit: None,
        }))
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");

        // Resume finishes the rest.
        let out = execute(&Command::Campaign(CampaignAction::Resume {
            dir: dir_str.clone(),
            workers: 2,
            limit: None,
        }))
        .unwrap();
        assert!(out.contains("2/2 jobs completed"), "{out}");
        assert!(out.contains("distinct mappings"), "{out}");

        // Query the store for machine 4's bank function.
        let out = execute(&Command::Campaign(CampaignAction::Query {
            dir: dir_str.clone(),
            func: "(13, 16)".into(),
        }))
        .unwrap();
        assert!(out.contains("machines sharing it: No.4"), "{out}");
        let out = execute(&Command::Campaign(CampaignAction::Query {
            dir: dir_str.clone(),
            func: "(2, 3)".into(),
        }))
        .unwrap();
        assert!(out.contains("no machine shares it"), "{out}");
        assert!(execute(&Command::Campaign(CampaignAction::Query {
            dir: dir_str.clone(),
            func: "(13, 16), (14, 17)".into(),
        }))
        .is_err());

        // A truncated/corrupt store.txt must not make the campaign
        // unqueryable: the query rebuilds from the journal.
        std::fs::write(dir.join("store.txt"), "[mapping]\nfuncs = (13,").unwrap();
        let out = execute(&Command::Campaign(CampaignAction::Query {
            dir: dir_str.clone(),
            func: "(13, 16)".into(),
        }))
        .unwrap();
        assert!(out.contains("machines sharing it: No.4"), "{out}");

        // Status/resume on a directory without a campaign fail cleanly.
        assert!(execute(&Command::Campaign(CampaignAction::Status {
            dir: format!("{dir_str}-nope"),
        }))
        .is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_status_reads_a_mapreduce_grid_directory() {
        let dir =
            std::env::temp_dir().join(format!("dramdig-cli-grid-status-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap().to_string();
        let spec = campaign::mapreduce::GridSpec {
            scenarios: 2,
            seed: 1,
            profile: Profile::Fast,
            max_retries: 0,
        };
        let status = || {
            execute(&Command::Campaign(CampaignAction::Status {
                dir: dir_str.clone(),
            }))
        };

        // A grid whose spec is persisted but whose jobs never ran: both
        // are pending at their first attempt.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("grid.spec"), spec.encode()).unwrap();
        let out = status().unwrap();
        assert!(out.contains("0/2 completed, 0 dead, 2 pending"), "{out}");
        assert!(
            out.contains("pending g0000-s1-fast (next attempt 1)"),
            "{out}"
        );

        let out = execute(&Command::Campaign(CampaignAction::Mapreduce {
            dir: dir_str.clone(),
            spec: spec.clone(),
            processes: 2,
            transport: MapTransport::Sim,
            worker_bin: None,
            inject_kill: None,
            history: None,
            metrics: None,
        }))
        .unwrap();
        assert!(out.contains("2/2 jobs completed"), "{out}");

        // The drained grid reports every job done and its mappings.
        let out = status().unwrap();
        assert!(out.contains("2/2 completed, 0 dead, 0 pending"), "{out}");
        assert!(!out.contains("pending g"), "{out}");

        // `campaign query` rebuilds the grid's store from its merged
        // journal, so a corrupt or missing store.txt answers the same.
        let store_path = dir.join("store.txt");
        let store = MappingStore::decode(&std::fs::read_to_string(&store_path).unwrap()).unwrap();
        let func = store.entries().next().unwrap().mapping.bank_funcs()[0].to_string();
        let query = || {
            execute(&Command::Campaign(CampaignAction::Query {
                dir: dir_str.clone(),
                func: func.clone(),
            }))
        };
        let answer = query().unwrap();
        assert!(answer.contains("machines sharing it: gen-"), "{answer}");
        std::fs::write(&store_path, "[mapping]\nfuncs = (13,").unwrap();
        assert_eq!(query().unwrap(), answer);
        std::fs::remove_file(&store_path).unwrap();
        assert_eq!(query().unwrap(), answer);

        // A corrupt grid spec is an error, not a silent fallback.
        std::fs::write(dir.join("grid.spec"), "scenarios = many\n").unwrap();
        assert!(status()
            .unwrap_err()
            .to_string()
            .contains("corrupt grid spec"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mapreduce_lifecycle_with_kill_and_dlq_requeue() {
        let dir =
            std::env::temp_dir().join(format!("dramdig-cli-mapreduce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap().to_string();
        let spec = campaign::mapreduce::GridSpec {
            scenarios: 8,
            seed: 1,
            profile: Profile::Fast,
            max_retries: 0,
        };
        let history = dir.join("history.txt");
        let mapreduce = |inject_kill, with_history: bool| {
            Command::Campaign(CampaignAction::Mapreduce {
                dir: dir_str.clone(),
                spec: spec.clone(),
                processes: 3,
                transport: MapTransport::Sim,
                worker_bin: None,
                inject_kill,
                history: with_history.then(|| history.to_str().unwrap().to_string()),
                metrics: None,
            })
        };

        // Three simulated workers, one killed mid-phase on its second job:
        // the grid still finishes (7 ok + the wide-function dead letter).
        let out = execute(&mapreduce(Some((0, 2)), true)).unwrap();
        assert!(out.contains("7/8 jobs completed"), "{out}");
        assert!(out.contains("1 dead-lettered"), "{out}");
        assert!(out.contains("campaign dlq list"), "{out}");
        let board = std::fs::read_to_string(dir.join("SCOREBOARD.txt")).unwrap();
        assert!(
            board.contains("g0007-s1-fast [wide-function] dead"),
            "{board}"
        );
        assert_eq!(
            std::fs::read_to_string(&history).unwrap().lines().count(),
            1
        );

        // A different spec in the same directory is refused.
        let err = execute(&Command::Campaign(CampaignAction::Mapreduce {
            dir: dir_str.clone(),
            spec: campaign::mapreduce::GridSpec {
                scenarios: 9,
                ..spec.clone()
            },
            processes: 1,
            transport: MapTransport::Sim,
            worker_bin: None,
            inject_kill: None,
            history: None,
            metrics: None,
        }))
        .unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");

        // The DLQ is listable and inspectable.
        let out = execute(&Command::Campaign(CampaignAction::Dlq {
            dir: dir_str.clone(),
            op: DlqOp::List,
            job: None,
        }))
        .unwrap();
        assert!(out.contains("1 job(s)"), "{out}");
        assert!(out.contains("g0007-s1-fast"), "{out}");
        let out = execute(&Command::Campaign(CampaignAction::Dlq {
            dir: dir_str.clone(),
            op: DlqOp::Inspect,
            job: Some("g0007-s1-fast".into()),
        }))
        .unwrap();
        assert!(out.contains("next retry attempt: 2"), "{out}");
        assert!(execute(&Command::Campaign(CampaignAction::Dlq {
            dir: dir_str.clone(),
            op: DlqOp::Inspect,
            job: Some("g0000-s1-fast".into()),
        }))
        .is_err());

        // Retry puts the job back in play; the re-run dead-letters it again
        // (wide functions always refuse), now at attempt 2 — a genuine board
        // change, so the re-run skips the history gate.
        let out = execute(&Command::Campaign(CampaignAction::Dlq {
            dir: dir_str.clone(),
            op: DlqOp::Retry,
            job: None,
        }))
        .unwrap();
        assert!(out.contains("requeued 1 job(s) for retry"), "{out}");
        let dlq_txt = std::fs::read_to_string(dir.join("dlq.txt")).unwrap();
        assert!(dlq_txt.contains("# jobs = 0"), "{dlq_txt}");
        let out = execute(&mapreduce(None, false)).unwrap();
        assert!(out.contains("1 dead-lettered"), "{out}");
        let board = std::fs::read_to_string(dir.join("SCOREBOARD.txt")).unwrap();
        assert!(board.contains("dead attempts=2"), "{board}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_gen_query_serve_lifecycle() {
        let base =
            std::env::temp_dir().join(format!("dramdig-cli-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let reg = base.join("reg").to_str().unwrap().to_string();
        let gen = Command::Registry(RegistryAction::Gen {
            registry_dir: reg.clone(),
            grid: None,
            count: Some(6),
            seed: 1,
            shards: 3,
        });

        // Seed the registry from generated machines ...
        let out = execute(&gen).unwrap();
        assert!(out.contains("across 3 shards"), "{out}");
        // ... and a re-run appends nothing: every attribution is present.
        let out = execute(&gen).unwrap();
        assert!(out.contains("appended 0 of 6"), "{out}");

        let out = execute(&Command::Registry(RegistryAction::Stats {
            registry_dir: reg.clone(),
        }))
        .unwrap();
        assert!(out.contains("across 3 shards"), "{out}");
        assert!(out.contains("orphans: none"), "{out}");

        // Pick a stored entry and query it back through every one-shot form.
        let shared = registry::SharedRegistry::open(&reg).unwrap();
        let snap = shared.snapshot();
        let entry = snap.mem.entries().next().unwrap();
        let func = entry.mapping.bank_funcs()[0];
        let out = execute(&Command::Registry(RegistryAction::Query {
            registry_dir: reg.clone(),
            func: None,
            fingerprint: Some(format!("{:016x}", entry.fingerprint)),
            nearest: None,
            k: 3,
        }))
        .unwrap();
        assert!(
            out.contains(&format!("fingerprint {:016x}: found", entry.fingerprint)),
            "{out}"
        );
        let out = execute(&Command::Registry(RegistryAction::Query {
            registry_dir: reg.clone(),
            func: Some(func.to_string()),
            fingerprint: None,
            nearest: None,
            k: 3,
        }))
        .unwrap();
        assert!(
            out.contains(&format!("entry = {:016x}", entry.fingerprint)),
            "{out}"
        );
        assert!(out.contains("machines sharing it:"), "{out}");
        let out = execute(&Command::Registry(RegistryAction::Query {
            registry_dir: reg.clone(),
            func: None,
            fingerprint: None,
            nearest: Some(func.to_string()),
            k: 2,
        }))
        .unwrap();
        assert!(out.contains("nearest k=2"), "{out}");
        assert!(
            out.contains(&format!("hit = {:016x}", entry.fingerprint)),
            "{out}"
        );

        // A serve session over the same registry is byte-deterministic and
        // leaves its latency/work counters in the metrics sidecar only.
        let input = base.join("requests.txt");
        std::fs::write(
            &input,
            format!(
                "# smoke session\nsharing {func}\nlookup {:016x}\nstats\nquit\n",
                entry.fingerprint
            ),
        )
        .unwrap();
        let serve = |tag: &str| {
            let metrics = base.join(format!("metrics-{tag}.txt"));
            let out = execute(&Command::Serve {
                registry: reg.clone(),
                input: Some(input.to_str().unwrap().to_string()),
                metrics: Some(metrics.to_str().unwrap().to_string()),
            })
            .unwrap();
            (out, std::fs::read_to_string(metrics).unwrap())
        };
        let (out_a, metrics_a) = serve("a");
        let (out_b, _) = serve("b");
        assert_eq!(out_a, out_b, "serve sessions must be byte-deterministic");
        assert!(out_a.contains("ok stats"), "{out_a}");
        assert!(out_a.contains("ok quit"), "{out_a}");
        assert!(!out_a.contains("latency"), "{out_a}");
        assert!(metrics_a.contains("registry_requests_total"), "{metrics_a}");

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn registry_import_crash_and_recovery() {
        let base =
            std::env::temp_dir().join(format!("dramdig-cli-reg-import-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let camp = base.join("camp").to_str().unwrap().to_string();
        let reg = base.join("reg").to_str().unwrap().to_string();
        execute(&Command::Campaign(CampaignAction::Run {
            trace: None,
            metrics: None,
            dir: camp.clone(),
            spec: CampaignSpec {
                machines: vec![4],
                seeds: vec![1],
                profiles: vec![Profile::Fast],
                ablations: vec![None],
                max_retries: 2,
            },
            workers: 1,
            limit: None,
        }))
        .unwrap();
        let import = |crash_after: Option<usize>| {
            execute(&Command::Registry(RegistryAction::Import {
                campaign_dir: camp.clone(),
                registry_dir: reg.clone(),
                shards: 2,
                crash_after,
            }))
        };
        let stats = || {
            execute(&Command::Registry(RegistryAction::Stats {
                registry_dir: reg.clone(),
            }))
            .unwrap()
        };

        // A crash after the segment write but before the manifest publish
        // leaves an orphan file and an empty (still-consistent) registry.
        let err = import(Some(1)).unwrap_err();
        assert!(err.to_string().contains("fault injection"), "{err}");
        let out = stats();
        assert!(out.contains("0 entries"), "{out}");
        assert!(!out.contains("orphans: none"), "{out}");

        // The retried import overwrites the orphan and publishes.
        let out = import(None).unwrap();
        assert!(out.contains("appended 1 of 1"), "{out}");
        let out = stats();
        assert!(out.contains("1 entries"), "{out}");
        assert!(out.contains("orphans: none"), "{out}");

        // The imported campaign answers span queries ...
        let out = execute(&Command::Registry(RegistryAction::Query {
            registry_dir: reg.clone(),
            func: Some("(13, 16)".into()),
            fingerprint: None,
            nearest: None,
            k: 3,
        }))
        .unwrap();
        assert!(out.contains("machines sharing it: No.4"), "{out}");

        // ... and importing again is a no-op.
        let out = import(None).unwrap();
        assert!(out.contains("appended 0 of 1"), "{out}");

        std::fs::remove_dir_all(&base).unwrap();
    }
}
