//! Command-line front end for the DRAMDig reproduction.
//!
//! The binary is called `dramdig` and offers one sub-command per workflow;
//! [`usage`] (printed by `dramdig help`) is the one description of the
//! grammar.
//!
//! Everything runs against the simulated machines of Table II; on a real
//! machine the same library calls can be driven with
//! [`mem_probe::HwProbe`] instead (see the `hardware_probe` example).
//!
//! Argument parsing is deliberately dependency-free: [`Command::parse`]
//! binds each sub-command's flag table in one pass and returns a typed
//! command that [`execute`] turns into a plain-text report. Each
//! sub-command's parse and execute live together in one module.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

use dram_model::{MachineSetting, XorFunc};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig_bench::eval::GridKind;
use mem_probe::{ObservableKind, SimProbe};

mod cmd {
    pub(crate) mod campaign;
    pub(crate) mod eval;
    pub(crate) mod registry;
    pub(crate) mod tools;
    pub(crate) mod uncover;
}
mod flags;

pub use cmd::campaign::{CampaignAction, DlqOp, MapTransport};
pub use cmd::registry::RegistryAction;
pub use cmd::tools::HammerTool;

/// Which knowledge group to disable in an `uncover --ablate` run.
pub use campaign::Ablation;

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

impl CliError {
    /// A failed library call, reported in the library's own words.
    pub(crate) fn tool(error: impl fmt::Display) -> Self {
        CliError::Tool(error.to_string())
    }
}

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
        "                          [--transport process|sim]\n",
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

impl Command {
    /// Parses a command line (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] describing what is missing or malformed.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let Some((sub, rest)) = args.split_first() else {
            return Err(CliError::Usage("no sub-command given".into()));
        };
        match sub.as_str() {
            "list-machines" => Ok(Command::ListMachines),
            "help" | "--help" | "-h" => Ok(Command::Help),
            "uncover" => cmd::uncover::parse(rest),
            "compare" => cmd::tools::parse_compare(rest),
            "hammer" => cmd::tools::parse_hammer(rest),
            "decode" => cmd::tools::parse_decode(rest),
            "validate" => cmd::tools::parse_validate(rest),
            "eval" => cmd::eval::parse(rest),
            "campaign" => cmd::campaign::parse(rest).map(Command::Campaign),
            "registry" => cmd::registry::parse(rest).map(Command::Registry),
            "serve" => cmd::registry::parse_serve(rest),
            other => Err(CliError::Usage(format!("unknown sub-command `{other}`"))),
        }
    }
}

/// The Table-II setting of a machine number.
pub(crate) fn setting_for(machine: u8) -> Result<MachineSetting, CliError> {
    MachineSetting::by_number(machine).ok_or(CliError::UnknownMachine(machine))
}

/// Writes a tracer's Chrome trace and a registry's snapshot to optional
/// paths. Both exports are byte-deterministic (simulated clock only).
pub(crate) fn write_trace_files(
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

/// Appends `line` to the longitudinal history file at `path` under the
/// drift gate: a key recorded before must reproduce its line byte for byte,
/// or the run fails as a scoreboard regression. `what` names the recorded
/// thing (`run`, `grid`) in the progress line.
pub(crate) fn record_history(path: &str, line: &str, what: &str) -> Result<(), CliError> {
    let existing = match std::fs::read_to_string(path) {
        Ok(contents) => contents,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(CliError::Tool(format!("cannot read history {path}: {e}"))),
    };
    match dramdig_bench::eval::append_history(&existing, line) {
        Ok(Some(updated)) => {
            std::fs::write(path, updated)
                .map_err(|e| CliError::Tool(format!("cannot write history {path}: {e}")))?;
            eprintln!("[dramdig] history: recorded new {what} in {path}");
        }
        Ok(None) => eprintln!("[dramdig] history: {what} already recorded in {path}, unchanged"),
        Err(drift) => return Err(CliError::Tool(format!("scoreboard {drift}"))),
    }
    Ok(())
}

/// Parses a `--func` argument that must name exactly one bank function.
pub(crate) fn one_bank_function(text: &str) -> Result<XorFunc, CliError> {
    let funcs = dram_model::parse::parse_functions(text)
        .map_err(|e| CliError::Tool(format!("invalid --func: {e}")))?;
    match funcs.as_slice() {
        [func] => Ok(*func),
        _ => Err(CliError::Tool(
            "--func expects exactly one bank function, e.g. \"(13, 16)\"".into(),
        )),
    }
}

/// The closing line of a `--func` query: the machines whose stored
/// mappings share the function, in order and without repeats.
pub(crate) fn machines_sharing<'a>(machines: impl IntoIterator<Item = &'a str>) -> String {
    let machines: std::collections::BTreeSet<&str> = machines.into_iter().collect();
    if machines.is_empty() {
        return "no machine shares it\n".into();
    }
    let machines: Vec<&str> = machines.into_iter().collect();
    format!("machines sharing it: {}\n", machines.join(", "))
}

/// A simulated probe over the whole module of `setting`.
pub(crate) fn probe_for(setting: &MachineSetting, seed: u64) -> SimProbe {
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
        Command::ListMachines => cmd::tools::list_machines(),
        Command::Uncover { .. } => cmd::uncover::execute(command),
        Command::Compare { machine } => cmd::tools::compare(*machine),
        Command::Hammer {
            machine,
            tool,
            tests,
        } => cmd::tools::hammer(*machine, *tool, *tests),
        Command::Decode { machine, addr } => cmd::tools::decode(*machine, *addr),
        Command::Eval { .. } => cmd::eval::execute(command),
        Command::Campaign(action) => cmd::campaign::execute(action),
        Command::Registry(action) => cmd::registry::execute(action),
        Command::Serve {
            registry,
            input,
            metrics,
        } => cmd::registry::serve(registry, input.as_deref(), metrics.as_deref()),
        Command::Validate { funcs, rows, cols } => cmd::tools::validate(funcs, rows, cols),
    }
}

#[cfg(test)]
mod tests;
