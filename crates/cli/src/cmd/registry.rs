//! `dramdig registry` and `dramdig serve`: the mapping registry.

use std::fmt::Write as _;

use campaign::CampaignPaths;
use dram_model::parse;
use dramdig_bench::eval::{EvalGrid, GridKind};

use super::campaign::load_campaign_store;
use crate::flags::{parse_flags, Flag};
use crate::{machines_sharing, one_bank_function, write_trace_files, CliError, Command};

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

/// Parses `dramdig registry` and its action's flags.
pub(crate) fn parse(rest: &[String]) -> Result<RegistryAction, CliError> {
    let Some((action, rest)) = rest.split_first() else {
        return Err(CliError::Usage(
            "`dramdig registry` requires import, gen, query or stats".into(),
        ));
    };
    // Shard count is only honoured when the registry directory is created;
    // reopening keeps the persisted count, so routing never changes under
    // an existing manifest.
    let shards = |flag: Flag| Ok::<_, CliError>(flag.u32_in(1..=99)?.unwrap_or(4));
    match action.as_str() {
        "import" => {
            let ([campaign_dir, registry_dir, shard_count, crash_after], []) = parse_flags(
                rest,
                "registry import",
                ["--campaign", "--registry", "--shards", "--crash-after"],
                [],
            )?;
            Ok(RegistryAction::Import {
                campaign_dir: campaign_dir.need()?.to_string(),
                registry_dir: registry_dir.need()?.to_string(),
                shards: shards(shard_count)?,
                crash_after: crash_after.u64()?.map(|v| v as usize),
            })
        }
        "gen" => {
            let ([registry_dir, grid, count, seed, shard_count], []) = parse_flags(
                rest,
                "registry gen",
                ["--registry", "--grid", "--count", "--seed", "--shards"],
                [],
            )?;
            let (grid, count) = (grid.grid()?, count.u64()?);
            let refusal = match (grid, count) {
                (None, None) => Some("`dramdig registry gen` needs --grid or --count"),
                (Some(_), Some(_)) => Some("--grid and --count are mutually exclusive"),
                (_, Some(0)) => Some("--count must be at least 1"),
                _ => None,
            };
            if let Some(refusal) = refusal {
                return Err(CliError::Usage(refusal.into()));
            }
            Ok(RegistryAction::Gen {
                registry_dir: registry_dir.need()?.to_string(),
                grid,
                count,
                seed: seed.u64_or(1)?,
                shards: shards(shard_count)?,
            })
        }
        "query" => {
            let ([registry_dir, func, fingerprint, nearest, k], []) = parse_flags(
                rest,
                "registry query",
                ["--registry", "--func", "--fingerprint", "--nearest", "--k"],
                [],
            )?;
            let given = [func, fingerprint, nearest]
                .into_iter()
                .filter(|f| f.get().is_some());
            if given.count() != 1 {
                return Err(CliError::Usage(
                    "`dramdig registry query` takes exactly one of --func, --fingerprint \
                     or --nearest"
                        .into(),
                ));
            }
            let k = k.count_or(3)?;
            Ok(RegistryAction::Query {
                registry_dir: registry_dir.need()?.to_string(),
                func: func.string(),
                fingerprint: fingerprint.string(),
                nearest: nearest.string(),
                k,
            })
        }
        "stats" => {
            let ([registry_dir], []) = parse_flags(rest, "registry stats", ["--registry"], [])?;
            Ok(RegistryAction::Stats {
                registry_dir: registry_dir.need()?.to_string(),
            })
        }
        other => Err(CliError::Usage(format!(
            "unknown registry action `{other}` (expected import, gen, query or stats)"
        ))),
    }
}

/// Parses `dramdig serve` flags.
pub(crate) fn parse_serve(rest: &[String]) -> Result<Command, CliError> {
    let ([registry, input, metrics], []) =
        parse_flags(rest, "serve", ["--registry", "--input", "--metrics"], [])?;
    Ok(Command::Serve {
        registry: registry.need()?.to_string(),
        input: input.string(),
        metrics: metrics.string(),
    })
}

/// Opens a registry for reading.
fn open_shared(registry_dir: &str) -> Result<registry::SharedRegistry, CliError> {
    registry::SharedRegistry::open(registry_dir)
        .map_err(|e| CliError::Tool(format!("cannot open registry {registry_dir}: {e}")))
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
    let existing = disk.load().map_err(CliError::tool)?;
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
    let mem = disk.load().map_err(CliError::tool)?;
    let stats = disk.stats().map_err(CliError::tool)?;
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

/// Runs a `dramdig registry` action.
pub(crate) fn execute(action: &RegistryAction) -> Result<String, CliError> {
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
            let machines: Vec<(String, dram_model::GeneratedMachine)> = match (grid, count) {
                (Some(grid), None) => EvalGrid::new(*grid, *seed)
                    .scenarios
                    .into_iter()
                    .map(|scenario| (format!("gen-{}", scenario.id()), scenario.machine))
                    .collect(),
                (None, Some(count)) => (0..*count)
                    .map(|i| {
                        let generator = dram_model::MachineGen::new(seed.wrapping_add(i));
                        let machine = generator.generate(dram_model::MachineClass::InScope);
                        ("gen-inscope".to_string(), machine)
                    })
                    .collect(),
                _ => unreachable!("the parse enforces --grid xor --count"),
            };
            let records = machines
                .into_iter()
                .map(|(tag, machine)| {
                    let source = registry::Source::new(machine.label.clone(), tag);
                    registry::Record::new(machine.mapping(), source)
                })
                .collect();
            append_to_registry(registry_dir, *shards, records, None, "generated")
        }
        RegistryAction::Query {
            registry_dir,
            func,
            fingerprint,
            nearest,
            k,
        } => {
            let shared = open_shared(registry_dir)?;
            let snapshot = shared.snapshot();
            let mut out = String::new();
            if let Some(func) = func {
                let func = one_bank_function(func)?;
                let (entries, cost) = snapshot.mem.entries_sharing_costed(func);
                writeln!(
                    out,
                    "bank function {func} appears in {} of {} registry entries \
                     ({} candidates examined)",
                    entries.len(),
                    snapshot.mem.len(),
                    cost.candidates,
                )
                .expect("write to string");
                for entry in &entries {
                    writeln!(
                        out,
                        "entry = {:016x} machines = {}",
                        entry.fingerprint,
                        entry
                            .machines()
                            .iter()
                            .copied()
                            .collect::<Vec<_>>()
                            .join(", "),
                    )
                    .expect("write to string");
                }
                out.push_str(&machines_sharing(
                    entries.iter().flat_map(|entry| entry.machines()),
                ));
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
            let shared = open_shared(registry_dir)?;
            let snapshot = shared.snapshot();
            let stats = shared.stats().map_err(CliError::tool)?;
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
pub(crate) fn serve(
    registry_dir: &str,
    input: Option<&str>,
    metrics_path: Option<&str>,
) -> Result<String, CliError> {
    let shared = open_shared(registry_dir)?;
    let requests = match input {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Tool(format!("cannot read {path}: {e}")))?,
        None => std::io::read_to_string(std::io::stdin())
            .map_err(|e| CliError::Tool(format!("cannot read stdin: {e}")))?,
    };
    let mut metrics = telemetry::Registry::new();
    let out = registry::serve_text(&requests, &shared, &mut metrics).map_err(CliError::tool)?;
    write_trace_files(&telemetry::Tracer::new(), &metrics, None, metrics_path)?;
    Ok(out)
}
