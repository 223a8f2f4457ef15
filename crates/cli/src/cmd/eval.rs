//! `dramdig eval`: the cross-tool scenario matrix.

use dramdig_bench::eval::{
    outcome_metrics, outcome_tracer, run_grid_metered, run_grid_with_observables, summary_line,
    EvalGrid,
};

use crate::flags::parse_flags;
use crate::{record_history, write_trace_files, CliError, Command};

/// Parses `dramdig eval` flags.
pub(crate) fn parse(rest: &[String]) -> Result<Command, CliError> {
    let ([grid, seed, workers, out, history, observables, trace, metrics], []) = parse_flags(
        rest,
        "eval",
        [
            "--grid",
            "--seed",
            "--workers",
            "--out",
            "--history",
            "--observables",
            "--trace",
            "--metrics",
        ],
        [],
    )?;
    Ok(Command::Eval {
        grid: grid.grid()?.ok_or_else(|| grid.missing())?,
        seed: seed.u64_or(1)?,
        workers: workers.count_or(4)?,
        out: out.string(),
        history: history.string(),
        observables: observables.observables()?,
        trace: trace.string(),
        metrics: metrics.string(),
    })
}

/// Runs `dramdig eval`.
pub(crate) fn execute(command: &Command) -> Result<String, CliError> {
    let Command::Eval {
        grid,
        seed,
        workers,
        out,
        history,
        observables,
        trace,
        metrics,
    } = command
    else {
        unreachable!("dispatched on Command::Eval")
    };
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
        std::fs::write(path, &scoreboard)
            .map_err(|e| CliError::Tool(format!("cannot write scoreboard to {path}: {e}")))?;
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
        record_history(path, &dramdig_bench::eval::history_line(&outcome), "run")?;
    }
    Ok(scoreboard)
}
