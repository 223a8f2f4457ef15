//! `dramdig uncover`: run the DRAMDig pipeline on one Table-II machine.

use std::fmt::Write as _;

use dram_sim::{SimConfig, SimMachine};
use dramdig::engine::{EngineEvent, EngineOptions, Observer, PipelineEngine};
use dramdig::{CheckpointStore, DomainKnowledge, DramDigConfig, DramDigError, TelemetryObserver};
use mem_probe::ObservableKind;
use rowhammer::{FlipAdjacencyConfig, FlipAdjacencyObservable};

use crate::flags::parse_flags;
use crate::{probe_for, setting_for, write_trace_files, Ablation, CliError, Command};

/// Parses `dramdig uncover` flags.
pub(crate) fn parse(rest: &[String]) -> Result<Command, CliError> {
    let ([machine, seed, ablate, checkpoint, budget, observables, trace, metrics], [resume]) =
        parse_flags(
            rest,
            "uncover",
            [
                "--machine",
                "--seed",
                "--ablate",
                "--checkpoint",
                "--budget",
                "--observables",
                "--trace",
                "--metrics",
            ],
            ["--resume"],
        )?;
    let machine = machine.machine()?;
    let seed = seed.u64_or(0xD16)?;
    let ablate = match ablate.get() {
        None => None,
        Some(name) => Some(Ablation::from_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown --ablate group `{name}` (expected spec, sysinfo or empirical)"
            ))
        })?),
    };
    if resume && checkpoint.get().is_none() {
        return Err(CliError::Usage(
            "`--resume` requires `--checkpoint <dir>` naming the run to continue".into(),
        ));
    }
    // Caught at parse time: a zero budget can only ever interrupt before
    // calibration, which reads as a confusing mid-run failure instead of a
    // bad flag.
    let budget = budget.u64()?;
    if budget == Some(0) {
        return Err(CliError::Usage(
            "--budget must be at least 1 pair measurement \
             (a budget of 0 cannot run any phase)"
                .into(),
        ));
    }
    Ok(Command::Uncover {
        machine,
        seed,
        ablate,
        checkpoint: checkpoint.string(),
        resume,
        budget,
        observables: observables.observables()?,
        trace: trace.string(),
        metrics: metrics.string(),
    })
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

/// Runs `dramdig uncover`.
pub(crate) fn execute(command: &Command) -> Result<String, CliError> {
    let Command::Uncover {
        machine,
        seed,
        ablate,
        checkpoint,
        resume,
        budget,
        observables,
        trace,
        metrics,
    } = command
    else {
        unreachable!("dispatched on Command::Uncover")
    };
    let setting = setting_for(*machine)?;
    let mut config = DramDigConfig::default().with_seed(*seed);
    // What `--checkpoint` remembers about the run besides the pipeline
    // configuration: enough to refuse a `--resume` against the wrong
    // machine or ablation.
    let meta = format!(
        "machine = {machine}\nablate = {}\n",
        ablate.map_or("none", Ablation::as_str)
    );
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
                .map_err(CliError::tool)?
                .ok_or_else(|| {
                    CliError::Tool(format!("{dir} holds no recorded configuration to resume"))
                })?;
        }
    }
    let mut knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch))
        .with_observables(observables.clone());
    if let Some(ablation) = ablate {
        knowledge = ablation.apply(knowledge);
    }
    // Per-batch oracle events only exist when someone records them; they
    // cost nothing otherwise.
    let telemetry_on = trace.is_some() || metrics.is_some();
    let mut options = EngineOptions::default().with_fine_events(telemetry_on);
    if let Some(dir) = checkpoint {
        options = options.with_checkpoint(dir);
    }
    if let Some(cap) = budget {
        options = options.with_max_measurements(*cap);
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
            SimMachine::from_setting(&setting, SimConfig::fast_rowhammer().with_seed(hammer_seed)),
            FlipAdjacencyConfig::default(),
        );
        engine.run_with_observables(&mut probe, &options, &mut observer, &mut [&mut flip])
    } else {
        engine.run(&mut probe, &options, &mut observer)
    };
    // Written before the result is inspected: an interrupted run's
    // trace (a byte-prefix of the full run's) is evidence too.
    if let Some(observer) = telemetry {
        let (tracer, registry) = observer.into_parts();
        write_trace_files(&tracer, &registry, trace.as_deref(), metrics.as_deref())?;
    }
    let mut out = format!("machine        : {setting}\n");
    let report = match run_result {
        Ok(report) => report,
        Err(DramDigError::Interrupted { phase, reason }) if checkpoint.is_some() => {
            let dir = checkpoint.as_deref().unwrap_or_default();
            // The suggested command must reproduce this run exactly,
            // ablation included, or the uncover.meta guard refuses it.
            let ablate_flag = ablate.map(|a| format!(" --ablate {a}")).unwrap_or_default();
            writeln!(out, "interrupted before {phase}: {reason}").expect("write");
            writeln!(
                out,
                "checkpoints saved in {dir}; continue with:\n  dramdig uncover --machine {machine}{ablate_flag} --checkpoint {dir} --resume"
            )
            .expect("write to string");
            return Ok(out);
        }
        Err(e) => return Err(CliError::tool(e)),
    };
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
