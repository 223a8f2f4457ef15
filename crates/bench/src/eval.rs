//! Scenario-matrix evaluation: generated machine models, a cross-tool
//! scoreboard and a differential gate.
//!
//! The paper's Tables I/II compare the tools on nine fixed machines. This
//! module opens the workload: a seeded [`EvalGrid`] samples machines from
//! [`MachineGen`] across its declared axes (width, interleaving, function
//! span, window shape, row remapping) and three noise profiles, then drives
//! DRAMDig *and* all three baselines over every scenario through the
//! campaign worker pool ([`campaign::drain_pool`]).
//!
//! The result renders into a plain-text `SCOREBOARD` artifact with a stable
//! codec — everything in it (measurement counts, simulated seconds, pile
//! shapes) is a pure function of the grid seed, so two runs of the same grid
//! are **byte-identical** and CI can `cmp` them. Wall-clock times are
//! deliberately excluded from the artifact; they go to stdout and the
//! benchmark JSON instead.
//!
//! The differential gate encodes DRAMDig's contract on the open workload:
//!
//! * every **in-scope** scenario must be recovered exactly;
//! * every **wide-function** scenario must be *detected* — the pipeline
//!   reports an error instead of inventing a wrong mapping;
//! * every **row-remap** scenario must yield the linear skeleton with the
//!   remap reported as unobservable from timing — unless the grid runs with
//!   the flip-adjacency channel declared
//!   ([`run_grid_with_observables`]), in which case the remap mask itself
//!   must be recovered and the expectation hardens to a full recovery.

use std::fmt;
use std::fmt::Write as _;

use campaign::{drain_pool, MeteredHooks, NoHooks, PoolConfig, PoolHooks};
use dram_baselines::seaborn::SeabornConfig;
use dram_baselines::{BaselineError, Drama, DramaConfig, Seaborn, Xiao, XiaoConfig};
use dram_model::fingerprint::fnv1a64;
use dram_model::{mix_seed, GeneratedMachine, MachineClass, MachineGen, Microarch, RowRemap};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::engine::{EngineOptions, NullObserver, PipelineEngine};
use dramdig::{DomainKnowledge, DramDig, DramDigConfig};
use mem_probe::{rounds_for, MemoryProbe, ObservableKind, SimProbe};
use rowhammer::FlipAdjacencyObservable;
use telemetry::{Registry, SpanKind, Tracer};

/// Schema identifier on the first line of every scoreboard.
pub const SCOREBOARD_SCHEMA: &str = "dramdig-scoreboard-v1";

/// Size presets for the scenario grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// 8 scenarios — unit tests and the benchmark JSON.
    Quick,
    /// 24 scenarios — the CI `scenario-matrix` gate (~seconds).
    Ci,
    /// 48 scenarios — a broader sweep for manual exploration.
    Full,
    /// 1,000 scenarios — the mapreduce-scale grid behind the scheduled
    /// `big-grid` CI job and the `campaign_mapreduce` bench section.
    Big,
}

impl GridKind {
    /// Every kind, in a stable order.
    pub const ALL: [GridKind; 4] = [GridKind::Quick, GridKind::Ci, GridKind::Full, GridKind::Big];

    /// Stable identifier used on the CLI and in the scoreboard.
    pub const fn as_str(self) -> &'static str {
        match self {
            GridKind::Quick => "quick",
            GridKind::Ci => "ci",
            GridKind::Full => "full",
            GridKind::Big => "big",
        }
    }

    /// Parses an identifier produced by [`GridKind::as_str`].
    pub fn from_name(name: &str) -> Option<GridKind> {
        Self::ALL.into_iter().find(|k| k.as_str() == name)
    }

    /// Number of scenarios in this grid.
    pub const fn scenario_count(self) -> usize {
        match self {
            GridKind::Quick => 8,
            GridKind::Ci => 24,
            GridKind::Full => 48,
            GridKind::Big => 1000,
        }
    }
}

impl fmt::Display for GridKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Noise profile a scenario measures under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseKind {
    /// No measurement noise at all.
    Noiseless,
    /// The default Gaussian noise plus rare outliers.
    Default,
    /// Default noise plus the TRR-like periodic sampler spikes.
    Trr,
}

impl NoiseKind {
    /// Stable identifier used in the scoreboard.
    pub const fn as_str(self) -> &'static str {
        match self {
            NoiseKind::Noiseless => "noiseless",
            NoiseKind::Default => "default",
            NoiseKind::Trr => "trr",
        }
    }

    /// The simulator configuration (before seeding) for this profile.
    pub fn sim_config(self) -> SimConfig {
        match self {
            NoiseKind::Noiseless => SimConfig::noiseless(),
            NoiseKind::Default => SimConfig::default(),
            NoiseKind::Trr => SimConfig::trr_noise(),
        }
    }
}

/// One cell of the scenario axis product: a generated machine plus the
/// noise profile it is measured under.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the grid (names the scenario in the scoreboard).
    pub index: usize,
    /// The generated machine model (class included).
    pub machine: GeneratedMachine,
    /// The noise profile of every measurement in this scenario.
    pub noise: NoiseKind,
    /// Simulator noise seed.
    pub sim_seed: u64,
    /// Tool-side RNG seed.
    pub tool_seed: u64,
}

impl Scenario {
    /// Stable scenario identifier, e.g. `s07`.
    pub fn id(&self) -> String {
        format!("s{:02}", self.index)
    }

    /// The seeded simulator configuration for this scenario.
    pub fn sim_config(&self) -> SimConfig {
        self.noise.sim_config().with_seed(self.sim_seed)
    }

    /// A fresh probe over the scenario's machine: every tool observes the
    /// same simulated module through the same noise-matched rounds budget.
    pub fn probe(&self) -> SimProbe {
        let config = self.sim_config();
        let rounds = rounds_for(&config);
        let machine = SimMachine::from_generated(&self.machine, config);
        SimProbe::new(
            machine,
            PhysMemory::full(self.machine.system.capacity_bytes),
        )
        .with_rounds(rounds)
    }
}

/// A fully expanded scenario grid.
#[derive(Debug, Clone)]
pub struct EvalGrid {
    /// The size preset the grid was built from.
    pub kind: GridKind,
    /// The grid seed every scenario seed derives from.
    pub seed: u64,
    /// The expanded scenarios, in index order.
    pub scenarios: Vec<Scenario>,
}

impl EvalGrid {
    /// Expands the deterministic grid for `(kind, seed)`: per block of six
    /// scenarios, four in-scope, one wide-function and one row-remap, with
    /// the noise profile cycling through all three kinds.
    pub fn new(kind: GridKind, seed: u64) -> Self {
        let scenarios = (0..kind.scenario_count())
            .map(|index| {
                let class = match index % 6 {
                    4 => MachineClass::WideFunction,
                    5 => MachineClass::RowRemap,
                    _ => MachineClass::InScope,
                };
                let noise = match index % 3 {
                    0 => NoiseKind::Noiseless,
                    1 => NoiseKind::Default,
                    _ => NoiseKind::Trr,
                };
                let gen_seed = mix_seed(seed, index as u64);
                Scenario {
                    index,
                    machine: MachineGen::new(gen_seed).generate(class),
                    noise,
                    sim_seed: mix_seed(seed, 0x5151 ^ (index as u64) << 8),
                    tool_seed: mix_seed(seed, 0x7001 ^ (index as u64) << 8),
                }
            })
            .collect();
        EvalGrid {
            kind,
            seed,
            scenarios,
        }
    }

    /// Scenarios of one class.
    pub fn of_class(&self, class: MachineClass) -> impl Iterator<Item = &Scenario> {
        self.scenarios
            .iter()
            .filter(move |s| s.machine.class == class)
    }
}

/// The tools the scoreboard compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ToolId {
    /// The knowledge-assisted pipeline under test.
    DramDig,
    /// DRAMA (Pessl et al.) — generic but blind and slow.
    Drama,
    /// Xiao et al. — fast but DDR3-only and two-bit functions only.
    Xiao,
    /// Seaborn et al. — the published Sandy Bridge guess.
    Seaborn,
}

impl ToolId {
    /// Every tool, in scoreboard order.
    pub const ALL: [ToolId; 4] = [
        ToolId::DramDig,
        ToolId::Drama,
        ToolId::Xiao,
        ToolId::Seaborn,
    ];

    /// Stable identifier used in the scoreboard.
    pub const fn as_str(self) -> &'static str {
        match self {
            ToolId::DramDig => "dramdig",
            ToolId::Drama => "drama",
            ToolId::Xiao => "xiao",
            ToolId::Seaborn => "seaborn",
        }
    }
}

impl fmt::Display for ToolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// How one tool fared on one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreStatus {
    /// Recovered the full ground-truth mapping.
    Recovered,
    /// Recovered the linear skeleton of a row-remapped machine — everything
    /// the timing channel can possibly observe.
    Skeleton,
    /// Refused to produce a mapping on an out-of-scope machine and said why
    /// (the desired behaviour there).
    Detected,
    /// Recovered the bank partition but not the full mapping.
    PartitionOnly,
    /// Declared itself not applicable to the machine.
    NotApplicable,
    /// Failed (stuck, error) on a scenario it should handle.
    Failed,
    /// Returned a mapping that contradicts the ground truth — the one
    /// outcome the gate never tolerates.
    Wrong,
}

impl ScoreStatus {
    /// Stable identifier used in the scoreboard.
    pub const fn as_str(self) -> &'static str {
        match self {
            ScoreStatus::Recovered => "recovered",
            ScoreStatus::Skeleton => "skeleton",
            ScoreStatus::Detected => "detected",
            ScoreStatus::PartitionOnly => "partition-only",
            ScoreStatus::NotApplicable => "not-applicable",
            ScoreStatus::Failed => "failed",
            ScoreStatus::Wrong => "WRONG",
        }
    }
}

/// One scoreboard cell.
#[derive(Debug, Clone)]
pub struct ToolScore {
    /// The tool that produced the cell.
    pub tool: ToolId,
    /// Outcome classification.
    pub status: ScoreStatus,
    /// Pair measurements the tool spent.
    pub measurements: u64,
    /// Simulated seconds the tool spent (deterministic, unlike wall time).
    pub sim_seconds: f64,
    /// Free-form deterministic detail (error reason, notes).
    pub detail: String,
}

/// One scoreboard row: a scenario and every tool's score on it.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The scenario.
    pub scenario: Scenario,
    /// Scores in [`ToolId::ALL`] order.
    pub scores: Vec<ToolScore>,
    /// DRAMDig's per-phase measurement counts (empty when it failed).
    pub dramdig_phases: Vec<(String, u64)>,
}

impl ScenarioRow {
    /// The score of one tool.
    pub fn score(&self, tool: ToolId) -> &ToolScore {
        self.scores
            .iter()
            .find(|s| s.tool == tool)
            .expect("every row scores every tool")
    }
}

/// The differential-gate verdict over a finished grid.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// One line per violated expectation; empty means the gate passed.
    pub failures: Vec<String>,
}

impl GateReport {
    /// `true` when every expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A finished scenario-matrix evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The grid preset that ran.
    pub kind: GridKind,
    /// The grid seed.
    pub seed: u64,
    /// The observable channels DRAMDig ran with (the gate's expectations
    /// depend on them).
    pub observables: Vec<ObservableKind>,
    /// One row per scenario, in index order.
    pub rows: Vec<ScenarioRow>,
}

/// Per-tool counts across a finished grid (for summaries and the perf
/// trajectory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToolCounts {
    /// Full recoveries.
    pub recovered: usize,
    /// Linear-skeleton recoveries on row-remapped machines.
    pub skeleton: usize,
    /// Loud refusals on out-of-scope machines.
    pub detected: usize,
    /// Bank-partition-only recoveries.
    pub partition_only: usize,
    /// Not-applicable verdicts.
    pub not_applicable: usize,
    /// Failures.
    pub failed: usize,
    /// Wrong mappings (must stay zero for DRAMDig).
    pub wrong: usize,
    /// Total pair measurements across all scenarios.
    pub measurements: u64,
}

impl EvalOutcome {
    /// Counts one tool's outcomes across the grid.
    pub fn counts(&self, tool: ToolId) -> ToolCounts {
        let mut counts = ToolCounts::default();
        for row in &self.rows {
            let score = row.score(tool);
            match score.status {
                ScoreStatus::Recovered => counts.recovered += 1,
                ScoreStatus::Skeleton => counts.skeleton += 1,
                ScoreStatus::Detected => counts.detected += 1,
                ScoreStatus::PartitionOnly => counts.partition_only += 1,
                ScoreStatus::NotApplicable => counts.not_applicable += 1,
                ScoreStatus::Failed => counts.failed += 1,
                ScoreStatus::Wrong => counts.wrong += 1,
            }
            counts.measurements += score.measurements;
        }
        counts
    }

    /// Whether the flip-adjacency channel was active in this evaluation.
    pub fn flip_adjacency_active(&self) -> bool {
        self.observables.contains(&ObservableKind::FlipAdjacency)
    }

    /// The differential gate: DRAMDig must recover every in-scope scenario,
    /// detect every wide-function scenario and produce the skeleton on every
    /// row-remap scenario — or, when the flip-adjacency channel ran, recover
    /// the remap mask itself. No tool may ever score `WRONG` silently — for
    /// DRAMDig it gates, for baselines it is reported.
    pub fn gate(&self) -> GateReport {
        let mut report = GateReport::default();
        let remap_expectation = if self.flip_adjacency_active() {
            ScoreStatus::Recovered
        } else {
            ScoreStatus::Skeleton
        };
        for row in &self.rows {
            let score = row.score(ToolId::DramDig);
            let expected = match row.scenario.machine.class {
                MachineClass::InScope => ScoreStatus::Recovered,
                MachineClass::WideFunction => ScoreStatus::Detected,
                MachineClass::RowRemap => remap_expectation,
            };
            if score.status != expected {
                report.failures.push(format!(
                    "{} [{}]: dramdig scored {} (expected {}): {}",
                    row.scenario.id(),
                    row.scenario.machine.axes_summary(),
                    score.status.as_str(),
                    expected.as_str(),
                    score.detail,
                ));
            }
        }
        report
    }

    /// Renders the deterministic scoreboard artifact.
    pub fn render_scoreboard(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {SCOREBOARD_SCHEMA}");
        let _ = writeln!(out, "grid = {}", self.kind);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "scenarios = {}", self.rows.len());
        let tools: Vec<&str> = ToolId::ALL.iter().map(|t| t.as_str()).collect();
        let _ = writeln!(out, "tools = {}", tools.join(", "));
        // Printed only for non-default channel sets: the timing-only
        // scoreboard must stay byte-identical to pre-observable artifacts.
        if self.observables.as_slice() != [ObservableKind::ConflictTiming] {
            let names: Vec<&str> = self.observables.iter().map(|k| k.as_str()).collect();
            let _ = writeln!(out, "observables = {}", names.join(", "));
        }
        for row in &self.rows {
            let s = &row.scenario;
            let _ = writeln!(out);
            let _ = writeln!(out, "[scenario {}]", s.id());
            let _ = writeln!(out, "machine = {}", s.machine.label);
            let _ = writeln!(out, "axes = {}", s.machine.axes_summary());
            let _ = writeln!(out, "noise = {}", s.noise.as_str());
            let _ = writeln!(out, "truth = {}", s.machine.mapping());
            for score in &row.scores {
                let _ = writeln!(
                    out,
                    "{} = {} | measurements {} | sim_s {:.6}{}",
                    score.tool,
                    score.status.as_str(),
                    score.measurements,
                    score.sim_seconds,
                    if score.detail.is_empty() {
                        String::new()
                    } else {
                        format!(" | {}", score.detail)
                    },
                );
            }
            if !row.dramdig_phases.is_empty() {
                let phases: Vec<String> = row
                    .dramdig_phases
                    .iter()
                    .map(|(name, m)| format!("{name} {m}"))
                    .collect();
                let _ = writeln!(out, "dramdig_phases = {}", phases.join(", "));
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "[summary]");
        let in_scope = self
            .rows
            .iter()
            .filter(|r| r.scenario.machine.class == MachineClass::InScope)
            .count();
        let _ = writeln!(out, "in_scope = {in_scope}");
        let _ = writeln!(out, "out_of_scope = {}", self.rows.len() - in_scope);
        for tool in ToolId::ALL {
            let c = self.counts(tool);
            let _ = writeln!(
                out,
                "{} = recovered {} | skeleton {} | detected {} | partition-only {} | not-applicable {} | failed {} | wrong {} | measurements {}",
                tool,
                c.recovered,
                c.skeleton,
                c.detected,
                c.partition_only,
                c.not_applicable,
                c.failed,
                c.wrong,
                c.measurements,
            );
        }
        let gate = self.gate();
        for failure in &gate.failures {
            let _ = writeln!(out, "gate_failure = {failure}");
        }
        let _ = writeln!(
            out,
            "gate = {}",
            if gate.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Encodes a finished evaluation as one stable history line. The part
/// before the first `|` is the run's identity key (grid, seed, observable
/// channels); the rest records the gate verdict, the board fingerprint and
/// per-tool outcome counts. Every field is deterministic for a given tree,
/// so re-running the same key must reproduce the line byte-for-byte.
pub fn history_line(outcome: &EvalOutcome) -> String {
    let names: Vec<&str> = outcome.observables.iter().map(|k| k.as_str()).collect();
    let mut line = format!(
        "grid={} seed={} observables={} | gate={} scenarios={} board=fnv1a:{:016x}",
        outcome.kind,
        outcome.seed,
        names.join("+"),
        if outcome.gate().passed() {
            "PASS"
        } else {
            "FAIL"
        },
        outcome.rows.len(),
        fnv1a64(outcome.render_scoreboard().as_bytes()),
    );
    for tool in ToolId::ALL {
        let c = outcome.counts(tool);
        let _ = write!(
            line,
            " | {tool} recovered={} skeleton={} detected={} partition_only={} not_applicable={} failed={} wrong={} measurements={}",
            c.recovered,
            c.skeleton,
            c.detected,
            c.partition_only,
            c.not_applicable,
            c.failed,
            c.wrong,
            c.measurements,
        );
    }
    line
}

/// The identity key of a history line: everything before the first `|`.
pub fn history_key(line: &str) -> &str {
    line.split('|').next().unwrap_or(line).trim()
}

/// The deterministic end-of-run summary printed to stderr by `dramdig
/// eval`. Built entirely from simulated seconds — the sum every row's
/// scoreboard already records — so the line is byte-identical across
/// re-runs and worker counts, unlike the wall-clock line it replaced.
pub fn summary_line(outcome: &EvalOutcome) -> String {
    let sim_seconds: f64 = outcome
        .rows
        .iter()
        .flat_map(|row| row.scores.iter())
        .map(|score| score.sim_seconds)
        .sum();
    format!(
        "[dramdig] eval grid `{}` ({} scenarios x {} tools) spent {:.1} s simulated",
        outcome.kind,
        outcome.rows.len(),
        ToolId::ALL.len(),
        sim_seconds,
    )
}

/// Reassembles a finished evaluation into a span trace: one
/// [`SpanKind::EvalCell`] per (scenario, tool) cell on a virtual serial
/// timeline, inside one [`SpanKind::Run`] span.
///
/// The assembly is **post-hoc** on purpose: cells finish in nondeterministic
/// pool order, so instead of recording during the drain the trace is built
/// from the already-sorted rows, clocked on each cell's simulated seconds.
/// The resulting bytes are a pure function of the outcome — same guarantee
/// as the scoreboard, so CI can `cmp` two same-seed traces.
pub fn outcome_tracer(outcome: &EvalOutcome) -> Tracer {
    let mut tracer = Tracer::new();
    let run = tracer.begin_with(
        SpanKind::Run,
        &format!("eval-{}", outcome.kind),
        &[
            ("seed", outcome.seed),
            ("scenarios", outcome.rows.len() as u64),
        ],
    );
    for row in &outcome.rows {
        for score in &row.scores {
            let span = tracer.begin_with(
                SpanKind::EvalCell,
                &format!("{}/{}", row.scenario.id(), score.tool),
                &[("measurements", score.measurements)],
            );
            // sim_seconds was derived from integer nanoseconds; the
            // round-trip back is exact for any realistic run length.
            tracer.advance_ns((score.sim_seconds * 1e9).round() as u64);
            tracer.end(span);
        }
    }
    tracer.end_with(
        run,
        &[(
            "measurements",
            ToolId::ALL
                .iter()
                .map(|&t| outcome.counts(t).measurements)
                .sum(),
        )],
    );
    tracer
}

/// Folds a finished evaluation into metrics: per-tool outcome counters and
/// measurement totals. Merge with the registry filled by
/// [`run_grid_metered`] to add the worker-pool counters.
pub fn outcome_metrics(outcome: &EvalOutcome) -> Registry {
    let mut metrics = Registry::new();
    metrics.counter_add(
        "eval_cells_total",
        (outcome.rows.len() * ToolId::ALL.len()) as u64,
    );
    for tool in ToolId::ALL {
        let c = outcome.counts(tool);
        let name = tool.as_str();
        metrics.counter_add(&format!("eval_{name}_measurements"), c.measurements);
        for (status, count) in [
            ("recovered", c.recovered),
            ("skeleton", c.skeleton),
            ("detected", c.detected),
            ("partition_only", c.partition_only),
            ("not_applicable", c.not_applicable),
            ("failed", c.failed),
            ("wrong", c.wrong),
        ] {
            metrics.counter_add(&format!("eval_{name}_{status}"), count as u64);
        }
    }
    metrics
}

/// Appends a run to the longitudinal history under the regression gate: a
/// key that was recorded before must reproduce its line byte-for-byte.
/// Returns `Ok(None)` when the history already holds the identical line
/// (nothing to write), `Ok(Some(updated))` with the new file contents when
/// the key is new, and `Err` describing the drift when the same key re-ran
/// to a different board or counts. Blank lines and `#` comments in the
/// existing history are preserved and ignored by the gate.
pub fn append_history(existing: &str, line: &str) -> Result<Option<String>, String> {
    let line = line.trim();
    let key = history_key(line);
    for prior in existing.lines() {
        let prior = prior.trim();
        if prior.is_empty() || prior.starts_with('#') {
            continue;
        }
        if history_key(prior) == key {
            if prior == line {
                return Ok(None);
            }
            return Err(format!(
                "history regression for `{key}`:\n  recorded: {prior}\n  current:  {line}"
            ));
        }
    }
    let mut updated = existing.to_string();
    if !updated.is_empty() && !updated.ends_with('\n') {
        updated.push('\n');
    }
    updated.push_str(line);
    updated.push('\n');
    Ok(Some(updated))
}

/// Parses the `gate = PASS|FAIL` verdict out of a rendered scoreboard (the
/// regression check CI and tests run against stored artifacts).
pub fn parse_gate(scoreboard: &str) -> Option<bool> {
    scoreboard
        .lines()
        .rev()
        .find_map(|line| match line.trim().strip_prefix("gate = ") {
            Some("PASS") => Some(true),
            Some("FAIL") => Some(false),
            _ => None,
        })
}

/// The DRAMDig configuration the evaluation runs: the optimized profile with
/// test-sized calibration/validation budgets.
pub fn eval_dramdig_config(tool_seed: u64) -> DramDigConfig {
    DramDigConfig {
        calibration_samples: 200,
        validation_samples: 32,
        ..DramDigConfig::optimized().with_seed(tool_seed)
    }
}

/// The DRAMA configuration the evaluation runs: the `fast` profile trimmed
/// further so a 24-scenario grid stays within CI seconds.
pub fn eval_drama_config(tool_seed: u64) -> DramaConfig {
    DramaConfig {
        pool_size: 1200,
        sets_to_collect: 128,
        target_coverage: 0.75,
        measurement_budget: 400_000,
        rng_seed: tool_seed,
        ..DramaConfig::fast()
    }
}

/// The seed of the flip-adjacency channel's own simulated module for a
/// scenario (the channel never reuses the timing probe's machine, so the
/// timing measurement stream is untouched by hammering).
pub fn flip_sim_seed(scenario: &Scenario) -> u64 {
    mix_seed(scenario.sim_seed, 0xF11A)
}

fn score_dramdig(
    scenario: &Scenario,
    observables: &[ObservableKind],
) -> (ToolScore, Vec<(String, u64)>) {
    let mut probe = scenario.probe();
    let knowledge = DomainKnowledge::for_generated(&scenario.machine);
    let config = eval_dramdig_config(scenario.tool_seed);
    let result = if observables.contains(&ObservableKind::FlipAdjacency) {
        let knowledge = knowledge.with_observables(observables.to_vec());
        let mut flip =
            FlipAdjacencyObservable::for_generated(&scenario.machine, flip_sim_seed(scenario));
        PipelineEngine::new(knowledge, config).run_with_observables(
            &mut probe,
            &EngineOptions::default(),
            &mut NullObserver,
            &mut [&mut flip],
        )
    } else {
        DramDig::new(knowledge, config).run(&mut probe)
    };
    let stats = probe.stats();
    let truth = scenario.machine.mapping();
    let (status, detail, phases) = match (&result, scenario.machine.class) {
        (Ok(r), MachineClass::InScope) if r.mapping.equivalent_to(truth) => {
            (ScoreStatus::Recovered, String::new(), phase_list(r))
        }
        (Ok(r), MachineClass::RowRemap) if r.mapping.equivalent_to(truth) => {
            score_row_remap(scenario, r)
        }
        (Ok(r), MachineClass::WideFunction) if r.mapping.equivalent_to(truth) => (
            ScoreStatus::Recovered,
            "unexpectedly recovered a wide function".to_string(),
            phase_list(r),
        ),
        (Ok(r), _) => (
            ScoreStatus::Wrong,
            format!("returned {}", r.mapping),
            phase_list(r),
        ),
        (Err(e), MachineClass::WideFunction) => (ScoreStatus::Detected, e.to_string(), Vec::new()),
        (Err(e), _) => (ScoreStatus::Failed, e.to_string(), Vec::new()),
    };
    (
        ToolScore {
            tool: ToolId::DramDig,
            status,
            measurements: stats.measurements,
            sim_seconds: stats.elapsed_ns as f64 / 1e9,
            detail,
        },
        phases,
    )
}

fn phase_list(report: &dramdig::RunReport) -> Vec<(String, u64)> {
    report
        .phase_costs
        .iter()
        .map(|(phase, cost)| (phase.name().to_string(), cost.measurements))
        .collect()
}

/// Scores a row-remap scenario whose linear skeleton already matched the
/// ground truth. Timing alone can only claim the skeleton; when the
/// flip-adjacency channel ran, the recovered mask must equal the
/// generator's (canonical under reflection — a mask and its mirror are
/// physically the same machine).
fn score_row_remap(
    scenario: &Scenario,
    report: &dramdig::RunReport,
) -> (ScoreStatus, String, Vec<(String, u64)>) {
    let phases = phase_list(report);
    let flip_ran = report
        .observable_costs
        .iter()
        .any(|(kind, _)| *kind == ObservableKind::FlipAdjacency);
    if !flip_ran {
        return (
            ScoreStatus::Skeleton,
            "row remap unobservable from timing; linear skeleton recovered".to_string(),
            phases,
        );
    }
    let truth = scenario
        .machine
        .row_remap
        .as_ref()
        .map(|r| RowRemap::canonical_mask(r.xor_mask, scenario.machine.mapping().num_rows()))
        .filter(|&mask| mask != 0);
    let hammer_pairs: u64 = report
        .observable_costs
        .iter()
        .map(|(_, cost)| cost.hammer_pairs)
        .sum();
    match (report.row_remap, truth) {
        (Some(got), Some(want)) if got == want => (
            ScoreStatus::Recovered,
            format!(
                "row remap {got:#x} recovered via flip adjacency ({hammer_pairs} hammer pairs)"
            ),
            phases,
        ),
        (None, None) => (
            ScoreStatus::Recovered,
            "row remap is a pure mirror of the row line; skeleton already exact".to_string(),
            phases,
        ),
        (Some(got), want) => (
            ScoreStatus::Wrong,
            format!(
                "flip adjacency claimed row remap {got:#x}, truth is {}",
                want.map_or("none".to_string(), |w| format!("{w:#x}")),
            ),
            phases,
        ),
        (None, Some(want)) => (
            ScoreStatus::Skeleton,
            format!(
                "flip adjacency failed to recover row remap {want:#x} \
                 ({hammer_pairs} hammer pairs spent)"
            ),
            phases,
        ),
    }
}

/// What a full ground-truth match means on this scenario: a true recovery,
/// or — on a row-remapped machine — only the linear skeleton.
fn full_match_status(scenario: &Scenario) -> (ScoreStatus, String) {
    if scenario.machine.class == MachineClass::RowRemap {
        (
            ScoreStatus::Skeleton,
            "row remap unobservable from timing; linear skeleton recovered".to_string(),
        )
    } else {
        (ScoreStatus::Recovered, String::new())
    }
}

/// Classifies a probe-driven baseline outcome and assembles its scoreboard
/// cell; `partition_detail` names what the tool leaves unrecovered when only
/// the bank partition matches.
fn score_probe_baseline(
    tool: ToolId,
    scenario: &Scenario,
    result: &Result<dram_baselines::ToolOutcome, BaselineError>,
    stats: mem_probe::ProbeStats,
    partition_detail: &str,
) -> ToolScore {
    let truth = scenario.machine.mapping();
    let (status, detail) = match result {
        Ok(o) if o.matches(truth) => full_match_status(scenario),
        Ok(o) if o.bank_partition_matches(truth) => {
            (ScoreStatus::PartitionOnly, partition_detail.to_string())
        }
        Ok(_) => (
            ScoreStatus::Wrong,
            "recovered a wrong partition".to_string(),
        ),
        Err(e) => (baseline_status(e), e.to_string()),
    };
    ToolScore {
        tool,
        status,
        measurements: stats.measurements,
        sim_seconds: stats.elapsed_ns as f64 / 1e9,
        detail,
    }
}

fn score_drama(scenario: &Scenario) -> ToolScore {
    let mut probe = scenario.probe();
    let result = Drama::new(eval_drama_config(scenario.tool_seed))
        .run(&mut probe, scenario.machine.system.address_bits());
    score_probe_baseline(
        ToolId::Drama,
        scenario,
        &result,
        probe.stats(),
        "bank partition correct; shared row/column bits unrecovered",
    )
}

fn score_xiao(scenario: &Scenario) -> ToolScore {
    let mut probe = scenario.probe();
    let result = Xiao::new(XiaoConfig {
        rng_seed: scenario.tool_seed,
        ..XiaoConfig::default()
    })
    .run(&mut probe, &scenario.machine.system);
    score_probe_baseline(
        ToolId::Xiao,
        scenario,
        &result,
        probe.stats(),
        "bank partition correct; bit classification incomplete",
    )
}

fn score_seaborn(scenario: &Scenario) -> ToolScore {
    // A small survey keeps the blind-rowhammer cost bounded; on generated
    // machines the published guess never applies, which is the point the
    // scoreboard makes about machine-specific approaches.
    let mut machine = SimMachine::from_generated(&scenario.machine, scenario.sim_config());
    let result = Seaborn::new(SeabornConfig {
        survey_pairs: 12,
        iterations_per_pair: 400,
        rng_seed: scenario.tool_seed,
    })
    .run(&mut machine, Microarch::Skylake);
    let elapsed_ns = machine.controller().elapsed_ns();
    let truth = scenario.machine.mapping();
    let (status, measurements, detail) = match &result {
        Ok(o) if o.matches(truth) => {
            let (status, detail) = full_match_status(scenario);
            (status, o.measurements, detail)
        }
        Ok(o) => (
            ScoreStatus::Wrong,
            o.measurements,
            "published guess does not match this machine".to_string(),
        ),
        Err(e) => (baseline_status(e), 12, e.to_string()),
    };
    ToolScore {
        tool: ToolId::Seaborn,
        status,
        measurements,
        sim_seconds: elapsed_ns as f64 / 1e9,
        detail,
    }
}

fn baseline_status(error: &BaselineError) -> ScoreStatus {
    match error {
        BaselineError::NotApplicable { .. } => ScoreStatus::NotApplicable,
        _ => ScoreStatus::Failed,
    }
}

/// One finished grid cell: the tool's score plus (for DRAMDig) the
/// per-phase measurement counts.
type Cell = (ToolScore, Vec<(String, u64)>);

fn score(scenario: &Scenario, tool: ToolId, observables: &[ObservableKind]) -> Cell {
    match tool {
        ToolId::DramDig => score_dramdig(scenario, observables),
        ToolId::Drama => (score_drama(scenario), Vec::new()),
        ToolId::Xiao => (score_xiao(scenario), Vec::new()),
        ToolId::Seaborn => (score_seaborn(scenario), Vec::new()),
    }
}

/// Runs the grid on the default (timing-only) channel set. Equivalent to
/// [`run_grid_with_observables`] with `[ObservableKind::ConflictTiming]`,
/// and byte-identical to the pre-observable scoreboard.
pub fn run_grid(grid: &EvalGrid, workers: usize) -> EvalOutcome {
    run_grid_with_observables(grid, workers, &[ObservableKind::ConflictTiming])
}

/// Runs the grid: every (scenario, tool) cell is one job on the campaign
/// worker pool, and the cells are reassembled into deterministic row order
/// afterwards, so the scoreboard is byte-identical at any worker count.
///
/// `observables` is the channel set DRAMDig runs with (the baselines are
/// unaffected). Declaring [`ObservableKind::FlipAdjacency`] gives the
/// pipeline a rowhammer channel over each scenario's machine — seeded from
/// the scenario, so the scoreboard stays deterministic — and hardens the
/// gate's row-remap expectation from skeleton to full recovery.
pub fn run_grid_with_observables(
    grid: &EvalGrid,
    workers: usize,
    observables: &[ObservableKind],
) -> EvalOutcome {
    run_grid_hooked(grid, workers, observables, &mut NoHooks)
}

/// Runs the grid like [`run_grid_with_observables`] while counting worker
/// pool activity (queue depth, dequeues, verdicts) into `metrics` through
/// [`campaign::MeteredHooks`]. The counters are order-independent totals,
/// so the snapshot is deterministic at any worker count even though the
/// drain order is not.
pub fn run_grid_metered(
    grid: &EvalGrid,
    workers: usize,
    observables: &[ObservableKind],
    metrics: &mut Registry,
) -> EvalOutcome {
    let depth = grid.scenarios.len() * ToolId::ALL.len();
    let mut hooks = MeteredHooks::new(NoHooks, metrics, depth);
    run_grid_hooked(grid, workers, observables, &mut hooks)
}

fn run_grid_hooked<H>(
    grid: &EvalGrid,
    workers: usize,
    observables: &[ObservableKind],
    hooks: &mut H,
) -> EvalOutcome
where
    H: PoolHooks<(usize, ToolId), Cell, Error = std::convert::Infallible> + Send,
{
    let jobs: Vec<((usize, ToolId), u32)> = grid
        .scenarios
        .iter()
        .flat_map(|s| ToolId::ALL.map(|tool| ((s.index, tool), 1)))
        .collect();
    let drained = match drain_pool(
        jobs,
        &PoolConfig::workers(workers),
        hooks,
        |&(index, tool), _| Ok::<_, String>(score(&grid.scenarios[index], tool, observables)),
    ) {
        Ok(outcome) => outcome,
        Err(infallible) => match infallible {},
    };

    let mut cells: Vec<((usize, ToolId), Cell)> = drained
        .completed
        .into_iter()
        .map(|(key, _, value)| (key, value))
        .collect();
    cells.sort_by_key(|((index, tool), _)| (*index, *tool));

    let rows = grid
        .scenarios
        .iter()
        .map(|scenario| {
            let mut scores = Vec::with_capacity(ToolId::ALL.len());
            let mut dramdig_phases = Vec::new();
            for ((index, tool), (score, phases)) in &cells {
                if *index == scenario.index {
                    scores.push(score.clone());
                    if *tool == ToolId::DramDig {
                        dramdig_phases = phases.clone();
                    }
                }
            }
            ScenarioRow {
                scenario: scenario.clone(),
                scores,
                dramdig_phases,
            }
        })
        .collect();

    EvalOutcome {
        kind: grid.kind,
        seed: grid.seed,
        observables: observables.to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_deterministic_and_mixes_classes() {
        let a = EvalGrid::new(GridKind::Ci, 1);
        let b = EvalGrid::new(GridKind::Ci, 1);
        assert_eq!(a.scenarios.len(), 24);
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.machine, y.machine);
            assert_eq!(x.sim_seed, y.sim_seed);
        }
        assert_eq!(a.of_class(MachineClass::InScope).count(), 16);
        assert_eq!(a.of_class(MachineClass::WideFunction).count(), 4);
        assert_eq!(a.of_class(MachineClass::RowRemap).count(), 4);
        // A different seed samples different machines.
        let c = EvalGrid::new(GridKind::Ci, 2);
        assert_ne!(a.scenarios[0].machine, c.scenarios[0].machine);
    }

    #[test]
    fn grid_names_round_trip() {
        for kind in GridKind::ALL {
            assert_eq!(GridKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(GridKind::from_name("huge"), None);
        assert!(GridKind::Quick.scenario_count() < GridKind::Ci.scenario_count());
    }

    #[test]
    fn quick_grid_runs_gates_and_renders_deterministically() {
        let grid = EvalGrid::new(GridKind::Quick, 1);
        let outcome = run_grid(&grid, 4);
        assert_eq!(outcome.rows.len(), 8);
        let gate = outcome.gate();
        assert!(gate.passed(), "gate failures: {:?}", gate.failures);

        let board = outcome.render_scoreboard();
        assert!(board.starts_with(&format!("# {SCOREBOARD_SCHEMA}")));
        assert_eq!(parse_gate(&board), Some(true));
        assert!(board.contains("[scenario s00]"));
        assert!(board.contains("dramdig_phases = calibration"));

        // Byte-identical across runs and worker counts.
        let again = run_grid(&grid, 1);
        assert_eq!(again.render_scoreboard(), board);

        // The telemetry artifacts inherit the same guarantee: the trace,
        // metrics and stderr summary are pure functions of the outcome.
        assert_eq!(
            outcome_tracer(&outcome).chrome_trace(),
            outcome_tracer(&again).chrome_trace()
        );
        assert_eq!(
            outcome_metrics(&outcome).snapshot(),
            outcome_metrics(&again).snapshot()
        );
        assert_eq!(summary_line(&outcome), summary_line(&again));
        assert!(summary_line(&outcome).ends_with("s simulated"));
        let trace = outcome_tracer(&outcome).chrome_trace();
        assert!(trace.contains("\"cat\":\"eval_cell\""));
        assert!(trace.contains("\"name\":\"s00/dramdig\""));
        let metrics = outcome_metrics(&outcome);
        assert_eq!(metrics.counter("eval_cells_total"), 32);
        assert_eq!(
            metrics.counter("eval_dramdig_measurements"),
            outcome.counts(ToolId::DramDig).measurements
        );

        // DRAMDig never scores wrong; its counts line up with the classes.
        let c = outcome.counts(ToolId::DramDig);
        assert_eq!(c.wrong, 0);
        assert_eq!(c.recovered, grid.of_class(MachineClass::InScope).count());
        assert_eq!(
            c.detected,
            grid.of_class(MachineClass::WideFunction).count()
        );
        assert_eq!(c.skeleton, grid.of_class(MachineClass::RowRemap).count());
    }

    #[test]
    fn metered_grid_matches_plain_grid_and_counts_the_pool() {
        let grid = EvalGrid::new(GridKind::Quick, 1);
        let mut metrics = Registry::new();
        let metered = run_grid_metered(&grid, 4, &[ObservableKind::ConflictTiming], &mut metrics);
        // Metering only observes: the scoreboard must be byte-identical to
        // the unmetered run's.
        assert_eq!(
            metered.render_scoreboard(),
            run_grid(&grid, 4).render_scoreboard()
        );
        assert_eq!(metrics.gauge("pool_queue_depth"), 32);
        assert_eq!(metrics.counter("pool_dequeued_total"), 32);
        assert_eq!(metrics.counter("pool_completed_total"), 32);
        assert_eq!(metrics.counter("pool_dead_total"), 0);
    }

    #[test]
    fn history_codec_is_stable_and_gates_regressions() {
        let grid = EvalGrid::new(GridKind::Quick, 1);
        let outcome = run_grid(&grid, 4);
        let line = history_line(&outcome);
        assert!(
            line.starts_with(
                "grid=quick seed=1 observables=timing | gate=PASS scenarios=8 board=fnv1a:"
            ),
            "unexpected codec prefix: {line}"
        );
        assert_eq!(
            line,
            history_line(&run_grid(&grid, 1)),
            "the codec must be deterministic across runs and worker counts"
        );

        // A new key appends below preserved comments; the identical re-run
        // is a no-op; a drifted board for the same key is a regression.
        let history = append_history("# longitudinal scoreboard history\n", &line)
            .unwrap()
            .expect("a new key must append");
        assert!(history.starts_with("# longitudinal"));
        assert!(history.ends_with(&format!("{line}\n")));
        assert_eq!(append_history(&history, &line).unwrap(), None);
        let drifted = line.replace("board=fnv1a:", "board=fnv1a:f");
        let err = append_history(&history, &drifted).unwrap_err();
        assert!(err.contains("history regression"), "got: {err}");
        // A different key coexists with the recorded one.
        let other_seed = line.replace("seed=1", "seed=2");
        assert!(append_history(&history, &other_seed).unwrap().is_some());
    }

    #[test]
    fn every_ci_row_remap_scenario_recovers_via_flip_adjacency() {
        // The tentpole's end-to-end claim: on the CI grid, every machine of
        // the row-remap class — unrecoverable from timing alone — yields its
        // exact remap mask once the flip-adjacency channel is declared,
        // while the timing measurement stream stays untouched.
        let grid = EvalGrid::new(GridKind::Ci, 1);
        let both = [
            ObservableKind::ConflictTiming,
            ObservableKind::FlipAdjacency,
        ];
        let mut checked = 0;
        for scenario in grid.of_class(MachineClass::RowRemap) {
            let (combined, _) = score_dramdig(scenario, &both);
            assert_eq!(
                combined.status,
                ScoreStatus::Recovered,
                "{} [{}]: {}",
                scenario.id(),
                scenario.machine.axes_summary(),
                combined.detail
            );
            let (timing, _) = score_dramdig(scenario, &[ObservableKind::ConflictTiming]);
            assert_eq!(timing.status, ScoreStatus::Skeleton);
            assert_eq!(
                timing.measurements, combined.measurements,
                "hammering must not perturb the timing channel"
            );
            checked += 1;
        }
        assert_eq!(checked, 4);
    }

    #[test]
    fn combined_observables_harden_the_gate_and_mark_the_scoreboard() {
        let grid = EvalGrid::new(GridKind::Quick, 1);
        let timing = run_grid(&grid, 4);
        let both = run_grid_with_observables(
            &grid,
            4,
            &[
                ObservableKind::ConflictTiming,
                ObservableKind::FlipAdjacency,
            ],
        );
        let gate = both.gate();
        assert!(gate.passed(), "gate failures: {:?}", gate.failures);
        let c = both.counts(ToolId::DramDig);
        assert_eq!(c.skeleton, 0, "no scenario may stop at the skeleton");
        assert_eq!(
            c.recovered,
            grid.of_class(MachineClass::InScope).count()
                + grid.of_class(MachineClass::RowRemap).count()
        );

        // The channel set is stamped on the combined scoreboard only; the
        // timing-only artifact is byte-identical to the pre-observable one.
        let board = both.render_scoreboard();
        assert!(board.contains("observables = timing, flip-adjacency"));
        assert!(!timing.render_scoreboard().contains("observables ="));
        for (t, b) in timing.rows.iter().zip(&both.rows) {
            assert_eq!(
                t.score(ToolId::DramDig).measurements,
                b.score(ToolId::DramDig).measurements,
                "scenario {}: timing spend must not change",
                t.scenario.id()
            );
        }

        // Downgrading the recovery back to a skeleton now fails the gate.
        let mut sabotaged = both.clone();
        let row = sabotaged
            .rows
            .iter_mut()
            .find(|r| r.scenario.machine.class == MachineClass::RowRemap)
            .unwrap();
        let score = row
            .scores
            .iter_mut()
            .find(|s| s.tool == ToolId::DramDig)
            .unwrap();
        score.status = ScoreStatus::Skeleton;
        assert!(!sabotaged.gate().passed());
    }

    #[test]
    fn gate_flags_a_missing_recovery() {
        let grid = EvalGrid::new(GridKind::Quick, 1);
        let mut outcome = run_grid(&grid, 4);
        // Sabotage one in-scope row.
        let row = outcome
            .rows
            .iter_mut()
            .find(|r| r.scenario.machine.class == MachineClass::InScope)
            .unwrap();
        let score = row
            .scores
            .iter_mut()
            .find(|s| s.tool == ToolId::DramDig)
            .unwrap();
        score.status = ScoreStatus::Failed;
        score.detail = "injected".into();
        let gate = outcome.gate();
        assert!(!gate.passed());
        assert!(gate.failures[0].contains("injected"));
        let board = outcome.render_scoreboard();
        assert_eq!(parse_gate(&board), Some(false));
        assert!(board.contains("gate_failure"));
    }

    #[test]
    fn parse_gate_handles_garbage() {
        assert_eq!(parse_gate(""), None);
        assert_eq!(parse_gate("gate = MAYBE\n"), None);
        assert_eq!(parse_gate("noise\ngate = PASS\n"), Some(true));
    }
}
