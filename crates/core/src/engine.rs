//! The resumable, observable pipeline engine.
//!
//! [`PipelineEngine`] is an explicit state machine over [`Phase::ALL`]: each
//! phase is a [`PhaseRunner`] that consumes the typed artifacts of earlier
//! phases from the [`PipelineState`] and produces exactly one
//! [`PhaseArtifact`] of its own. Around that loop the engine provides what
//! the one-shot [`crate::DramDig`] wrapper cannot:
//!
//! * **Checkpoints** — with [`EngineOptions::checkpoint`] set, every
//!   completed phase is persisted through a [`CheckpointStore`]; a killed
//!   run resumes from its last phase boundary and finishes with a final
//!   report *byte-identical* to an uninterrupted run (the partition phase,
//!   the dominant measurement cost, is never repaid).
//! * **Budgets** — per-run and per-phase measurement/time caps, enforced
//!   cooperatively at phase boundaries ([`Budget`]).
//! * **Cancellation** — a shared [`AtomicBool`] checked between phases.
//! * **Observability** — an [`Observer`] receives structured
//!   [`EngineEvent`]s (phase start/end, costs, restored checkpoints, budget
//!   pressure) for live progress lines and fleet telemetry.
//!
//! Byte-identical resume works because each phase's measurement stream is a
//! pure function of its inputs: the engine derives a fresh RNG per phase
//! from the configured seed and a phase-unique salt, forwards the same salt
//! to [`MemoryProbe::begin_phase`] so the probe re-aligns its noise stream,
//! and snapshots/restores the conflict cache across the boundary.
//!
//! # Example
//!
//! ```
//! use dram_model::MachineSetting;
//! use dram_sim::{PhysMemory, SimConfig, SimMachine};
//! use dramdig::engine::{EngineEvent, EngineOptions, PipelineEngine};
//! use dramdig::{DomainKnowledge, DramDigConfig};
//! use mem_probe::SimProbe;
//!
//! let setting = MachineSetting::no4_haswell_ddr3_4g();
//! let machine = SimMachine::from_setting(&setting, SimConfig::default());
//! let mut probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
//! let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
//!
//! let engine = PipelineEngine::new(knowledge, DramDigConfig::fast());
//! let mut phases_seen = 0usize;
//! let report = engine.run(
//!     &mut probe,
//!     &EngineOptions::default(),
//!     // Any `FnMut(&EngineEvent)` closure is an Observer.
//!     &mut |event: &EngineEvent| {
//!         if let EngineEvent::PhaseCompleted { .. } = event {
//!             phases_seen += 1;
//!         }
//!     },
//! )?;
//! assert!(report.mapping.equivalent_to(setting.mapping()));
//! assert_eq!(phases_seen, report.phase_costs.len());
//! # Ok::<(), dramdig::DramDigError>(())
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dram_model::{AddressMapping, DramAddress, PhysAddr};
use dram_sim::PhysMemory;
use mem_probe::{
    ConflictOracle, LatencyCalibration, MemoryProbe, Observable, ObservableCost, ObservableKind,
    ObservableQuery, ProbeError,
};

use crate::artifact::{
    self, CalibrationArtifact, CheckpointStore, PartitionArtifact, PhaseArtifact,
};
use crate::coarse::{self, CoarseBits};
use crate::config::{DramDigConfig, PartitionStrategy};
use crate::driver::{Phase, PhaseCosts, RunReport};
use crate::error::DramDigError;
use crate::fine::{self, FineBits, ValidationReport};
use crate::functions::{self, DetectedFunctions};
use crate::knowledge::DomainKnowledge;
use crate::partition;
use crate::select;

/// Phase-unique salts mixed into the per-phase RNG seed and forwarded to
/// [`MemoryProbe::begin_phase`]. Arbitrary distinct constants; changing one
/// changes (only) the measurement stream of its phase.
const PHASE_SALTS: [u64; 6] = [
    0xD1A6_0001_CA11_B8A7, // calibration
    0xD1A6_0002_C0A2_5E00, // coarse detection
    0xD1A6_0003_9A27_1710, // partition
    0xD1A6_0004_DE7E_C700, // function detection
    0xD1A6_0005_F19E_0000, // fine detection
    0xD1A6_0006_5A11_DA7E, // validation
];

/// Measurement/time caps enforced cooperatively at phase boundaries.
///
/// Total caps count what the **current invocation** spends — costs
/// restored from checkpoints are already paid, so re-running an
/// interrupted command with the same budget always makes fresh progress.
/// They are checked *before* each phase starts; per-phase caps are checked
/// right after the phase completes (a phase is never torn down mid-flight
/// — the completed phase is checkpointed first, so an over-budget phase's
/// work is not lost). All caps default to unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on pair measurements spent by this invocation.
    pub max_measurements: Option<u64>,
    /// Cap on (simulated or wall-clock) nanoseconds spent by this
    /// invocation.
    pub max_elapsed_ns: Option<u64>,
    /// Cap on pair measurements of any single phase. Like every
    /// cooperative stop this fires at the boundary *after* the offending
    /// phase, so an overrun by the final phase (which has no later
    /// boundary) completes normally.
    pub max_phase_measurements: Option<u64>,
    /// Cap on nanoseconds of any single phase (same boundary semantics as
    /// [`Budget::max_phase_measurements`]).
    pub max_phase_elapsed_ns: Option<u64>,
}

impl Budget {
    /// A budget capping only the total measurement count.
    #[must_use]
    pub fn measurements(cap: u64) -> Self {
        Budget {
            max_measurements: Some(cap),
            ..Budget::default()
        }
    }

    /// Returns `true` when no cap is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }
}

/// Knobs of one engine invocation (checkpointing, budget, cancellation).
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Directory to checkpoint completed phases into (and to resume from
    /// when it already holds checkpoints of the same configuration).
    pub checkpoint: Option<PathBuf>,
    /// Measurement/time budget, enforced at phase boundaries.
    pub budget: Budget,
    /// Stop (with [`DramDigError::Interrupted`]) at the boundary after
    /// completing this phase — a deterministic kill switch for tests,
    /// benchmarks and CI smoke runs exercising the resume path. Like every
    /// cooperative stop, it fires at a phase *boundary*: after the final
    /// phase there is no boundary left, so stopping there is simply a
    /// completed run (`Ok`).
    pub stop_after: Option<Phase>,
    /// Cooperative cancellation flag, checked before every phase.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Emit fine-grained [`EngineEvent::OracleBatch`] events. Off by
    /// default: the oracle's batch log is only attached when this is set,
    /// so a run without fine events takes zero extra measurements and an
    /// identical measurement stream (gated by `bench_json`'s `telemetry`
    /// section).
    pub fine_events: bool,
}

impl EngineOptions {
    /// Options that checkpoint into (and resume from) `dir`.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(dir.into());
        self
    }

    /// Sets the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the deterministic stop point.
    #[must_use]
    pub fn with_stop_after(mut self, phase: Phase) -> Self {
        self.stop_after = Some(phase);
        self
    }

    /// Attaches a cancellation flag.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Enables fine-grained [`EngineEvent::OracleBatch`] events.
    #[must_use]
    pub fn with_fine_events(mut self, fine_events: bool) -> Self {
        self.fine_events = fine_events;
        self
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// A structured progress event emitted by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// The run is starting; `resumed` phases were restored from checkpoints.
    RunStarted {
        /// Total phases the pipeline can execute.
        phases: usize,
        /// Phases restored from the checkpoint directory.
        resumed: usize,
    },
    /// A phase is about to execute.
    PhaseStarted {
        /// The phase.
        phase: Phase,
    },
    /// A phase finished executing.
    PhaseCompleted {
        /// The phase.
        phase: Phase,
        /// What it cost.
        costs: PhaseCosts,
        /// Whether a checkpoint was written for it.
        checkpointed: bool,
    },
    /// A phase was restored from a checkpoint instead of executing.
    PhaseRestored {
        /// The phase.
        phase: Phase,
        /// What it cost when it originally ran.
        costs: PhaseCosts,
    },
    /// Total measurement spend crossed 80% of the budget cap.
    BudgetPressure {
        /// The phase that just completed.
        phase: Phase,
        /// Measurements spent so far.
        spent_measurements: u64,
        /// The configured cap.
        max_measurements: u64,
    },
    /// One batched conflict-oracle classification settled (emitted only with
    /// [`EngineOptions::fine_events`] set, between the owning phase's
    /// [`EngineEvent::PhaseStarted`] and [`EngineEvent::PhaseCompleted`]).
    OracleBatch {
        /// The phase that issued the batch.
        phase: Phase,
        /// Pairs the phase asked about.
        pairs: u32,
        /// Pairs answered from the conflict cache.
        cached: u32,
        /// Probe measurements issued for the uncached remainder.
        measured: u32,
    },
    /// An extra [`Observable`] channel was consulted after the phases
    /// (emitted once per consulted channel, before
    /// [`EngineEvent::RunCompleted`]).
    ObservableQueried {
        /// The channel kind.
        kind: ObservableKind,
        /// What the consultation cost.
        cost: ObservableCost,
    },
    /// The engine is stopping cooperatively at a phase boundary.
    Interrupted {
        /// The first phase that will not run.
        phase: Phase,
        /// Why the engine stopped.
        reason: String,
    },
    /// The run completed.
    RunCompleted {
        /// Total cost across all phases (restored ones included).
        total: PhaseCosts,
    },
}

/// Receives [`EngineEvent`]s as the engine progresses.
///
/// Every `FnMut(&EngineEvent)` closure is an observer, so ad-hoc progress
/// lines need no named type:
///
/// ```
/// use dramdig::engine::{EngineEvent, Observer};
///
/// let mut completed = Vec::new();
/// let mut observer = |event: &EngineEvent| {
///     if let EngineEvent::PhaseCompleted { phase, .. } = event {
///         completed.push(*phase);
///     }
/// };
/// Observer::on_event(&mut observer, &EngineEvent::RunStarted { phases: 6, resumed: 0 });
/// ```
pub trait Observer {
    /// Called once per event, in order.
    fn on_event(&mut self, event: &EngineEvent);
}

impl<F: FnMut(&EngineEvent)> Observer for F {
    fn on_event(&mut self, event: &EngineEvent) {
        self(event)
    }
}

/// An [`Observer`] that discards every event (the default for
/// [`crate::DramDig::run`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &EngineEvent) {}
}

/// The artifacts accumulated so far, one slot per producing phase.
/// Later phases read their inputs from here; the engine fills slots either
/// by running a [`PhaseRunner`] or by replaying a checkpoint.
#[derive(Debug, Clone, Default)]
pub struct PipelineState {
    /// Calibrated conflict threshold (calibration phase).
    pub threshold_ns: Option<u64>,
    /// Coarse bit classification (step 1).
    pub coarse: Option<CoarseBits>,
    /// Pool size, pile pivots and same-bank difference basis (steps 2a/2b).
    pub partition: Option<PartitionArtifact>,
    /// Detected bank functions (step 2c).
    pub functions: Option<DetectedFunctions>,
    /// Fine-grained bit classification (step 3).
    pub fine: Option<FineBits>,
    /// The assembled mapping (derived when the fine artifact lands).
    pub mapping: Option<AddressMapping>,
    /// Validation tally.
    pub validation: Option<ValidationReport>,
}

fn state_missing(what: &str) -> DramDigError {
    DramDigError::Checkpoint {
        reason: format!("pipeline state is missing the {what} artifact"),
    }
}

impl PipelineState {
    /// Folds one artifact into the state. Applying the fine artifact also
    /// assembles the [`AddressMapping`] from the detected functions.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] when an artifact arrives before
    /// its inputs (possible only with corrupt or hand-edited checkpoints)
    /// and [`DramDigError::Model`] when the recovered pieces do not form a
    /// bijective mapping.
    pub fn apply(&mut self, artifact: PhaseArtifact) -> Result<(), DramDigError> {
        match artifact {
            PhaseArtifact::Calibration(c) => self.threshold_ns = Some(c.threshold_ns),
            PhaseArtifact::Coarse(c) => self.coarse = Some(c),
            PhaseArtifact::Partition(p) => self.partition = Some(p),
            PhaseArtifact::Functions(d) => self.functions = Some(d),
            PhaseArtifact::Fine(f) => {
                let functions = self
                    .functions
                    .as_ref()
                    .ok_or_else(|| state_missing("detected-functions"))?;
                self.mapping = Some(AddressMapping::new(
                    functions.functions.clone(),
                    f.row_bits.clone(),
                    f.column_bits.clone(),
                )?);
                self.fine = Some(f);
            }
            PhaseArtifact::Validation(v) => self.validation = Some(v),
        }
        Ok(())
    }
}

/// Everything a [`PhaseRunner`] may touch while executing its phase.
pub struct PhaseContext<'a, P: MemoryProbe> {
    /// The calibrated conflict oracle over the probe (cost accounting and
    /// the conflict cache live here).
    pub oracle: &'a mut ConflictOracle<P>,
    /// The physical page pool the run measures against.
    pub memory: &'a PhysMemory,
    /// The machine's domain knowledge.
    pub knowledge: &'a DomainKnowledge,
    /// The run configuration.
    pub config: &'a DramDigConfig,
    /// The phase-scoped RNG (freshly derived per phase so a resumed run
    /// replays the identical random choices).
    pub rng: &'a mut StdRng,
    /// Artifacts of the phases that already completed.
    pub state: &'a PipelineState,
}

/// One phase of the pipeline: consumes earlier artifacts from the
/// [`PhaseContext`], issues measurements through its oracle, and returns
/// the typed artifact the engine records (and checkpoints) for the phase.
///
/// The engine owns one runner per [`Phase`]; the trait is public so tests,
/// examples and downstream tools can execute or wrap individual phases.
///
/// ```
/// use dramdig::artifact::PhaseArtifact;
/// use dramdig::engine::{PhaseContext, PhaseRunner};
/// use dramdig::fine::ValidationReport;
/// use dramdig::{DramDigError, Phase};
/// use mem_probe::MemoryProbe;
///
/// /// A stand-in validation phase that measures nothing and agrees with
/// /// everything.
/// struct AlwaysAgree;
///
/// impl<P: MemoryProbe> PhaseRunner<P> for AlwaysAgree {
///     fn phase(&self) -> Phase {
///         Phase::Validation
///     }
///     fn run(&self, _ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
///         Ok(PhaseArtifact::Validation(ValidationReport::default()))
///     }
/// }
///
/// assert_eq!(PhaseRunner::<mem_probe::SimProbe>::phase(&AlwaysAgree), Phase::Validation);
/// ```
pub trait PhaseRunner<P: MemoryProbe> {
    /// Which phase this runner implements.
    fn phase(&self) -> Phase;

    /// Executes the phase.
    ///
    /// # Errors
    ///
    /// Any [`DramDigError`] aborts the run; the engine does not checkpoint
    /// a failed phase.
    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError>;
}

/// Calibration pairs the adaptive calibration of
/// [`PartitionStrategy::Decompose`] measures between two threshold
/// estimates (no paper value: the paper calibrates once, at full budget).
pub(crate) const CALIBRATION_CHUNK: usize = 40;

struct CalibrationRunner;

impl<P: MemoryProbe> PhaseRunner<P> for CalibrationRunner {
    fn phase(&self) -> Phase {
        Phase::Calibration
    }

    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
        let cfg = ctx.config;
        let calibration = if cfg.strategy == PartitionStrategy::Decompose {
            LatencyCalibration::calibrate_adaptive(
                ctx.oracle.probe_mut(),
                cfg.calibration_samples,
                CALIBRATION_CHUNK,
                cfg.rng_seed ^ 0xCA11,
            )?
        } else {
            LatencyCalibration::calibrate(
                ctx.oracle.probe_mut(),
                cfg.calibration_samples,
                cfg.rng_seed ^ 0xCA11,
            )?
        };
        let threshold_ns = calibration.threshold_ns();
        ctx.oracle.set_calibration(calibration);
        Ok(PhaseArtifact::Calibration(CalibrationArtifact {
            threshold_ns,
        }))
    }
}

struct CoarseRunner;

impl<P: MemoryProbe> PhaseRunner<P> for CoarseRunner {
    fn phase(&self) -> Phase {
        Phase::CoarseDetection
    }

    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
        let coarse = coarse::detect(ctx.oracle, ctx.knowledge.address_bits(), ctx.rng)?;
        Ok(PhaseArtifact::Coarse(coarse))
    }
}

struct PartitionRunner;

impl<P: MemoryProbe> PhaseRunner<P> for PartitionRunner {
    fn phase(&self) -> Phase {
        Phase::Partition
    }

    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
        let coarse = ctx
            .state
            .coarse
            .as_ref()
            .ok_or_else(|| state_missing("coarse"))?;
        let pool = select::select_addresses(ctx.memory, &coarse.bank_bits, None)?;
        let num_banks = ctx.knowledge.total_banks()?;
        let partition = partition::partition_with_strategy(
            ctx.oracle,
            &pool.addresses,
            num_banks,
            ctx.config.strategy,
            ctx.rng,
        )?;
        // Keep only what Algorithm 3 reads: one pivot per pile and the
        // same-bank difference basis — the kernel Decompose learned, else
        // the merged basis of the exhaustive piles.
        Ok(PhaseArtifact::Partition(PartitionArtifact {
            pool_size: pool.len(),
            pivots: partition.piles.iter().map(|pile| pile.pivot).collect(),
            basis: partition
                .kernel
                .unwrap_or_else(|| functions::merged_difference_basis(&partition.piles)),
        }))
    }
}

struct FunctionRunner;

impl<P: MemoryProbe> PhaseRunner<P> for FunctionRunner {
    fn phase(&self) -> Phase {
        Phase::FunctionDetection
    }

    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
        let coarse = ctx
            .state
            .coarse
            .as_ref()
            .ok_or_else(|| state_missing("coarse"))?;
        let partition = ctx
            .state
            .partition
            .as_ref()
            .ok_or_else(|| state_missing("partition"))?;
        let detected = functions::detect_bank_functions_with_basis(
            &partition.basis,
            &partition.pivots,
            &coarse.bank_bits,
            ctx.knowledge.total_banks()?,
        )?;
        Ok(PhaseArtifact::Functions(detected))
    }
}

struct FineRunner;

impl<P: MemoryProbe> PhaseRunner<P> for FineRunner {
    fn phase(&self) -> Phase {
        Phase::FineDetection
    }

    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
        let coarse = ctx
            .state
            .coarse
            .as_ref()
            .ok_or_else(|| state_missing("coarse"))?;
        let functions = ctx
            .state
            .functions
            .as_ref()
            .ok_or_else(|| state_missing("detected-functions"))?;
        let fine = fine::refine(
            ctx.oracle,
            ctx.memory,
            coarse,
            &functions.functions,
            ctx.knowledge,
            ctx.rng,
        )?;
        Ok(PhaseArtifact::Fine(fine))
    }
}

struct ValidationRunner;

impl<P: MemoryProbe> PhaseRunner<P> for ValidationRunner {
    fn phase(&self) -> Phase {
        Phase::Validation
    }

    fn run(&self, ctx: &mut PhaseContext<'_, P>) -> Result<PhaseArtifact, DramDigError> {
        let fine = ctx
            .state
            .fine
            .as_ref()
            .ok_or_else(|| state_missing("fine"))?;
        let functions = ctx
            .state
            .functions
            .as_ref()
            .ok_or_else(|| state_missing("detected-functions"))?;
        let mapping = ctx
            .state
            .mapping
            .as_ref()
            .ok_or_else(|| state_missing("mapping"))?;
        let report = fine::validate(
            ctx.oracle,
            ctx.memory,
            fine,
            &functions.functions,
            mapping,
            ctx.config,
            ctx.rng,
        )?;
        Ok(PhaseArtifact::Validation(report))
    }
}

fn run_phase<P: MemoryProbe>(
    phase: Phase,
    ctx: &mut PhaseContext<'_, P>,
) -> Result<PhaseArtifact, DramDigError> {
    match phase {
        Phase::Calibration => CalibrationRunner.run(ctx),
        Phase::CoarseDetection => CoarseRunner.run(ctx),
        Phase::Partition => PartitionRunner.run(ctx),
        Phase::FunctionDetection => FunctionRunner.run(ctx),
        Phase::FineDetection => FineRunner.run(ctx),
        Phase::Validation => ValidationRunner.run(ctx),
    }
}

/// The explicit phase-machine behind [`crate::DramDig`]: same knowledge,
/// same configuration, plus checkpoints, budgets, cancellation and
/// progress events (see the [module docs](self) for an example).
#[derive(Debug, Clone)]
pub struct PipelineEngine {
    knowledge: DomainKnowledge,
    config: DramDigConfig,
}

impl PipelineEngine {
    /// Creates an engine for a machine described by `knowledge`.
    pub fn new(knowledge: DomainKnowledge, config: DramDigConfig) -> Self {
        PipelineEngine { knowledge, config }
    }

    /// The domain knowledge this engine uses.
    pub fn knowledge(&self) -> &DomainKnowledge {
        &self.knowledge
    }

    /// The configuration this engine uses.
    pub fn config(&self) -> &DramDigConfig {
        &self.config
    }

    fn interrupted(observer: &mut dyn Observer, phase: Phase, reason: String) -> DramDigError {
        observer.on_event(&EngineEvent::Interrupted {
            phase,
            reason: reason.clone(),
        });
        DramDigError::Interrupted { phase, reason }
    }

    /// Runs the pipeline, phase by phase, against `probe`.
    ///
    /// With [`EngineOptions::checkpoint`] set, completed phases found in the
    /// directory (written by a previous, interrupted invocation with the
    /// *same configuration*) are restored instead of re-measured, and every
    /// freshly completed phase is persisted before the next one starts. The
    /// final [`RunReport`] of a resumed run is byte-identical (through
    /// [`crate::RecoveryReport::encode`]) to that of an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Everything [`crate::DramDig::run`] can return, plus
    /// [`DramDigError::Interrupted`] for cooperative stops (budget,
    /// cancellation, [`EngineOptions::stop_after`]) and
    /// [`DramDigError::Checkpoint`] for unreadable/mismatched checkpoints.
    pub fn run<P: MemoryProbe>(
        &self,
        probe: &mut P,
        options: &EngineOptions,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, DramDigError> {
        self.run_with_observables(probe, options, observer, &mut [])
    }

    /// Runs the pipeline like [`PipelineEngine::run`], then hands the
    /// recovered linear skeleton to each extra [`Observable`] channel whose
    /// [kind](Observable::kind) the [`DomainKnowledge`] declares available
    /// and asks it for row-bit evidence the timing channel cannot produce —
    /// today, an XOR row-remap mask recovered from rowhammer flip adjacency.
    ///
    /// A channel-recovered mask is never trusted blindly: the engine
    /// cross-examines it with its own [`ObservableQuery::RowAdjacency`]
    /// queries (aggressor pairs the mask predicts to sandwich a victim) and
    /// only records it in [`RunReport::row_remap`] when the channel confirms
    /// at least one predicted adjacency. Each consulted channel's spend
    /// lands in [`RunReport::observable_costs`].
    ///
    /// Channels whose kind is not declared in the knowledge are skipped
    /// untouched, and with no extra channels the behaviour — measurement
    /// sequences, checkpoint artifacts, report bytes — is exactly that of
    /// [`PipelineEngine::run`].
    ///
    /// # Errors
    ///
    /// Everything [`PipelineEngine::run`] can return, plus
    /// [`DramDigError::Refinement`] when a consulted channel fails.
    pub fn run_with_observables<P: MemoryProbe>(
        &self,
        probe: &mut P,
        options: &EngineOptions,
        observer: &mut dyn Observer,
        extras: &mut [&mut dyn Observable],
    ) -> Result<RunReport, DramDigError> {
        let store = options.checkpoint.as_ref().map(CheckpointStore::new);
        if let Some(store) = &store {
            match store.load_config()? {
                Some(stored) if stored != self.config => {
                    return Err(DramDigError::Checkpoint {
                        reason: format!(
                            "{} holds checkpoints of a different configuration; \
                             clear it or resume with the recorded configuration",
                            store.dir().display()
                        ),
                    });
                }
                Some(_) => {}
                None => store.save_config(&self.config)?,
            }
        }
        let restored = match &store {
            Some(store) => store.load_phases()?,
            None => Vec::new(),
        };

        let memory = probe.memory().clone();
        let mut oracle = ConflictOracle::new(&mut *probe, LatencyCalibration::from_threshold(0))
            .with_batch_log(options.fine_events);
        if let Some(capacity) = self.config.probe_cache_capacity {
            oracle = oracle.with_cache(capacity);
        }

        observer.on_event(&EngineEvent::RunStarted {
            phases: Phase::ALL.len(),
            resumed: restored.len(),
        });

        let mut state = PipelineState::default();
        let mut phase_costs: Vec<(Phase, PhaseCosts)> = Vec::new();

        // Replay the restored prefix: artifacts into the state, the last
        // cache snapshot into the oracle, costs into the ledger.
        let resumed = restored.len();
        let mut last_cache = Vec::new();
        for record in restored {
            if let PhaseArtifact::Calibration(c) = &record.artifact {
                oracle.set_calibration(LatencyCalibration::from_threshold(c.threshold_ns));
            }
            state.apply(record.artifact)?;
            phase_costs.push((record.phase, record.costs));
            observer.on_event(&EngineEvent::PhaseRestored {
                phase: record.phase,
                costs: record.costs,
            });
            last_cache = record.cache;
        }
        if let Some(cache) = oracle.cache_mut() {
            for (a, b, verdict) in last_cache {
                cache.record(PhysAddr::new(a), PhysAddr::new(b), verdict);
            }
        }
        // Budgets cap what *this invocation* spends: costs restored from
        // checkpoints are already paid, so re-running an interrupted
        // command with the same budget makes fresh progress every time
        // instead of re-tripping on the recorded spend.
        let restored_spent = total_costs(&phase_costs);

        for (index, phase) in Phase::ALL.into_iter().enumerate() {
            if index < resumed {
                continue; // restored from a checkpoint above
            }
            if options.cancelled() {
                return Err(Self::interrupted(
                    observer,
                    phase,
                    "cooperative cancellation requested".into(),
                ));
            }
            let spent = total_costs(&phase_costs);
            let fresh_measurements = spent.measurements - restored_spent.measurements;
            let fresh_elapsed_ns = spent.elapsed_ns - restored_spent.elapsed_ns;
            if let Some(cap) = options.budget.max_measurements {
                if fresh_measurements >= cap {
                    return Err(Self::interrupted(
                        observer,
                        phase,
                        format!(
                            "measurement budget exhausted ({fresh_measurements}/{cap} pair \
                             measurements spent this invocation)",
                        ),
                    ));
                }
            }
            if let Some(cap) = options.budget.max_elapsed_ns {
                if fresh_elapsed_ns >= cap {
                    return Err(Self::interrupted(
                        observer,
                        phase,
                        format!("time budget exhausted ({fresh_elapsed_ns}/{cap} ns spent this invocation)"),
                    ));
                }
            }

            observer.on_event(&EngineEvent::PhaseStarted { phase });
            let salt = PHASE_SALTS[index];
            let mut rng = StdRng::seed_from_u64(self.config.rng_seed ^ salt);
            oracle.probe_mut().begin_phase(salt);
            let before = oracle.stats();
            let artifact = run_phase(
                phase,
                &mut PhaseContext {
                    oracle: &mut oracle,
                    memory: &memory,
                    knowledge: &self.knowledge,
                    config: &self.config,
                    rng: &mut rng,
                    state: &state,
                },
            )?;
            let costs = PhaseCosts::between(before, oracle.stats());
            for record in oracle.take_batch_records() {
                observer.on_event(&EngineEvent::OracleBatch {
                    phase,
                    pairs: record.pairs,
                    cached: record.cached,
                    measured: record.measured,
                });
            }

            // A validation tally below the agreement gate is a *failure*,
            // not a phase output worth persisting: checkpointing it would
            // wedge every later resume into replaying the same failure.
            if let PhaseArtifact::Validation(report) = &artifact {
                if let Some(error) = agreement_failure(report) {
                    return Err(error);
                }
            }

            // Encode the checkpoint from the borrowed artifact, move the
            // artifact into the state, and persist only once the state has
            // accepted it.
            let encoded = store.as_ref().map(|_| {
                let cache: Vec<(u64, u64, bool)> = oracle
                    .cache()
                    .map(|cache| {
                        cache
                            .entries()
                            .map(|((a, b), verdict)| (a.raw(), b.raw(), verdict))
                            .collect()
                    })
                    .unwrap_or_default();
                artifact::encode_checkpoint(phase, &costs, &artifact, &cache)
            });
            state.apply(artifact)?;
            let checkpointed = match (&store, encoded) {
                (Some(store), Some(text)) => {
                    store.save_encoded(phase, &text)?;
                    true
                }
                _ => false,
            };
            phase_costs.push((phase, costs));
            observer.on_event(&EngineEvent::PhaseCompleted {
                phase,
                costs,
                checkpointed,
            });

            let spent = total_costs(&phase_costs);
            let fresh_measurements = spent.measurements - restored_spent.measurements;
            if let Some(cap) = options.budget.max_measurements {
                if fresh_measurements.saturating_mul(5) >= cap.saturating_mul(4) {
                    observer.on_event(&EngineEvent::BudgetPressure {
                        phase,
                        spent_measurements: fresh_measurements,
                        max_measurements: cap,
                    });
                }
            }
            // Boundary stops report "the first phase that will not run";
            // after the last phase there is none, so a trip there is simply
            // a completed run.
            if let Some(&next) = Phase::ALL.get(index + 1) {
                if let Some(cap) = options.budget.max_phase_measurements {
                    if costs.measurements > cap {
                        return Err(Self::interrupted(
                            observer,
                            next,
                            format!(
                                "{phase} exceeded its per-phase measurement budget \
                                 ({}/{cap})",
                                costs.measurements
                            ),
                        ));
                    }
                }
                if let Some(cap) = options.budget.max_phase_elapsed_ns {
                    if costs.elapsed_ns > cap {
                        return Err(Self::interrupted(
                            observer,
                            next,
                            format!(
                                "{phase} exceeded its per-phase time budget ({}/{cap} ns)",
                                costs.elapsed_ns
                            ),
                        ));
                    }
                }
                if options.stop_after == Some(phase) {
                    return Err(Self::interrupted(
                        observer,
                        next,
                        format!("stop requested after {phase}"),
                    ));
                }
            }
        }

        // Fresh validation failures error out (without checkpointing)
        // inside the loop; this covers a restored tally, e.g. from a
        // hand-assembled checkpoint directory.
        let validation = state
            .validation
            .ok_or_else(|| state_missing("validation"))?;
        if let Some(error) = agreement_failure(&validation) {
            return Err(error);
        }

        // Consult the declared extra channels: hand each one the recovered
        // linear skeleton, let it hunt for a row remap, and cross-examine
        // any mask it claims before recording it.
        let mapping = state
            .mapping
            .clone()
            .ok_or_else(|| state_missing("mapping"))?;
        let mut row_remap = None;
        let mut observable_costs: Vec<(ObservableKind, ObservableCost)> = Vec::new();
        for channel in extras.iter_mut() {
            let kind = channel.kind();
            if !self.knowledge.observes(kind) {
                continue;
            }
            channel.inform_mapping(&mapping);
            let recovered = channel
                .recover_row_remap()
                .map_err(|e| observable_failure(kind, &e))?;
            if let Some(mask) = recovered {
                if row_remap.is_none()
                    && cross_check_remap(&mapping, mask, &mut **channel)
                        .map_err(|e| observable_failure(kind, &e))?
                {
                    row_remap = Some(mask);
                }
            }
            let cost = channel.cost();
            observer.on_event(&EngineEvent::ObservableQueried { kind, cost });
            observable_costs.push((kind, cost));
        }

        let total = total_costs(&phase_costs);
        observer.on_event(&EngineEvent::RunCompleted { total });
        let partition = state.partition.ok_or_else(|| state_missing("partition"))?;
        Ok(RunReport {
            mapping,
            coarse: state.coarse.ok_or_else(|| state_missing("coarse"))?,
            pool_size: partition.pool_size,
            pile_count: partition.pivots.len(),
            functions: state
                .functions
                .ok_or_else(|| state_missing("detected-functions"))?,
            fine: state.fine.ok_or_else(|| state_missing("fine"))?,
            validation,
            threshold_ns: state
                .threshold_ns
                .ok_or_else(|| state_missing("calibration"))?,
            phase_costs,
            total,
            row_remap,
            observable_costs,
        })
    }
}

/// Wraps a failed extra-channel consultation: the remap hunt is an
/// extension of fine-grained row-bit detection, so its failures wear the
/// same label.
fn observable_failure(kind: ObservableKind, error: &ProbeError) -> DramDigError {
    DramDigError::Refinement {
        reason: format!("observable channel {kind} failed: {error}"),
    }
}

/// Cross-examines a channel-recovered remap mask with engine-chosen
/// [`ObservableQuery::RowAdjacency`] queries: for sampled even array rows
/// `r`, the logical rows `r ^ mask` and `(r + 2) ^ mask` must be true
/// double-sided aggressors around the array row `r + 1`. The mask is
/// accepted once the channel confirms one predicted adjacency; a channel
/// that cannot answer the query at all gets no benefit of the doubt.
///
/// Banks and rows vary across attempts so a single invulnerable victim row
/// cannot veto a correct mask.
fn cross_check_remap(
    mapping: &AddressMapping,
    mask: u32,
    channel: &mut dyn Observable,
) -> Result<bool, ProbeError> {
    const ATTEMPTS: u64 = 24;
    let num_rows = u64::from(mapping.num_rows());
    let num_banks = u64::from(mapping.num_banks());
    if num_rows < 8 {
        return Ok(false);
    }
    let stride = ((num_rows - 4) / ATTEMPTS).max(2) & !1;
    let mask = u64::from(mask);
    for attempt in 0..ATTEMPTS {
        let array = 2 + (((attempt * stride) % (num_rows - 4)) & !1);
        let x = (array ^ mask) as u32;
        let y = ((array + 2) ^ mask) as u32;
        let bank = (attempt % num_banks) as u32;
        let (Ok(a), Ok(b)) = (
            mapping.to_phys(DramAddress::new(bank, x, 0)),
            mapping.to_phys(DramAddress::new(bank, y, 0)),
        ) else {
            continue;
        };
        let query = ObservableQuery::RowAdjacency { a, b };
        if !channel.supports(&query) {
            return Ok(false);
        }
        if channel.answer(&query)?.verdict {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Folds per-phase costs into the run total. Phase snapshots are contiguous
/// deltas of one probe, so the saturating merge equals the overall delta.
fn total_costs(phase_costs: &[(Phase, PhaseCosts)]) -> PhaseCosts {
    phase_costs
        .iter()
        .fold(PhaseCosts::default(), |acc, (_, c)| acc.merge(*c))
}

/// The validation agreement gate (< 90% agreement fails the run).
fn agreement_failure(report: &ValidationReport) -> Option<DramDigError> {
    if report.agreement() < 0.90 {
        Some(DramDigError::Validation {
            reason: format!(
                "only {:.1}% of follow-up measurements agree with the recovered mapping",
                report.agreement() * 100.0
            ),
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_salts_are_distinct() {
        let mut salts = PHASE_SALTS.to_vec();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), Phase::ALL.len());
    }

    #[test]
    fn budget_constructors_and_options_builders() {
        let b = Budget::measurements(100);
        assert_eq!(b.max_measurements, Some(100));
        assert!(!b.is_unlimited());
        assert!(Budget::default().is_unlimited());

        let cancel = Arc::new(AtomicBool::new(false));
        let options = EngineOptions::default()
            .with_checkpoint("/tmp/x")
            .with_budget(b)
            .with_stop_after(Phase::Partition)
            .with_cancel(Arc::clone(&cancel));
        assert_eq!(options.stop_after, Some(Phase::Partition));
        assert!(!options.cancelled());
        cancel.store(true, Ordering::Relaxed);
        assert!(options.cancelled());
    }

    #[test]
    fn null_observer_and_closures_are_observers() {
        let mut seen = 0;
        {
            let mut closure = |_: &EngineEvent| seen += 1;
            Observer::on_event(
                &mut closure,
                &EngineEvent::RunStarted {
                    phases: 6,
                    resumed: 0,
                },
            );
        }
        assert_eq!(seen, 1);
        NullObserver.on_event(&EngineEvent::RunCompleted {
            total: PhaseCosts::default(),
        });
    }
}
