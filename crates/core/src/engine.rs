//! The resumable, observable pipeline engine.
//!
//! [`PipelineEngine`] runs the six phases of [`Phase::ALL`] in order: each
//! phase reads the typed artifacts of earlier phases and produces exactly
//! one [`PhaseArtifact`] of its own. Around that sequence the engine
//! provides what the one-shot [`crate::DramDig`] wrapper cannot:
//!
//! * **Checkpoints** — with [`EngineOptions::checkpoint`] set, every
//!   completed phase is persisted through a [`CheckpointStore`]; a killed
//!   run resumes from its last phase boundary and finishes with a final
//!   report *byte-identical* to an uninterrupted run (the partition phase,
//!   the dominant measurement cost, is never repaid).
//! * **Stops** — a cap on the pair measurements this invocation spends
//!   ([`EngineOptions::max_measurements`]) and a deterministic stop point
//!   ([`EngineOptions::stop_after`]), both enforced at phase boundaries.
//! * **Observability** — an [`Observer`] receives structured
//!   [`EngineEvent`]s (phase start/end, costs, restored checkpoints, budget
//!   pressure) for live progress lines and fleet telemetry.
//!
//! Byte-identical resume works because each phase's measurement stream is a
//! pure function of its inputs: the engine derives a fresh RNG per phase
//! from the configured seed and a phase-unique salt, forwards the same salt
//! to [`MemoryProbe::begin_phase`] so the probe re-aligns its noise stream,
//! and snapshots/restores the conflict cache's replay log at the boundary.
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

use rand::rngs::StdRng;
use rand::SeedableRng;

use dram_model::{AddressMapping, DramAddress, PhysAddr};
use dram_sim::PhysMemory;
use mem_probe::{
    ConflictCache, ConflictOracle, LatencyCalibration, MemoryProbe, Observable, ObservableCost,
    ObservableKind, ObservableQuery, ProbeError,
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

/// Knobs of one engine invocation (checkpointing, measurement cap, stop
/// point, fine events).
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Directory to checkpoint completed phases into (and to resume from
    /// when it already holds checkpoints of the same configuration).
    pub checkpoint: Option<PathBuf>,
    /// Cap on the pair measurements spent by this invocation, checked
    /// before each phase starts. Costs restored from checkpoints are
    /// already paid and do not count, so re-running an interrupted command
    /// with the same cap always makes fresh progress. A phase is never torn
    /// down mid-flight: the phase that crosses the cap completes (and is
    /// checkpointed), and the run stops before the next one.
    pub max_measurements: Option<u64>,
    /// Stop (with [`DramDigError::Interrupted`]) at the boundary after
    /// completing this phase — a deterministic kill switch for tests,
    /// benchmarks and CI smoke runs exercising the resume path. Like every
    /// cooperative stop, it fires at a phase *boundary*: after the final
    /// phase there is no boundary left, so stopping there is simply a
    /// completed run (`Ok`).
    pub stop_after: Option<Phase>,
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

    /// Caps the pair measurements this invocation spends.
    #[must_use]
    pub fn with_max_measurements(mut self, cap: u64) -> Self {
        self.max_measurements = Some(cap);
        self
    }

    /// Sets the deterministic stop point.
    #[must_use]
    pub fn with_stop_after(mut self, phase: Phase) -> Self {
        self.stop_after = Some(phase);
        self
    }

    /// Enables fine-grained [`EngineEvent::OracleBatch`] events.
    #[must_use]
    pub fn with_fine_events(mut self, fine_events: bool) -> Self {
        self.fine_events = fine_events;
        self
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
/// by running a phase or by replaying a checkpoint.
#[derive(Debug, Default)]
struct PipelineState {
    /// Calibrated conflict threshold (calibration phase).
    threshold_ns: Option<u64>,
    /// Coarse bit classification (step 1).
    coarse: Option<CoarseBits>,
    /// Pool size, pile pivots and same-bank difference basis (steps 2a/2b).
    partition: Option<PartitionArtifact>,
    /// Detected bank functions (step 2c).
    functions: Option<DetectedFunctions>,
    /// Fine-grained bit classification (step 3).
    fine: Option<FineBits>,
    /// The assembled mapping (derived when the fine artifact lands).
    mapping: Option<AddressMapping>,
    /// Validation tally.
    validation: Option<ValidationReport>,
}

/// The artifact in `slot`, or the checkpoint error naming it: a phase's
/// inputs can be missing only in a corrupt or hand-edited checkpoint
/// directory.
fn need<T>(slot: Option<T>, what: &str) -> Result<T, DramDigError> {
    slot.ok_or_else(|| DramDigError::Checkpoint {
        reason: format!("pipeline state is missing the {what} artifact"),
    })
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
    fn apply(&mut self, artifact: PhaseArtifact) -> Result<(), DramDigError> {
        match artifact {
            PhaseArtifact::Calibration(c) => self.threshold_ns = Some(c.threshold_ns),
            PhaseArtifact::Coarse(c) => self.coarse = Some(c),
            PhaseArtifact::Partition(p) => self.partition = Some(p),
            PhaseArtifact::Functions(d) => self.functions = Some(d),
            PhaseArtifact::Fine(f) => {
                let functions = need(self.functions.as_ref(), "detected-functions")?;
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

/// Calibration pairs the adaptive calibration of
/// [`PartitionStrategy::Decompose`] measures between two threshold
/// estimates (no paper value: the paper calibrates once, at full budget).
pub(crate) const CALIBRATION_CHUNK: usize = 40;

/// The explicit phase-machine behind [`crate::DramDig`]: same knowledge,
/// same configuration, plus checkpoints, a measurement cap, a stop point
/// and progress events (see the [module docs](self) for an example).
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

    /// Executes one phase: reads the artifacts of earlier phases from
    /// `state`, measures through `oracle` with the phase's `rng`, and
    /// returns the artifact the engine records (and checkpoints).
    fn run_phase<P: MemoryProbe>(
        &self,
        phase: Phase,
        oracle: &mut ConflictOracle<P>,
        memory: &PhysMemory,
        rng: &mut StdRng,
        state: &PipelineState,
    ) -> Result<PhaseArtifact, DramDigError> {
        let (knowledge, config) = (&self.knowledge, &self.config);
        Ok(match phase {
            Phase::Calibration => {
                let calibration = if config.strategy == PartitionStrategy::Decompose {
                    LatencyCalibration::calibrate_adaptive(
                        oracle.probe_mut(),
                        config.calibration_samples,
                        CALIBRATION_CHUNK,
                        config.rng_seed ^ 0xCA11,
                    )?
                } else {
                    LatencyCalibration::calibrate(
                        oracle.probe_mut(),
                        config.calibration_samples,
                        config.rng_seed ^ 0xCA11,
                    )?
                };
                let threshold_ns = calibration.threshold_ns();
                oracle.set_calibration(calibration);
                PhaseArtifact::Calibration(CalibrationArtifact { threshold_ns })
            }
            Phase::CoarseDetection => {
                PhaseArtifact::Coarse(coarse::detect(oracle, knowledge.address_bits(), rng)?)
            }
            Phase::Partition => {
                let coarse = need(state.coarse.as_ref(), "coarse")?;
                let pool = select::select_addresses(memory, &coarse.bank_bits, None)?;
                let partition = partition::partition_with_strategy(
                    oracle,
                    &pool.addresses,
                    knowledge.total_banks()?,
                    config.strategy,
                    rng,
                )?;
                // Keep only what Algorithm 3 reads: one pivot per pile and
                // the same-bank difference basis — the kernel Decompose
                // learned, else the merged basis of the exhaustive piles.
                PhaseArtifact::Partition(PartitionArtifact {
                    pool_size: pool.len(),
                    pivots: partition.piles.iter().map(|pile| pile.pivot).collect(),
                    basis: partition
                        .kernel
                        .unwrap_or_else(|| functions::merged_difference_basis(&partition.piles)),
                })
            }
            Phase::FunctionDetection => {
                let coarse = need(state.coarse.as_ref(), "coarse")?;
                let partition = need(state.partition.as_ref(), "partition")?;
                PhaseArtifact::Functions(functions::detect_bank_functions_with_basis(
                    &partition.basis,
                    &partition.pivots,
                    &coarse.bank_bits,
                    knowledge.total_banks()?,
                )?)
            }
            Phase::FineDetection => {
                let coarse = need(state.coarse.as_ref(), "coarse")?;
                let functions = need(state.functions.as_ref(), "detected-functions")?;
                PhaseArtifact::Fine(fine::refine(
                    oracle,
                    memory,
                    coarse,
                    &functions.functions,
                    knowledge,
                    rng,
                )?)
            }
            Phase::Validation => {
                let fine = need(state.fine.as_ref(), "fine")?;
                let functions = need(state.functions.as_ref(), "detected-functions")?;
                let mapping = need(state.mapping.as_ref(), "mapping")?;
                PhaseArtifact::Validation(fine::validate(
                    oracle,
                    memory,
                    fine,
                    &functions.functions,
                    mapping,
                    config,
                    rng,
                )?)
            }
        })
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
    /// [`DramDigError::Interrupted`] for cooperative stops
    /// ([`EngineOptions::max_measurements`], [`EngineOptions::stop_after`]) and
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
            let validation_replays = self.config.strategy == PartitionStrategy::Decompose;
            oracle = oracle.with_cache(ConflictCache::new(capacity).with_log(validation_replays));
        }

        observer.on_event(&EngineEvent::RunStarted {
            phases: Phase::ALL.len(),
            resumed: restored.len(),
        });

        let mut state = PipelineState::default();
        let mut phase_costs: Vec<(Phase, PhaseCosts)> = Vec::new();

        // Replay the restored prefix: artifacts into the state, the last
        // replay log into the cache, costs into the ledger.
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
        // The cap counts what *this invocation* spends: costs restored
        // from checkpoints are already paid, so re-running an interrupted
        // command with the same cap makes fresh progress every time instead
        // of re-tripping on the recorded spend.
        let mut fresh_measurements = 0u64;

        for (index, phase) in Phase::ALL.into_iter().enumerate().skip(resumed) {
            if let Some(cap) = options.max_measurements {
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

            observer.on_event(&EngineEvent::PhaseStarted { phase });
            // Phase-local memo: a resumed run holds what a straight run does.
            if let Some(cache) = oracle.cache_mut() {
                cache.forget();
            }
            let salt = PHASE_SALTS[index];
            let mut rng = StdRng::seed_from_u64(self.config.rng_seed ^ salt);
            oracle.probe_mut().begin_phase(salt);
            let before = oracle.stats();
            let artifact = self.run_phase(phase, &mut oracle, &memory, &mut rng, &state)?;
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

            fresh_measurements = fresh_measurements.saturating_add(costs.measurements);
            if let Some(cap) = options.max_measurements {
                if fresh_measurements.saturating_mul(5) >= cap.saturating_mul(4) {
                    observer.on_event(&EngineEvent::BudgetPressure {
                        phase,
                        spent_measurements: fresh_measurements,
                        max_measurements: cap,
                    });
                }
            }
            // Boundary stops report "the first phase that will not run";
            // after the last phase there is none, so a stop there is simply
            // a completed run.
            if let Some(&next) = Phase::ALL.get(index + 1) {
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
        let validation = need(state.validation, "validation")?;
        if let Some(error) = agreement_failure(&validation) {
            return Err(error);
        }

        // Consult the declared extra channels: hand each one the recovered
        // linear skeleton, let it hunt for a row remap, and cross-examine
        // any mask it claims before recording it.
        let mapping = need(state.mapping, "mapping")?;
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
        let partition = need(state.partition, "partition")?;
        Ok(RunReport {
            mapping,
            coarse: need(state.coarse, "coarse")?,
            pool_size: partition.pool_size,
            pile_count: partition.pivots.len(),
            functions: need(state.functions, "detected-functions")?,
            fine: need(state.fine, "fine")?,
            validation,
            threshold_ns: need(state.threshold_ns, "calibration")?,
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
        let options = EngineOptions::default()
            .with_checkpoint("/tmp/x")
            .with_max_measurements(100)
            .with_stop_after(Phase::Partition)
            .with_fine_events(true);
        assert_eq!(options.checkpoint, Some(PathBuf::from("/tmp/x")));
        assert_eq!(options.max_measurements, Some(100));
        assert_eq!(options.stop_after, Some(Phase::Partition));
        assert!(options.fine_events);
        assert_eq!(EngineOptions::default().max_measurements, None);
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
