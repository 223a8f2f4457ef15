//! The end-to-end DRAMDig driver (Figure 1 of the paper).

use std::fmt;

use dram_model::AddressMapping;
use mem_probe::{MemoryProbe, ObservableCost, ObservableKind, ProbeStats};

use crate::coarse::CoarseBits;
use crate::config::DramDigConfig;
use crate::error::DramDigError;
use crate::fine::{FineBits, ValidationReport};
use crate::functions::DetectedFunctions;
use crate::knowledge::DomainKnowledge;

/// Measurement cost of one pipeline phase: the probe's own counters, taken
/// as the delta between two snapshots ([`ProbeStats::between`]).
pub type PhaseCosts = ProbeStats;

/// Names of the pipeline phases, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Latency threshold calibration.
    Calibration,
    /// Step 1: coarse row/column detection.
    CoarseDetection,
    /// Step 2a/2b: address selection and pile partition.
    Partition,
    /// Step 2c: bank-function detection (no measurements, pure computation).
    FunctionDetection,
    /// Step 3: fine-grained shared-bit detection.
    FineDetection,
    /// Optional measurement-based validation.
    Validation,
}

/// One row of the single source of truth for everything phase-related:
/// execution order, the stable codec identifier and the human-readable
/// label. Adding a phase means adding one row here (and a variant above) —
/// [`Phase::ALL`], [`Phase::name`], [`Phase::from_name`] and the `Display`
/// impl all derive from this table, so they cannot desynchronize.
struct PhaseInfo {
    phase: Phase,
    name: &'static str,
    display: &'static str,
}

const PHASE_TABLE: [PhaseInfo; 6] = [
    PhaseInfo {
        phase: Phase::Calibration,
        name: "calibration",
        display: "calibration",
    },
    PhaseInfo {
        phase: Phase::CoarseDetection,
        name: "coarse",
        display: "coarse row/column detection",
    },
    PhaseInfo {
        phase: Phase::Partition,
        name: "partition",
        display: "address selection & partition",
    },
    PhaseInfo {
        phase: Phase::FunctionDetection,
        name: "detect",
        display: "bank function detection",
    },
    PhaseInfo {
        phase: Phase::FineDetection,
        name: "fine",
        display: "fine-grained detection",
    },
    PhaseInfo {
        phase: Phase::Validation,
        name: "validation",
        display: "validation",
    },
];

// The table must list the phases in declaration (= execution) order, or the
// `as usize` indexing below would hand out the wrong row.
const _: () = {
    let mut i = 0;
    while i < PHASE_TABLE.len() {
        assert!(PHASE_TABLE[i].phase as usize == i);
        i += 1;
    }
};

impl Phase {
    /// Every phase, in execution order (derived from the phase table).
    pub const ALL: [Phase; 6] = {
        let mut all = [Phase::Calibration; 6];
        let mut i = 0;
        while i < PHASE_TABLE.len() {
            all[i] = PHASE_TABLE[i].phase;
            i += 1;
        }
        all
    };

    /// Position of this phase in [`Phase::ALL`] (execution order).
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable identifier, used by the serialized report
    /// codec, checkpoint file names and the benchmark JSON.
    /// [`Phase::from_name`] is its inverse.
    pub const fn name(self) -> &'static str {
        PHASE_TABLE[self.index()].name
    }

    /// Parses a [`Phase::name`] identifier back into the phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        PHASE_TABLE
            .iter()
            .find(|info| info.name == name)
            .map(|info| info.phase)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", PHASE_TABLE[self.index()].display)
    }
}

/// Everything DRAMDig learned during one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The recovered physical-address → DRAM mapping.
    pub mapping: AddressMapping,
    /// Step-1 result (coarse bits).
    pub coarse: CoarseBits,
    /// Step-2 result: selected pool size and accepted piles.
    pub pool_size: usize,
    /// Number of accepted same-bank piles.
    pub pile_count: usize,
    /// Step-2c result (detected functions plus all consistent masks).
    pub functions: DetectedFunctions,
    /// Step-3 result (full bit classification).
    pub fine: FineBits,
    /// Validation outcome, when enabled.
    pub validation: Option<ValidationReport>,
    /// The calibrated conflict threshold in nanoseconds.
    pub threshold_ns: u64,
    /// Per-phase measurement costs.
    pub phase_costs: Vec<(Phase, PhaseCosts)>,
    /// Total cost across all phases.
    pub total: PhaseCosts,
    /// XOR row-remap mask recovered by an extra observable channel
    /// (canonicalised under reflection), when one was declared, consulted
    /// and cross-checked. `None` on timing-only runs: an XOR involution on
    /// the row line preserves row equality and is invisible to conflict
    /// timing.
    pub row_remap: Option<u32>,
    /// What each extra observable channel the run consulted spent, in
    /// consultation order. Empty on timing-only runs (the timing spend is
    /// already in [`RunReport::phase_costs`]).
    pub observable_costs: Vec<(ObservableKind, ObservableCost)>,
}

impl RunReport {
    /// Cost of one phase, if it ran.
    pub fn cost_of(&self, phase: Phase) -> Option<PhaseCosts> {
        self.phase_costs
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, c)| *c)
    }

    /// Total simulated seconds spent, the quantity plotted in Figure 2.
    pub fn elapsed_seconds(&self) -> f64 {
        self.total.elapsed_seconds()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "recovered mapping: {}", self.mapping)?;
        if let Some(mask) = self.row_remap {
            writeln!(
                f,
                "row remap: logical row r stored in array row r ^ {mask:#x}"
            )?;
        }
        writeln!(
            f,
            "pool: {} addresses in {} piles; threshold {} ns",
            self.pool_size, self.pile_count, self.threshold_ns
        )?;
        for (phase, cost) in &self.phase_costs {
            writeln!(
                f,
                "  {phase}: {} measurements, {:.3} s",
                cost.measurements,
                cost.elapsed_seconds()
            )?;
        }
        for (kind, cost) in &self.observable_costs {
            writeln!(
                f,
                "  observable {kind}: {} hammer pairs, {} timing pairs, {:.3} s",
                cost.hammer_pairs,
                cost.timing_pairs,
                cost.elapsed_ns as f64 / 1e9
            )?;
        }
        if self.total.cache_hits + self.total.cache_misses > 0 {
            writeln!(
                f,
                "probe cache: {} hits, {} misses",
                self.total.cache_hits, self.total.cache_misses
            )?;
        }
        write!(
            f,
            "total: {} measurements, {:.3} s simulated",
            self.total.measurements,
            self.total.elapsed_seconds()
        )
    }
}

/// The knowledge-assisted reverse-engineering tool.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct DramDig {
    knowledge: DomainKnowledge,
    config: DramDigConfig,
}

impl DramDig {
    /// Creates a tool instance for a machine described by `knowledge`.
    pub fn new(knowledge: DomainKnowledge, config: DramDigConfig) -> Self {
        DramDig { knowledge, config }
    }

    /// The domain knowledge this instance uses.
    pub fn knowledge(&self) -> &DomainKnowledge {
        &self.knowledge
    }

    /// The configuration this instance uses.
    pub fn config(&self) -> &DramDigConfig {
        &self.config
    }

    /// Runs the full three-step pipeline against a probe and returns the
    /// recovered mapping plus cost accounting.
    ///
    /// This is a thin compatibility wrapper over
    /// [`PipelineEngine`](crate::engine::PipelineEngine) with no checkpoint
    /// directory, no budget and the silent observer — use the engine
    /// directly for resumable runs, budget enforcement or progress events.
    ///
    /// # Errors
    ///
    /// Any phase can fail; the error names the phase and the reason (see
    /// [`DramDigError`]). In particular a validation agreement below 90%
    /// yields [`DramDigError::Validation`].
    pub fn run<P: MemoryProbe>(&mut self, probe: &mut P) -> Result<RunReport, DramDigError> {
        crate::engine::PipelineEngine::new(self.knowledge.clone(), self.config.clone()).run(
            probe,
            &crate::engine::EngineOptions::default(),
            &mut crate::engine::NullObserver,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;
    use dram_sim::{PhysMemory, SimConfig, SimMachine};
    use mem_probe::SimProbe;

    fn probe_for(number: u8) -> (SimProbe, MachineSetting) {
        let setting = MachineSetting::by_number(number).unwrap();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
        (probe, setting)
    }

    fn run_setting(number: u8, config: DramDigConfig) -> (RunReport, MachineSetting) {
        let (mut probe, setting) = probe_for(number);
        let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
        let mut tool = DramDig::new(knowledge, config);
        let report = tool.run(&mut probe).unwrap();
        (report, setting)
    }

    #[test]
    fn recovers_haswell_mapping_end_to_end() {
        let (report, setting) = run_setting(4, DramDigConfig::fast());
        assert!(report.mapping.equivalent_to(setting.mapping()));
        assert_eq!(report.pile_count, 8);
        assert!(report.validation.unwrap().agreement() > 0.95);
        assert!(report.total.measurements > 0);
        assert!(report.elapsed_seconds() > 0.0);
    }

    #[test]
    fn recovers_skylake_single_channel_mapping() {
        let (report, setting) = run_setting(7, DramDigConfig::fast());
        assert!(report.mapping.equivalent_to(setting.mapping()));
        assert_eq!(report.mapping.row_bits(), setting.mapping().row_bits());
        assert_eq!(
            report.mapping.column_bits(),
            setting.mapping().column_bits()
        );
    }

    #[test]
    fn report_exposes_phase_costs_in_order() {
        let (report, _) = run_setting(4, DramDigConfig::fast());
        let phases: Vec<Phase> = report.phase_costs.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Calibration,
                Phase::CoarseDetection,
                Phase::Partition,
                Phase::FunctionDetection,
                Phase::FineDetection,
                Phase::Validation,
            ]
        );
        // The partition dominates the measurement budget, as the paper notes.
        let partition = report.cost_of(Phase::Partition).unwrap();
        let coarse = report.cost_of(Phase::CoarseDetection).unwrap();
        assert!(partition.measurements > coarse.measurements);
        let text = report.to_string();
        assert!(text.contains("partition"));
    }

    #[test]
    fn optimized_profile_recovers_the_same_mapping_with_fewer_measurements() {
        let (naive, setting) = run_setting(4, DramDigConfig::naive());
        let (fast, _) = run_setting(4, DramDigConfig::optimized());
        assert!(naive.mapping.equivalent_to(setting.mapping()));
        assert!(fast.mapping.equivalent_to(setting.mapping()));
        assert!(
            fast.total.measurements * 3 <= naive.total.measurements,
            "optimized {} vs naive {} measurements",
            fast.total.measurements,
            naive.total.measurements
        );
        // The naive profile never consults a cache.
        assert_eq!(naive.total.cache_hits + naive.total.cache_misses, 0);
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let (a, _) = run_setting(7, DramDigConfig::fast());
        let (b, _) = run_setting(7, DramDigConfig::fast());
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.total.measurements, b.total.measurements);
    }

    #[test]
    fn disabled_system_info_fails_cleanly() {
        let (mut probe, setting) = probe_for(4);
        let knowledge =
            DomainKnowledge::new(setting.system, Some(setting.microarch)).without_system_info();
        let mut tool = DramDig::new(knowledge, DramDigConfig::fast());
        let err = tool.run(&mut probe).unwrap_err();
        assert!(matches!(err, DramDigError::MissingKnowledge { .. }));
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("warp-drive"), None);
    }

    #[test]
    fn phase_costs_merge_sums_and_saturates() {
        let a = PhaseCosts {
            measurements: 5,
            accesses: 10,
            elapsed_ns: 100,
            cache_hits: 2,
            cache_misses: 3,
        };
        let b = PhaseCosts {
            measurements: 7,
            accesses: 1,
            elapsed_ns: u64::MAX,
            cache_hits: 1,
            cache_misses: 0,
        };
        let m = a.merge(b);
        assert_eq!(m.measurements, 12);
        assert_eq!(m.accesses, 11);
        assert_eq!(m.elapsed_ns, u64::MAX, "saturating, not wrapping");
        assert_eq!(m.cache_hits + m.cache_misses, 6);
        assert_eq!(a.merge(PhaseCosts::default()), a);
    }

    #[test]
    fn between_saturates_on_wrapped_counters() {
        // `ProbeStats::merge` saturates, so a later snapshot can carry a
        // counter that is not strictly larger than an earlier one; the
        // delta must clamp to zero instead of panicking.
        let before = ProbeStats {
            measurements: 10,
            accesses: u64::MAX,
            elapsed_ns: 5,
            cache_hits: 0,
            cache_misses: 0,
        };
        let after = ProbeStats {
            measurements: 7,
            accesses: u64::MAX,
            elapsed_ns: 9,
            cache_hits: 0,
            cache_misses: 0,
        };
        let delta = PhaseCosts::between(before, after);
        assert_eq!(delta.measurements, 0, "clamped, not wrapped");
        assert_eq!(delta.accesses, 0);
        assert_eq!(delta.elapsed_ns, 4);
    }

    #[test]
    fn phase_table_is_the_single_source_of_truth() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
            assert!(!phase.to_string().is_empty());
        }
        // Codec names and display labels stay what the serialized reports
        // and the benchmark JSON already use.
        assert_eq!(Phase::FunctionDetection.name(), "detect");
        assert_eq!(
            Phase::Partition.to_string(),
            "address selection & partition"
        );
    }

    #[test]
    fn accessors_round_trip() {
        let (_, setting) = probe_for(4);
        let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
        let tool = DramDig::new(knowledge.clone(), DramDigConfig::fast());
        assert_eq!(tool.knowledge(), &knowledge);
        assert_eq!(tool.config(), &DramDigConfig::fast());
    }
}
