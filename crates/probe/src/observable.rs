//! The pluggable observable-channel layer.
//!
//! A channel that can *observe* something about the memory system implements
//! [`Observable`]: it answers structured [`ObservableQuery`] questions with a
//! calibrated-confidence [`ObservableAnswer`] and accounts for what the
//! answers cost ([`ObservableCost`]). The pipeline engine is written against
//! this seam rather than against a concrete probe, so conflict timing,
//! rowhammer flip adjacency and future channels (refresh-rate, command-level
//! probing) are interchangeable and composable.
//!
//! Two channel families exist in this workspace:
//!
//! * [`ConflictTimingObservable`] wraps the existing
//!   [`ConflictOracle`]/calibration/cache stack. Its measurement sequences
//!   are byte-identical to calling the oracle directly, so every
//!   checkpoint/resume and scoreboard-determinism guarantee survives the
//!   redesign.
//! * `FlipAdjacencyObservable` (in the `rowhammer` crate) answers
//!   [`ObservableQuery::RowAdjacency`] by double-sided hammering and can
//!   recover an XOR row-remap mask that is provably invisible to conflict
//!   timing.

use std::fmt;

use dram_model::{AddressMapping, PhysAddr};

use crate::error::ProbeError;
use crate::oracle::ConflictOracle;
use crate::probe::MemoryProbe;

/// The channels a tool can be asked to observe the memory system through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObservableKind {
    /// Row-buffer-conflict timing (the classic DRAMDig channel).
    ConflictTiming,
    /// Rowhammer bit-flip adjacency (flips betray physical row neighbours).
    FlipAdjacency,
}

impl ObservableKind {
    /// Every kind, in canonical order.
    pub const ALL: [ObservableKind; 2] = [
        ObservableKind::ConflictTiming,
        ObservableKind::FlipAdjacency,
    ];

    /// Stable name used by CLI flags, scoreboards and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ObservableKind::ConflictTiming => "timing",
            ObservableKind::FlipAdjacency => "flip-adjacency",
        }
    }

    /// Parses a stable name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

impl fmt::Display for ObservableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured question about two physical addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservableQuery {
    /// Are the two addresses in the same bank but different rows?
    SameBankDifferentRow {
        /// First address of the pair.
        a: PhysAddr,
        /// Second address of the pair.
        b: PhysAddr,
    },
    /// Do the two addresses (known to share a bank) lie in the same row?
    RowEquality {
        /// First address of the pair.
        a: PhysAddr,
        /// Second address of the pair.
        b: PhysAddr,
    },
    /// Are the two addresses in physically adjacent (±2, i.e. double-sided
    /// aggressor positions around one victim) rows of the same bank?
    RowAdjacency {
        /// First aggressor address.
        a: PhysAddr,
        /// Second aggressor address.
        b: PhysAddr,
    },
}

/// A channel's answer to an [`ObservableQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservableAnswer {
    /// The binary verdict on the question.
    pub verdict: bool,
    /// Calibrated probability in `[0, 1]` that the verdict is correct, given
    /// the channel's error model (per-measurement error rate,
    /// flip-vulnerability rate, …).
    pub confidence: f64,
}

/// What a channel has spent answering queries so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservableCost {
    /// Timed address pairs (row-buffer-conflict measurements).
    pub timing_pairs: u64,
    /// Hammered aggressor pairs (double-sided rowhammer rounds).
    pub hammer_pairs: u64,
    /// Simulated nanoseconds consumed by the channel.
    pub elapsed_ns: u64,
}

impl ObservableCost {
    /// Saturating element-wise sum of two costs.
    pub fn merge(&self, other: &ObservableCost) -> ObservableCost {
        ObservableCost {
            timing_pairs: self.timing_pairs.saturating_add(other.timing_pairs),
            hammer_pairs: self.hammer_pairs.saturating_add(other.hammer_pairs),
            elapsed_ns: self.elapsed_ns.saturating_add(other.elapsed_ns),
        }
    }
}

/// A side channel that can answer structured queries about the memory
/// system, with calibrated confidence and cost accounting.
///
/// The pipeline engine drives every channel through this trait. Channels
/// differ in which queries they support ([`Observable::supports`]); asking an
/// unsupported query is a contract violation and returns
/// [`ProbeError::Unsupported`].
pub trait Observable {
    /// Which channel family this is.
    fn kind(&self) -> ObservableKind;

    /// Whether this channel can answer the given query (some channels also
    /// need [`Observable::inform_mapping`] first).
    fn supports(&self, query: &ObservableQuery) -> bool;

    /// Answers a supported query, spending measurements.
    fn answer(&mut self, query: &ObservableQuery) -> Result<ObservableAnswer, ProbeError>;

    /// Total cost spent by this channel so far.
    fn cost(&self) -> ObservableCost;

    /// Gives the channel the linear mapping skeleton recovered so far (bank
    /// functions + row bits). Channels that target addresses by row — like
    /// flip adjacency — need this before they can answer anything; the
    /// default is a no-op for channels that do not.
    fn inform_mapping(&mut self, mapping: &AddressMapping) {
        let _ = mapping;
    }

    /// Attempts to recover an XOR row-remap mask hiding behind the linear
    /// skeleton (logical row `r` stored in array row `r ^ mask`). Returns
    /// `Ok(None)` when the channel cannot see remapping — the default for
    /// timing-style channels, since an XOR involution preserves row equality
    /// and is therefore invisible to conflict timing.
    fn recover_row_remap(&mut self) -> Result<Option<u32>, ProbeError> {
        Ok(None)
    }
}

/// The conflict-timing channel: a [`ConflictOracle`] (probe + calibration +
/// optional cache) behind the [`Observable`] seam.
///
/// Answers are produced by *exactly* the same oracle calls the pipeline used
/// before the redesign — one `is_sbdr` per query, in query order — so the
/// measurement sequence, cache state and checkpoint artifacts stay
/// byte-identical to the direct-oracle path.
#[derive(Debug)]
pub struct ConflictTimingObservable<P> {
    oracle: ConflictOracle<P>,
}

impl<P: MemoryProbe> ConflictTimingObservable<P> {
    /// Wraps an oracle as an observable channel.
    pub fn new(oracle: ConflictOracle<P>) -> Self {
        ConflictTimingObservable { oracle }
    }

    /// Shared access to the wrapped oracle.
    pub fn oracle(&self) -> &ConflictOracle<P> {
        &self.oracle
    }

    /// Exclusive access to the wrapped oracle (the pipeline phases keep
    /// their existing oracle-based signatures and borrow it through here).
    pub fn oracle_mut(&mut self) -> &mut ConflictOracle<P> {
        &mut self.oracle
    }

    /// Consumes the channel and returns the oracle.
    pub fn into_oracle(self) -> ConflictOracle<P> {
        self.oracle
    }

    /// Assumed probability that a single calibrated conflict measurement
    /// misclassifies a pair; the basis of the reported confidence.
    pub const PER_VOTE_ERROR: f64 = 0.1;
}

impl<P: MemoryProbe> Observable for ConflictTimingObservable<P> {
    fn kind(&self) -> ObservableKind {
        ObservableKind::ConflictTiming
    }

    fn supports(&self, query: &ObservableQuery) -> bool {
        matches!(
            query,
            ObservableQuery::SameBankDifferentRow { .. } | ObservableQuery::RowEquality { .. }
        )
    }

    fn answer(&mut self, query: &ObservableQuery) -> Result<ObservableAnswer, ProbeError> {
        let confidence = 1.0 - Self::PER_VOTE_ERROR;
        match *query {
            ObservableQuery::SameBankDifferentRow { a, b } => Ok(ObservableAnswer {
                verdict: self.oracle.is_sbdr(a, b),
                confidence,
            }),
            // Given the same-bank precondition of the query, "same row" is
            // exactly "no row-buffer conflict".
            ObservableQuery::RowEquality { a, b } => Ok(ObservableAnswer {
                verdict: !self.oracle.is_sbdr(a, b),
                confidence,
            }),
            ObservableQuery::RowAdjacency { .. } => Err(ProbeError::Unsupported {
                reason: "conflict timing cannot distinguish adjacent from distant rows".into(),
            }),
        }
    }

    fn cost(&self) -> ObservableCost {
        let stats = self.oracle.stats();
        ObservableCost {
            timing_pairs: stats.measurements,
            hammer_pairs: 0,
            elapsed_ns: stats.elapsed_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::LatencyCalibration;
    use crate::sim_probe::SimProbe;
    use dram_model::{DramAddress, MachineSetting};
    use dram_sim::{PhysMemory, SimConfig, SimMachine};

    fn channel() -> ConflictTimingObservable<SimProbe> {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::noiseless());
        let timing = machine.controller().config().timing;
        let probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
        ConflictTimingObservable::new(ConflictOracle::new(
            probe,
            LatencyCalibration::from_threshold(timing.oracle_threshold_ns()),
        ))
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ObservableKind::ALL {
            assert_eq!(ObservableKind::from_name(kind.as_str()), Some(kind));
            assert_eq!(format!("{kind}"), kind.as_str());
        }
        assert_eq!(ObservableKind::from_name("laser"), None);
    }

    #[test]
    fn timing_channel_answers_sbdr_and_row_equality() {
        let mut ch = channel();
        let truth = ch.oracle().probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(3, 50, 0)).unwrap();
        let sbdr = truth.to_phys(DramAddress::new(3, 70, 0)).unwrap();
        let same_row = truth.to_phys(DramAddress::new(3, 50, 128)).unwrap();

        let q = ObservableQuery::SameBankDifferentRow { a, b: sbdr };
        assert!(ch.supports(&q));
        let ans = ch.answer(&q).unwrap();
        assert!(ans.verdict);
        assert!((ans.confidence - 0.9).abs() < 1e-12, "one measurement");

        let eq = ObservableQuery::RowEquality { a, b: same_row };
        assert!(ch.supports(&eq));
        assert!(ch.answer(&eq).unwrap().verdict);
        let neq = ObservableQuery::RowEquality { a, b: sbdr };
        assert!(!ch.answer(&neq).unwrap().verdict);
    }

    #[test]
    fn timing_channel_rejects_adjacency() {
        let mut ch = channel();
        let truth = ch.oracle().probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(0, 10, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(0, 12, 0)).unwrap();
        let q = ObservableQuery::RowAdjacency { a, b };
        assert!(!ch.supports(&q));
        assert!(ch.answer(&q).is_err());
        assert_eq!(ch.recover_row_remap().unwrap(), None);
    }

    #[test]
    fn cost_tracks_timing_pairs() {
        let mut ch = channel();
        let truth = ch.oracle().probe().machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(1, 1, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(1, 2, 0)).unwrap();
        assert_eq!(ch.cost(), ObservableCost::default());
        ch.answer(&ObservableQuery::SameBankDifferentRow { a, b })
            .unwrap();
        let cost = ch.cost();
        assert_eq!(cost.timing_pairs, 1);
        assert_eq!(cost.hammer_pairs, 0);
        assert!(cost.elapsed_ns > 0);
        let doubled = cost.merge(&cost);
        assert_eq!(doubled.timing_pairs, 2);
    }
}
