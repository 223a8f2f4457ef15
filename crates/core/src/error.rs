//! Error type of the DRAMDig pipeline.

use std::fmt;

use dram_model::ModelError;
use mem_probe::ProbeError;

/// Errors that can occur while reverse engineering a DRAM address mapping.
#[derive(Debug)]
#[non_exhaustive]
pub enum DramDigError {
    /// The timing-channel calibration failed.
    Calibration(ProbeError),
    /// Step 1 could not classify the physical address bits.
    CoarseDetection {
        /// Explanation of what went wrong.
        reason: String,
    },
    /// Algorithm 1 could not select a suitable address pool.
    Selection {
        /// Explanation of what went wrong.
        reason: String,
    },
    /// Algorithm 2 could not partition the pool into same-bank piles.
    Partition {
        /// Explanation of what went wrong.
        reason: String,
    },
    /// Algorithm 3 could not resolve the bank address functions.
    FunctionDetection {
        /// Explanation of what went wrong.
        reason: String,
    },
    /// Step 3 could not assign the remaining shared row/column bits.
    Refinement {
        /// Explanation of what went wrong.
        reason: String,
    },
    /// The recovered bit classification contradicts follow-up measurements.
    Validation {
        /// Explanation of which check disagreed.
        reason: String,
    },
    /// The recovered pieces do not form a bijective mapping.
    Model(ModelError),
    /// Required domain knowledge is missing for the requested operation.
    MissingKnowledge {
        /// Which knowledge group is required.
        group: &'static str,
    },
    /// The engine stopped cooperatively at a phase boundary (measurement
    /// cap exhausted or an explicit stop point) without any phase having
    /// failed. When a checkpoint directory is configured, every completed
    /// phase survives and a resumed run continues from the boundary with a
    /// byte-identical final report.
    Interrupted {
        /// The first phase that did *not* run.
        phase: crate::driver::Phase,
        /// Why the engine stopped.
        reason: String,
    },
    /// A checkpoint could not be written, read or applied.
    Checkpoint {
        /// Explanation of what went wrong.
        reason: String,
    },
}

impl fmt::Display for DramDigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramDigError::Calibration(e) => write!(f, "calibration failed: {e}"),
            DramDigError::CoarseDetection { reason } => {
                write!(f, "coarse row/column detection failed: {reason}")
            }
            DramDigError::Selection { reason } => {
                write!(f, "physical address selection failed: {reason}")
            }
            DramDigError::Partition { reason } => {
                write!(f, "physical address partition failed: {reason}")
            }
            DramDigError::FunctionDetection { reason } => {
                write!(f, "bank address function detection failed: {reason}")
            }
            DramDigError::Refinement { reason } => {
                write!(f, "fine-grained bit detection failed: {reason}")
            }
            DramDigError::Validation { reason } => {
                write!(f, "validation of the recovered mapping failed: {reason}")
            }
            DramDigError::Model(e) => write!(f, "recovered mapping is inconsistent: {e}"),
            DramDigError::MissingKnowledge { group } => {
                write!(f, "required domain knowledge is disabled: {group}")
            }
            DramDigError::Interrupted { phase, reason } => {
                write!(f, "pipeline interrupted before {phase}: {reason}")
            }
            DramDigError::Checkpoint { reason } => {
                write!(f, "checkpoint error: {reason}")
            }
        }
    }
}

impl std::error::Error for DramDigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DramDigError::Calibration(e) => Some(e),
            DramDigError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProbeError> for DramDigError {
    fn from(e: ProbeError) -> Self {
        DramDigError::Calibration(e)
    }
}

impl From<ModelError> for DramDigError {
    fn from(e: ModelError) -> Self {
        DramDigError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DramDigError::Partition {
            reason: "only 3 piles found".into(),
        };
        assert!(e.to_string().contains("partition"));
        assert!(e.to_string().contains("3 piles"));
        let e = DramDigError::MissingKnowledge {
            group: "specifications",
        };
        assert!(e.to_string().contains("specifications"));
    }

    #[test]
    fn conversions_preserve_source() {
        use std::error::Error;
        let model_err = ModelError::LinearlyDependentFunctions;
        let e: DramDigError = model_err.into();
        assert!(e.source().is_some());
        let probe_err = ProbeError::CalibrationFailed { reason: "x".into() };
        let e: DramDigError = probe_err.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramDigError>();
    }
}
