//! The settable parameters of the DRAMDig algorithm.
//!
//! Only what callers actually vary lives here. The paper's fixed parameters
//! (δ = 0.2, per_threshold = 85%, functions of at most 7 bits) and the
//! pipeline's search bounds are named constants beside the one phase that
//! reads each of them.

use crate::artifact::{trailer_for, unseal};
use crate::codec::{self, CodecError};

/// Which of the pipeline's two measurement paths a run takes. Named for the
/// phase where they differ most, the choice also governs how calibration
/// and validation spend their budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// The paper's pipeline: full-budget calibration; Algorithm 2 draws a
    /// pivot, measures it against *every* remaining address and accepts the
    /// pile when its size is within tolerance; validation measures every
    /// random pair afresh. Maximal measurement budget, maximal robustness.
    #[default]
    Exhaustive,
    /// The measurement-minimal pipeline: calibration stops once its
    /// threshold is stable; the partition learns a basis of the same-bank
    /// difference space (the kernel of the bank functions over the pool's
    /// varying bits) from a small number of targeted measurements, assigns
    /// every pool address to its coset computationally and spot-checks one
    /// pair per pile, falling back to [`PartitionStrategy::Exhaustive`]
    /// when the kernel cannot be completed; validation replays the probe
    /// cache as free checks and shrinks its fresh random-pair sample.
    Decompose,
}

impl PartitionStrategy {
    fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Exhaustive => "exhaustive",
            PartitionStrategy::Decompose => "decompose",
        }
    }
}

/// Configuration of [`crate::DramDig`].
///
/// The defaults are conservative measurement budgets that work across all
/// nine Table-II machine settings.
#[derive(Debug, Clone, PartialEq)]
pub struct DramDigConfig {
    /// Number of random pairs measured to calibrate the conflict threshold
    /// (an upper bound under [`PartitionStrategy::Decompose`]).
    pub calibration_samples: usize,
    /// Number of random consistency checks performed during validation.
    pub validation_samples: usize,
    /// Seed for the tool's internal randomness (base-address choices, pivot
    /// selection). Two runs with the same seed and probe behave identically.
    pub rng_seed: u64,
    /// Capacity of the pair-keyed SBDR classification cache attached to the
    /// conflict oracle, so no stage ever re-times a pair another stage (or a
    /// rejected pivot attempt) already classified. `None` disables caching.
    pub probe_cache_capacity: Option<usize>,
    /// Which measurement path the run takes (see [`PartitionStrategy`]).
    pub strategy: PartitionStrategy,
}

impl Default for DramDigConfig {
    fn default() -> Self {
        DramDigConfig {
            calibration_samples: 400,
            validation_samples: 64,
            rng_seed: 0xD16_5EED,
            probe_cache_capacity: Some(mem_probe::DEFAULT_CACHE_CAPACITY),
            strategy: PartitionStrategy::Exhaustive,
        }
    }
}

impl DramDigConfig {
    /// A configuration tuned for fast unit/integration tests: the default
    /// with [`DramDigConfig::with_fast_budgets`]. The recovered mapping is
    /// identical; only the measurement budget changes.
    pub fn fast() -> Self {
        DramDigConfig::default().with_fast_budgets()
    }

    /// Swaps in the reduced budgets of [`DramDigConfig::fast`]: 200
    /// calibration pairs and 32 validation checks. Grid and evaluation runs
    /// apply them to every profile.
    #[must_use]
    pub fn with_fast_budgets(self) -> Self {
        DramDigConfig {
            calibration_samples: 200,
            validation_samples: 32,
            ..self
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// The measurement-minimal profile ([`PartitionStrategy::Decompose`]).
    /// The recovered mapping is the same as with [`DramDigConfig::default`]
    /// on every Table-II setting; only the probe budget shrinks (see
    /// `BENCH_dramdig.json`).
    pub fn optimized() -> Self {
        DramDigConfig {
            strategy: PartitionStrategy::Decompose,
            ..DramDigConfig::default()
        }
    }

    /// The seed-faithful baseline with every acceleration disabled — no
    /// probe cache, exhaustive partition, full-budget calibration. Used by
    /// the benchmarks as the naive comparison point.
    pub fn naive() -> Self {
        DramDigConfig {
            probe_cache_capacity: None,
            ..DramDigConfig::default()
        }
    }

    /// Serializes the configuration as `key = value` lines, one per field,
    /// sealed by the same `checksum = fnv1a:<16 hex>` trailer as a phase
    /// checkpoint. [`DramDigConfig::decode`] is the exact inverse; a
    /// checkpoint directory stores the configuration in this form so a
    /// resumed run continues with bit-identical settings.
    pub fn encode(&self) -> String {
        let body = format!(
            concat!(
                "calibration_samples = {}\n",
                "validation_samples = {}\n",
                "rng_seed = {}\n",
                "probe_cache_capacity = {}\n",
                "strategy = {}\n",
            ),
            self.calibration_samples,
            self.validation_samples,
            self.rng_seed,
            codec::format_opt_usize(self.probe_cache_capacity),
            self.strategy.name(),
        );
        let trailer = trailer_for(&body);
        body + &trailer
    }

    /// Parses a configuration written by [`DramDigConfig::encode`].
    ///
    /// Keys may appear in any order; keys absent from the document keep
    /// their [`DramDigConfig::default`] value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for a missing or mismatched `checksum`
    /// trailer, malformed lines, unknown keys (such as the tuning knobs an
    /// older format stored) or unparseable values.
    pub fn decode(text: &str) -> Result<Self, CodecError> {
        let mut config = DramDigConfig::default();
        for (line, key, value) in codec::parse_kv_lines(unseal(text)?)? {
            match key {
                "calibration_samples" => {
                    config.calibration_samples = codec::parse_usize(line, key, value)?;
                }
                "validation_samples" => {
                    config.validation_samples = codec::parse_usize(line, key, value)?;
                }
                "rng_seed" => config.rng_seed = codec::parse_u64(line, key, value)?,
                "probe_cache_capacity" => {
                    config.probe_cache_capacity = codec::parse_opt_usize(line, key, value)?;
                }
                "strategy" => {
                    config.strategy = [PartitionStrategy::Exhaustive, PartitionStrategy::Decompose]
                        .into_iter()
                        .find(|s| s.name() == value)
                        .ok_or_else(|| {
                            CodecError::at(line, format!("unknown strategy `{value}`"))
                        })?;
                }
                other => {
                    return Err(CodecError::at(
                        line,
                        format!(
                            "`{other}` is not a config key (an older format?); \
                             clear the checkpoint directory"
                        ),
                    ))
                }
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys the configuration held before the paper's fixed
    /// parameters and the single-valued knobs became constants.
    const REMOVED_KEYS: [&str; 14] = [
        "delta",
        "per_threshold",
        "measure_repeat",
        "max_bases_per_bit",
        "max_func_bits",
        "max_partition_attempts",
        "max_pool",
        "validate",
        "partition_strategy",
        "max_decompose_queries",
        "adaptive_calibration",
        "calibration_chunk",
        "early_exit_votes",
        "validate_from_cache",
    ];

    fn sealed(body: &str) -> String {
        format!("{body}{}", trailer_for(body))
    }

    #[test]
    fn defaults_match_paper_constants() {
        assert!((crate::partition::DELTA - 0.2).abs() < 1e-12);
        assert!((crate::partition::PER_THRESHOLD - 0.85).abs() < 1e-12);
        assert_eq!(crate::functions::MAX_FUNC_BITS, 7);
        assert_eq!(
            DramDigConfig::default().strategy,
            PartitionStrategy::Exhaustive
        );
    }

    #[test]
    fn fast_config_keeps_paper_constants() {
        let c = DramDigConfig::fast();
        assert!(c.calibration_samples < DramDigConfig::default().calibration_samples);
        assert!(c.validation_samples < DramDigConfig::default().validation_samples);
        assert_eq!(
            c,
            DramDigConfig {
                calibration_samples: c.calibration_samples,
                validation_samples: c.validation_samples,
                ..DramDigConfig::default()
            }
        );
    }

    #[test]
    fn with_seed_changes_seed() {
        assert_eq!(DramDigConfig::default().with_seed(9).rng_seed, 9);
    }

    #[test]
    fn optimized_flips_only_the_accelerators() {
        assert_eq!(
            DramDigConfig::optimized(),
            DramDigConfig {
                strategy: PartitionStrategy::Decompose,
                ..DramDigConfig::default()
            }
        );
    }

    #[test]
    fn every_profile_round_trips_through_the_text_codec() {
        for config in [
            DramDigConfig::default(),
            DramDigConfig::fast(),
            DramDigConfig::optimized(),
            DramDigConfig::naive(),
            DramDigConfig {
                rng_seed: u64::MAX,
                ..DramDigConfig::optimized().with_fast_budgets()
            },
        ] {
            let text = config.encode();
            assert_eq!(text.lines().count(), 6, "five keys and the trailer");
            assert_eq!(DramDigConfig::decode(&text).unwrap(), config);
        }
    }

    #[test]
    fn decode_tolerates_missing_keys_and_rejects_unknown_ones() {
        // A partial document keeps defaults for everything unspecified.
        let partial = DramDigConfig::decode(&sealed("rng_seed = 99\n")).unwrap();
        assert_eq!(partial, DramDigConfig::default().with_seed(99));
        // Comments and blank lines are fine.
        assert!(DramDigConfig::decode(&sealed("# note\n\nstrategy = decompose\n")).is_ok());
        // Unknown keys and malformed values are errors that name the line.
        assert_eq!(
            DramDigConfig::decode(&sealed("frobnicate = 1\n"))
                .unwrap_err()
                .line,
            1
        );
        assert!(DramDigConfig::decode(&sealed("rng_seed = much\n")).is_err());
        assert!(DramDigConfig::decode(&sealed("strategy = magic\n")).is_err());
    }

    #[test]
    fn every_removed_key_is_refused_with_the_clear_the_directory_hint() {
        for key in REMOVED_KEYS {
            let body = format!("rng_seed = 1\n{key} = 1\n");
            let err = DramDigConfig::decode(&sealed(&body)).unwrap_err();
            assert_eq!(err.line, 2, "{key}");
            assert!(err.reason.contains(key), "{key}: {err}");
            assert!(
                err.reason.contains("clear the checkpoint directory"),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn untrailed_or_edited_documents_are_refused() {
        let text = DramDigConfig::fast().encode();
        let body = &text[..text.find("checksum").unwrap()];
        // The body alone (the pre-trailer format) is refused...
        let err = DramDigConfig::decode(body).unwrap_err();
        assert!(
            err.reason.contains("clear the checkpoint directory"),
            "{err}"
        );
        // ...and so is one edited digit under an intact trailer.
        let edited = text.replace("calibration_samples = 200", "calibration_samples = 201");
        assert_ne!(edited, text);
        let err = DramDigConfig::decode(&edited).unwrap_err();
        assert!(err.reason.contains("checksum"), "{err}");
        // Every proper prefix is refused too.
        for cut in 0..text.len() {
            assert!(DramDigConfig::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn naive_profile_disables_the_cache() {
        let c = DramDigConfig::naive();
        assert_eq!(c.probe_cache_capacity, None);
        assert_eq!(c.strategy, PartitionStrategy::Exhaustive);
    }
}
