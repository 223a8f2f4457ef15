//! Typed, codec-serializable artifacts of the pipeline phases plus the
//! on-disk checkpoint store.
//!
//! Every phase of the [`PipelineEngine`](crate::engine::PipelineEngine)
//! consumes the artifacts of earlier phases and produces exactly one
//! [`PhaseArtifact`] of its own: the calibrated threshold, the coarse bit
//! classification, the pile pivots with their same-bank GF(2) difference
//! basis, the detected bank functions, the fine-grained bit classification
//! and the validation tally. Each artifact round-trips through the same
//! plain-text `key = value` codec ([`crate::codec`]) that the campaign
//! journal uses, so a [`PhaseCheckpoint`] written after a completed phase is
//! enough to resume a killed run from that boundary with a byte-identical
//! final [`crate::RecoveryReport`].
//!
//! Under [`PartitionStrategy::Decompose`](crate::PartitionStrategy) a
//! checkpoint also carries the conflict cache's replay log (`cache.N`
//! lines, oldest entry first): validation replays it, so restoring it is
//! required for the resumed report to match the uninterrupted run exactly.
//! Other runs write no `cache.N` lines, and a resume ignores any it finds.
//!
//! Every encoded checkpoint, and the stored `config.txt`, ends with a
//! `checksum = fnv1a:<16 hex>` line, the FNV-1a hash of the bytes before it.
//! Decoding refuses a missing or mismatched trailer, so a torn or edited
//! file is never half-trusted.

use std::fmt::Write;
use std::path::{Path, PathBuf};

use dram_model::fingerprint::fnv1a64;
use dram_model::gf2::PileBasis;
use dram_model::PhysAddr;

use crate::coarse::CoarseBits;
use crate::codec::{self, CodecError};
use crate::config::DramDigConfig;
use crate::driver::{Phase, PhaseCosts};
use crate::error::DramDigError;
use crate::fine::{FineBits, ValidationReport};
use crate::functions::DetectedFunctions;
use crate::report;

/// Outcome of the calibration phase: the conflict threshold in nanoseconds.
/// Everything later phases need from calibration is captured by this number
/// (`LatencyCalibration::from_threshold` rebuilds the oracle's side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationArtifact {
    /// The calibrated row-buffer-conflict latency threshold.
    pub threshold_ns: u64,
}

/// Outcome of the partition phase: exactly what Algorithm 3 and the report
/// read of the piles Algorithm 2 produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionArtifact {
    /// Number of addresses Algorithm 1 selected.
    pub pool_size: usize,
    /// One pivot per accepted pile, in discovery order (`check_numbering`
    /// numbers the piles by their pivots).
    pub pivots: Vec<PhysAddr>,
    /// The same-bank difference basis of the piles: the kernel the
    /// decomposition strategy learned, else the merged `member ⊕ pivot`
    /// basis of the exhaustive piles. A bank function must be constant on it.
    pub basis: PileBasis,
}

/// The typed output of one pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseArtifact {
    /// Calibration result.
    Calibration(CalibrationArtifact),
    /// Step-1 result.
    Coarse(CoarseBits),
    /// Step-2a/2b result.
    Partition(PartitionArtifact),
    /// Step-2c result.
    Functions(DetectedFunctions),
    /// Step-3 result.
    Fine(FineBits),
    /// Validation tally.
    Validation(ValidationReport),
}

impl PhaseArtifact {
    /// The phase that produces this artifact kind.
    #[must_use]
    pub fn phase(&self) -> Phase {
        match self {
            PhaseArtifact::Calibration(_) => Phase::Calibration,
            PhaseArtifact::Coarse(_) => Phase::CoarseDetection,
            PhaseArtifact::Partition(_) => Phase::Partition,
            PhaseArtifact::Functions(_) => Phase::FunctionDetection,
            PhaseArtifact::Fine(_) => Phase::FineDetection,
            PhaseArtifact::Validation(_) => Phase::Validation,
        }
    }
}

/// Everything the engine persists when a phase completes: the phase, its
/// measured cost, its artifact and the conflict cache's replay log at the
/// boundary (as `(low_addr, high_addr, is_conflict)`, oldest first).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCheckpoint {
    /// The completed phase.
    pub phase: Phase,
    /// What the phase cost.
    pub costs: PhaseCosts,
    /// What the phase produced.
    pub artifact: PhaseArtifact,
    /// The conflict cache's replay log at the phase boundary, oldest entry
    /// first (empty unless the run keeps one).
    pub cache: Vec<(u64, u64, bool)>,
}

const INFALLIBLE: &str = "writing to a String cannot fail";

/// Appends `items` to `out`, comma-separated, without a per-item `String`.
fn write_list(out: &mut String, items: impl IntoIterator<Item = u64>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{item}").expect(INFALLIBLE);
    }
}

fn decode_u8_list(line: usize, key: &str, value: &str) -> Result<Vec<u8>, CodecError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(str::trim)
        .map(|item| {
            item.parse().map_err(|_| {
                CodecError::at(
                    line,
                    format!("`{key}` expects 8-bit integers, got `{item}`"),
                )
            })
        })
        .collect()
}

fn decode_u64_list(line: usize, key: &str, value: &str) -> Result<Vec<u64>, CodecError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(str::trim)
        .map(|item| codec::parse_u64(line, key, item))
        .collect()
}

fn write_basis(out: &mut String, basis: &PileBasis) {
    write!(out, "{};", basis.pivot()).expect(INFALLIBLE);
    write_list(out, basis.rows().iter().copied());
}

fn decode_basis(line: usize, key: &str, value: &str) -> Result<PileBasis, CodecError> {
    let (pivot, rows) = value
        .split_once(';')
        .ok_or_else(|| CodecError::at(line, format!("`{key}` expects `pivot;row,row,...`")))?;
    let pivot = codec::parse_u64(line, key, pivot.trim())?;
    let rows = decode_u64_list(line, key, rows.trim())?;
    let mut basis = PileBasis::new(pivot);
    for &row in &rows {
        basis.insert(pivot ^ row);
    }
    // Re-inserting an echelon basis must reproduce it exactly (each row has
    // a distinct leading bit); anything else means the document was edited.
    if basis.rows() != rows {
        return Err(CodecError::at(
            line,
            format!("`{key}` rows are not a row-echelon basis"),
        ));
    }
    Ok(basis)
}

/// The integrity trailer line that seals `body` (a phase checkpoint or the
/// stored configuration).
pub(crate) fn trailer_for(body: &str) -> String {
    format!("checksum = fnv1a:{:016x}\n", fnv1a64(body.as_bytes()))
}

/// The body of a checkpoint whose last line is the trailer sealing it.
pub(crate) fn unseal(text: &str) -> Result<&str, CodecError> {
    let start = text
        .strip_suffix('\n')
        .map_or(text.len(), |rest| rest.rfind('\n').map_or(0, |i| i + 1));
    let (body, last) = text.split_at(start);
    if last != trailer_for(body) {
        return Err(CodecError::at(
            body.lines().count() + 1,
            "no matching `checksum` trailer (torn or edited); clear the checkpoint directory",
        ));
    }
    Ok(body)
}

/// The space-separated artifact keys of a `phase` checkpoint, besides
/// `phase`, `costs` and the `cache.N` snapshot.
fn artifact_keys(phase: Phase) -> &'static str {
    match phase {
        Phase::Calibration => "threshold_ns",
        Phase::CoarseDetection => "coarse_rows coarse_cols coarse_banks coarse_undetermined",
        Phase::Partition => "pool pivots basis",
        Phase::FunctionDetection => "functions consistent",
        Phase::FineDetection => "fine_rows fine_cols fine_pure fine_measured fine_inferred",
        Phase::Validation => "bit_checks pair_checks cached_checks mismatches",
    }
}

/// [`PhaseCheckpoint::encode`] over borrowed parts, so the engine can
/// encode a fresh artifact's checkpoint and then move the artifact into the
/// pipeline state without cloning it.
///
/// Everything is written into one `String` pre-sized for the cache
/// snapshot, the only part that grows with the run.
pub(crate) fn encode_checkpoint(
    phase: Phase,
    costs: &PhaseCosts,
    artifact: &PhaseArtifact,
    cache: &[(u64, u64, bool)],
) -> String {
    // A cache line is its index, two addresses and the verdict.
    let mut out = String::with_capacity(256 + 64 * cache.len());
    writeln!(out, "phase = {}", phase.name()).expect(INFALLIBLE);
    writeln!(out, "costs = {}", report::encode_costs(costs)).expect(INFALLIBLE);
    match artifact {
        PhaseArtifact::Calibration(c) => {
            writeln!(out, "threshold_ns = {}", c.threshold_ns).expect(INFALLIBLE);
        }
        PhaseArtifact::Coarse(c) => {
            for (key, bits) in [
                ("coarse_rows", &c.row_bits),
                ("coarse_cols", &c.column_bits),
                ("coarse_banks", &c.bank_bits),
                ("coarse_undetermined", &c.undetermined),
            ] {
                write_line(&mut out, key, bits.iter().map(|&b| u64::from(b)));
            }
        }
        PhaseArtifact::Partition(p) => {
            writeln!(out, "pool = {}", p.pool_size).expect(INFALLIBLE);
            write_line(&mut out, "pivots", p.pivots.iter().map(|a| a.raw()));
            out.push_str("basis = ");
            write_basis(&mut out, &p.basis);
            out.push('\n');
        }
        PhaseArtifact::Functions(d) => {
            write_line(&mut out, "functions", d.functions.iter().map(|f| f.mask()));
            write_line(
                &mut out,
                "consistent",
                d.consistent_masks.iter().map(|f| f.mask()),
            );
        }
        PhaseArtifact::Fine(f) => {
            for (key, bits) in [
                ("fine_rows", &f.row_bits),
                ("fine_cols", &f.column_bits),
                ("fine_pure", &f.pure_bank_bits),
                ("fine_measured", &f.measured_shared_rows),
                ("fine_inferred", &f.inferred_bits),
            ] {
                write_line(&mut out, key, bits.iter().map(|&b| u64::from(b)));
            }
        }
        PhaseArtifact::Validation(v) => {
            writeln!(out, "bit_checks = {}", v.bit_checks).expect(INFALLIBLE);
            writeln!(out, "pair_checks = {}", v.pair_checks).expect(INFALLIBLE);
            writeln!(out, "cached_checks = {}", v.cached_checks).expect(INFALLIBLE);
            writeln!(out, "mismatches = {}", v.mismatches).expect(INFALLIBLE);
        }
    }
    for (i, (a, b, verdict)) in cache.iter().enumerate() {
        writeln!(out, "cache.{i} = {a},{b},{}", u8::from(*verdict)).expect(INFALLIBLE);
    }
    let trailer = trailer_for(&out);
    out.push_str(&trailer);
    out
}

/// Appends one `key = item,item,...` line.
fn write_line(out: &mut String, key: &str, items: impl IntoIterator<Item = u64>) {
    out.push_str(key);
    out.push_str(" = ");
    write_list(out, items);
    out.push('\n');
}

impl PhaseCheckpoint {
    /// Serializes the checkpoint as `key = value` lines.
    /// [`PhaseCheckpoint::decode`] is the exact inverse.
    #[must_use]
    pub fn encode(&self) -> String {
        encode_checkpoint(self.phase, &self.costs, &self.artifact, &self.cache)
    }

    /// Parses a checkpoint written by [`PhaseCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for a missing or mismatched `checksum`
    /// trailer, malformed lines, keys that do not belong to the named phase
    /// (such as a checkpoint written by an older format), a missing
    /// phase/costs header, non-contiguous cache indices, or a missing
    /// artifact field.
    pub fn decode(text: &str) -> Result<Self, CodecError> {
        let lines = codec::parse_kv_lines(unseal(text)?)?;
        let missing = |what: &str| CodecError::whole(format!("checkpoint is missing `{what}`"));

        let mut phase = None;
        let mut costs = None;
        let mut fields: std::collections::BTreeMap<&str, (usize, &str)> = Default::default();
        let mut cache: std::collections::BTreeMap<usize, (usize, &str)> = Default::default();
        for (line, key, value) in lines {
            if key == "phase" {
                phase = Some(
                    Phase::from_name(value)
                        .ok_or_else(|| CodecError::at(line, format!("unknown phase `{value}`")))?,
                );
            } else if key == "costs" {
                costs = Some(report::decode_costs(line, key, value)?);
            } else if let Some(index) = key.strip_prefix("cache.") {
                let index = codec::parse_usize(line, key, index)?;
                cache.insert(index, (line, value));
            } else {
                fields.insert(key, (line, value));
            }
        }
        let phase = phase.ok_or_else(|| missing("phase"))?;
        let costs = costs.ok_or_else(|| missing("costs"))?;
        let known = artifact_keys(phase);
        let stray = fields
            .iter()
            .filter(|(key, _)| !known.split(' ').any(|k| k == **key))
            .min_by_key(|(_, (line, _))| *line);
        if let Some((key, &(line, _))) = stray {
            let phase = phase.name();
            return Err(CodecError::at(
                line,
                format!(
                    "`{key}` is not a `{phase}` checkpoint key (an older format?); \
                     clear the checkpoint directory"
                ),
            ));
        }

        let field = |key: &str| -> Result<(usize, &str), CodecError> {
            fields.get(key).copied().ok_or_else(|| missing(key))
        };
        let artifact = match phase {
            Phase::Calibration => {
                let (line, value) = field("threshold_ns")?;
                PhaseArtifact::Calibration(CalibrationArtifact {
                    threshold_ns: codec::parse_u64(line, "threshold_ns", value)?,
                })
            }
            Phase::CoarseDetection => {
                let bits = |key| -> Result<Vec<u8>, CodecError> {
                    let (line, value) = field(key)?;
                    decode_u8_list(line, key, value)
                };
                PhaseArtifact::Coarse(CoarseBits {
                    row_bits: bits("coarse_rows")?,
                    column_bits: bits("coarse_cols")?,
                    bank_bits: bits("coarse_banks")?,
                    undetermined: bits("coarse_undetermined")?,
                })
            }
            Phase::Partition => {
                let (line, value) = field("pool")?;
                let pool_size = codec::parse_usize(line, "pool", value)?;
                let (line, value) = field("pivots")?;
                let pivots = decode_u64_list(line, "pivots", value)?;
                let (line, value) = field("basis")?;
                PhaseArtifact::Partition(PartitionArtifact {
                    pool_size,
                    pivots: pivots.into_iter().map(PhysAddr::new).collect(),
                    basis: decode_basis(line, "basis", value)?,
                })
            }
            Phase::FunctionDetection => {
                let masks = |key| -> Result<Vec<dram_model::XorFunc>, CodecError> {
                    let (line, value) = field(key)?;
                    Ok(decode_u64_list(line, key, value)?
                        .into_iter()
                        .map(dram_model::XorFunc::from_mask)
                        .collect())
                };
                PhaseArtifact::Functions(DetectedFunctions {
                    functions: masks("functions")?,
                    consistent_masks: masks("consistent")?,
                })
            }
            Phase::FineDetection => {
                let bits = |key| -> Result<Vec<u8>, CodecError> {
                    let (line, value) = field(key)?;
                    decode_u8_list(line, key, value)
                };
                PhaseArtifact::Fine(FineBits {
                    row_bits: bits("fine_rows")?,
                    column_bits: bits("fine_cols")?,
                    pure_bank_bits: bits("fine_pure")?,
                    measured_shared_rows: bits("fine_measured")?,
                    inferred_bits: bits("fine_inferred")?,
                })
            }
            Phase::Validation => {
                let count = |key| -> Result<u32, CodecError> {
                    let (line, value) = field(key)?;
                    codec::parse_u32(line, key, value)
                };
                PhaseArtifact::Validation(ValidationReport {
                    bit_checks: count("bit_checks")?,
                    pair_checks: count("pair_checks")?,
                    cached_checks: count("cached_checks")?,
                    mismatches: count("mismatches")?,
                })
            }
        };

        let mut decoded_cache = Vec::with_capacity(cache.len());
        for (expected, (index, (line, value))) in cache.iter().enumerate() {
            if *index != expected {
                return Err(CodecError::at(
                    *line,
                    format!("cache indices are not contiguous at `cache.{index}`"),
                ));
            }
            let parts: Vec<&str> = value.split(',').map(str::trim).collect();
            let [a, b, verdict] = parts.as_slice() else {
                return Err(CodecError::at(
                    *line,
                    "a cache entry expects `low,high,0|1`",
                ));
            };
            let verdict = match *verdict {
                "0" => false,
                "1" => true,
                other => {
                    return Err(CodecError::at(
                        *line,
                        format!("cache verdict expects 0 or 1, got `{other}`"),
                    ))
                }
            };
            decoded_cache.push((
                codec::parse_u64(*line, "cache", a)?,
                codec::parse_u64(*line, "cache", b)?,
                verdict,
            ));
        }

        Ok(PhaseCheckpoint {
            phase,
            costs,
            artifact,
            cache: decoded_cache,
        })
    }
}

/// A directory of phase checkpoints: one text file per completed phase plus
/// the configuration the run started with.
///
/// The store is what makes a killed run resumable: the engine saves a
/// [`PhaseCheckpoint`] after each phase, and on the next run loads the
/// longest contiguous prefix of completed phases, replays their artifacts
/// and continues from the boundary. The stored configuration guards the
/// resume — artifacts measured under one configuration must never silently
/// seed a run with another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on the first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore { dir: dir.into() }
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn config_path(&self) -> PathBuf {
        self.dir.join("config.txt")
    }

    fn phase_path(&self, phase: Phase) -> PathBuf {
        self.dir
            .join(format!("{:02}-{}.phase", phase.index(), phase.name()))
    }

    fn io_error(path: &Path, error: &std::io::Error) -> DramDigError {
        DramDigError::Checkpoint {
            reason: format!("{}: {error}", path.display()),
        }
    }

    /// Atomically writes `text` to `path` (write to a staging file, then
    /// rename): a kill mid-write can never leave a truncated checkpoint
    /// that a later resume would half-trust.
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), DramDigError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| Self::io_error(&self.dir, &e))?;
        let staged = path.with_extension("tmp");
        std::fs::write(&staged, text)
            .and_then(|()| std::fs::rename(&staged, path))
            .map_err(|e| Self::io_error(path, &e))
    }

    fn read_optional(path: &Path) -> Result<Option<String>, DramDigError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Self::io_error(path, &e)),
        }
    }

    /// Persists the configuration the run uses.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] on IO failures.
    pub fn save_config(&self, config: &DramDigConfig) -> Result<(), DramDigError> {
        self.write_atomic(&self.config_path(), &config.encode())
    }

    /// Loads the stored configuration, if any.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`], naming the file, on IO
    /// failures or a document [`DramDigConfig::decode`] refuses (a torn,
    /// edited or older-format `config.txt`).
    pub fn load_config(&self) -> Result<Option<DramDigConfig>, DramDigError> {
        let Some(text) = Self::read_optional(&self.config_path())? else {
            return Ok(None);
        };
        DramDigConfig::decode(&text)
            .map(Some)
            .map_err(|e| DramDigError::Checkpoint {
                reason: format!("{}: {e}", self.config_path().display()),
            })
    }

    /// Persists one completed phase.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] on IO failures.
    pub fn save_phase(&self, checkpoint: &PhaseCheckpoint) -> Result<(), DramDigError> {
        self.save_encoded(checkpoint.phase, &checkpoint.encode())
    }

    /// Persists one completed phase already encoded by
    /// [`PhaseCheckpoint::encode`] (or its borrowed twin).
    pub(crate) fn save_encoded(&self, phase: Phase, text: &str) -> Result<(), DramDigError> {
        self.write_atomic(&self.phase_path(phase), text)
    }

    /// Atomically writes an arbitrary sidecar file into the checkpoint
    /// directory with the same stage-then-rename protocol as the phase
    /// files (a kill mid-write can never leave a truncated sidecar). The
    /// CLI records its `uncover.meta` run identity this way.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] on IO failures.
    pub fn save_sidecar(&self, file_name: &str, contents: &str) -> Result<(), DramDigError> {
        self.write_atomic(&self.dir.join(file_name), contents)
    }

    /// Loads one phase's checkpoint, if present.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] on IO failures or a corrupt
    /// document.
    pub fn load_phase(&self, phase: Phase) -> Result<Option<PhaseCheckpoint>, DramDigError> {
        let path = self.phase_path(phase);
        let Some(text) = Self::read_optional(&path)? else {
            return Ok(None);
        };
        let checkpoint = PhaseCheckpoint::decode(&text).map_err(|e| DramDigError::Checkpoint {
            reason: format!("{}: {e}", path.display()),
        })?;
        if checkpoint.phase != phase {
            return Err(DramDigError::Checkpoint {
                reason: format!(
                    "{}: names phase `{}` but was stored for `{}`",
                    path.display(),
                    checkpoint.phase.name(),
                    phase.name()
                ),
            });
        }
        Ok(Some(checkpoint))
    }

    /// Loads the longest contiguous prefix of completed phases, in
    /// execution order. A gap (e.g. a hand-deleted file) truncates the
    /// prefix: everything after it re-runs rather than trusting
    /// out-of-order artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] on IO failures or corrupt
    /// documents.
    pub fn load_phases(&self) -> Result<Vec<PhaseCheckpoint>, DramDigError> {
        let mut restored = Vec::new();
        for phase in Phase::ALL {
            match self.load_phase(phase)? {
                Some(checkpoint) => restored.push(checkpoint),
                None => break,
            }
        }
        Ok(restored)
    }

    /// Removes the whole checkpoint directory (a missing directory is fine).
    ///
    /// # Errors
    ///
    /// Returns [`DramDigError::Checkpoint`] on IO failures.
    pub fn clear(&self) -> Result<(), DramDigError> {
        match std::fs::remove_dir_all(&self.dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io_error(&self.dir, &e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoints() -> Vec<PhaseCheckpoint> {
        let costs = PhaseCosts {
            measurements: 10,
            accesses: 20,
            elapsed_ns: 30,
            cache_hits: 1,
            cache_misses: 9,
        };
        let mut kernel = PileBasis::new(0x1000);
        kernel.insert(0x1000 ^ 0b0110_0000_0000_0000);
        kernel.insert(0x1000 ^ 0b1010_0000_0000_0000);
        vec![
            PhaseCheckpoint {
                phase: Phase::Calibration,
                costs,
                artifact: PhaseArtifact::Calibration(CalibrationArtifact { threshold_ns: 290 }),
                cache: Vec::new(),
            },
            PhaseCheckpoint {
                phase: Phase::CoarseDetection,
                costs,
                artifact: PhaseArtifact::Coarse(CoarseBits {
                    row_bits: vec![19, 20],
                    column_bits: vec![0, 1, 2],
                    bank_bits: vec![13, 14],
                    undetermined: Vec::new(),
                }),
                cache: vec![(0x1000, 0x2000, true), (0x1000, 0x3000, false)],
            },
            PhaseCheckpoint {
                phase: Phase::Partition,
                costs,
                artifact: PhaseArtifact::Partition(PartitionArtifact {
                    pool_size: 4,
                    pivots: vec![PhysAddr::new(0x1000), PhysAddr::new(0x3000)],
                    basis: kernel,
                }),
                cache: vec![(0x1000, 0x7000, true)],
            },
            PhaseCheckpoint {
                phase: Phase::FunctionDetection,
                costs,
                artifact: PhaseArtifact::Functions(DetectedFunctions {
                    functions: vec![dram_model::XorFunc::from_mask(0b0110_0000_0000_0000)],
                    consistent_masks: vec![
                        dram_model::XorFunc::from_mask(0b0110_0000_0000_0000),
                        dram_model::XorFunc::from_mask(0b1010_0000_0000_0000),
                    ],
                }),
                cache: Vec::new(),
            },
            PhaseCheckpoint {
                phase: Phase::FineDetection,
                costs,
                artifact: PhaseArtifact::Fine(FineBits {
                    row_bits: vec![14, 19, 20],
                    column_bits: vec![0, 1, 2],
                    pure_bank_bits: vec![13],
                    measured_shared_rows: vec![14],
                    inferred_bits: Vec::new(),
                }),
                cache: Vec::new(),
            },
            PhaseCheckpoint {
                phase: Phase::Validation,
                costs,
                artifact: PhaseArtifact::Validation(ValidationReport {
                    bit_checks: 3,
                    pair_checks: 60,
                    cached_checks: 12,
                    mismatches: 1,
                }),
                cache: Vec::new(),
            },
        ]
    }

    #[test]
    fn every_artifact_kind_round_trips() {
        for checkpoint in sample_checkpoints() {
            let text = checkpoint.encode();
            let decoded = PhaseCheckpoint::decode(&text).unwrap();
            assert_eq!(decoded, checkpoint, "{}", checkpoint.phase.name());
            assert_eq!(decoded.artifact.phase(), checkpoint.phase);
        }
    }

    /// Decodes `body` sealed with a valid trailer, so the body itself is
    /// what gets judged.
    fn decode_sealed(body: &str) -> Result<PhaseCheckpoint, CodecError> {
        PhaseCheckpoint::decode(&format!("{body}{}", trailer_for(body)))
    }

    #[test]
    fn decode_rejects_malformed_checkpoints() {
        assert!(decode_sealed("").is_err(), "missing phase");
        assert!(decode_sealed("phase = warp\ncosts = 0,0,0,0,0\n").is_err());
        assert!(
            decode_sealed("phase = calibration\ncosts = 0,0,0,0,0\n").is_err(),
            "missing threshold"
        );
        // Non-contiguous cache indices and bad verdicts are rejected.
        let base = "phase = calibration\ncosts = 0,0,0,0,0\nthreshold_ns = 1\n";
        assert!(decode_sealed(base).is_ok());
        assert!(decode_sealed(&format!("{base}cache.1 = 1,2,1\n")).is_err());
        assert!(decode_sealed(&format!("{base}cache.0 = 1,2,maybe\n")).is_err());
        // A key of another phase is refused, naming its line.
        let err = decode_sealed(&format!("{base}pool = 2\n")).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        let partition = "phase = partition\ncosts = 0,0,0,0,0\npool = 2\n";
        assert!(decode_sealed(&format!("{partition}pivots = 0,1\nbasis = 0;\n")).is_ok());
        assert!(decode_sealed(&format!("{partition}pivots = 0,x\nbasis = 0;\n")).is_err());
        assert!(decode_sealed(&format!("{partition}pivots = 0\n")).is_err());
        // A basis whose rows are not echelon is rejected.
        assert!(decode_sealed(&format!("{partition}pivots = 0\nbasis = 0;3,1,2\n")).is_err());
    }

    #[test]
    fn old_format_partition_checkpoints_are_refused() {
        let old = "phase = partition\ncosts = 0,0,0,0,0\npool = 2\nrejected = 0\n\
                   unassigned = \nkernel = 0;1\npile.0 = 0;0,1\npile.1 = 2;2,3\n";
        // As it sits on disk: no trailer.
        let err = PhaseCheckpoint::decode(old).unwrap_err();
        assert!(
            err.reason.contains("clear the checkpoint directory"),
            "{err}"
        );
        // Even when sealed, its keys name it as another format.
        let err = decode_sealed(old).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.reason.contains("`rejected`"), "{err}");
        assert!(
            err.reason.contains("clear the checkpoint directory"),
            "{err}"
        );
    }

    #[test]
    fn the_golden_checkpoint_round_trips_and_no_truncation_decodes() {
        let golden = include_str!("../tests/golden/partition_checkpoint.phase");
        let decoded = PhaseCheckpoint::decode(golden).unwrap();
        assert_eq!(decoded.encode(), golden);
        for cut in 0..golden.len() {
            assert!(
                PhaseCheckpoint::decode(&golden[..cut]).is_err(),
                "a checkpoint cut at byte {cut} decoded"
            );
        }
        // A flipped digit is caught by the checksum.
        let edited = golden.replacen("pool = 512", "pool = 513", 1);
        let err = PhaseCheckpoint::decode(&edited).unwrap_err();
        assert!(err.reason.contains("no matching `checksum`"), "{err}");
    }

    #[test]
    fn store_round_trips_phases_and_config_on_disk() {
        let dir = std::env::temp_dir().join(format!("dramdig-ckpt-{}", std::process::id()));
        let store = CheckpointStore::new(&dir);
        store.clear().unwrap();
        assert_eq!(store.load_config().unwrap(), None);
        assert!(store.load_phases().unwrap().is_empty());

        let config = DramDigConfig::fast().with_seed(99);
        store.save_config(&config).unwrap();
        assert_eq!(store.load_config().unwrap(), Some(config));

        let checkpoints = sample_checkpoints();
        // Save out of order: load_phases still returns execution order.
        for checkpoint in checkpoints.iter().rev() {
            store.save_phase(checkpoint).unwrap();
        }
        assert_eq!(store.load_phases().unwrap(), checkpoints);

        // A gap truncates the restored prefix.
        std::fs::remove_file(dir.join("02-partition.phase")).unwrap();
        let prefix = store.load_phases().unwrap();
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix[1].phase, Phase::CoarseDetection);

        // A corrupt file is an error, not silent truncation.
        std::fs::write(dir.join("01-coarse.phase"), "phase = coarse\n").unwrap();
        assert!(store.load_phases().is_err());

        store.clear().unwrap();
        assert!(!dir.exists());
        store.clear().unwrap(); // idempotent
    }
}
