//! A serializable summary of one pipeline run.
//!
//! [`RunReport`] holds everything a run learned, including borrowed-scale
//! intermediate state (piles, candidate masks) that only matters while the
//! run is alive. A campaign journal needs the durable subset — the recovered
//! mapping plus the cost accounting — in a form that survives a plain-text
//! round trip. [`RecoveryReport`] is that subset: built from a [`RunReport`]
//! with [`From`], encoded with [`RecoveryReport::encode`], and restored with
//! [`RecoveryReport::decode`] when a resumed campaign replays its journal.

use std::fmt;

use dram_model::{parse, AddressMapping};

use crate::codec::{self, CodecError};
use crate::driver::{Phase, PhaseCosts, RunReport};

/// The durable outcome of one pipeline run: the recovered mapping plus the
/// per-phase and total measurement costs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The recovered physical-address → DRAM mapping.
    pub mapping: AddressMapping,
    /// Size of the selected address pool (Step 2a).
    pub pool_size: usize,
    /// Number of accepted same-bank piles (Step 2b).
    pub pile_count: usize,
    /// The calibrated conflict threshold in nanoseconds.
    pub threshold_ns: u64,
    /// XOR row-remap mask recovered by an extra observable channel
    /// (canonical under reflection), when one was consulted and confirmed.
    pub row_remap: Option<u32>,
    /// Validation agreement in `[0, 1]`, when the validation pass ran.
    pub validation_agreement: Option<f64>,
    /// Per-phase measurement costs, in execution order.
    pub phase_costs: Vec<(Phase, PhaseCosts)>,
    /// Total cost across all phases.
    pub total: PhaseCosts,
}

impl From<&RunReport> for RecoveryReport {
    fn from(run: &RunReport) -> Self {
        RecoveryReport {
            mapping: run.mapping.clone(),
            pool_size: run.pool_size,
            pile_count: run.pile_count,
            threshold_ns: run.threshold_ns,
            row_remap: run.row_remap,
            validation_agreement: Some(run.validation.agreement()),
            phase_costs: run.phase_costs.clone(),
            total: run.total,
        }
    }
}

pub(crate) fn encode_costs(c: &PhaseCosts) -> String {
    format!(
        "{},{},{},{},{}",
        c.measurements, c.accesses, c.elapsed_ns, c.cache_hits, c.cache_misses
    )
}

pub(crate) fn decode_costs(line: usize, key: &str, value: &str) -> Result<PhaseCosts, CodecError> {
    let fields: Vec<&str> = value.split(',').map(str::trim).collect();
    if fields.len() != 5 {
        return Err(CodecError::at(
            line,
            format!("`{key}` expects 5 comma-separated counters, got `{value}`"),
        ));
    }
    Ok(PhaseCosts {
        measurements: codec::parse_u64(line, key, fields[0])?,
        accesses: codec::parse_u64(line, key, fields[1])?,
        elapsed_ns: codec::parse_u64(line, key, fields[2])?,
        cache_hits: codec::parse_u64(line, key, fields[3])?,
        cache_misses: codec::parse_u64(line, key, fields[4])?,
    })
}

impl RecoveryReport {
    /// Total simulated seconds spent across all phases.
    pub fn elapsed_seconds(&self) -> f64 {
        self.total.elapsed_seconds()
    }

    /// Serializes the report as `key = value` lines. Cost counters are
    /// packed as `measurements,accesses,elapsed_ns,cache_hits,cache_misses`;
    /// the mapping uses the paper's Table-II notation, re-parsed by
    /// [`dram_model::parse`]. [`RecoveryReport::decode`] is the inverse.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let (funcs, rows, cols) = parse::render_mapping(&self.mapping);
        out.push_str(&format!("funcs = {funcs}\n"));
        out.push_str(&format!("rows = {rows}\n"));
        out.push_str(&format!("cols = {cols}\n"));
        out.push_str(&format!("pool = {}\n", self.pool_size));
        out.push_str(&format!("piles = {}\n", self.pile_count));
        out.push_str(&format!("threshold_ns = {}\n", self.threshold_ns));
        if let Some(mask) = self.row_remap {
            out.push_str(&format!("row_remap = {mask}\n"));
        }
        if let Some(agreement) = self.validation_agreement {
            out.push_str(&format!("agreement = {agreement:?}\n"));
        }
        for (phase, costs) in &self.phase_costs {
            out.push_str(&format!(
                "phase.{} = {}\n",
                phase.name(),
                encode_costs(costs)
            ));
        }
        out.push_str(&format!("total = {}\n", encode_costs(&self.total)));
        out
    }

    /// Parses a report written by [`RecoveryReport::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed lines, unknown keys, a missing
    /// mapping or an inconsistent (non-bijective) mapping.
    pub fn decode(text: &str) -> Result<Self, CodecError> {
        let mut funcs = None;
        let mut rows = None;
        let mut cols = None;
        let mut pool_size = None;
        let mut pile_count = None;
        let mut threshold_ns = None;
        let mut row_remap = None;
        let mut validation_agreement = None;
        let mut phase_costs = Vec::new();
        let mut total = None;

        for (line, key, value) in codec::parse_kv_lines(text)? {
            if let Some(name) = key.strip_prefix("phase.") {
                let phase = Phase::from_name(name)
                    .ok_or_else(|| CodecError::at(line, format!("unknown phase `{name}`")))?;
                phase_costs.push((phase, decode_costs(line, key, value)?));
                continue;
            }
            match key {
                "funcs" => funcs = Some(value.to_string()),
                "rows" => rows = Some(value.to_string()),
                "cols" => cols = Some(value.to_string()),
                "pool" => pool_size = Some(codec::parse_usize(line, key, value)?),
                "piles" => pile_count = Some(codec::parse_usize(line, key, value)?),
                "threshold_ns" => threshold_ns = Some(codec::parse_u64(line, key, value)?),
                "row_remap" => {
                    let raw = codec::parse_u64(line, key, value)?;
                    row_remap = Some(u32::try_from(raw).map_err(|_| {
                        CodecError::at(
                            line,
                            format!("`row_remap` {raw} does not fit a 32-bit mask"),
                        )
                    })?);
                }
                "agreement" => validation_agreement = Some(codec::parse_f64(line, key, value)?),
                "total" => total = Some(decode_costs(line, key, value)?),
                other => {
                    return Err(CodecError::at(
                        line,
                        format!("unknown report key `{other}`"),
                    ))
                }
            }
        }

        let missing = |what: &str| CodecError::whole(format!("report is missing `{what}`"));
        let funcs = funcs.ok_or_else(|| missing("funcs"))?;
        let rows = rows.ok_or_else(|| missing("rows"))?;
        let cols = cols.ok_or_else(|| missing("cols"))?;
        let mapping = parse::parse_mapping(&funcs, &rows, &cols)
            .map_err(|e| CodecError::whole(format!("invalid mapping: {e}")))?;
        Ok(RecoveryReport {
            mapping,
            pool_size: pool_size.ok_or_else(|| missing("pool"))?,
            pile_count: pile_count.ok_or_else(|| missing("piles"))?,
            threshold_ns: threshold_ns.ok_or_else(|| missing("threshold_ns"))?,
            row_remap,
            validation_agreement,
            phase_costs,
            total: total.ok_or_else(|| missing("total"))?,
        })
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; {} measurements, {:.3} s simulated",
            self.mapping,
            self.total.measurements,
            self.elapsed_seconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;
    use dram_sim::{PhysMemory, SimConfig, SimMachine};
    use mem_probe::SimProbe;

    use crate::{DomainKnowledge, DramDig, DramDigConfig};

    fn sample_report() -> RecoveryReport {
        let setting = MachineSetting::by_number(4).unwrap();
        let machine = SimMachine::from_setting(&setting, SimConfig::default());
        let mut probe = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes));
        let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
        let run = DramDig::new(knowledge, DramDigConfig::fast())
            .run(&mut probe)
            .unwrap();
        RecoveryReport::from(&run)
    }

    #[test]
    fn real_run_round_trips_through_the_text_codec() {
        let report = sample_report();
        let decoded = RecoveryReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
        assert!(report.validation_agreement.unwrap() > 0.9);
        assert_eq!(decoded.phase_costs.len(), report.phase_costs.len());
        assert!(decoded.to_string().contains("measurements"));
    }

    #[test]
    fn round_trip_without_validation_pass() {
        let mut report = sample_report();
        report.validation_agreement = None;
        let decoded = RecoveryReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded.validation_agreement, None);
        assert_eq!(decoded, report);
    }

    #[test]
    fn row_remap_is_encoded_only_when_recovered() {
        let mut report = sample_report();
        assert!(!report.encode().contains("row_remap"));
        report.row_remap = Some(0x1bfd69);
        let encoded = report.encode();
        assert!(encoded.contains("row_remap = 1834345\n"));
        let decoded = RecoveryReport::decode(&encoded).unwrap();
        assert_eq!(decoded.row_remap, Some(0x1bfd69));
        assert_eq!(decoded, report);
        // An over-wide mask is rejected instead of silently truncated.
        assert!(RecoveryReport::decode(&format!(
            "{}row_remap = 4294967296\n",
            sample_report().encode()
        ))
        .is_err());
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let report = sample_report();
        let encoded = report.encode();
        // Dropping the mapping makes the document undecodable.
        let without_funcs: String = encoded
            .lines()
            .filter(|l| !l.starts_with("funcs"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = RecoveryReport::decode(&without_funcs).unwrap_err();
        assert!(err.to_string().contains("funcs"), "{err}");
        // Unknown phases, unknown keys and short counter tuples all fail.
        assert!(RecoveryReport::decode("phase.warp = 1,2,3,4,5\n").is_err());
        assert!(RecoveryReport::decode("wat = 1\n").is_err());
        assert!(RecoveryReport::decode(&format!("{encoded}total = 1,2,3\n")).is_err());
        // An inconsistent mapping is caught by the model layer.
        let bad = "funcs = (13, 16)\nrows = 16~31\ncols = 0~12\npool = 1\npiles = 1\nthreshold_ns = 1\ntotal = 0,0,0,0,0\n";
        assert!(RecoveryReport::decode(bad).is_err());
    }
}
