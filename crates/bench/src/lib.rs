//! Shared helpers for the experiment binaries and Criterion benchmarks.
//!
//! Every table and figure of the DRAMDig paper is regenerated by one binary
//! in `src/bin/`:
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table I (tool properties) | `table1_properties` |
//! | Table II (uncovered mappings) | `table2_mappings` |
//! | Figure 2 (time costs) | `fig2_time_costs` |
//! | Table III (rowhammer bit flips) | `table3_rowhammer` |
//! | Ablation (knowledge groups) | `ablation_knowledge` |
//!
//! The binaries print plain-text tables whose rows correspond one-to-one to
//! the rows/series of the paper; the README's "Regenerating the paper's
//! artifacts" section lists the commands.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod eval;

use dram_model::{AddressMapping, MachineSetting};
use dram_sim::{PhysMemory, SimConfig, SimMachine};
use dramdig::{DomainKnowledge, DramDig, DramDigConfig, DramDigError, RunReport};
use mem_probe::SimProbe;

/// Builds a simulator-backed probe for one of the Table-II machine settings.
///
/// The probe owns a full page pool over the module so every reverse
/// engineering tool sees the same memory.
pub fn probe_for(setting: &MachineSetting, seed: u64) -> SimProbe {
    let machine = SimMachine::from_setting(setting, SimConfig::default().with_seed(seed));
    SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes))
}

/// Runs DRAMDig on a machine setting and returns its report.
///
/// # Errors
///
/// Propagates any [`DramDigError`] from the pipeline.
pub fn run_dramdig(
    setting: &MachineSetting,
    config: DramDigConfig,
    sim_seed: u64,
) -> Result<RunReport, DramDigError> {
    let mut probe = probe_for(setting, sim_seed);
    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    DramDig::new(knowledge, config).run(&mut probe)
}

/// Pretty-prints a recovered mapping the way Table II does.
pub fn format_mapping(mapping: &AddressMapping) -> String {
    let funcs: Vec<String> = mapping.bank_funcs().iter().map(|f| f.to_string()).collect();
    format!(
        "{} | rows {} | cols {}",
        funcs.join(", "),
        dram_model::mapping::format_bit_ranges(mapping.row_bits()),
        dram_model::mapping::format_bit_ranges(mapping.column_bits())
    )
}

/// Formats seconds as `mm:ss`.
pub fn format_duration(seconds: f64) -> String {
    let total = seconds.round() as u64;
    format!("{:02}:{:02}", total / 60, total % 60)
}

/// Marks a boolean the way the paper's Table I does.
pub fn check_mark(yes: bool) -> &'static str {
    if yes {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_for_exposes_ground_truth() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let probe = probe_for(&setting, 1);
        assert!(probe
            .machine()
            .ground_truth()
            .equivalent_to(setting.mapping()));
    }

    #[test]
    fn run_dramdig_recovers_small_setting() {
        let setting = MachineSetting::no7_skylake_ddr4_4g();
        let report = run_dramdig(&setting, DramDigConfig::fast(), 3).unwrap();
        assert!(report.mapping.equivalent_to(setting.mapping()));
    }

    #[test]
    fn formatting_helpers() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let text = format_mapping(setting.mapping());
        assert!(text.contains("(13, 16)"));
        assert!(text.contains("rows 16~31"));
        assert_eq!(format_duration(69.0), "01:09");
        assert_eq!(format_duration(1020.0), "17:00");
        assert_eq!(check_mark(true), "yes");
        assert_eq!(check_mark(false), "no");
    }
}
