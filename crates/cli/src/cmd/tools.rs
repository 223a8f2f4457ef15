//! The Table-II tools: `list-machines`, `compare`, `hammer`, `decode` and
//! `validate`.

use std::fmt::Write as _;

use dram_baselines::{BaselineError, Drama, DramaConfig, Xiao};
use dram_model::{parse, MachineSetting, PhysAddr};
use dram_sim::{SimConfig, SimMachine};
use dramdig::{DomainKnowledge, DramDig, DramDigConfig};
use rowhammer::{run_double_sided, AttackerView, HammerConfig};

use crate::flags::{parse_flags, parse_u64};
use crate::{probe_for, setting_for, CliError, Command};

/// Which tool's mapping to hammer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HammerTool {
    /// The mapping DRAMDig uncovers.
    DramDig,
    /// The (partial) mapping DRAMA uncovers.
    Drama,
    /// The simulator's ground truth (upper bound).
    Truth,
}

/// Parses `dramdig compare` flags.
pub(crate) fn parse_compare(rest: &[String]) -> Result<Command, CliError> {
    let ([machine], []) = parse_flags(rest, "compare", ["--machine"], [])?;
    Ok(Command::Compare {
        machine: machine.machine()?,
    })
}

/// Parses `dramdig hammer` flags.
pub(crate) fn parse_hammer(rest: &[String]) -> Result<Command, CliError> {
    let ([machine, tool, tests], []) =
        parse_flags(rest, "hammer", ["--machine", "--tool", "--tests"], [])?;
    let machine = machine.machine()?;
    let tool = match tool.get() {
        None | Some("dramdig") => HammerTool::DramDig,
        Some("drama") => HammerTool::Drama,
        Some("truth") => HammerTool::Truth,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --tool `{other}` (expected dramdig, drama or truth)"
            )))
        }
    };
    Ok(Command::Hammer {
        machine,
        tool,
        tests: tests.u32_in(0..=u32::MAX)?.unwrap_or(1),
    })
}

/// Parses `dramdig decode` flags.
pub(crate) fn parse_decode(rest: &[String]) -> Result<Command, CliError> {
    let ([machine, addr], []) = parse_flags(rest, "decode", ["--machine", "--addr"], [])?;
    Ok(Command::Decode {
        machine: machine.machine()?,
        addr: parse_u64(addr.need()?)?,
    })
}

/// Parses `dramdig validate` flags.
pub(crate) fn parse_validate(rest: &[String]) -> Result<Command, CliError> {
    let ([funcs, rows, cols], []) =
        parse_flags(rest, "validate", ["--funcs", "--rows", "--cols"], [])?;
    Ok(Command::Validate {
        funcs: funcs.need()?.to_string(),
        rows: rows.need()?.to_string(),
        cols: cols.need()?.to_string(),
    })
}

/// Runs `dramdig list-machines`.
pub(crate) fn list_machines() -> Result<String, CliError> {
    let mut out = String::new();
    writeln!(out, "Table II machine settings:").expect("write to string");
    for setting in MachineSetting::all() {
        writeln!(out, "  {setting}").expect("write to string");
    }
    Ok(out)
}

/// Runs `dramdig compare`.
pub(crate) fn compare(machine: u8) -> Result<String, CliError> {
    let setting = setting_for(machine)?;
    let mut out = String::new();
    writeln!(out, "comparing tools on {setting}").expect("write to string");

    let mut probe = probe_for(&setting, 1);
    let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
    match DramDig::new(knowledge, DramDigConfig::default()).run(&mut probe) {
        Ok(r) => writeln!(
            out,
            "  DRAMDig    : correct={} measurements={} time={:.1}s",
            r.mapping.equivalent_to(setting.mapping()),
            r.total.measurements,
            r.elapsed_seconds()
        )
        .expect("write to string"),
        Err(e) => writeln!(out, "  DRAMDig    : failed ({e})").expect("write to string"),
    }

    let mut probe = probe_for(&setting, 1);
    match Drama::new(DramaConfig::fast()).run(&mut probe, setting.system.address_bits()) {
        Ok(o) => writeln!(
            out,
            "  DRAMA      : bank-partition-correct={} full-mapping={} measurements={} time={:.1}s",
            o.bank_partition_matches(setting.mapping()),
            o.mapping.is_some(),
            o.measurements,
            o.elapsed_seconds()
        )
        .expect("write to string"),
        Err(e) => writeln!(out, "  DRAMA      : failed ({e})").expect("write to string"),
    }

    let mut probe = probe_for(&setting, 1);
    match Xiao::with_defaults().run(&mut probe, &setting.system) {
        Ok(o) => writeln!(
            out,
            "  Xiao et al.: correct={} measurements={} time={:.1}s",
            o.matches(setting.mapping()),
            o.measurements,
            o.elapsed_seconds()
        )
        .expect("write to string"),
        Err(BaselineError::Stuck { reason, .. }) => {
            writeln!(out, "  Xiao et al.: stuck ({reason})").expect("write to string")
        }
        Err(e) => writeln!(out, "  Xiao et al.: not applicable ({e})").expect("write to string"),
    }
    Ok(out)
}

/// Runs `dramdig hammer`.
pub(crate) fn hammer(machine: u8, tool: HammerTool, tests: u32) -> Result<String, CliError> {
    let setting = setting_for(machine)?;
    let view = match tool {
        HammerTool::Truth => AttackerView::from_mapping(setting.mapping()),
        HammerTool::DramDig => {
            let mut probe = probe_for(&setting, 2);
            let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
            let report = DramDig::new(knowledge, DramDigConfig::default())
                .run(&mut probe)
                .map_err(CliError::tool)?;
            AttackerView::from_mapping(&report.mapping)
        }
        HammerTool::Drama => {
            let mut probe = probe_for(&setting, 2);
            let outcome = Drama::new(DramaConfig::fast())
                .run(&mut probe, setting.system.address_bits())
                .map_err(CliError::tool)?;
            AttackerView::new(outcome.functions, outcome.row_bits)
        }
    };
    let mut out = String::new();
    writeln!(
        out,
        "double-sided rowhammer on {} with the {:?} mapping:",
        setting.label(),
        tool
    )
    .expect("write to string");
    let mut total = 0usize;
    for test in 0..tests {
        let mut sim = SimMachine::from_setting(
            &setting,
            SimConfig::fast_rowhammer().with_seed(0xCC + u64::from(test)),
        );
        let cfg = HammerConfig::timed(300 * 2_000_000, u64::from(test));
        let result = run_double_sided(&mut sim, &view, &cfg);
        total += result.flips;
        writeln!(
            out,
            "  test {:>2}: {:>5} flips ({} pairs, {:.0}% truly adjacent)",
            test + 1,
            result.flips,
            result.pairs_attempted,
            result.adjacency_rate() * 100.0
        )
        .expect("write to string");
    }
    writeln!(out, "  total  : {total} flips over {tests} tests").expect("write to string");
    Ok(out)
}

/// Runs `dramdig decode`.
pub(crate) fn decode(machine: u8, addr: u64) -> Result<String, CliError> {
    let setting = setting_for(machine)?;
    let mapping = setting.mapping();
    let capacity = mapping.capacity_bytes();
    if addr >= capacity {
        return Err(CliError::Tool(format!(
            "address {addr:#x} is beyond the {capacity:#x}-byte module"
        )));
    }
    let dram = mapping.to_dram(PhysAddr::new(addr));
    let back = mapping.to_phys(dram).map_err(CliError::tool)?;
    Ok(format!(
        "machine {}: {:#x} -> {dram} (round-trips to {back})\n",
        setting.label(),
        addr
    ))
}

/// Runs `dramdig validate`.
pub(crate) fn validate(funcs: &str, rows: &str, cols: &str) -> Result<String, CliError> {
    let mapping = parse::parse_mapping(funcs, rows, cols)
        .map_err(|e| CliError::Tool(format!("invalid mapping: {e}")))?;
    Ok(format!(
        "valid mapping: {mapping}\n  banks: {}, rows per bank: {}, row size: {} bytes\n",
        mapping.num_banks(),
        mapping.num_rows(),
        mapping.row_size_bytes()
    ))
}
