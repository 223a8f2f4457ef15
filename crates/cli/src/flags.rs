//! The flag table every sub-command parses its arguments with.
//!
//! A sub-command names its valued flags and its bare switches once, in
//! [`parse_flags`]; one pass over the arguments binds each to its value,
//! and the typed getters on [`Flag`] turn a value into the command's field.
//! Nothing looks an argument up a second time.

use dramdig_bench::eval::GridKind;
use mem_probe::ObservableKind;

use crate::CliError;

/// One valued flag of a sub-command, with the value the command line gave
/// it (if any).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flag<'a> {
    name: &'static str,
    command: &'static str,
    value: Option<&'a str>,
}

/// Binds `rest` to a sub-command's flag table in one pass: the `valued`
/// flags come back in table order, the `bare` switches as whether each was
/// given.
///
/// Refuses a word that is not a flag, a flag the table does not name, a
/// flag given twice, a valued flag without a value, and a flag name where a
/// value belongs (`--checkpoint --resume`). A misspelled stateful flag
/// (`--chekpoint`, `--profile` for `--profiles`) must fail up front, not
/// silently run without it.
pub(crate) fn parse_flags<'a, const V: usize, const B: usize>(
    rest: &'a [String],
    command: &'static str,
    valued: [&'static str; V],
    bare: [&'static str; B],
) -> Result<([Flag<'a>; V], [bool; B]), CliError> {
    let mut flags = valued.map(|name| Flag {
        name,
        command,
        value: None,
    });
    let mut switches = [false; B];
    let mut tokens = rest.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        let repeated =
            || CliError::Usage(format!("`{token}` is given twice to `dramdig {command}`"));
        if let Some(i) = bare.iter().position(|&name| name == token) {
            if std::mem::replace(&mut switches[i], true) {
                return Err(repeated());
            }
        } else if let Some(flag) = flags.iter_mut().find(|flag| flag.name == token) {
            if flag.value.is_some() {
                return Err(repeated());
            }
            match tokens.next() {
                None => return Err(CliError::Usage(format!("`{token}` requires a value"))),
                Some(value) if value.starts_with("--") => {
                    return Err(CliError::Usage(format!(
                        "`{token}` requires a value, not the flag `{value}`"
                    )))
                }
                Some(value) => flag.value = Some(value),
            }
        } else if token.starts_with("--") {
            let mut expected: Vec<&str> = valued.iter().chain(&bare).copied().collect();
            expected.sort_unstable();
            return Err(CliError::Usage(format!(
                "unknown flag `{token}` for `dramdig {command}` (expected {})",
                expected.join(", ")
            )));
        } else {
            return Err(CliError::Usage(format!(
                "unexpected argument `{token}` for `dramdig {command}`"
            )));
        }
    }
    Ok((flags, switches))
}

/// Parses a decimal or `0x` hexadecimal number.
pub(crate) fn parse_u64(text: &str) -> Result<u64, CliError> {
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| CliError::Usage(format!("`{text}` is not a valid number")))
}

impl<'a> Flag<'a> {
    /// The value, if the flag was given.
    pub(crate) fn get(self) -> Option<&'a str> {
        self.value
    }

    /// The value as an owned string, if the flag was given.
    pub(crate) fn string(self) -> Option<String> {
        self.value.map(str::to_string)
    }

    /// The refusal for a required flag the command line left out.
    pub(crate) fn missing(self) -> CliError {
        CliError::Usage(format!(
            "`dramdig {}` requires {} <value>",
            self.command, self.name
        ))
    }

    /// The value of a flag the sub-command cannot run without.
    pub(crate) fn need(self) -> Result<&'a str, CliError> {
        self.value.ok_or_else(|| self.missing())
    }

    /// The value as a number, if the flag was given.
    pub(crate) fn u64(self) -> Result<Option<u64>, CliError> {
        self.value.map(parse_u64).transpose()
    }

    /// The value as a number, or `default`.
    pub(crate) fn u64_or(self, default: u64) -> Result<u64, CliError> {
        Ok(self.u64()?.unwrap_or(default))
    }

    /// A count of at least 1 (workers, processes, hits), or `default`.
    pub(crate) fn count_or(self, default: usize) -> Result<usize, CliError> {
        match self.u64()? {
            Some(0) => Err(CliError::Usage(format!("{} must be at least 1", self.name))),
            Some(count) => Ok(count as usize),
            None => Ok(default),
        }
    }

    /// The value as a 32-bit number inside `range`, if the flag was given.
    pub(crate) fn u32_in(
        self,
        range: std::ops::RangeInclusive<u32>,
    ) -> Result<Option<u32>, CliError> {
        let Some(text) = self.value else {
            return Ok(None);
        };
        let number = parse_u64(text)?;
        let (lo, hi) = (*range.start(), *range.end());
        if (u64::from(lo)..=u64::from(hi)).contains(&number) {
            return Ok(Some(number as u32));
        }
        let name = self.name;
        Err(CliError::Usage(if hi < u32::MAX {
            format!("{name} must be between {lo} and {hi}")
        } else if number < u64::from(lo) {
            format!("{name} must be at least {lo}")
        } else {
            format!("{name} `{text}` does not fit 32 bits")
        }))
    }

    /// A required Table-II machine number (decimal or `0x` hex), checked
    /// with [`campaign::parse_machine_number`] so `260` is refused instead
    /// of truncated onto machine No.4.
    pub(crate) fn machine(self) -> Result<u8, CliError> {
        let number = parse_u64(self.need()?)?;
        campaign::parse_machine_number(&number.to_string()).map_err(CliError::Usage)
    }

    /// A scenario grid preset: quick, ci or full. The 1,000-scenario `big`
    /// grid is a benchmark fixture, not a command-line preset.
    pub(crate) fn grid(self) -> Result<Option<GridKind>, CliError> {
        let Some(name) = self.value else {
            return Ok(None);
        };
        match GridKind::from_name(name) {
            Some(grid) if grid != GridKind::Big => Ok(Some(grid)),
            _ => Err(CliError::Usage(format!(
                "unknown {} `{name}` (expected quick, ci or full)",
                self.name
            ))),
        }
    }

    /// The observable channel list (comma-separated [`ObservableKind`]
    /// names, deduplicated, order preserved). Defaults to timing-only, the
    /// channel the pipeline itself runs on.
    pub(crate) fn observables(self) -> Result<Vec<ObservableKind>, CliError> {
        let Some(list) = self.value else {
            return Ok(vec![ObservableKind::ConflictTiming]);
        };
        let mut kinds = Vec::new();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let kind = ObservableKind::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = ObservableKind::ALL.iter().map(|k| k.as_str()).collect();
                CliError::Usage(format!(
                    "unknown observable `{name}` (expected {})",
                    known.join(", ")
                ))
            })?;
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        if kinds.is_empty() {
            return Err(CliError::Usage(format!(
                "`{}` names no channels",
                self.name
            )));
        }
        Ok(kinds)
    }
}
