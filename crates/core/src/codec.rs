//! Line-oriented `key = value` plain-text codec helpers.
//!
//! Checkpoint directories persist configurations, and the campaign journal
//! recovery outcomes, as plain text so an interrupted run or fleet can resume
//! without any serialization dependency. The format is the simplest
//! thing that round-trips: one `key = value` pair per line, `#` comments and
//! blank lines ignored. [`crate::config::DramDigConfig`] and
//! [`crate::report::RecoveryReport`] build their encode/decode on these
//! helpers.

use std::fmt;

/// Error produced while decoding a `key = value` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line number of the offending line (0 when the problem is the
    /// document as a whole, e.g. a missing required key).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl CodecError {
    /// Builds an error tied to a specific line.
    pub fn at(line: usize, reason: impl Into<String>) -> Self {
        CodecError {
            line,
            reason: reason.into(),
        }
    }

    /// Builds a document-level error (no specific line).
    pub fn whole(reason: impl Into<String>) -> Self {
        CodecError {
            line: 0,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.reason)
        } else {
            write!(f, "line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for CodecError {}

/// Splits a document into `(line_number, key, value)` triples, skipping
/// blank lines and `#` comments. Keys and values are trimmed; the value is
/// everything after the **first** `=`, so values may contain `=` and commas.
///
/// # Errors
///
/// Returns [`CodecError`] for a non-comment line without `=` or with an
/// empty key.
pub fn parse_kv_lines(text: &str) -> Result<Vec<(usize, &str, &str)>, CodecError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(CodecError::at(
                line_no,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        if key.is_empty() {
            return Err(CodecError::at(line_no, "empty key"));
        }
        out.push((line_no, key, value.trim()));
    }
    Ok(out)
}

/// Parses a `u64` value.
///
/// # Errors
///
/// Returns [`CodecError`] naming the line on malformed input.
pub fn parse_u64(line: usize, key: &str, value: &str) -> Result<u64, CodecError> {
    value.parse().map_err(|_| {
        CodecError::at(
            line,
            format!("`{key}` expects an unsigned integer, got `{value}`"),
        )
    })
}

/// Parses a `u32` value, rejecting anything that does not fit (no silent
/// truncation: `4294967296` must not alias onto `0`).
///
/// # Errors
///
/// Returns [`CodecError`] naming the line on malformed or out-of-range
/// input.
pub fn parse_u32(line: usize, key: &str, value: &str) -> Result<u32, CodecError> {
    value.parse().map_err(|_| {
        CodecError::at(
            line,
            format!("`{key}` expects an unsigned 32-bit integer, got `{value}`"),
        )
    })
}

/// Parses a `usize` value.
///
/// # Errors
///
/// Returns [`CodecError`] naming the line on malformed input.
pub fn parse_usize(line: usize, key: &str, value: &str) -> Result<usize, CodecError> {
    value.parse().map_err(|_| {
        CodecError::at(
            line,
            format!("`{key}` expects an unsigned integer, got `{value}`"),
        )
    })
}

/// Parses an `f64` value (as written by `{:?}`, which round-trips exactly).
///
/// # Errors
///
/// Returns [`CodecError`] naming the line on malformed input.
pub fn parse_f64(line: usize, key: &str, value: &str) -> Result<f64, CodecError> {
    value
        .parse()
        .map_err(|_| CodecError::at(line, format!("`{key}` expects a number, got `{value}`")))
}

/// Parses an optional `usize`: the literal `none`, or a number.
///
/// # Errors
///
/// Returns [`CodecError`] naming the line on malformed input.
pub fn parse_opt_usize(line: usize, key: &str, value: &str) -> Result<Option<usize>, CodecError> {
    if value == "none" {
        Ok(None)
    } else {
        parse_usize(line, key, value).map(Some)
    }
}

/// Formats an optional `usize` the way [`parse_opt_usize`] reads it.
pub fn format_opt_usize(value: Option<usize>) -> String {
    match value {
        None => "none".to_string(),
        Some(v) => v.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_lines_skip_comments_and_blanks() {
        let doc = "# header\n\n a = 1 \nb=two=three\n";
        let parsed = parse_kv_lines(doc).unwrap();
        assert_eq!(parsed, vec![(3, "a", "1"), (4, "b", "two=three")]);
    }

    #[test]
    fn kv_lines_reject_garbage() {
        let err = parse_kv_lines("just words\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(parse_kv_lines("= value\n").is_err());
    }

    #[test]
    fn scalar_parsers_round_trip_and_report_lines() {
        assert_eq!(parse_u64(3, "k", "42").unwrap(), 42);
        assert_eq!(parse_u64(3, "k", "x").unwrap_err().line, 3);
        assert_eq!(parse_u32(2, "k", "42").unwrap(), 42);
        // 2^32 must be rejected, not truncated to 0.
        assert_eq!(parse_u32(2, "k", "4294967296").unwrap_err().line, 2);
        assert_eq!(parse_opt_usize(1, "k", "none").unwrap(), None);
        assert_eq!(parse_opt_usize(1, "k", "7").unwrap(), Some(7));
        assert_eq!(format_opt_usize(None), "none");
        assert_eq!(format_opt_usize(Some(7)), "7");
        // `{:?}` for f64 round-trips through parse exactly.
        let x = 0.1f64 + 0.2f64;
        assert_eq!(parse_f64(1, "k", &format!("{x:?}")).unwrap(), x);
        let e = CodecError::whole("missing key");
        assert_eq!(e.to_string(), "missing key");
        assert_eq!(CodecError::at(4, "boom").to_string(), "line 4: boom");
    }
}
