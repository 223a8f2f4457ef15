//! The append-only segment codec.
//!
//! A segment is an immutable plain-text file holding a batch of records.
//! Each record is one `(mapping, source)` attribution — a new source for an
//! already-known mapping appends a new record rather than rewriting an old
//! segment, which is what keeps segments immutable and the read path
//! snapshot-friendly. Deduplication happens when segments are folded into a
//! [`crate::MemRegistry`]. Every record carries its fingerprint
//! redundantly; the decoder recomputes it from the mapping and rejects the
//! segment on mismatch, so silent corruption cannot re-key an entry.

use std::collections::BTreeSet;

use dram_model::fingerprint::{canonicalize, mapping_fingerprint};
use dram_model::{parse, AddressMapping};

use crate::source::Source;
use crate::RegistryError;

/// Magic first line of every segment file.
pub const SEGMENT_HEADER: &str = "# dramdig registry segment";

/// One `(mapping, source)` attribution, with the mapping already in
/// canonical (reduced-basis) form.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Content-addressed identity of the mapping.
    pub fingerprint: u64,
    /// The canonical mapping.
    pub mapping: AddressMapping,
    /// The source attributing this mapping.
    pub source: Source,
}

impl Record {
    /// Builds a record, canonicalizing `mapping` and fingerprinting it.
    pub fn new(mapping: &AddressMapping, source: Source) -> Self {
        Record {
            fingerprint: mapping_fingerprint(mapping),
            mapping: canonicalize(mapping),
            source,
        }
    }
}

/// Serializes a batch of records into one segment file body.
pub fn encode_segment(records: &[Record]) -> String {
    let mut out = String::from(SEGMENT_HEADER);
    out.push('\n');
    for record in records {
        let (funcs, rows, cols) = parse::render_mapping(&record.mapping);
        out.push_str("\n[record]\n");
        out.push_str(&format!("fingerprint = {:016x}\n", record.fingerprint));
        out.push_str(&format!("funcs = {funcs}\n"));
        out.push_str(&format!("rows = {rows}\n"));
        out.push_str(&format!("cols = {cols}\n"));
        out.push_str(&format!("source = {}\n", record.source));
    }
    out
}

/// The keys of a `[record]` section, in [`decode_segment`]'s slot order.
const RECORD_KEYS: [&str; 5] = ["fingerprint", "funcs", "rows", "cols", "source"];

/// Parses a segment file body written by [`encode_segment`], verifying the
/// stored fingerprint of every record against the mapping it claims to
/// name.
///
/// # Errors
///
/// Returns [`RegistryError::Corrupt`] on malformed sections or on a
/// fingerprint that does not match its mapping.
pub fn decode_segment(text: &str) -> Result<Vec<Record>, RegistryError> {
    let mut records = Vec::new();
    let mut values: [Option<&str>; 5] = [None; 5];
    read_sections(text, "[record]", "segment", &RECORD_KEYS, |step| {
        match step {
            Step::Pair(key, value) => values[key] = Some(value),
            Step::Close if values.iter().all(Option::is_none) => {}
            Step::Close => {
                let [Some(fp), Some(f), Some(r), Some(c), Some(s)] = std::mem::take(&mut values)
                else {
                    return Err(RegistryError::corrupt("incomplete [record] section"));
                };
                let fp = u64::from_str_radix(fp, 16)
                    .map_err(|e| RegistryError::corrupt(format!("bad fingerprint `{fp}`: {e}")))?;
                let mapping = parse::parse_mapping(f, r, c)
                    .map_err(|e| RegistryError::corrupt(format!("invalid stored mapping: {e}")))?;
                let expected = mapping_fingerprint(&mapping);
                if expected != fp {
                    return Err(RegistryError::corrupt(format!(
                        "fingerprint {fp:016x} does not match its mapping (expected {expected:016x})"
                    )));
                }
                records.push(Record {
                    fingerprint: fp,
                    mapping: canonicalize(&mapping),
                    source: Source::parse(s).map_err(RegistryError::corrupt)?,
                });
            }
        }
        Ok(())
    })?;
    Ok(records)
}

/// One step of [`read_sections`].
pub(crate) enum Step<'t> {
    /// A `key = value` line: the key's index in the decoder's key list,
    /// and the trimmed value.
    Pair(usize, &'t str),
    /// The section read so far ends, at the next header or at the end of
    /// the text.
    Close,
}

/// The line loop of the registry's text codecs (segments and
/// `store.txt`). Skips blank and `#` lines, reports each `header` line as
/// the [`Step::Close`] of the section before it and the end of the text as
/// the last one, reports `key = value` lines whose key is in `keys`, and
/// refuses any other line. Values borrow from `text`: reading allocates
/// nothing per line.
pub(crate) fn read_sections<'t>(
    text: &'t str,
    header: &str,
    kind: &str,
    keys: &[&str],
    mut step: impl FnMut(Step<'t>) -> Result<(), RegistryError>,
) -> Result<(), RegistryError> {
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == header {
            step(Step::Close)?;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(RegistryError::corrupt(format!(
                "expected `key = value`, got `{line}`"
            )));
        };
        let key = key.trim();
        let Some(index) = keys.iter().position(|k| *k == key) else {
            return Err(RegistryError::corrupt(format!(
                "unknown {kind} key `{key}`"
            )));
        };
        step(Step::Pair(index, value.trim()))?;
    }
    step(Step::Close)
}

/// Deduplicates records that name the same `(fingerprint, source)` pair,
/// preserving first-seen order. Used by importers so a retried import does
/// not write byte-for-byte duplicate attributions.
pub fn dedup_records(records: Vec<Record>) -> Vec<Record> {
    let mut seen: BTreeSet<(u64, Source)> = BTreeSet::new();
    records
        .into_iter()
        .filter(|r| seen.insert((r.fingerprint, r.source.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;

    fn records() -> Vec<Record> {
        (1..=4u8)
            .map(|n| {
                Record::new(
                    MachineSetting::by_number(n).unwrap().mapping(),
                    Source::new(format!("No.{n}"), format!("m{n}-s1-optimized")),
                )
            })
            .collect()
    }

    #[test]
    fn segment_round_trips() {
        let records = records();
        let encoded = encode_segment(&records);
        assert!(encoded.starts_with(SEGMENT_HEADER));
        let decoded = decode_segment(&encoded).unwrap();
        assert_eq!(decoded, records);
        // The empty segment round-trips too.
        assert!(decode_segment(&encode_segment(&[])).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_fingerprint_mismatch() {
        let records = records();
        let encoded = encode_segment(&records);
        // Flip one hex digit of the first fingerprint.
        let line = encoded
            .lines()
            .find(|l| l.starts_with("fingerprint"))
            .unwrap()
            .to_string();
        let digit = line.chars().last().unwrap();
        let flipped = if digit == '0' { '1' } else { '0' };
        let mut tampered_line = line.clone();
        tampered_line.pop();
        tampered_line.push(flipped);
        let tampered = encoded.replacen(&line, &tampered_line, 1);
        let err = decode_segment(&tampered).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn decode_rejects_malformed_segments() {
        let mapping = "funcs = (13, 16), (14, 17), (15, 18)\nrows = 16~31\n";
        for (text, message) in [
            (
                "[record]\nfuncs = (13, 16)\n",
                "incomplete [record] section",
            ),
            ("garbage\n", "expected `key = value`, got `garbage`"),
            ("wat = 1\n", "unknown segment key `wat`"),
            (
                &format!("[record]\nfingerprint = zz\n{mapping}cols = 0~12\nsource = a:b\n"),
                "bad fingerprint `zz`: invalid digit found in string",
            ),
            (
                &format!("[record]\nfingerprint = 00\n{mapping}cols = 0~40\nsource = a:b\n"),
                "invalid stored mapping: parsed mapping is inconsistent: \
                 address mapping is not a bijection: row bits and column bits overlap",
            ),
            (
                &format!(
                    "[record]\nfingerprint = b597af8fc5743333\n{mapping}cols = 0~12\nsource = a\n"
                ),
                "source `a` is not `machine:job`",
            ),
        ] {
            match decode_segment(text) {
                Err(RegistryError::Corrupt(got)) => assert_eq!(got, message, "{text:?}"),
                other => panic!("{text:?}: expected a corrupt-segment refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn dedup_drops_repeat_attributions() {
        let mut twice = records();
        twice.extend(records());
        assert_eq!(dedup_records(twice), records());
    }
}
