//! The `store.txt` codec: a campaign's deduplicated mappings as text.
//!
//! A campaign's reduce step writes its [`MemRegistry`] to `store.txt`. The
//! bytes are a pure function of the registry's contents (entries in
//! canonical-key order, each entry's sources sorted), so an interrupted
//! and resumed campaign and an uninterrupted one write the same file.

use dram_model::parse;

use crate::segment::{read_sections, Record, Step};
use crate::{MemRegistry, RegistryError, Source};

/// The keys of a `[mapping]` section: three value slots, then `sources`.
const MAPPING_KEYS: [&str; 4] = ["funcs", "rows", "cols", "sources"];
/// The index of `sources` in [`MAPPING_KEYS`].
const SOURCES: usize = 3;

impl MemRegistry {
    /// One record per `(mapping, source)` attribution, in canonical order:
    /// the import feed for a sharded on-disk registry.
    pub fn records(&self) -> Vec<Record> {
        let mut records = Vec::new();
        for entry in self.entries() {
            for source in &entry.sources {
                records.push(Record::new(&entry.mapping, source.clone()));
            }
        }
        records
    }

    /// Serializes the registry as `store.txt`. The output is a pure
    /// function of the *contents*: insertion order never changes a byte.
    pub fn encode(&self) -> String {
        let mut out = String::from("# dramdig mapping store\n");
        for entry in self.entries() {
            let (funcs, rows, cols) = parse::render_mapping(&entry.mapping);
            out.push_str("\n[mapping]\n");
            out.push_str(&format!("funcs = {funcs}\n"));
            out.push_str(&format!("rows = {rows}\n"));
            out.push_str(&format!("cols = {cols}\n"));
            let sources: Vec<String> = entry.sources.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!("sources = {}\n", sources.join(", ")));
        }
        out
    }

    /// Parses a `store.txt` written by [`MemRegistry::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Corrupt`] on malformed sections, keys,
    /// mappings or sources.
    pub fn decode(text: &str) -> Result<Self, RegistryError> {
        let mut registry = MemRegistry::new();
        let mut values: [Option<&str>; 3] = [None; 3];
        let mut sources: Vec<Source> = Vec::new();
        read_sections(text, "[mapping]", "store", &MAPPING_KEYS, |step| {
            match step {
                Step::Pair(SOURCES, value) => {
                    for item in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        sources.push(Source::parse(item).map_err(RegistryError::corrupt)?);
                    }
                }
                Step::Pair(key, value) => values[key] = Some(value),
                Step::Close if values.iter().all(Option::is_none) && sources.is_empty() => {}
                Step::Close => {
                    let [Some(f), Some(r), Some(c)] = std::mem::take(&mut values) else {
                        return Err(RegistryError::corrupt("incomplete [mapping] section"));
                    };
                    let mapping = parse::parse_mapping(f, r, c).map_err(|e| {
                        RegistryError::corrupt(format!("invalid stored mapping: {e}"))
                    })?;
                    if sources.is_empty() {
                        return Err(RegistryError::corrupt("a [mapping] section has no sources"));
                    }
                    for source in sources.drain(..) {
                        registry.insert(&mapping, source);
                    }
                }
            }
            Ok(())
        })?;
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::gf2::{self, Gf2Matrix};
    use dram_model::{AddressMapping, MachineSetting, XorFunc};

    fn source(machine: u8, job: &str) -> Source {
        Source::new(format!("No.{machine}"), job)
    }

    /// A machine's Table-II mapping with its first `v` bank functions each
    /// XOR-folded with the next: the same GF(2) span under another basis.
    fn variant_mapping(machine: u8, v: u8) -> AddressMapping {
        let mapping = MachineSetting::by_number(machine)
            .unwrap()
            .mapping()
            .clone();
        let mut funcs: Vec<XorFunc> = mapping.bank_funcs().to_vec();
        for i in 0..usize::from(v).min(funcs.len().saturating_sub(1)) {
            funcs[i] = funcs[i].combine(funcs[i + 1]);
        }
        AddressMapping::new(
            funcs,
            mapping.row_bits().to_vec(),
            mapping.column_bits().to_vec(),
        )
        .unwrap()
    }

    /// The message of a refused decode.
    fn refusal(text: &str) -> String {
        match MemRegistry::decode(text) {
            Err(RegistryError::Corrupt(message)) => message,
            other => panic!("expected a corrupt-store refusal, got {other:?}"),
        }
    }

    /// Every Table-II mapping, each recovered once by its own machine.
    fn table2_store() -> MemRegistry {
        let mut store = MemRegistry::new();
        for n in 1..=9u8 {
            let setting = MachineSetting::by_number(n).unwrap();
            store.insert(setting.mapping(), source(n, &format!("m{n}-s1-optimized")));
        }
        store
    }

    #[test]
    fn store_bytes_match_the_golden() {
        // Each Table-II mapping twice: under a basis variant and as
        // published, so the golden pins canonicalization, the dedup of the
        // two presentations and the join of their sources.
        let mut store = MemRegistry::new();
        for n in 1..=9u8 {
            let published = MachineSetting::by_number(n).unwrap().mapping().clone();
            store.insert(
                &variant_mapping(n, n % 4),
                source(n, &format!("m{n}-s1-fast")),
            );
            store.insert(&published, source(n, &format!("m{n}-s2-optimized")));
        }
        let golden = include_str!("../tests/golden/table2_store.txt");
        assert_eq!(store.encode(), golden);
        let decoded = MemRegistry::decode(golden).unwrap();
        assert_eq!(decoded, store);
        assert_eq!(decoded.encode(), golden);
    }

    #[test]
    fn canonical_key_matches_scalar_rref() {
        // The store's bitsliced canonicalization must agree with the scalar
        // RREF on every Table-II mapping (the differential twin).
        for n in 1..=9u8 {
            let mapping = MachineSetting::by_number(n).unwrap().mapping().clone();
            let masks: Vec<u64> = mapping.bank_funcs().iter().map(|f| f.mask()).collect();
            assert_eq!(
                gf2::bitslice::reduced_row_basis(&masks),
                Gf2Matrix::from_funcs(mapping.bank_funcs()).reduced_row_basis(),
                "machine No.{n}"
            );
        }
    }

    #[test]
    fn distinct_mappings_stay_distinct() {
        let mut store = MemRegistry::new();
        for n in [4u8, 6, 7] {
            let setting = MachineSetting::by_number(n).unwrap();
            assert!(store.insert(setting.mapping(), source(n, &format!("m{n}-s1-fast"))));
        }
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }

    #[test]
    fn machines_sharing_queries_the_span() {
        let store = table2_store();
        // (14, 18) is a bank function of machines 2, 3 and 5 (Table II) —
        // the query answers over the span, across every stored mapping.
        let sharing = store.machines_sharing(XorFunc::from_bits(&[14, 18]));
        assert_eq!(
            sharing.iter().copied().collect::<Vec<_>>(),
            vec!["No.2", "No.3", "No.5"],
            "{sharing:?}"
        );
        // A function nobody uses.
        assert!(store
            .machines_sharing(XorFunc::from_bits(&[2, 3]))
            .is_empty());
        assert_eq!(
            store.entries_sharing(XorFunc::from_bits(&[14, 18])).len(),
            sharing.len(),
            "each sharing machine has a distinct mapping here"
        );
    }

    #[test]
    fn encode_is_insertion_order_independent_and_round_trips() {
        let settings: Vec<_> = (1..=9u8)
            .map(|n| MachineSetting::by_number(n).unwrap())
            .collect();
        let mut forward = MemRegistry::new();
        for s in &settings {
            forward.insert(
                s.mapping(),
                source(s.number, &format!("m{}-s1-fast", s.number)),
            );
        }
        let mut backward = MemRegistry::new();
        for s in settings.iter().rev() {
            backward.insert(
                s.mapping(),
                source(s.number, &format!("m{}-s1-fast", s.number)),
            );
        }
        assert_eq!(forward.encode(), backward.encode());
        let decoded = MemRegistry::decode(&forward.encode()).unwrap();
        assert_eq!(decoded, forward);
        assert_eq!(decoded.encode(), forward.encode());
    }

    #[test]
    fn records_feed_a_registry_identically() {
        let store = table2_store();
        let mut rebuilt = MemRegistry::new();
        for record in store.records() {
            rebuilt.insert(&record.mapping, record.source);
        }
        assert_eq!(rebuilt, store);
    }

    #[test]
    fn decode_rejects_malformed_stores() {
        let mapping = "funcs = (13, 16), (14, 17), (15, 18)\nrows = 16~31\n";
        for (text, message) in [
            (
                "[mapping]\nfuncs = (13, 16)\n",
                "incomplete [mapping] section",
            ),
            ("sources = a:b\n", "incomplete [mapping] section"),
            (
                "funcs = (1)\nrows = 2\ncols = 0\nwat = 1\n",
                "unknown store key `wat`",
            ),
            (
                "garbage line\n",
                "expected `key = value`, got `garbage line`",
            ),
            (
                &format!("[mapping]\n{mapping}cols = 0~12\nsources = broken\n"),
                "source `broken` is not `machine:job`",
            ),
            (
                "[mapping]\nsources = a:b, :c\n",
                "empty source component in `:c`",
            ),
            (
                &format!("[mapping]\n{mapping}cols = 0~12\n"),
                "a [mapping] section has no sources",
            ),
            (
                &format!("[mapping]\n{mapping}cols = 0~40\nsources = a:b\n"),
                "invalid stored mapping: parsed mapping is inconsistent: \
                 address mapping is not a bijection: row bits and column bits overlap",
            ),
        ] {
            assert_eq!(refusal(text), message, "{text:?}");
        }
        // The empty store round-trips.
        let empty = MemRegistry::new();
        assert_eq!(MemRegistry::decode(&empty.encode()).unwrap(), empty);
    }
}
