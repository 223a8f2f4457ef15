//! The in-memory registry core: content-addressed entries plus the
//! function-level inverted index.
//!
//! Every entry is keyed by its [`CanonicalKey`] — the unique reduced
//! row-echelon basis of its bank functions plus the row/column bit sets —
//! and addressed by the FNV-1a fingerprint of that key's codec. The
//! inverted index maps each physical-address bit to the fingerprints whose
//! basis touches that bit: a function `f` can only lie in an entry's span
//! if every bit of `f` is covered by the entry's basis support, so a span
//! query intersects the posting lists of `f`'s bits and verifies just the
//! survivors with one `O(rank)` GF(2) reduction each. The pre-index linear
//! scan survives as [`MemRegistry::machines_sharing_scan`], the
//! differential twin the tests and the bench gate compare against.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dram_model::fingerprint::{canonical_encoding_of, fnv1a64};
use dram_model::gf2::{self, Gf2Matrix};
use dram_model::{AddressMapping, XorFunc};

use crate::source::Source;

/// Canonical identity of a mapping: reduced bank-function basis plus the
/// row/column bit sets. The derived ordering (basis, then rows, then
/// columns) fixes the registry's deterministic iteration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CanonicalKey {
    /// Reduced row-echelon basis of the bank-function masks.
    pub basis: Vec<u64>,
    /// Row address bits.
    pub row_bits: Vec<u8>,
    /// Column address bits.
    pub column_bits: Vec<u8>,
}

impl CanonicalKey {
    /// Canonicalizes a mapping with the bitsliced batch RREF.
    pub fn of(mapping: &AddressMapping) -> Self {
        let masks: Vec<u64> = mapping.bank_funcs().iter().map(|f| f.mask()).collect();
        CanonicalKey {
            basis: gf2::bitslice::reduced_row_basis(&masks),
            row_bits: mapping.row_bits().to_vec(),
            column_bits: mapping.column_bits().to_vec(),
        }
    }

    /// FNV-1a fingerprint over this key's canonical codec
    /// ([`dram_model::fingerprint::canonical_encoding_of`]).
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(canonical_encoding_of(&self.basis, &self.row_bits, &self.column_bits).as_bytes())
    }

    /// Union of the basis masks: the address bits this mapping's bank
    /// functions touch.
    pub fn support(&self) -> u64 {
        self.basis.iter().fold(0, |acc, &mask| acc | mask)
    }
}

/// One distinct mapping plus every source that recovered it.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Content-addressed identity (FNV-1a over the canonical codec).
    pub fingerprint: u64,
    /// The mapping, with its bank functions in canonical (reduced-basis)
    /// form.
    pub mapping: AddressMapping,
    /// Every source that recovered this mapping.
    pub sources: BTreeSet<Source>,
}

impl Entry {
    /// The distinct machine labels that recovered this mapping.
    pub fn machines(&self) -> BTreeSet<&str> {
        self.sources.iter().map(|s| s.machine.as_str()).collect()
    }
}

/// Work a query actually did, as deterministic integers (no clocks): how
/// many index candidates were examined and how many survived exact
/// verification. Feeds the byte-deterministic telemetry histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Entries the inverted index nominated for exact verification.
    pub candidates: u64,
    /// Candidates that passed the exact GF(2) check.
    pub matched: u64,
}

/// One ranked answer to a nearest-mapping-to-partial-recovery query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearestHit {
    /// Fingerprint of the candidate entry.
    pub fingerprint: u64,
    /// Dimension of the intersection of the partial span with the
    /// candidate's span — how much of the partial recovery the candidate
    /// explains.
    pub contained: u8,
    /// Rank of the (reduced) partial basis, the ceiling for `contained`.
    pub partial_rank: u8,
    /// Rank of the candidate entry's basis.
    pub rank: u8,
}

type RawShape = (Vec<u64>, Vec<u8>, Vec<u8>);

/// The deduplicating, content-addressed in-memory registry.
#[derive(Debug, Clone, Default)]
pub struct MemRegistry {
    /// Entries with their canonical keys, in dense insertion order — the
    /// id space every index below refers to. Query hits index straight
    /// into this vector instead of probing a tree per hit.
    store: Vec<(CanonicalKey, Entry)>,
    /// Dense ids in canonical-key order (the deterministic encode and
    /// iteration order).
    canonical_ids: Vec<u32>,
    /// Canonical rank of each dense id (the inverse permutation of
    /// `canonical_ids`): lets a query sort its hits into canonical order
    /// with plain `u32` comparisons.
    rank_of: Vec<u32>,
    /// Exact-lookup index: fingerprint → dense id.
    by_fingerprint: BTreeMap<u64, u32>,
    /// Interned machine labels, in first-seen order (the machine-id
    /// space). Machine labels share long prefixes, so queries dedup and
    /// sort interned ids instead of comparing strings.
    machine_names: Vec<String>,
    /// Interning map: machine label → machine id.
    machine_ids: HashMap<String, u32>,
    /// Lexicographic rank of each machine id (inverse of
    /// `machines_by_rank`), maintained on intern like `rank_of`.
    machine_rank: Vec<u32>,
    /// Machine ids in lexicographic label order.
    machines_by_rank: Vec<u32>,
    /// Per dense entry id: the deduplicated interned machine ids of the
    /// entry's sources.
    entry_machines: Vec<Vec<u32>>,
    /// Inverted index: address bit → bitmap over dense entry ids whose
    /// basis support contains that bit, 64 ids per `u64` block. Candidate
    /// nomination is bitmap AND/OR — a couple of word ops per 64 entries —
    /// instead of a tree probe per candidate. A bitmap may be shorter than
    /// the id space; missing blocks mean "no ids".
    postings: BTreeMap<u8, Vec<u64>>,
    /// Second inverted index: basis-row *lead* bit → bitmap over dense
    /// ids. A mask reduces to zero only against a basis with a row whose
    /// lead bit equals the mask's top bit, so AND-ing this bitmap into
    /// the candidate set prunes entries the support filter cannot.
    lead_postings: BTreeMap<u8, Vec<u64>>,
    /// Transposed basis: lead bit → column of basis rows, indexed by dense
    /// id (0 where the entry has no row with that lead; a column may be
    /// shorter than the id space, missing tail meaning 0). Because the
    /// canonical basis is full Gauss-Jordan RREF, `mask` lies in an
    /// entry's span iff the XOR of its rows whose lead bit is set in
    /// `mask` equals `mask` — a branchless gather over these columns.
    row_by_lead: BTreeMap<u8, Vec<u64>>,
    /// Raw-shape memo: the exact (masks, rows, cols) a caller presented,
    /// mapped to its canonical key, so replaying a journal over an already
    /// populated registry never re-runs RREF for a mapping it has seen in
    /// that exact shape before.
    memo: HashMap<RawShape, CanonicalKey>,
    /// How many RREF canonicalizations were actually performed (memo
    /// misses). Exposed so tests can assert the replay cache works.
    canonicalizations: u64,
}

impl PartialEq for MemRegistry {
    /// Registries are equal when they hold the same entries; the memo and
    /// its counter are caches, not content.
    fn eq(&self, other: &Self) -> bool {
        self.store.len() == other.store.len()
            && self
                .pairs()
                .zip(other.pairs())
                .all(|(mine, theirs)| mine == theirs)
    }
}

impl MemRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MemRegistry::default()
    }

    /// Records that `source` recovered `mapping`. Returns `true` when this
    /// mapping was not present yet (up to bank-function basis choice).
    pub fn insert(&mut self, mapping: &AddressMapping, source: Source) -> bool {
        let raw: RawShape = (
            mapping.bank_funcs().iter().map(|f| f.mask()).collect(),
            mapping.row_bits().to_vec(),
            mapping.column_bits().to_vec(),
        );
        let key = match self.memo.get(&raw) {
            Some(key) => key.clone(),
            None => {
                self.canonicalizations += 1;
                let key = CanonicalKey {
                    basis: gf2::bitslice::reduced_row_basis(&raw.0),
                    row_bits: raw.1.clone(),
                    column_bits: raw.2.clone(),
                };
                self.memo.insert(raw, key.clone());
                key
            }
        };
        let fingerprint = key.fingerprint();
        let machine = self.intern_machine(source.machine.as_str());
        if let Some(&id) = self.by_fingerprint.get(&fingerprint) {
            let (existing, entry) = &mut self.store[id as usize];
            // FNV-1a is 64 bits over a short codec; a collision between
            // *different* canonical keys would silently merge two distinct
            // mappings, so refuse loudly instead.
            assert_eq!(
                *existing, key,
                "fingerprint collision: {fingerprint:016x} already names a different mapping"
            );
            entry.sources.insert(source);
            let known = &mut self.entry_machines[id as usize];
            if !known.contains(&machine) {
                known.push(machine);
            }
            return false;
        }
        let canonical_funcs: Vec<XorFunc> =
            key.basis.iter().map(|&m| XorFunc::from_mask(m)).collect();
        let canonical = AddressMapping::new(
            canonical_funcs,
            key.row_bits.clone(),
            key.column_bits.clone(),
        )
        .expect("canonical basis spans the same space as a valid mapping");
        let id = self.store.len();
        let (block, slot) = (id / 64, id % 64);
        let set = |bitmap: &mut Vec<u64>| {
            if bitmap.len() <= block {
                bitmap.resize(block + 1, 0);
            }
            bitmap[block] |= 1u64 << slot;
        };
        for bit in 0..64u8 {
            if key.support() & (1 << bit) != 0 {
                set(self.postings.entry(bit).or_default());
            }
        }
        for &row in &key.basis {
            if row != 0 {
                let lead = (63 - row.leading_zeros()) as u8;
                set(self.lead_postings.entry(lead).or_default());
                let column = self.row_by_lead.entry(lead).or_default();
                column.resize(id, 0);
                column.push(row);
            }
        }
        // Splice the new id into the canonical permutation; every id at or
        // after its rank shifts up by one. O(n) per new entry, paid once
        // at insert so queries sort hits with plain integer keys.
        let rank = self
            .canonical_ids
            .partition_point(|&i| self.store[i as usize].0 < key) as u32;
        for &shifted in &self.canonical_ids[rank as usize..] {
            self.rank_of[shifted as usize] += 1;
        }
        self.canonical_ids.insert(rank as usize, id as u32);
        self.rank_of.push(rank);
        self.by_fingerprint.insert(fingerprint, id as u32);
        self.entry_machines.push(vec![machine]);
        self.store.push((
            key,
            Entry {
                fingerprint,
                mapping: canonical,
                sources: BTreeSet::from([source]),
            },
        ));
        true
    }

    /// Interns a machine label, maintaining the lexicographic rank
    /// permutation over machine ids.
    fn intern_machine(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.machine_ids.get(name) {
            return id;
        }
        let id = self.machine_names.len() as u32;
        let rank = self
            .machines_by_rank
            .partition_point(|&m| self.machine_names[m as usize].as_str() < name)
            as u32;
        for &shifted in &self.machines_by_rank[rank as usize..] {
            self.machine_rank[shifted as usize] += 1;
        }
        self.machines_by_rank.insert(rank as usize, id);
        self.machine_rank.push(rank);
        self.machine_names.push(name.to_string());
        self.machine_ids.insert(name.to_string(), id);
        id
    }

    /// The stored `(canonical key, entry)` pairs in canonical-key order.
    fn pairs(&self) -> impl Iterator<Item = &(CanonicalKey, Entry)> {
        self.canonical_ids
            .iter()
            .map(|&id| &self.store[id as usize])
    }

    /// Merges another registry's entries (and their sources) into this one.
    pub fn merge(&mut self, other: &MemRegistry) {
        for entry in other.entries() {
            for source in &entry.sources {
                self.insert(&entry.mapping, source.clone());
            }
        }
    }

    /// Number of distinct mappings stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` when no mapping is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The stored entries, in canonical-key order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.pairs().map(|(_, entry)| entry)
    }

    /// Exact-fingerprint lookup.
    pub fn lookup(&self, fingerprint: u64) -> Option<&Entry> {
        let id = *self.by_fingerprint.get(&fingerprint)?;
        Some(&self.store[id as usize].1)
    }

    /// RREF canonicalizations performed so far (memo misses). Replaying a
    /// journal into an already-populated registry should not move this.
    pub fn canonicalizations(&self) -> u64 {
        self.canonicalizations
    }

    /// Dense ids the inverted index nominates for `mask`: entries whose
    /// basis support covers every set bit. An entry outside this set
    /// cannot span `mask` (any GF(2) combination of basis rows has support
    /// inside the basis union), so verifying only these is exact. The
    /// intersection is a bitmap AND over the per-bit postings.
    fn span_candidates(&self, mask: u64) -> Vec<u32> {
        if mask == 0 {
            // The zero function lies in every span.
            return (0..self.store.len() as u32).collect();
        }
        // Start from the lead-bit bitmap for the mask's top bit: without
        // a basis row leading there, the reduction can never clear it.
        let top = (63 - mask.leading_zeros()) as u8;
        let Some(lead) = self.lead_postings.get(&top) else {
            return Vec::new();
        };
        let mut acc: Vec<u64> = lead.clone();
        for bit in 0..64u8 {
            if mask & (1 << bit) != 0 {
                let Some(bitmap) = self.postings.get(&bit) else {
                    return Vec::new();
                };
                // Ids past a shorter bitmap's end are absent from it, so
                // they drop out of the intersection.
                acc.truncate(bitmap.len());
                for (a, b) in acc.iter_mut().zip(bitmap) {
                    *a &= b;
                }
            }
        }
        let mut ids = Vec::new();
        for (i, mut block) in acc.into_iter().enumerate() {
            while block != 0 {
                ids.push(i as u32 * 64 + block.trailing_zeros());
                block &= block - 1;
            }
        }
        ids
    }

    /// The machines whose recovered mapping *uses* `func` (the function
    /// lies in the GF(2) span of the entry's bank functions), answered from
    /// the inverted index.
    pub fn machines_sharing(&self, func: XorFunc) -> BTreeSet<&str> {
        self.machines_sharing_costed(func).0
    }

    /// The row-by-lead columns for `mask`'s set bits (bits that lead no
    /// stored row have no column and contribute 0 to every entry).
    fn lead_columns(&self, mask: u64) -> Vec<&[u64]> {
        let mut columns = Vec::new();
        let mut rem = mask;
        while rem != 0 {
            let bit = rem.trailing_zeros() as u8;
            rem &= rem - 1;
            if let Some(column) = self.row_by_lead.get(&bit) {
                columns.push(column.as_slice());
            }
        }
        columns
    }

    /// [`MemRegistry::machines_sharing`] plus the deterministic work
    /// counters for telemetry.
    pub fn machines_sharing_costed(&self, func: XorFunc) -> (BTreeSet<&str>, QueryCost) {
        let mask = func.mask();
        let mut matched = self.span_candidates(mask);
        let candidates = matched.len() as u64;
        let columns = self.lead_columns(mask);
        matched.retain(|&id| Self::residual(&columns, id as usize, mask) == 0);
        // Dedup and order the answer on interned machine *ranks* — plain
        // integer ops — and only materialize label strings at the end.
        let mut ranks: Vec<u32> = Vec::new();
        for &id in &matched {
            ranks.extend(
                self.entry_machines[id as usize]
                    .iter()
                    .map(|&m| self.machine_rank[m as usize]),
            );
        }
        ranks.sort_unstable();
        ranks.dedup();
        let machines: BTreeSet<&str> = ranks
            .iter()
            .map(|&r| self.machine_names[self.machines_by_rank[r as usize] as usize].as_str())
            .collect();
        let cost = QueryCost {
            candidates,
            matched: matched.len() as u64,
        };
        (machines, cost)
    }

    /// The entries whose bank-function span contains `func`, answered from
    /// the inverted index, in canonical-key order.
    pub fn entries_sharing(&self, func: XorFunc) -> Vec<&Entry> {
        self.entries_sharing_costed(func).0
    }

    /// [`MemRegistry::entries_sharing`] plus the work counters.
    pub fn entries_sharing_costed(&self, func: XorFunc) -> (Vec<&Entry>, QueryCost) {
        let mask = func.mask();
        let mut matched = self.span_candidates(mask);
        let candidates = matched.len() as u64;
        let columns = self.lead_columns(mask);
        matched.retain(|&id| Self::residual(&columns, id as usize, mask) == 0);
        // Candidates come out in insertion order; present them in the
        // registry's canonical order like the scan twin does. The rank
        // permutation makes this an integer sort, not a key comparison.
        matched.sort_unstable_by_key(|&id| self.rank_of[id as usize]);
        let hits: Vec<&Entry> = matched
            .iter()
            .map(|&id| &self.store[id as usize].1)
            .collect();
        let cost = QueryCost {
            candidates,
            matched: hits.len() as u64,
        };
        (hits, cost)
    }

    /// Differential twin of [`MemRegistry::machines_sharing`]: the original
    /// full linear scan. Kept for tests and the bench gate; never used on
    /// the query path.
    pub fn machines_sharing_scan(&self, func: XorFunc) -> BTreeSet<&str> {
        let mut machines = BTreeSet::new();
        for entry in self.entries_sharing_scan(func) {
            machines.extend(entry.machines());
        }
        machines
    }

    /// Differential twin of [`MemRegistry::entries_sharing`]: linear scan
    /// with a fresh `Gf2Matrix` span check per entry.
    pub fn entries_sharing_scan(&self, func: XorFunc) -> Vec<&Entry> {
        self.entries()
            .filter(|e| Gf2Matrix::from_funcs(e.mapping.bank_funcs()).spans(func.mask()))
            .collect()
    }

    /// Nearest stored mappings to a partial recovery: the rank-deficient
    /// basis a mid-run black-box tool has so far. Candidates are ranked by
    /// how much of the partial span they contain —
    /// `dim(partial ∩ candidate) = rank(P) + rank(B) − rank(P ∪ B)` —
    /// with ties broken by smaller candidate rank (tighter explanation),
    /// then fingerprint. Entries sharing nothing with the partial basis are
    /// omitted. Returns at most `k` hits plus the work counters.
    pub fn nearest(&self, partial: &[XorFunc], k: usize) -> (Vec<NearestHit>, QueryCost) {
        let masks: Vec<u64> = partial.iter().map(|f| f.mask()).collect();
        let reduced = gf2::bitslice::reduced_row_basis(&masks);
        let partial_rank = reduced.len() as u8;
        if reduced.is_empty() || k == 0 {
            return (Vec::new(), QueryCost::default());
        }
        // Union of postings bitmaps over the partial support: an entry
        // whose basis support is disjoint from the partial support
        // intersects it only in {0}.
        let support = reduced.iter().fold(0u64, |acc, &m| acc | m);
        let mut union_blocks: Vec<u64> = Vec::new();
        for bit in 0..64u8 {
            if support & (1 << bit) != 0 {
                if let Some(bitmap) = self.postings.get(&bit) {
                    if union_blocks.len() < bitmap.len() {
                        union_blocks.resize(bitmap.len(), 0);
                    }
                    for (a, b) in union_blocks.iter_mut().zip(bitmap) {
                        *a |= b;
                    }
                }
            }
        }
        // Score by lead-column residuals. For a full Gauss-Jordan RREF
        // basis `B`, `p ^ XOR(rows of B whose lead bit is set in p)` is a
        // linear map whose kernel is exactly span(B), so
        // `dim(span P ∩ span B) = rank(P) − rank(residuals of P)`.
        // The columns are looked up once here; per candidate the work is
        // one gather per partial bit plus a stack echelon of at most
        // `rank(P)` words.
        let columns: Vec<Vec<&[u64]>> = reduced.iter().map(|&p| self.lead_columns(p)).collect();
        let mut echelon = [0u64; 64];
        let mut cost = QueryCost::default();
        let mut hits: Vec<NearestHit> = Vec::new();
        for (i, mut block) in union_blocks.into_iter().enumerate() {
            while block != 0 {
                let id = i * 64 + block.trailing_zeros() as usize;
                block &= block - 1;
                cost.candidates += 1;
                let mut residual_rank = 0usize;
                for (&p, cols) in reduced.iter().zip(&columns) {
                    let residual = Self::residual(cols, id, p);
                    residual_rank += Self::echelon_insert(&mut echelon, residual_rank, residual);
                }
                let contained = partial_rank - residual_rank as u8;
                if contained == 0 {
                    continue;
                }
                let (key, entry) = &self.store[id];
                hits.push(NearestHit {
                    fingerprint: entry.fingerprint,
                    contained,
                    partial_rank,
                    rank: key.basis.len() as u8,
                });
            }
        }
        // Fingerprints are unique, so the ranking is a total order: select
        // the top `k` first and sort only those — the same answer as
        // sorting every hit.
        if hits.len() > k {
            hits.select_nth_unstable_by(k - 1, nearest_order);
            hits.truncate(k);
        }
        hits.sort_by(nearest_order);
        cost.matched = hits.len() as u64;
        (hits, cost)
    }

    /// `mask` with entry `id`'s basis rows whose lead bit is set in `mask`
    /// XORed out. Full Gauss-Jordan RREF makes this selection the whole
    /// reduction: the result is zero iff `mask` lies in the entry's span,
    /// and it is linear in `mask`.
    fn residual(columns: &[&[u64]], id: usize, mask: u64) -> u64 {
        columns.iter().fold(mask, |acc, column| {
            acc ^ column.get(id).copied().unwrap_or(0)
        })
    }

    /// Reduces `row` against the first `len` rows of `echelon` (distinct
    /// leading bits, sorted descending) and, when something is left,
    /// inserts it in order. Returns 1 when the rank grew, else 0.
    fn echelon_insert(echelon: &mut [u64; 64], len: usize, mut row: u64) -> usize {
        for &pivot in &echelon[..len] {
            row = row.min(row ^ pivot);
        }
        if row == 0 {
            return 0;
        }
        let at = echelon[..len].partition_point(|&pivot| pivot > row);
        echelon.copy_within(at..len, at + 1);
        echelon[at] = row;
        1
    }

    /// Differential twin of [`MemRegistry::nearest`]: scores every entry by
    /// linear scan, with a full RREF of the union basis per entry instead
    /// of the posting lists and lead-column residuals.
    pub fn nearest_scan(&self, partial: &[XorFunc], k: usize) -> Vec<NearestHit> {
        let masks: Vec<u64> = partial.iter().map(|f| f.mask()).collect();
        let reduced = gf2::bitslice::reduced_row_basis(&masks);
        let partial_rank = reduced.len() as u8;
        if reduced.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut hits: Vec<NearestHit> = Vec::new();
        for (key, entry) in self.pairs() {
            let rank = key.basis.len() as u8;
            let mut union: Vec<u64> = key.basis.clone();
            union.extend_from_slice(&reduced);
            let union_rank = gf2::bitslice::reduced_row_basis(&union).len() as u8;
            let contained = partial_rank + rank - union_rank;
            if contained == 0 {
                continue;
            }
            hits.push(NearestHit {
                fingerprint: entry.fingerprint,
                contained,
                partial_rank,
                rank,
            });
        }
        hits.sort_by(nearest_order);
        hits.truncate(k);
        hits
    }
}

/// The `nearest` ranking: more of the partial span contained first, then
/// the smaller candidate rank (tighter explanation), then fingerprint.
fn nearest_order(a: &NearestHit, b: &NearestHit) -> std::cmp::Ordering {
    b.contained
        .cmp(&a.contained)
        .then(a.rank.cmp(&b.rank))
        .then(a.fingerprint.cmp(&b.fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;

    fn source(machine: u8, job: &str) -> Source {
        Source::new(format!("No.{machine}"), job)
    }

    fn table2_registry() -> MemRegistry {
        let mut registry = MemRegistry::new();
        for n in 1..=9u8 {
            let setting = MachineSetting::by_number(n).unwrap();
            registry.insert(setting.mapping(), source(n, &format!("m{n}-s1-optimized")));
        }
        registry
    }

    #[test]
    fn indexed_sharing_matches_scan_twin_on_table2() {
        let registry = table2_registry();
        // Every single-function query that appears in any stored basis,
        // plus a few misses.
        let mut queries: Vec<XorFunc> = registry
            .entries()
            .flat_map(|e| e.mapping.bank_funcs().to_vec())
            .collect();
        queries.push(XorFunc::from_bits(&[2, 3]));
        queries.push(XorFunc::from_bits(&[14, 18]));
        queries.push(XorFunc::from_bits(&[63]));
        for func in queries {
            assert_eq!(
                registry.machines_sharing(func),
                registry.machines_sharing_scan(func),
                "query {func}"
            );
            let indexed: Vec<u64> = registry
                .entries_sharing(func)
                .iter()
                .map(|e| e.fingerprint)
                .collect();
            let scanned: Vec<u64> = registry
                .entries_sharing_scan(func)
                .iter()
                .map(|e| e.fingerprint)
                .collect();
            assert_eq!(indexed, scanned, "query {func}");
        }
    }

    #[test]
    fn sharing_answers_span_queries() {
        let registry = table2_registry();
        let sharing = registry.machines_sharing(XorFunc::from_bits(&[14, 18]));
        assert_eq!(
            sharing.iter().copied().collect::<Vec<_>>(),
            vec!["No.2", "No.3", "No.5"]
        );
        let (_, cost) = registry.machines_sharing_costed(XorFunc::from_bits(&[14, 18]));
        assert!(cost.candidates >= cost.matched);
        assert!(
            cost.candidates < registry.len() as u64,
            "the index must prune at least some of the 9 mappings"
        );
        assert!(registry
            .machines_sharing(XorFunc::from_bits(&[2, 3]))
            .is_empty());
    }

    #[test]
    fn lookup_by_fingerprint() {
        let registry = table2_registry();
        for entry in registry.entries() {
            let found = registry.lookup(entry.fingerprint).unwrap();
            assert_eq!(found.fingerprint, entry.fingerprint);
        }
        assert!(registry.lookup(0).is_none());
    }

    #[test]
    fn memo_skips_recanonicalization_on_replay() {
        let no4 = MachineSetting::by_number(4).unwrap();
        let mut registry = MemRegistry::new();
        registry.insert(no4.mapping(), source(4, "m4-s1-optimized"));
        assert_eq!(registry.canonicalizations(), 1);
        // A journal replay re-presents the same raw shape: no new RREF.
        for _ in 0..10 {
            registry.insert(no4.mapping(), source(4, "m4-s1-optimized"));
        }
        assert_eq!(registry.canonicalizations(), 1);
        // A different raw basis of the same space is a genuine memo miss
        // but still dedups into the same entry.
        let variant = AddressMapping::new(
            vec![
                XorFunc::from_bits(&[13, 16]),
                XorFunc::from_bits(&[14, 15, 17, 18]),
                XorFunc::from_bits(&[15, 18]),
            ],
            no4.mapping().row_bits().to_vec(),
            no4.mapping().column_bits().to_vec(),
        )
        .unwrap();
        assert!(!registry.insert(&variant, source(4, "m4-s2-optimized")));
        assert_eq!(registry.canonicalizations(), 2);
        assert_eq!(registry.len(), 1);
        // The ten replays of one source were idempotent: two sources.
        assert_eq!(registry.entries().next().unwrap().sources.len(), 2);
    }

    #[test]
    fn nearest_ranks_by_subspace_containment() {
        let registry = table2_registry();
        let no4 = MachineSetting::by_number(4).unwrap();
        // A rank-deficient partial recovery: two of No.4's three functions.
        let partial: Vec<XorFunc> = no4.mapping().bank_funcs()[..2].to_vec();
        let (hits, cost) = registry.nearest(&partial, 3);
        assert!(!hits.is_empty());
        let top = hits[0];
        assert_eq!(top.partial_rank, 2);
        assert_eq!(
            top.contained, 2,
            "some stored mapping fully contains the partial basis"
        );
        let top_entry = registry.lookup(top.fingerprint).unwrap();
        assert!(
            top_entry.machines().contains("No.4"),
            "No.4 itself explains its own partial recovery: {top_entry:?}"
        );
        assert!(cost.candidates >= hits.len() as u64);
        // The twin agrees.
        assert_eq!(hits, registry.nearest_scan(&partial, 3));
    }

    #[test]
    fn nearest_of_empty_partial_is_empty() {
        let registry = table2_registry();
        assert!(registry.nearest(&[], 3).0.is_empty());
        assert!(registry
            .nearest(&[XorFunc::from_bits(&[13, 16])], 0)
            .0
            .is_empty());
    }

    #[test]
    fn merge_unions_entries_and_sources() {
        let no4 = MachineSetting::by_number(4).unwrap();
        let no7 = MachineSetting::by_number(7).unwrap();
        let mut a = MemRegistry::new();
        a.insert(no4.mapping(), source(4, "m4-s1-fast"));
        let mut b = MemRegistry::new();
        b.insert(no4.mapping(), source(4, "m4-s2-fast"));
        b.insert(no7.mapping(), source(7, "m7-s1-fast"));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        let entry = a
            .entries()
            .find(|e| e.mapping.equivalent_to(no4.mapping()))
            .unwrap();
        assert_eq!(entry.sources.len(), 2);
    }
}
