//! Property tests of the registry subsystem: the segment codec round-trips
//! any corpus, query answers are invariant under the shard count (sharding
//! is a layout choice, never a semantic one), concurrent readers always
//! observe internally consistent snapshots while a writer publishes, and
//! the indexed `nearest` and `sharing` answers equal their scan oracles.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use proptest::prelude::*;

use dram_model::{AddressMapping, MachineClass, MachineGen, MachineSetting, XorFunc};
use registry::segment::{decode_segment, encode_segment};
use registry::{
    respond, DiskRegistry, DiskStats, MemRegistry, Record, Request, SharedRegistry, Snapshot,
    Source,
};

/// Distinguishes the temp directories of concurrently running proptest
/// cases (proptest may shrink in-process while other cases' dirs exist).
static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str, shards: u32) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "dramdig-registry-props-{tag}-{}-{}-{shards}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ))
}

/// A machine's Table-II mapping presented under a basis variant: XOR-folds
/// adjacent bank functions, which changes the presented rows but never the
/// GF(2) span, so every variant must dedup onto one canonical entry.
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
    .expect("basis change keeps the mapping valid")
}

fn record(machine: u8, v: u8, i: usize) -> Record {
    Record::new(
        &variant_mapping(machine, v),
        Source::new(format!("No.{machine}"), format!("m{machine}-s{i}-fast")),
    )
}

fn corpus(jobs: &[(u8, u8)]) -> Vec<Record> {
    jobs.iter()
        .enumerate()
        .map(|(i, (machine, v))| record(*machine, *v, i))
        .collect()
}

fn query_func(bits: &[u8]) -> XorFunc {
    let bits: Vec<u8> = bits
        .iter()
        .copied()
        .collect::<BTreeSet<u8>>()
        .into_iter()
        .collect();
    XorFunc::from_bits(&bits)
}

/// A registry over generated machines: seeds drawn from a small range so
/// the same machine recurs (duplicates merge sources), every class
/// including row-remap, and each job recorded under its own source.
fn generated_registry(jobs: &[(u64, usize)]) -> MemRegistry {
    let mut mem = MemRegistry::new();
    for (i, &(seed, class)) in jobs.iter().enumerate() {
        let machine = MachineGen::new(seed).generate(MachineClass::ALL[class]);
        mem.insert(
            machine.mapping(),
            Source::new(machine.label.clone(), format!("g{i:04}-s{seed}")),
        );
    }
    mem
}

/// Builds one query function from a draw: either a GF(2) combination of a
/// stored entry's basis rows (`subset` selects the rows), or — when
/// `outside` — a function over address bits 40..64 that no generated
/// mapping's support reaches.
fn drawn_func(mem: &MemRegistry, pick: usize, subset: u64, outside: bool) -> XorFunc {
    if outside {
        return XorFunc::from_mask((1u64 << (40 + pick % 24)) | (subset << 44));
    }
    let entry = mem
        .entries()
        .nth(pick % mem.len())
        .expect("non-empty corpus");
    let rows = entry.mapping.bank_funcs();
    let mask = rows
        .iter()
        .enumerate()
        .filter(|(j, _)| subset >> j & 1 == 1)
        .fold(0u64, |acc, (_, f)| acc ^ f.mask());
    XorFunc::from_mask(if mask == 0 { rows[0].mask() } else { mask })
}

/// The `sharing` response as the entry-level path renders it: matched
/// entries in canonical order, machine labels merged per entry.
fn sharing_via_entries(mem: &MemRegistry, func: XorFunc) -> String {
    let (entries, cost) = mem.entries_sharing_costed(func);
    let mut machines = BTreeSet::new();
    for entry in &entries {
        machines.extend(entry.machines());
    }
    format!(
        "ok sharing {func}\nmachines = {}\nentries = {}\ncandidates = {}\n.\n",
        machines.into_iter().collect::<Vec<_>>().join(", "),
        entries.len(),
        cost.candidates,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn nearest_matches_the_scan_oracle_on_generated_corpora(
        jobs in proptest::collection::vec((0u64..12, 0usize..3), 1..24),
        draws in proptest::collection::vec((0usize..64, 0u64..16, 0u8..4), 1..5),
        k_pick in 0usize..4,
    ) {
        let mem = generated_registry(&jobs);
        // One draw in four lies outside every support.
        let partial: Vec<XorFunc> = draws
            .iter()
            .map(|&(pick, subset, kind)| drawn_func(&mem, pick, subset, kind == 0))
            .collect();
        let k = [0, 1, 3, mem.len() + 5][k_pick];
        let (hits, cost) = mem.nearest(&partial, k);
        prop_assert_eq!(&hits, &mem.nearest_scan(&partial, k));
        prop_assert_eq!(cost.matched, hits.len() as u64);
        prop_assert!(hits.len() <= k);
        for hit in &hits {
            prop_assert!(hit.contained >= 1 && hit.contained <= hit.partial_rank);
        }
    }

    #[test]
    fn sharing_response_bytes_match_the_entry_path(
        jobs in proptest::collection::vec((0u64..12, 0usize..3), 1..24),
        draws in proptest::collection::vec((0usize..64, 0u64..16, 0u8..4), 1..8),
    ) {
        let snapshot = Snapshot {
            mem: generated_registry(&jobs),
            generation: 0,
        };
        let stats = DiskStats {
            shards: 1,
            segments: 0,
            records: 0,
            orphans: Vec::new(),
        };
        let mut metrics = telemetry::Registry::new();
        for &(pick, subset, kind) in &draws {
            let func = drawn_func(&snapshot.mem, pick, subset, kind == 0);
            prop_assert_eq!(
                respond(&snapshot, &stats, &Request::Sharing(func), &mut metrics),
                sharing_via_entries(&snapshot.mem, func)
            );
        }
    }

    #[test]
    fn segments_round_trip_any_corpus(
        jobs in proptest::collection::vec((1u8..=9, 0u8..4), 0..12),
    ) {
        let records = corpus(&jobs);
        let encoded = encode_segment(&records);
        let decoded = decode_segment(&encoded).unwrap();
        // `Record::new` already canonicalized, so decode is exact ...
        prop_assert_eq!(&decoded, &records);
        // ... and the encoding is a fixed point: re-encoding the decode is
        // byte-identical, the invariant the segment checksum relies on.
        prop_assert_eq!(encode_segment(&decoded), encoded);
    }

    #[test]
    fn query_answers_are_shard_count_invariant(
        jobs in proptest::collection::vec((1u8..=9, 0u8..4), 1..10),
        query_bits in proptest::collection::vec(0u8..22, 1..4),
    ) {
        let records = corpus(&jobs);
        let func = query_func(&query_bits);
        let mut loaded: Vec<MemRegistry> = Vec::new();
        for shards in [1u32, 2, 4, 7] {
            let dir = case_dir("shards", shards);
            let _ = std::fs::remove_dir_all(&dir);
            let mut disk = DiskRegistry::create(&dir, shards).unwrap();
            disk.append(&records).unwrap();
            // Reopen so the state under test comes purely from disk.
            let mem = DiskRegistry::open(&dir).unwrap().load().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            loaded.push(mem);
        }
        let base = &loaded[0];
        // The indexed answer and its linear-scan twin agree ...
        prop_assert_eq!(base.machines_sharing(func), base.machines_sharing_scan(func));
        for mem in &loaded[1..] {
            // ... and neither the contents nor any query depend on how the
            // records were sharded.
            prop_assert_eq!(mem, base);
            prop_assert_eq!(mem.machines_sharing(func), base.machines_sharing(func));
            prop_assert_eq!(
                mem.entries_sharing(func).len(),
                base.entries_sharing(func).len()
            );
        }
    }

    #[test]
    fn concurrent_readers_see_consistent_snapshots_under_any_batching(
        jobs in proptest::collection::vec((1u8..=9, 0u8..3), 1..8),
        batch in 1usize..4,
    ) {
        let records = corpus(&jobs);
        let dir = case_dir("readers", 3);
        let _ = std::fs::remove_dir_all(&dir);
        let shared = SharedRegistry::create(&dir, 3).unwrap();
        let func = XorFunc::from_bits(&[14, 18]);
        let stop = AtomicBool::new(false);
        let panicked: Result<(), String> = std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..2 {
                let (shared, stop) = (&shared, &stop);
                readers.push(scope.spawn(move || {
                    let mut last_generation = 0u64;
                    loop {
                        let snap = shared.snapshot();
                        // Generations never move backwards for a reader.
                        if snap.generation < last_generation {
                            return Err("generation went backwards".to_string());
                        }
                        last_generation = snap.generation;
                        // Whatever snapshot we got is internally consistent:
                        // index and scan agree, and the fingerprint index
                        // resolves every entry.
                        if snap.mem.machines_sharing(func) != snap.mem.machines_sharing_scan(func) {
                            return Err("index/scan disagreement".to_string());
                        }
                        for entry in snap.mem.entries() {
                            if snap.mem.lookup(entry.fingerprint).is_none() {
                                return Err(format!("entry {:016x} unresolvable", entry.fingerprint));
                            }
                        }
                        if stop.load(Ordering::Relaxed) {
                            return Ok(());
                        }
                    }
                }));
            }
            for chunk in records.chunks(batch) {
                shared.publish(chunk).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                reader.join().expect("reader thread")?;
            }
            Ok(())
        });
        prop_assert!(panicked.is_ok(), "{:?}", panicked);
        // The final snapshot equals a registry built by direct insertion.
        let mut direct = MemRegistry::new();
        for r in &records {
            direct.insert(&r.mapping, r.source.clone());
        }
        prop_assert_eq!(&shared.snapshot().mem, &direct);
        // And a reopen from disk agrees with the published snapshot.
        drop(shared);
        let reopened = SharedRegistry::open(&dir).unwrap();
        prop_assert_eq!(&reopened.snapshot().mem, &direct);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
