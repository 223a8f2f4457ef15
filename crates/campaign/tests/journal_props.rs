//! Property tests of the campaign's durability layer: journal replay folds
//! any worker interleaving to the same resume frontier, journal lines
//! round-trip through the hand-rolled JSONL codec, and the mapping store is
//! insertion-order independent.

use proptest::prelude::*;

use campaign::{JournalRecord, JournalState};
use dram_model::{gf2::Gf2Matrix, AddressMapping, MachineSetting, XorFunc};
use dramdig::driver::{Phase, PhaseCosts};
use dramdig::RecoveryReport;
use registry::{MemRegistry, Source};

fn report_for(machine: u8) -> RecoveryReport {
    let setting = MachineSetting::by_number(machine).expect("1..=9");
    RecoveryReport {
        mapping: setting.mapping().clone(),
        pool_size: 100 + usize::from(machine),
        pile_count: 8,
        threshold_ns: 290,
        row_remap: None,
        validation_agreement: Some(0.95),
        phase_costs: vec![(
            Phase::Partition,
            PhaseCosts {
                measurements: u64::from(machine) * 7,
                accesses: 2,
                elapsed_ns: 3,
                cache_hits: 1,
                cache_misses: 2,
            },
        )],
        total: PhaseCosts {
            measurements: u64::from(machine) * 7,
            accesses: 2,
            elapsed_ns: 3,
            cache_hits: 1,
            cache_misses: 2,
        },
    }
}

/// What ultimately happens to one job, as (failures-before-outcome, kind).
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// `failures` failed attempts, then success.
    Completed { failures: u32 },
    /// `attempts` failed attempts, then dead-lettered.
    Dead { attempts: u32 },
    /// `failures` failed attempts so far, still pending.
    Pending { failures: u32 },
}

/// The per-job record sequence a worker would journal for this fate.
fn records_for(job: &str, machine: u8, fate: Fate) -> Vec<JournalRecord> {
    let mut records = Vec::new();
    let failures = match fate {
        Fate::Completed { failures } | Fate::Pending { failures } => failures,
        Fate::Dead { attempts } => attempts.saturating_sub(1),
    };
    for attempt in 1..=failures {
        records.push(JournalRecord::Started {
            job: job.to_string(),
            attempt,
        });
        records.push(JournalRecord::Failed {
            job: job.to_string(),
            attempt,
            reason: format!("noise on attempt {attempt}"),
        });
    }
    match fate {
        Fate::Completed { failures } => {
            records.push(JournalRecord::Started {
                job: job.to_string(),
                attempt: failures + 1,
            });
            records.push(JournalRecord::Completed {
                job: job.to_string(),
                attempt: failures + 1,
                report: report_for(machine),
            });
        }
        Fate::Dead { attempts } => {
            records.push(JournalRecord::Started {
                job: job.to_string(),
                attempt: attempts.max(1),
            });
            records.push(JournalRecord::Dead {
                job: job.to_string(),
                attempts: attempts.max(1),
                reason: "exhausted retries".to_string(),
            });
        }
        Fate::Pending { .. } => {}
    }
    records
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    (0u8..3, 0u32..3).prop_map(|(kind, n)| match kind {
        0 => Fate::Completed { failures: n },
        1 => Fate::Dead { attempts: n + 1 },
        _ => Fate::Pending { failures: n },
    })
}

/// Maps bytes onto a palette heavy in JSON-hostile characters.
fn reason_from_bytes(bytes: &[u8]) -> String {
    const PALETTE: &[char] = &[
        '"', '\\', '\n', '\r', '\t', '{', '}', ':', ',', 'a', 'Z', '0', ' ', 'é', '✓', '\u{1}',
    ];
    bytes
        .iter()
        .map(|&b| PALETTE[usize::from(b) % PALETTE.len()])
        .collect()
}

/// Merges per-job sequences using `choices` to pick which job's next record
/// goes out — an arbitrary worker interleaving that preserves per-job order.
fn interleave(mut sequences: Vec<Vec<JournalRecord>>, choices: &[usize]) -> Vec<JournalRecord> {
    for seq in &mut sequences {
        seq.reverse(); // pop from the back
    }
    let mut merged = Vec::new();
    let mut choices = choices.iter().copied().cycle();
    while sequences.iter().any(|s| !s.is_empty()) {
        let alive: Vec<usize> = (0..sequences.len())
            .filter(|&i| !sequences[i].is_empty())
            .collect();
        let pick = alive[choices.next().unwrap_or(0) % alive.len()];
        merged.push(sequences[pick].pop().expect("alive sequence"));
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_interleaving_replays_to_the_same_frontier(
        fates in proptest::collection::vec((1u8..=9, fate_strategy()), 1..7),
        choices in proptest::collection::vec(0usize..16, 1..64),
    ) {
        // One job per (index, machine): ids are distinct even when machines repeat.
        let sequences: Vec<Vec<JournalRecord>> = fates
            .iter()
            .enumerate()
            .map(|(i, (machine, fate))| {
                records_for(&format!("m{machine}-s{i}-optimized"), *machine, *fate)
            })
            .collect();
        let canonical: Vec<JournalRecord> = sequences.iter().flatten().cloned().collect();
        let shuffled = interleave(sequences, &choices);
        prop_assert_eq!(canonical.len(), shuffled.len());
        let a = JournalState::replay(&canonical);
        let b = JournalState::replay(&shuffled);
        prop_assert_eq!(&a, &b, "frontier must not depend on worker scheduling");
        // The frontier agrees with the fates that produced it.
        for (i, (machine, fate)) in fates.iter().enumerate() {
            let id = format!("m{machine}-s{i}-optimized");
            match fate {
                Fate::Completed { .. } => {
                    prop_assert!(a.completed.contains_key(&id));
                    prop_assert!(!a.dead.contains_key(&id));
                }
                Fate::Dead { .. } => prop_assert!(a.dead.contains_key(&id)),
                Fate::Pending { failures } => {
                    prop_assert!(!a.completed.contains_key(&id));
                    prop_assert!(!a.dead.contains_key(&id));
                    prop_assert_eq!(a.next_attempt(&id), failures + 1);
                }
            }
        }
    }

    #[test]
    fn journal_lines_round_trip_any_reason_string(
        machine in 1u8..=9,
        attempt in 1u32..100,
        reason_bytes in proptest::collection::vec(any::<u8>(), 0..60),
    ) {
        let reason = reason_from_bytes(&reason_bytes);
        let job = format!("m{machine}-s1-fast");
        let records = [
            JournalRecord::Started { job: job.clone(), attempt },
            JournalRecord::Completed { job: job.clone(), attempt, report: report_for(machine) },
            JournalRecord::Failed { job: job.clone(), attempt, reason: reason.clone() },
            JournalRecord::Dead { job, attempts: attempt, reason },
        ];
        for record in &records {
            let line = record.encode_line();
            prop_assert!(!line.contains('\n'));
            prop_assert_eq!(&JournalRecord::decode_line(&line).unwrap(), record);
        }
    }

    #[test]
    fn store_contents_are_insertion_order_independent(
        jobs in proptest::collection::vec((1u8..=9, 0u8..4), 1..12),
        order in proptest::collection::vec(0usize..64, 1..12),
    ) {
        // Each insertion presents its machine's mapping under a basis variant
        // (XOR-combining adjacent functions), so dedup must see through the
        // presentation.
        let variant = |machine: u8, v: u8| -> AddressMapping {
            let mapping = MachineSetting::by_number(machine).unwrap().mapping().clone();
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
        };
        let inserts: Vec<(AddressMapping, Source)> = jobs
            .iter()
            .enumerate()
            .map(|(i, (machine, v))| {
                (
                    variant(*machine, *v),
                    Source::new(format!("No.{machine}"), format!("m{machine}-s{i}-fast")),
                )
            })
            .collect();

        let mut forward = MemRegistry::new();
        for (mapping, source) in &inserts {
            forward.insert(mapping, source.clone());
        }
        // A permutation of the insertion order driven by `order`.
        let mut rest: Vec<&(AddressMapping, Source)> = inserts.iter().collect();
        let mut permuted = MemRegistry::new();
        let mut picks = order.iter().copied().cycle();
        while !rest.is_empty() {
            let pick = picks.next().unwrap_or(0) % rest.len();
            let (mapping, source) = rest.swap_remove(pick);
            permuted.insert(mapping, source.clone());
        }
        prop_assert_eq!(forward.encode(), permuted.encode());
        // Every stored entry's functions span the ground truth's space.
        for entry in forward.entries() {
            let truth = entry
                .sources
                .iter()
                .map(|s| s.machine.trim_start_matches("No.").parse::<u8>().unwrap())
                .map(|n| MachineSetting::by_number(n).unwrap())
                .next()
                .unwrap();
            prop_assert_eq!(
                Gf2Matrix::from_funcs(entry.mapping.bank_funcs()).reduced_row_basis(),
                Gf2Matrix::from_funcs(truth.mapping().bank_funcs()).reduced_row_basis()
            );
        }
        // Decoding the encoded store reproduces it exactly.
        prop_assert_eq!(&MemRegistry::decode(&forward.encode()).unwrap(), &forward);
    }
}
