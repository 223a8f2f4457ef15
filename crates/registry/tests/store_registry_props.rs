//! Property: exporting a campaign's mapping store (`store.txt`'s
//! [`MemRegistry`]) into the sharded on-disk registry and loading it back
//! reproduces the store exactly — the import path (`dramdig registry
//! import`) loses nothing and invents nothing, for any mix of machines,
//! basis presentations and shard counts.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use dram_model::{AddressMapping, MachineSetting, XorFunc};
use registry::{DiskRegistry, MemRegistry, Source};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A machine's mapping presented under a basis variant (XOR-folding
/// adjacent functions): same GF(2) span, different rows.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn imported_registry_reproduces_the_store(
        jobs in proptest::collection::vec((1u8..=9, 0u8..4), 1..10),
        shards in 1u32..8,
    ) {
        let mut store = MemRegistry::new();
        for (i, (machine, v)) in jobs.iter().enumerate() {
            store.insert(
                &variant_mapping(*machine, *v),
                Source::new(format!("No.{machine}"), format!("m{machine}-s{i}-fast")),
            );
        }

        // Export → sharded disk registry → reopen → load.
        let dir = std::env::temp_dir().join(format!(
            "dramdig-registry-import-props-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut disk = DiskRegistry::create(&dir, shards).unwrap();
        disk.append(&store.records()).unwrap();
        let mem = DiskRegistry::open(&dir).unwrap().load().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        // The loaded registry is the store, entry for entry, and encodes
        // to the same `store.txt` bytes — the resume-identity format.
        prop_assert_eq!(&mem, &store);
        prop_assert_eq!(mem.encode(), store.encode());
    }
}
