//! Regenerates **Table II** of the paper: the DRAM address mappings DRAMDig
//! uncovers on the nine machine settings, checked against the simulator's
//! ground truth.
//!
//! ```text
//! cargo run --release -p dramdig-bench --bin table2_mappings
//! ```
//!
//! Exits non-zero when any row reads `NO` or `FAILED`.

use dram_model::MachineSetting;
use dramdig::DramDigConfig;
use dramdig_bench::{format_mapping, run_dramdig};

fn main() {
    println!("Table II — reverse-engineered DRAM mappings (DRAMDig, simulated machines)");
    println!(
        "{:<6} {:<14} {:<12} {:<10} {:<75} Matches ground truth",
        "No.", "Microarch", "DRAM", "Config", "Recovered mapping"
    );
    let mut wrong = 0;
    for setting in MachineSetting::all() {
        let result = run_dramdig(&setting, DramDigConfig::default(), 0x7AB1E2);
        match result {
            Ok(report) => {
                let equivalent = report.mapping.equivalent_to(setting.mapping());
                wrong += usize::from(!equivalent);
                println!(
                    "{:<6} {:<14} {:<12} {:<10} {:<75} {}",
                    setting.label(),
                    setting.microarch.to_string(),
                    format!(
                        "{}, {}GiB",
                        setting.system.generation,
                        setting.capacity_gib()
                    ),
                    setting.system.geometry.to_string(),
                    format_mapping(&report.mapping),
                    if equivalent { "yes" } else { "NO" }
                );
            }
            Err(e) => {
                wrong += 1;
                println!(
                    "{:<6} {:<14} FAILED: {e}",
                    setting.label(),
                    setting.microarch.to_string()
                );
            }
        }
    }
    println!();
    println!("Note: bank functions are reported up to GF(2) linear combinations; \"matches ground");
    println!(
        "truth\" means the recovered functions span the same space and the row/column bits are"
    );
    println!("identical to the mapping the simulated memory controller uses.");
    if wrong > 0 {
        eprintln!("table2_mappings: rows not matching ground truth: {wrong}");
        std::process::exit(1);
    }
}
