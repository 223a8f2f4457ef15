//! Vocabulary types for DRAM address-mapping reverse engineering.
//!
//! This crate provides everything the rest of the workspace shares:
//!
//! * [`PhysAddr`] — a physical address newtype with bit-level helpers.
//! * [`XorFunc`] — an Intel-style bank address function (a XOR of physical
//!   address bits).
//! * [`AddressMapping`] — a full physical-address → DRAM-address mapping
//!   (bank functions + row bits + column bits) together with its inverse.
//! * [`gf2`] — dense GF(2) linear algebra used to remove linearly dependent
//!   candidate functions and to invert mappings.
//! * [`DdrSpec`], [`SystemInfo`] — the "domain knowledge" of the DRAMDig
//!   paper (Section III-A): DDR3/DDR4 specification data and
//!   `dmidecode`-style system information.
//! * [`MachineSetting`] — the nine evaluation machines of Table II with
//!   their ground-truth mappings, which the simulator uses and the
//!   reverse-engineering tools are checked against.
//! * [`MachineGen`] — a deterministic sampler of valid-by-construction
//!   machine models beyond Table II (split windows, wide functions, row
//!   remapping), feeding the scenario-matrix evaluation.
//! * [`fingerprint`] — content addressing: basis-invariant FNV-1a
//!   fingerprints over the canonical RREF codec, keying the mapping
//!   registry.
//!
//! # Example
//!
//! ```
//! use dram_model::{MachineSetting, PhysAddr};
//!
//! let setting = MachineSetting::no1_sandy_bridge_ddr3_8g();
//! let mapping = setting.mapping();
//! let dram = mapping.to_dram(PhysAddr::new(0x1234_5678));
//! let back = mapping.to_phys(dram).expect("mapping is a bijection");
//! assert_eq!(back, PhysAddr::new(0x1234_5678));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod addr;
pub mod bits;
pub mod error;
pub mod fingerprint;
pub mod gf2;
pub mod machine_gen;
pub mod mapping;
pub mod parse;
pub mod settings;
pub mod spec;
pub mod xor_func;

pub use addr::{DramAddress, PhysAddr};
pub use error::ModelError;
pub use machine_gen::{mix_seed, GeneratedMachine, MachineClass, MachineGen, RowRemap};
pub use mapping::{AddressMapping, MappingBuilder};
pub use settings::{MachineSetting, Microarch};
pub use spec::{DdrGeneration, DdrSpec, DramGeometry, SystemInfo};
pub use xor_func::XorFunc;

/// Size of a standard 4 KiB page, used throughout the workspace.
pub const PAGE_SIZE: u64 = 4096;

/// Number of address bits covered by a 4 KiB page (`log2(PAGE_SIZE)`).
pub const PAGE_SHIFT: u32 = 12;
