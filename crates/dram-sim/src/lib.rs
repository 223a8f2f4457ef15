//! A software DRAM substrate for address-mapping reverse engineering.
//!
//! The DRAMDig paper evaluates on nine physical Intel machines. This crate
//! replaces the physical machines with a simulator that reproduces the two
//! observables the reverse-engineering tools rely on:
//!
//! 1. **Row-buffer-conflict timing** — accessing two addresses that live in
//!    the same bank but different rows ("SBDR") repeatedly re-opens rows and
//!    is measurably slower than accessing addresses in the same row or in
//!    different banks ([`MemoryController::access`]).
//! 2. **Rowhammer bit flips** — rows whose neighbours are activated many
//!    times within one refresh window leak charge and flip bits
//!    ([`rowhammer::FlipModel`]), with double-sided hammering far more
//!    effective than single-sided.
//!
//! The simulator is configured with a ground-truth [`AddressMapping`] (for
//! the paper's machines, from [`dram_model::MachineSetting`]), which lets the
//! test-suite check that the reverse-engineering tools recover exactly the
//! mapping the "hardware" uses — something that is impossible on real
//! hardware.
//!
//! # Example
//!
//! ```
//! use dram_model::MachineSetting;
//! use dram_sim::{SimConfig, SimMachine};
//!
//! let setting = MachineSetting::no4_haswell_ddr3_4g();
//! let mut machine = SimMachine::new(setting.mapping().clone(), SimConfig::default());
//! let a = dram_model::PhysAddr::new(0x100000);
//! let lat = machine.controller_mut().access(a);
//! assert!(lat > 0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod controller;
mod noise;
pub mod phys_mem;
pub mod rowhammer;
pub mod stats;

pub use config::{SimConfig, TimingParams};
pub use controller::{MemoryController, SimMachine};
pub use phys_mem::{AllocationPolicy, PhysMemory};
pub use rowhammer::{BitFlip, FlipModel, FlipModelParams};
pub use stats::SimStats;

pub use dram_model::{AddressMapping, DramAddress, PhysAddr};
