//! # DRAMDig — knowledge-assisted DRAM address-mapping reverse engineering
//!
//! This crate implements the algorithm of *DRAMDig: A Knowledge-assisted Tool
//! to Uncover DRAM Address Mapping* (Wang, Zhang, Cheng, Nepal — DAC 2020).
//! Given only a timing side channel (row-buffer conflicts, exposed through
//! [`mem_probe::MemoryProbe`]) and *domain knowledge* about the machine
//! (DDR specs, `dmidecode` output, empirical observations about Intel bank
//! hashing), it deterministically recovers how physical addresses map to DRAM
//! banks, rows and columns.
//!
//! The pipeline mirrors Figure 1 of the paper:
//!
//! 1. **Coarse row & column bit detection** ([`coarse`]) — single-bit-flip
//!    latency measurements classify the physical address bits that index rows
//!    and columns *and do not participate in bank functions*.
//! 2. **Bank address function resolving** ([`select`], [`partition`],
//!    [`functions`]) — Algorithm 1 selects a pool of physical addresses
//!    covering all bank-bit combinations, Algorithm 2 partitions them into
//!    same-bank piles using the timing channel, Algorithm 3 searches XOR
//!    masks that are constant per pile, removes GF(2)-redundant candidates
//!    and checks that the surviving functions number the piles correctly.
//! 3. **Fine-grained row & column bit detection** ([`fine`]) — resolves the
//!    row/column bits that are *shared* with bank functions, using two-bit
//!    function measurements, the DDR-spec bit counts and the empirical
//!    observation about the widest function's lowest bit.
//!
//! The end-to-end driver is [`DramDig`]; it produces an
//! [`dram_model::AddressMapping`] plus a [`RunReport`] with per-phase cost
//! accounting (used to regenerate Figure 2 of the paper). [`DramDig`] is a
//! thin wrapper over the [`engine::PipelineEngine`], which runs the phases
//! of [`Phase::ALL`] in order with per-phase checkpoints (resume a killed
//! run from its last phase boundary with a byte-identical report), a
//! measurement cap and a stop point checked at phase boundaries, and
//! structured progress events — see the [`engine`] module docs.
//!
//! # Example
//!
//! ```
//! use dram_model::MachineSetting;
//! use dram_sim::{PhysMemory, SimConfig, SimMachine};
//! use mem_probe::SimProbe;
//! use dramdig::{DomainKnowledge, DramDig, DramDigConfig};
//!
//! // Simulate the paper's machine No.4 (Haswell, DDR3 4 GiB).
//! let setting = MachineSetting::no4_haswell_ddr3_4g();
//! let machine = SimMachine::from_setting(&setting, SimConfig::default());
//! let memory = PhysMemory::full(setting.system.capacity_bytes);
//! let mut probe = SimProbe::new(machine, memory);
//!
//! let knowledge = DomainKnowledge::new(setting.system, Some(setting.microarch));
//! let mut dramdig = DramDig::new(knowledge, DramDigConfig::default());
//! let report = dramdig.run(&mut probe)?;
//! assert!(report.mapping.equivalent_to(setting.mapping()));
//! # Ok::<(), dramdig::DramDigError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod artifact;
pub mod coarse;
pub mod codec;
pub mod config;
pub mod driver;
pub mod engine;
pub mod error;
pub mod fine;
pub mod functions;
pub mod knowledge;
pub mod partition;
pub mod report;
pub mod select;
pub mod trace;

pub use artifact::{CheckpointStore, PhaseArtifact, PhaseCheckpoint};
pub use codec::CodecError;
pub use config::{DramDigConfig, PartitionStrategy};
pub use driver::{DramDig, Phase, PhaseCosts, RunReport};
pub use engine::{EngineEvent, EngineOptions, NullObserver, Observer, PipelineEngine};
pub use error::DramDigError;
pub use knowledge::DomainKnowledge;
pub use report::RecoveryReport;
pub use trace::TelemetryObserver;

pub use dram_model::{AddressMapping, PhysAddr, XorFunc};
