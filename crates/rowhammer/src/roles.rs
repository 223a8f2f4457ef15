//! The attack side decomposed into three composable roles.
//!
//! A rowhammer test is a pipeline of three decisions — *where* to attack,
//! *how* to drive the aggressor accesses, and *what* to do with the flips
//! the DRAM produces. Splitting them into [`Allocator`], [`Hammerer`] and
//! [`Victim`] traits lets the harness, the flip-adjacency observable and
//! future channels mix strategies without rewriting the drive loop
//! ([`crate::harness::run_attack`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dram_model::PhysAddr;
use dram_sim::{BitFlip, MemoryController};

use crate::attacker::AttackerView;

/// Chooses victim locations to attack.
pub trait Allocator {
    /// Proposes the next victim address, or `None` when the allocation
    /// strategy is exhausted.
    fn next_victim(&mut self, view: &AttackerView) -> Option<PhysAddr>;
}

/// Uniform random victim selection over the module's physical capacity —
/// the strategy of the paper's Table-III methodology.
#[derive(Debug)]
pub struct RandomAllocator {
    rng: StdRng,
    capacity: u64,
    remaining: usize,
}

impl RandomAllocator {
    /// Draws up to `victims` cache-line-aligned addresses below `capacity`
    /// from a deterministic stream seeded with `seed`.
    pub fn new(capacity: u64, victims: usize, seed: u64) -> Self {
        RandomAllocator {
            rng: StdRng::seed_from_u64(seed),
            capacity,
            remaining: victims,
        }
    }
}

impl Allocator for RandomAllocator {
    fn next_victim(&mut self, _view: &AttackerView) -> Option<PhysAddr> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(PhysAddr::new(self.rng.gen_range(0..self.capacity) & !0x3f))
    }
}

/// The outcome of asking a [`Hammerer`] to attack one victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HammerAttempt {
    /// The aggressor set was constructed and hammered.
    Hammered {
        /// The addresses that were driven.
        aggressors: Vec<PhysAddr>,
        /// Whether the strategy *intended* a double-sided sandwich (used by
        /// the harness's ground-truth adjacency diagnostic).
        double_sided_intent: bool,
    },
    /// The attacker's view could not construct aggressors for this victim
    /// (edge row, inconsistent model).
    Skipped,
}

/// Drives the aggressor access pattern for one victim.
pub trait Hammerer {
    /// Builds the aggressor set for `victim` under `view` and hammers it
    /// through `controller`.
    fn hammer(
        &mut self,
        controller: &mut MemoryController,
        view: &AttackerView,
        victim: PhysAddr,
    ) -> HammerAttempt;
}

/// Classic double-sided hammering: the two rows the attacker believes to be
/// directly above and below the victim, accessed alternately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleSidedHammerer {
    /// Alternating iterations per pair (each touches both aggressors once).
    pub iterations: u32,
}

impl Hammerer for DoubleSidedHammerer {
    fn hammer(
        &mut self,
        controller: &mut MemoryController,
        view: &AttackerView,
        victim: PhysAddr,
    ) -> HammerAttempt {
        let Some((below, above)) = view.aggressors_for(victim) else {
            return HammerAttempt::Skipped;
        };
        controller.access_alternating(below, above, 2 * u64::from(self.iterations), |_| {});
        HammerAttempt::Hammered {
            aggressors: vec![below, above],
            double_sided_intent: true,
        }
    }
}

/// Single-sided hammering: only the believed row above the victim, paired
/// with a far-away partner in the same believed bank to keep evicting the
/// row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleSidedHammerer {
    /// Alternating iterations per pair (each touches both addresses once).
    pub iterations: u32,
}

impl Hammerer for SingleSidedHammerer {
    fn hammer(
        &mut self,
        controller: &mut MemoryController,
        view: &AttackerView,
        victim: PhysAddr,
    ) -> HammerAttempt {
        let row = view.row_of(victim);
        if row + 1 >= view.num_rows() {
            return HammerAttempt::Skipped;
        }
        let Some(aggressor) = view.with_row(victim, row + 1) else {
            return HammerAttempt::Skipped;
        };
        let far_row = (row + view.num_rows() / 2) % view.num_rows();
        let Some(partner) = view.with_row(victim, far_row) else {
            return HammerAttempt::Skipped;
        };
        controller.access_alternating(aggressor, partner, 2 * u64::from(self.iterations), |_| {});
        HammerAttempt::Hammered {
            aggressors: vec![aggressor, partner],
            double_sided_intent: false,
        }
    }
}

/// Consumes the bit flips an attack produced.
pub trait Victim {
    /// Called once per attack with every flip materialised during it.
    fn observe(&mut self, flips: &[BitFlip]);
}

/// Keeps every observed flip for later analysis (the engine-consumable
/// result the flip-adjacency observable is built on).
#[derive(Debug, Default)]
pub struct FlipTally {
    flips: Vec<BitFlip>,
}

impl FlipTally {
    /// The flips observed so far.
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Consumes the tally and returns the flips.
    pub fn into_flips(self) -> Vec<BitFlip> {
        self.flips
    }
}

impl Victim for FlipTally {
    fn observe(&mut self, flips: &[BitFlip]) {
        self.flips.extend_from_slice(flips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;
    use dram_sim::{SimConfig, SimMachine};

    #[test]
    fn random_allocator_is_deterministic_and_bounded() {
        let setting = MachineSetting::no1_sandy_bridge_ddr3_8g();
        let view = AttackerView::from_mapping(setting.mapping());
        let capacity = setting.system.capacity_bytes;
        let draw = |seed| -> Vec<PhysAddr> {
            let mut alloc = RandomAllocator::new(capacity, 16, seed);
            std::iter::from_fn(|| alloc.next_victim(&view)).collect()
        };
        let a = draw(7);
        assert_eq!(a.len(), 16);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|v| v.raw() < capacity && v.raw() & 0x3f == 0));
    }

    #[test]
    fn double_sided_hammerer_builds_true_sandwiches() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let truth = machine.ground_truth().clone();
        let view = AttackerView::from_mapping(&truth);
        let victim = truth
            .to_phys(dram_model::DramAddress::new(2, 300, 0))
            .unwrap();
        let mut hammerer = DoubleSidedHammerer { iterations: 10 };
        let attempt = hammerer.hammer(machine.controller_mut(), &view, victim);
        let HammerAttempt::Hammered {
            aggressors,
            double_sided_intent,
        } = attempt
        else {
            panic!("expected a hammered attempt");
        };
        assert!(double_sided_intent);
        let rows: Vec<u32> = aggressors.iter().map(|&a| truth.row_of(a)).collect();
        assert_eq!(rows, vec![299, 301]);
        // An edge-row victim cannot be sandwiched.
        let edge = truth
            .to_phys(dram_model::DramAddress::new(2, 0, 0))
            .unwrap();
        assert_eq!(
            hammerer.hammer(machine.controller_mut(), &view, edge),
            HammerAttempt::Skipped
        );
    }

    #[test]
    fn flip_tally_accumulates() {
        let mut tally = FlipTally::default();
        let flip = BitFlip {
            bank: 0,
            row: 5,
            byte: 1,
            bit: 2,
            one_to_zero: true,
        };
        tally.observe(&[flip]);
        tally.observe(&[flip, flip]);
        assert_eq!(tally.flips().len(), 3);
        assert_eq!(tally.into_flips().len(), 3);
    }
}
