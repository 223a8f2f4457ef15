//! Double-sided and single-sided hammering loops.

use dram_model::PhysAddr;
use dram_sim::{BitFlip, SimMachine};

use crate::attacker::AttackerView;
use crate::roles::{
    Allocator, DoubleSidedHammerer, FlipTally, HammerAttempt, Hammerer, RandomAllocator,
    SingleSidedHammerer, Victim,
};

/// Parameters of one rowhammer test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerConfig {
    /// Number of victim locations attempted in this test.
    pub victims: usize,
    /// Alternating access iterations per aggressor pair (each iteration
    /// touches both aggressors once).
    pub iterations_per_pair: u32,
    /// Optional cap on the simulated time of the whole test, in nanoseconds;
    /// the test stops early once the simulated clock advanced this far. This
    /// is how the "5 minute" tests of Table III are expressed.
    pub duration_ns: Option<u64>,
    /// Seed for victim selection.
    pub rng_seed: u64,
}

impl Default for HammerConfig {
    fn default() -> Self {
        HammerConfig {
            victims: 64,
            iterations_per_pair: 6_000,
            duration_ns: None,
            rng_seed: 0x4A44,
        }
    }
}

impl HammerConfig {
    /// A very small test for unit tests and doc examples.
    pub fn quick() -> Self {
        HammerConfig {
            victims: 4,
            iterations_per_pair: 500,
            duration_ns: None,
            rng_seed: 0x4A44,
        }
    }

    /// A test bounded by simulated duration (Table III uses five simulated
    /// "minutes" scaled to the fast rowhammer configuration).
    pub fn timed(duration_ns: u64, seed: u64) -> Self {
        HammerConfig {
            victims: usize::MAX,
            iterations_per_pair: 6_000,
            duration_ns: Some(duration_ns),
            rng_seed: seed,
        }
    }
}

/// Result of one hammering test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HammerResult {
    /// Bit flips induced during the test.
    pub flips: usize,
    /// Victim locations for which aggressor addresses could be constructed
    /// and hammered.
    pub pairs_attempted: usize,
    /// Victim locations skipped because the attacker's view could not build
    /// aggressors (edge rows, inconsistent model).
    pub pairs_skipped: usize,
    /// Diagnostic (uses the simulator's ground truth): how many hammered
    /// pairs really were same-bank rows exactly two apart.
    pub truly_double_sided: usize,
    /// Simulated nanoseconds the test consumed.
    pub elapsed_ns: u64,
}

impl HammerResult {
    /// Simulated seconds the test consumed.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// Fraction of hammered pairs that were truly double-sided.
    pub fn adjacency_rate(&self) -> f64 {
        if self.pairs_attempted == 0 {
            0.0
        } else {
            self.truly_double_sided as f64 / self.pairs_attempted as f64
        }
    }
}

/// Drives one rowhammer attack from its three composable roles: the
/// [`Allocator`] proposes victims, the [`Hammerer`] builds and drives
/// aggressors for each, and the [`Victim`] observes every flip the attack
/// materialised. The optional `duration_ns` budget of `cfg` is honoured
/// between victims.
///
/// Counting semantics are identical to the original monolithic loops: flips
/// are drained once up front and collected once at the end (with a final
/// refresh), so mid-attack refresh windows accumulate rather than reset the
/// tally.
pub fn run_attack(
    machine: &mut SimMachine,
    view: &AttackerView,
    cfg: &HammerConfig,
    allocator: &mut dyn Allocator,
    hammerer: &mut dyn Hammerer,
    victim_role: &mut dyn Victim,
) -> HammerResult {
    let truth = machine.ground_truth().clone();
    let start_ns = machine.controller().elapsed_ns();
    let mut result = HammerResult::default();
    machine.controller_mut().take_flips();

    loop {
        if let Some(limit) = cfg.duration_ns {
            if machine.controller().elapsed_ns() - start_ns >= limit {
                break;
            }
        }
        let Some(victim) = allocator.next_victim(view) else {
            break;
        };
        match hammerer.hammer(machine.controller_mut(), view, victim) {
            HammerAttempt::Skipped => result.pairs_skipped += 1,
            HammerAttempt::Hammered {
                aggressors,
                double_sided_intent,
            } => {
                if double_sided_intent && aggressors.len() == 2 {
                    let v = truth.to_dram(victim);
                    let b = truth.to_dram(aggressors[0]);
                    let a = truth.to_dram(aggressors[1]);
                    if b.bank == v.bank
                        && a.bank == v.bank
                        && b.row.abs_diff(a.row) == 2
                        && a.row != b.row
                    {
                        result.truly_double_sided += 1;
                    }
                }
                result.pairs_attempted += 1;
            }
        }
    }
    let controller = machine.controller_mut();
    controller.refresh();
    let flips = controller.take_flips();
    victim_role.observe(&flips);
    result.flips = flips.len();
    result.elapsed_ns = controller.elapsed_ns() - start_ns;
    result
}

/// Runs a double-sided rowhammer test: for each victim the two addresses the
/// attacker believes to be the adjacent rows are hammered alternately.
pub fn run_double_sided(
    machine: &mut SimMachine,
    view: &AttackerView,
    cfg: &HammerConfig,
) -> HammerResult {
    let capacity = machine.ground_truth().capacity_bytes();
    run_attack(
        machine,
        view,
        cfg,
        &mut RandomAllocator::new(capacity, cfg.victims, cfg.rng_seed),
        &mut DoubleSidedHammerer {
            iterations: cfg.iterations_per_pair,
        },
        &mut FlipTally::default(),
    )
}

/// Runs a single-sided test: only the row the attacker believes to be just
/// above the victim is hammered (together with a far-away address in the same
/// believed bank to keep evicting the row buffer).
pub fn run_single_sided(
    machine: &mut SimMachine,
    view: &AttackerView,
    cfg: &HammerConfig,
) -> HammerResult {
    let capacity = machine.ground_truth().capacity_bytes();
    run_attack(
        machine,
        view,
        cfg,
        &mut RandomAllocator::new(capacity, cfg.victims, cfg.rng_seed),
        &mut SingleSidedHammerer {
            iterations: cfg.iterations_per_pair,
        },
        &mut FlipTally::default(),
    )
}

/// Hammers one believed-adjacent aggressor pair and returns every flip it
/// induced, attributed to address-space rows (the remap involution — when
/// the module has one — is already undone, as an attacker scanning memory
/// for corrupted data would see it). This is the engine-consumable primitive
/// the flip-adjacency observable is built on.
///
/// The refresh window is re-aligned before hammering (one refresh up front)
/// so the whole burst lands inside a single window; a burst split across a
/// refresh boundary would have its aggressor pressure evaluated in two
/// halves that may both sit below the flip thresholds.
pub fn hammer_pair(
    machine: &mut SimMachine,
    a: PhysAddr,
    b: PhysAddr,
    iterations: u32,
) -> Vec<BitFlip> {
    let controller = machine.controller_mut();
    controller.refresh();
    controller.take_flips();
    controller.access_alternating(a, b, 2 * u64::from(iterations), |_| {});
    controller.refresh();
    controller.take_flips_addressed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MachineSetting;
    use dram_sim::SimConfig;

    fn machine(number: u8) -> (SimMachine, MachineSetting) {
        let setting = MachineSetting::by_number(number).unwrap();
        (
            SimMachine::from_setting(&setting, SimConfig::fast_rowhammer()),
            setting,
        )
    }

    fn test_config() -> HammerConfig {
        HammerConfig {
            victims: 24,
            iterations_per_pair: 3_000,
            duration_ns: None,
            rng_seed: 7,
        }
    }

    #[test]
    fn correct_mapping_induces_flips() {
        let (mut m, setting) = machine(1);
        let view = AttackerView::from_mapping(setting.mapping());
        let result = run_double_sided(&mut m, &view, &test_config());
        assert_eq!(result.pairs_attempted + result.pairs_skipped, 24);
        assert_eq!(result.truly_double_sided, result.pairs_attempted);
        assert!(
            result.flips > 0,
            "correct double-sided hammering must flip bits"
        );
        assert!(result.elapsed_ns > 0);
    }

    #[test]
    fn incomplete_mapping_induces_fewer_flips() {
        let (mut m_good, setting) = machine(1);
        let truth = setting.mapping();
        let good = AttackerView::from_mapping(truth);
        let good_result = run_double_sided(&mut m_good, &good, &test_config());

        // DRAMA-style view: right functions, but missing the shared row bits.
        let shared = truth.shared_row_bits();
        let partial_rows: Vec<u8> = truth
            .row_bits()
            .iter()
            .copied()
            .filter(|b| !shared.contains(b))
            .collect();
        let bad = AttackerView::new(truth.bank_funcs().to_vec(), partial_rows);
        let (mut m_bad, _) = machine(1);
        let bad_result = run_double_sided(&mut m_bad, &bad, &test_config());

        assert_eq!(bad_result.truly_double_sided, 0);
        assert!(
            good_result.flips > bad_result.flips * 2,
            "good {} vs bad {}",
            good_result.flips,
            bad_result.flips
        );
    }

    #[test]
    fn double_sided_beats_single_sided_with_the_same_budget() {
        let (mut m1, setting) = machine(4);
        let view = AttackerView::from_mapping(setting.mapping());
        let double = run_double_sided(&mut m1, &view, &test_config());
        let (mut m2, _) = machine(4);
        let single = run_single_sided(&mut m2, &view, &test_config());
        assert!(
            double.flips > single.flips,
            "double {} vs single {}",
            double.flips,
            single.flips
        );
    }

    #[test]
    fn timed_test_respects_duration() {
        let (mut m, setting) = machine(1);
        let view = AttackerView::from_mapping(setting.mapping());
        let cfg = HammerConfig::timed(20_000_000, 3);
        let result = run_double_sided(&mut m, &view, &cfg);
        // One extra pair may start just before the deadline.
        assert!(result.elapsed_ns < 20_000_000 + 10_000_000);
        assert!(result.pairs_attempted > 0);
    }

    #[test]
    fn hammer_pair_matches_a_plain_access_loop_on_a_remapped_machine() {
        use dram_model::{DramAddress, MachineClass, MachineGen};
        let generated = MachineGen::new(11).generate(MachineClass::RowRemap);
        let remap = generated
            .row_remap
            .expect("row-remap class carries a remap");
        let mut fast = SimMachine::from_generated(&generated, SimConfig::fast_rowhammer());
        let mut plain = fast.clone();
        let mapping = generated.mapping().clone();
        let mut total_flips = 0;
        for victim in (8..mapping.num_rows() - 8).step_by(997).take(12) {
            // Aggressors physically adjacent to the victim, addressed through
            // the remap involution so the burst is truly double-sided.
            let aggressor = |row: u32| {
                mapping
                    .to_phys(DramAddress::new(1, remap.apply(row), 0))
                    .unwrap()
            };
            let (a, b) = (aggressor(victim - 1), aggressor(victim + 1));
            let flips = hammer_pair(&mut fast, a, b, 3_000);
            let controller = plain.controller_mut();
            controller.refresh();
            controller.take_flips();
            for _ in 0..3_000 {
                controller.access(a);
                controller.access(b);
            }
            controller.refresh();
            assert_eq!(flips, controller.take_flips_addressed(), "victim {victim}");
            assert_eq!(fast.controller().elapsed_ns(), controller.elapsed_ns());
            total_flips += flips.len();
        }
        assert!(total_flips > 0, "the bursts must flip something to compare");
    }

    #[test]
    fn adjacency_rate_diagnostic() {
        let r = HammerResult {
            flips: 0,
            pairs_attempted: 10,
            pairs_skipped: 0,
            truly_double_sided: 5,
            elapsed_ns: 0,
        };
        assert!((r.adjacency_rate() - 0.5).abs() < 1e-12);
        assert_eq!(HammerResult::default().adjacency_rate(), 0.0);
    }
}
