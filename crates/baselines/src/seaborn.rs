//! Re-implementation of Seaborn & Dullien's approach (Black Hat 2015).
//!
//! Seaborn et al. did not have a timing tool at all: they ran a *blind*
//! rowhammer test (hammering random address pairs for hours), observed which
//! pairs induced bit flips, and combined those observations with an educated
//! guess about the memory controller of their specific Sandy Bridge machine.
//! The result is correct but neither generic nor efficient: the blind test
//! takes hours and must be redone whenever the machine setting changes
//! (Table I of the DRAMDig paper).
//!
//! The re-implementation keeps both ingredients: a blind hammering survey on
//! the simulated machine (which dominates the time cost) and the published
//! Sandy Bridge mapping guess, which is only returned when the machine really
//! is the Sandy Bridge setting the guess was made for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dram_model::{MachineSetting, Microarch, PhysAddr};
use dram_sim::SimMachine;

use crate::outcome::{BaselineError, ToolOutcome};

/// Configuration of the blind rowhammer survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeabornConfig {
    /// Number of random address pairs hammered during the blind survey.
    pub survey_pairs: usize,
    /// Hammer iterations per pair.
    pub iterations_per_pair: u32,
    /// RNG seed for pair selection.
    pub rng_seed: u64,
}

impl Default for SeabornConfig {
    fn default() -> Self {
        SeabornConfig {
            survey_pairs: 200,
            iterations_per_pair: 2_000,
            rng_seed: 0x5EAB,
        }
    }
}

/// The Seaborn et al. blind-rowhammer approach.
#[derive(Debug, Clone)]
pub struct Seaborn {
    config: SeabornConfig,
}

impl Seaborn {
    /// Creates an instance with the given survey configuration.
    pub fn new(config: SeabornConfig) -> Self {
        Seaborn { config }
    }

    /// Creates an instance with default configuration.
    pub fn with_defaults() -> Self {
        Seaborn::new(SeabornConfig::default())
    }

    /// Runs the blind survey on the simulated machine and, if the machine is
    /// the Sandy Bridge setting the published guess applies to, returns that
    /// mapping.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::NotApplicable`] for every non-Sandy-Bridge
    /// machine: the approach is machine-specific by construction.
    pub fn run(
        &mut self,
        machine: &mut SimMachine,
        microarch: Microarch,
    ) -> Result<ToolOutcome, BaselineError> {
        let mut outcome = ToolOutcome::new("Seaborn et al.");
        let mut rng = StdRng::seed_from_u64(self.config.rng_seed);
        let capacity = machine.ground_truth().capacity_bytes();
        let start_ns = machine.controller().elapsed_ns();

        // Blind survey: hammer random page pairs and count the flips — this
        // is the "blind rowhammer test" whose results Seaborn et al. analysed
        // by hand, and it is what makes the approach cost hours.
        let mut observed_flips = 0usize;
        let controller = machine.controller_mut();
        for _ in 0..self.config.survey_pairs {
            let a = PhysAddr::new(rng.gen_range(0..capacity) & !0xfff);
            let b = PhysAddr::new(rng.gen_range(0..capacity) & !0xfff);
            let accesses = 2 * u64::from(self.config.iterations_per_pair);
            controller.access_alternating(a, b, accesses, |_| {});
            controller.refresh();
            observed_flips += controller.take_flips().len();
        }
        outcome.elapsed_ns = machine.controller().elapsed_ns() - start_ns;
        outcome.measurements = self.config.survey_pairs as u64;
        outcome
            .notes
            .push(format!("blind survey observed {observed_flips} bit flips"));

        if microarch != Microarch::SandyBridge {
            return Err(BaselineError::NotApplicable {
                tool: "Seaborn et al.",
                reason: format!(
                    "the published educated guess only covers Sandy Bridge, not {microarch}"
                ),
            });
        }

        // The published Sandy Bridge guess (machine setting No.1).
        let guess = MachineSetting::no1_sandy_bridge_ddr3_8g();
        let mapping = guess.mapping().clone();
        outcome.functions = mapping.bank_funcs().to_vec();
        outcome.row_bits = mapping.row_bits().to_vec();
        outcome.column_bits = mapping.column_bits().to_vec();
        outcome.mapping = Some(mapping);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::SimConfig;

    fn small_survey() -> SeabornConfig {
        SeabornConfig {
            survey_pairs: 10,
            iterations_per_pair: 200,
            rng_seed: 1,
        }
    }

    #[test]
    fn returns_the_published_guess_on_sandy_bridge() {
        let setting = MachineSetting::no1_sandy_bridge_ddr3_8g();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let outcome = Seaborn::new(small_survey())
            .run(&mut machine, setting.microarch)
            .unwrap();
        assert!(outcome.matches(setting.mapping()));
        assert!(outcome.elapsed_ns > 0);
    }

    #[test]
    fn refuses_other_microarchitectures() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let err = Seaborn::new(small_survey())
            .run(&mut machine, setting.microarch)
            .unwrap_err();
        assert!(matches!(err, BaselineError::NotApplicable { .. }));
    }

    #[test]
    fn survey_cost_scales_with_pairs() {
        let setting = MachineSetting::no1_sandy_bridge_ddr3_8g();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let short = Seaborn::new(SeabornConfig {
            survey_pairs: 5,
            iterations_per_pair: 100,
            rng_seed: 1,
        })
        .run(&mut machine, setting.microarch)
        .unwrap();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let long = Seaborn::new(SeabornConfig {
            survey_pairs: 50,
            iterations_per_pair: 100,
            rng_seed: 1,
        })
        .run(&mut machine, setting.microarch)
        .unwrap();
        assert!(long.elapsed_ns > short.elapsed_ns * 5);
    }
}
