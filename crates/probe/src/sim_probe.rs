//! Probe backed by the [`dram_sim`] substrate.

use dram_model::PhysAddr;
use dram_sim::{PhysMemory, SimConfig, SimMachine};

use crate::probe::{MemoryProbe, ProbeStats};

/// Default number of alternating access rounds per measurement.
pub const DEFAULT_ROUNDS: u32 = 12;

/// Rounds used under heavy-noise profiles (see [`rounds_for`]).
pub const NOISY_ROUNDS: u32 = 16;

/// The measurement-rounds budget matched to a machine's noise profile: the
/// median-of-rounds filter needs a deeper sample when the simulator injects
/// a TRR-like periodic spike or an elevated outlier rate, and wasting rounds
/// on quiet machines would slow every tool down for nothing. The scenario
/// evaluation derives each probe's rounds from the scenario's [`SimConfig`]
/// through this one function so all tools see the same channel quality.
pub fn rounds_for(config: &SimConfig) -> u32 {
    if config.timing.trr_period > 0 || config.timing.outlier_probability > 0.02 {
        NOISY_ROUNDS
    } else {
        DEFAULT_ROUNDS
    }
}

/// A [`MemoryProbe`] that measures latencies on a [`SimMachine`].
///
/// For each measurement the probe accesses the two addresses alternately for
/// a number of rounds and reports the *median* per-access latency, which
/// suppresses the occasional outlier the simulator injects (as real tools
/// suppress interrupts/refresh spikes).
#[derive(Debug, Clone)]
pub struct SimProbe {
    machine: SimMachine,
    memory: PhysMemory,
    rounds: u32,
    measurements: u64,
    /// Reused latency buffer: a grid run takes millions of measurements,
    /// so per-measurement allocation is measurable wall time.
    scratch: Vec<u64>,
}

impl SimProbe {
    /// Creates a probe over a simulated machine and page pool.
    pub fn new(machine: SimMachine, memory: PhysMemory) -> Self {
        SimProbe {
            machine,
            memory,
            rounds: DEFAULT_ROUNDS,
            measurements: 0,
            scratch: Vec::new(),
        }
    }

    /// Sets the number of alternating rounds per measurement.
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1, "at least one round is required");
        self.rounds = rounds;
        self
    }

    /// Shared access to the underlying simulated machine (e.g. to read the
    /// ground truth for verification after reverse engineering).
    pub fn machine(&self) -> &SimMachine {
        &self.machine
    }

    /// Exclusive access to the underlying simulated machine (the rowhammer
    /// harness hammers through the same controller the probe measured).
    pub fn machine_mut(&mut self) -> &mut SimMachine {
        &mut self.machine
    }

    /// Consumes the probe and returns the machine.
    pub fn into_machine(self) -> SimMachine {
        self.machine
    }

    /// One measurement's accesses, each latency handed to `sink`.
    fn run(machine: &mut SimMachine, a: PhysAddr, b: PhysAddr, rounds: u32, sink: impl FnMut(u64)) {
        let controller = machine.controller_mut();
        // Start from a clean row-buffer state, as real tools do by touching
        // unrelated memory / waiting between measurements.
        controller.close_all_rows();
        // A warm-up access opens a's row, then `rounds` alternations b, a
        // measure the steady state: one alternating run of 2·rounds + 1
        // accesses from a, whose first latency is dropped.
        controller.access_alternating(a, b, 2 * u64::from(rounds) + 1, sink);
    }
}

impl MemoryProbe for SimProbe {
    fn measure_pair(&mut self, a: PhysAddr, b: PhysAddr) -> u64 {
        let scratch = &mut self.scratch;
        scratch.clear();
        Self::run(&mut self.machine, a, b, self.rounds, |latency| {
            scratch.push(latency)
        });
        self.measurements += 1;
        // The median is the element a full sort would put at the midpoint;
        // selection finds exactly that element without sorting the rest.
        let samples = &mut self.scratch[1..];
        let mid = samples.len() / 2;
        *samples.select_nth_unstable(mid).1
    }

    /// The median of the `2·rounds` samples is their sorted index `rounds`,
    /// and it reaches `threshold_ns` exactly when at most `rounds` samples
    /// fall below it: counting those answers the question with the same
    /// accesses as [`MemoryProbe::measure_pair`], without a buffer or a
    /// selection.
    fn reaches_threshold(&mut self, a: PhysAddr, b: PhysAddr, threshold_ns: u64) -> bool {
        let (mut warm_up, mut below) = (true, 0u64);
        Self::run(&mut self.machine, a, b, self.rounds, |latency| {
            below += u64::from(!warm_up && latency < threshold_ns);
            warm_up = false;
        });
        self.measurements += 1;
        below <= u64::from(self.rounds)
    }

    fn memory(&self) -> &PhysMemory {
        &self.memory
    }

    fn stats(&self) -> ProbeStats {
        let sim = self.machine.controller().stats();
        ProbeStats {
            measurements: self.measurements,
            accesses: sim.accesses,
            elapsed_ns: sim.elapsed_ns,
            ..ProbeStats::default()
        }
    }

    fn rounds(&self) -> u32 {
        self.rounds
    }

    fn begin_phase(&mut self, salt: u64) {
        self.machine.controller_mut().begin_phase(salt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::{DramAddress, MachineSetting};
    use dram_sim::SimConfig;

    fn probe(noiseless: bool) -> SimProbe {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let config = if noiseless {
            SimConfig::noiseless()
        } else {
            SimConfig::default()
        };
        let machine = SimMachine::from_setting(&setting, config);
        SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes))
    }

    #[test]
    fn sbdr_pair_measures_conflict_latency() {
        let mut p = probe(true);
        let truth = p.machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(2, 10, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(2, 900, 0)).unwrap();
        let lat = p.measure_pair(a, b);
        assert_eq!(
            lat,
            p.machine().controller().config().timing.row_conflict_ns
        );
    }

    #[test]
    fn same_row_and_cross_bank_pairs_measure_hit_latency() {
        let mut p = probe(true);
        let truth = p.machine().ground_truth().clone();
        let hit = p.machine().controller().config().timing.row_hit_ns;
        let a = truth.to_phys(DramAddress::new(2, 10, 0)).unwrap();
        let same_row = truth.to_phys(DramAddress::new(2, 10, 256)).unwrap();
        let other_bank = truth.to_phys(DramAddress::new(5, 10, 0)).unwrap();
        assert_eq!(p.measure_pair(a, same_row), hit);
        assert_eq!(p.measure_pair(a, other_bank), hit);
    }

    #[test]
    fn median_suppresses_noise_outliers() {
        let mut p = probe(false).with_rounds(16);
        let truth = p.machine().ground_truth().clone();
        let timing = p.machine().controller().config().timing;
        let a = truth.to_phys(DramAddress::new(1, 5, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(1, 700, 0)).unwrap();
        let c = truth.to_phys(DramAddress::new(4, 9, 0)).unwrap();
        for _ in 0..20 {
            let conflict = p.measure_pair(a, b);
            let no_conflict = p.measure_pair(a, c);
            assert!(
                conflict > timing.oracle_threshold_ns(),
                "conflict {conflict}"
            );
            assert!(
                no_conflict < timing.oracle_threshold_ns(),
                "no conflict {no_conflict}"
            );
        }
    }

    #[test]
    fn stats_track_measurements_and_accesses() {
        let mut p = probe(true);
        let truth = p.machine().ground_truth().clone();
        let a = truth.to_phys(DramAddress::new(0, 1, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(0, 2, 0)).unwrap();
        p.measure_pair(a, b);
        p.measure_pair(a, b);
        let s = p.stats();
        assert_eq!(s.measurements, 2);
        assert_eq!(s.accesses, u64::from(p.rounds()) * 4 + 2);
        assert!(s.elapsed_ns > 0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = probe(true).with_rounds(0);
    }

    #[test]
    fn rounds_match_the_noise_profile() {
        assert_eq!(rounds_for(&SimConfig::noiseless()), DEFAULT_ROUNDS);
        assert_eq!(rounds_for(&SimConfig::default()), DEFAULT_ROUNDS);
        assert_eq!(rounds_for(&SimConfig::trr_noise()), NOISY_ROUNDS);
        let mut outliers = SimConfig::default();
        outliers.timing.outlier_probability = 0.05;
        assert_eq!(rounds_for(&outliers), NOISY_ROUNDS);
    }

    #[test]
    fn median_suppresses_trr_spikes_at_the_noisy_rounds_budget() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let config = SimConfig::trr_noise();
        let rounds = rounds_for(&config);
        let machine = SimMachine::from_setting(&setting, config);
        let mut p = SimProbe::new(machine, PhysMemory::full(setting.system.capacity_bytes))
            .with_rounds(rounds);
        let truth = p.machine().ground_truth().clone();
        let timing = p.machine().controller().config().timing;
        let a = truth.to_phys(DramAddress::new(1, 5, 0)).unwrap();
        let b = truth.to_phys(DramAddress::new(1, 700, 0)).unwrap();
        let c = truth.to_phys(DramAddress::new(4, 9, 0)).unwrap();
        for _ in 0..30 {
            assert!(p.measure_pair(a, b) > timing.oracle_threshold_ns());
            assert!(p.measure_pair(a, c) < timing.oracle_threshold_ns());
        }
    }
}
