//! The simulated memory controller.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dram_model::{
    AddressMapping, DramAddress, GeneratedMachine, MachineSetting, PhysAddr, RowRemap,
};

use crate::config::SimConfig;
use crate::noise;
use crate::rowhammer::{sample_standard_normal, BitFlip, FlipModel};
use crate::stats::SimStats;

/// A simulated memory controller in front of one DRAM module.
///
/// Each access is decoded through the configured (ground-truth)
/// [`AddressMapping`], served by the per-bank row buffer and charged a
/// latency that depends on whether it hit the open row, found the bank
/// precharged, or conflicted with a different open row. Latencies include
/// configurable Gaussian noise and rare outliers so that the
/// reverse-engineering algorithms have to cope with realistic measurements.
///
/// Row activations feed the [`FlipModel`]; refresh windows close all rows and
/// materialise rowhammer bit flips.
#[derive(Debug, Clone)]
pub struct MemoryController {
    mapping: AddressMapping,
    config: SimConfig,
    open_rows: Vec<Option<u32>>,
    flip_model: FlipModel,
    rng: StdRng,
    stats: SimStats,
    next_refresh_ns: u64,
    /// Optional in-DRAM row remapping: the row index the DRAM array (row
    /// buffers, adjacency, rowhammer) actually uses is
    /// `remap.apply(mapping row)`. Being a bijection per bank, it changes
    /// *which* physical rows are neighbours but never whether two addresses
    /// conflict — it is invisible to the timing channel by construction.
    row_remap: Option<RowRemap>,
    /// Per-bank activation counters driving the TRR-like periodic noise
    /// (see [`crate::TimingParams::trr_period`]).
    trr_counters: Vec<u64>,
    /// The kernel's noise buffer: a lane the (fixed) timing never draws
    /// keeps its fill from [`noise::Chunk::new`].
    chunk: noise::Chunk,
}

impl MemoryController {
    /// Creates a controller for a module wired according to `mapping`.
    pub fn new(mapping: AddressMapping, config: SimConfig) -> Self {
        let banks = mapping.num_banks() as usize;
        let rows = mapping.num_rows();
        MemoryController {
            open_rows: vec![None; banks],
            flip_model: FlipModel::new(config.flip_params, rows),
            rng: StdRng::seed_from_u64(config.rng_seed),
            stats: SimStats::new(),
            next_refresh_ns: config.refresh_interval_ns,
            row_remap: None,
            trr_counters: vec![0; banks],
            chunk: noise::Chunk::new(),
            mapping,
            config,
        }
    }

    /// Installs an in-DRAM row remapping (builder style).
    #[must_use]
    pub fn with_row_remap(mut self, remap: RowRemap) -> Self {
        self.row_remap = Some(remap);
        self
    }

    /// The installed row remapping, if any.
    pub fn row_remap(&self) -> Option<RowRemap> {
        self.row_remap
    }

    /// The row index the DRAM array uses for `addr` (mapping row pushed
    /// through the remap when one is installed).
    pub fn array_row(&self, addr: PhysAddr) -> u32 {
        let row = self.mapping.row_of(addr);
        self.row_remap.map_or(row, |r| r.apply(row))
    }

    /// The ground-truth mapping the controller decodes addresses with.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Simulated nanoseconds elapsed since construction.
    pub fn elapsed_ns(&self) -> u64 {
        self.stats.elapsed_ns
    }

    /// Performs one uncached memory access and returns its latency in
    /// simulated nanoseconds.
    ///
    /// This models the `clflush`-then-load measurement loop used by the real
    /// tools: caches play no role, only the DRAM row-buffer state does.
    pub fn access(&mut self, addr: PhysAddr) -> u64 {
        let dram = self.mapping.to_dram(addr);
        self.access_decoded(dram.bank, dram.row)
    }

    /// One access at pre-decoded coordinates — the body of
    /// [`MemoryController::access`] after address decoding.
    ///
    /// This is the reference implementation of an access, kept as the twin
    /// the alternating-pair kernel
    /// ([`MemoryController::access_alternating`]) is tested against: it
    /// records each activation in the flip model as it happens and draws
    /// its noise through the libm Box–Muller sampler
    /// (`rowhammer::sample_standard_normal`).
    pub fn access_decoded(&mut self, bank: u32, logical_row: u32) -> u64 {
        let row = self.row_remap.map_or(logical_row, |r| r.apply(logical_row));
        let timing = self.config.timing;
        let slot = &mut self.open_rows[bank as usize];
        let mut activated = false;
        let base = match *slot {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                timing.row_hit_ns
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.flip_model.record_activation(bank, row);
                activated = true;
                timing.row_conflict_ns
            }
            None => {
                self.stats.row_empty += 1;
                self.flip_model.record_activation(bank, row);
                activated = true;
                timing.row_closed_ns
            }
        };
        *slot = Some(row);

        let mut latency = base as f64;
        if activated && timing.trr_period > 0 {
            let counter = &mut self.trr_counters[bank as usize];
            *counter += 1;
            if counter.is_multiple_of(timing.trr_period) {
                latency += timing.trr_spike_ns as f64;
            }
        }
        if timing.noise_sigma_ns > 0.0 {
            latency += timing.noise_sigma_ns * sample_standard_normal(&mut self.rng);
        }
        if timing.outlier_probability > 0.0 && self.rng.gen::<f64>() < timing.outlier_probability {
            latency += timing.outlier_extra_ns as f64;
        }
        let latency = latency.max(1.0).round() as u64;

        self.stats.accesses += 1;
        self.stats.elapsed_ns += latency;
        while self.stats.elapsed_ns >= self.next_refresh_ns {
            self.refresh();
        }
        latency
    }

    /// The alternating-pair kernel: `accesses` accesses alternating between
    /// `first` and `second` (first, second, first, …), each latency handed
    /// to `sink` in order. Every fixed-pair loop runs through here: a probe
    /// measurement, a hammer burst, a blind rowhammer survey.
    ///
    /// The effect is bit-identical to calling [`MemoryController::access`]
    /// on the same sequence — same latencies, RNG draws in the same order,
    /// refreshes, TRR spikes, rowhammer pressure and flips — and the tests
    /// compare it against the reference twin
    /// [`MemoryController::access_decoded`]. Only the cost differs:
    /// - each address is decoded once;
    /// - the two aggressors' activations are counted in locals and flushed
    ///   into the flip model before every refresh and on return;
    /// - a noisy profile runs in chunks of up to 32 accesses (`noise::CHUNK`):
    ///   draw the chunk's uniforms, round its noise in vector lanes without
    ///   libm, then run the row-buffer loop on integers (see `noise`). A
    ///   refresh inside a chunk may draw (flip sampling), so the kernel
    ///   rewinds the RNG to the chunk's start, replays the draws of the
    ///   accesses already made, refreshes and starts a new chunk;
    /// - a noiseless profile makes no draws and skips the chunks.
    pub fn access_alternating(
        &mut self,
        first: PhysAddr,
        second: PhysAddr,
        accesses: u64,
        mut sink: impl FnMut(u64),
    ) {
        let targets =
            [first, second].map(|addr| (self.mapping.bank_of(addr), self.array_row(addr)));
        let mut pending = [0u32; 2];
        let timing = self.config.timing;
        let mut done = 0;
        if noise::draws(&timing) {
            while done < accesses {
                let len = (accesses - done).min(noise::CHUNK as u64);
                let start = self.rng.clone();
                self.chunk.draw(&mut self.rng, &timing, len as usize);
                let made = self.run_accesses(
                    targets,
                    &mut pending,
                    done,
                    len,
                    &mut sink,
                    |chunk, lane, quiet| chunk.latency(lane, quiet, &timing),
                );
                if made < len {
                    // A refresh fell due inside the chunk, and it may draw:
                    // leave the RNG where the reference has it then, after
                    // the draws of the accesses made so far.
                    self.rng = start;
                    self.chunk.draw(&mut self.rng, &timing, made as usize);
                }
                done += made;
                self.refresh_if_due(targets, &mut pending);
            }
        } else {
            while done < accesses {
                done += self.run_accesses(
                    targets,
                    &mut pending,
                    done,
                    accesses - done,
                    &mut sink,
                    |_, _, quiet| quiet.max(1),
                );
                self.refresh_if_due(targets, &mut pending);
            }
        }
        self.flush_pressure(targets, &mut pending);
    }

    /// The reference's refresh check after an access, for the kernel: the
    /// pending pressure goes into the flip model first.
    fn refresh_if_due(&mut self, targets: [(u32, u32); 2], pending: &mut [u32; 2]) {
        if self.stats.elapsed_ns >= self.next_refresh_ns {
            self.flush_pressure(targets, pending);
            while self.stats.elapsed_ns >= self.next_refresh_ns {
                self.refresh();
            }
        }
    }

    /// The kernel's row-buffer loop over at most `len` accesses, the first
    /// being access number `done` of the burst: row-buffer and TRR state,
    /// then `latency(chunk, lane, quiet)` for the access's noise-free
    /// latency `quiet`, with the controller's noise buffer as `chunk`. Returns how many accesses it made: `len`, or fewer when a
    /// refresh fell due, which the caller then performs. The statistics
    /// and the refresh deadline stay in locals until it returns.
    #[inline(always)]
    fn run_accesses(
        &mut self,
        targets: [(u32, u32); 2],
        pending: &mut [u32; 2],
        done: u64,
        len: u64,
        sink: &mut impl FnMut(u64),
        latency: impl Fn(&noise::Chunk, usize, u64) -> u64,
    ) -> u64 {
        let timing = self.config.timing;
        let next_refresh_ns = self.next_refresh_ns;
        let mut stats = self.stats;
        let mut made = 0;
        while made < len {
            let slot = ((done + made) & 1) as usize;
            let (bank, row) = targets[slot];
            let open = &mut self.open_rows[bank as usize];
            let (base, activated) = match *open {
                Some(open) if open == row => {
                    stats.row_hits += 1;
                    (timing.row_hit_ns, false)
                }
                Some(_) => {
                    stats.row_conflicts += 1;
                    (timing.row_conflict_ns, true)
                }
                None => {
                    stats.row_empty += 1;
                    (timing.row_closed_ns, true)
                }
            };
            *open = Some(row);

            let mut quiet = base;
            if activated {
                pending[slot] += 1;
                if timing.trr_period > 0 {
                    let counter = &mut self.trr_counters[bank as usize];
                    *counter += 1;
                    if counter.is_multiple_of(timing.trr_period) {
                        quiet += timing.trr_spike_ns;
                    }
                }
            }
            let latency = latency(&self.chunk, made as usize, quiet);
            stats.accesses += 1;
            stats.elapsed_ns += latency;
            sink(latency);
            made += 1;
            if stats.elapsed_ns >= next_refresh_ns {
                break;
            }
        }
        self.stats = stats;
        made
    }

    /// Moves the kernel's locally counted activations into the flip model.
    fn flush_pressure(&mut self, targets: [(u32, u32); 2], pending: &mut [u32; 2]) {
        for ((bank, row), count) in targets.into_iter().zip(pending) {
            self.flip_model
                .record_activations(bank, row, std::mem::take(count));
        }
    }

    /// Decodes an address without touching the row buffers (oracle access,
    /// used only by tests and the experiment harness for verification).
    pub fn decode(&self, addr: PhysAddr) -> DramAddress {
        self.mapping.to_dram(addr)
    }

    /// Forces a refresh: all banks are precharged, hammer pressure is
    /// evaluated for bit flips and then cleared.
    pub fn refresh(&mut self) {
        self.flip_model.refresh(&mut self.rng);
        for slot in &mut self.open_rows {
            *slot = None;
        }
        self.stats.refreshes += 1;
        self.next_refresh_ns = self
            .next_refresh_ns
            .max(self.stats.elapsed_ns)
            .saturating_add(self.config.refresh_interval_ns);
    }

    /// Precharges all banks without evaluating rowhammer pressure
    /// (models an idle period long enough for row buffers to close).
    pub fn close_all_rows(&mut self) {
        for slot in &mut self.open_rows {
            *slot = None;
        }
    }

    /// Re-aligns the controller's stochastic state to a phase boundary: the
    /// noise stream is re-seeded from the configured seed mixed with `salt`,
    /// all row buffers close, pending hammer pressure *and* already
    /// materialised (but not yet collected) bit flips are discarded, and the
    /// next refresh is scheduled one full window from now.
    ///
    /// After this call both the latency sequence and the flip record
    /// produced by a given access sequence are a pure function of
    /// `(config, salt)` — independent of everything measured or hammered
    /// before the boundary. The pipeline engine uses this (through
    /// `MemoryProbe::begin_phase`) so that a phase replayed after a
    /// checkpoint resume observes bit-identical measurements, and observable
    /// channels that hammer use it so stale flips from an earlier phase are
    /// never attributed to the current one.
    pub fn begin_phase(&mut self, salt: u64) {
        self.rng = StdRng::seed_from_u64(self.config.rng_seed ^ salt);
        self.close_all_rows();
        self.flip_model.clear_pressure();
        let _ = self.flip_model.take_flips();
        for counter in &mut self.trr_counters {
            *counter = 0;
        }
        self.next_refresh_ns = self
            .stats
            .elapsed_ns
            .saturating_add(self.config.refresh_interval_ns);
    }

    /// Advances the simulated clock without performing accesses.
    pub fn advance_time(&mut self, ns: u64) {
        self.stats.elapsed_ns += ns;
        while self.stats.elapsed_ns >= self.next_refresh_ns {
            self.refresh();
        }
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        self.open_rows.get(bank as usize).copied().flatten()
    }

    /// Bit flips accumulated since the last [`MemoryController::take_flips`].
    pub fn flips(&self) -> &[BitFlip] {
        self.flip_model.flips()
    }

    /// Returns and clears the accumulated bit flips.
    pub fn take_flips(&mut self) -> Vec<BitFlip> {
        self.flip_model.take_flips()
    }

    /// Returns and clears the accumulated bit flips with each flip's row
    /// translated from DRAM-array coordinates back into address-space
    /// (mapping) rows — the view an attacker scanning memory for corrupted
    /// data actually gets. Without a row remap the two coordinate systems
    /// coincide; with one, the XOR involution inverts itself, so the
    /// reported row is the one the mapping assigns to the corrupted
    /// address.
    pub fn take_flips_addressed(&mut self) -> Vec<BitFlip> {
        let remap = self.row_remap;
        let mut flips = self.flip_model.take_flips();
        if let Some(r) = remap {
            for flip in &mut flips {
                flip.row = r.apply(flip.row);
            }
        }
        flips
    }

    /// Access to the flip model (tests and the rowhammer harness).
    pub fn flip_model(&self) -> &FlipModel {
        &self.flip_model
    }
}

/// A simulated machine: the memory controller plus the machine setting it
/// was built from (if any).
#[derive(Debug, Clone)]
pub struct SimMachine {
    controller: MemoryController,
    setting: Option<MachineSetting>,
    generated: Option<GeneratedMachine>,
}

impl SimMachine {
    /// Creates a machine from an explicit ground-truth mapping.
    pub fn new(mapping: AddressMapping, config: SimConfig) -> Self {
        SimMachine {
            controller: MemoryController::new(mapping, config),
            setting: None,
            generated: None,
        }
    }

    /// Creates a machine simulating one of the paper's Table-II settings.
    pub fn from_setting(setting: &MachineSetting, config: SimConfig) -> Self {
        SimMachine {
            controller: MemoryController::new(setting.mapping().clone(), config),
            setting: Some(setting.clone()),
            generated: None,
        }
    }

    /// Creates a machine simulating a [`GeneratedMachine`] sampled by
    /// [`dram_model::MachineGen`], wiring its row remap (when present) into
    /// the controller.
    pub fn from_generated(machine: &GeneratedMachine, config: SimConfig) -> Self {
        let mut controller = MemoryController::new(machine.mapping().clone(), config);
        if let Some(remap) = machine.row_remap {
            controller = controller.with_row_remap(remap);
        }
        SimMachine {
            controller,
            setting: None,
            generated: Some(machine.clone()),
        }
    }

    /// The machine setting this simulator models, if it was built from one.
    pub fn setting(&self) -> Option<&MachineSetting> {
        self.setting.as_ref()
    }

    /// The generated machine model this simulator runs, if it was built from
    /// one.
    pub fn generated(&self) -> Option<&GeneratedMachine> {
        self.generated.as_ref()
    }

    /// The ground-truth mapping (the "answer key" for verification).
    pub fn ground_truth(&self) -> &AddressMapping {
        self.controller.mapping()
    }

    /// Shared access to the memory controller.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Exclusive access to the memory controller.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.controller
    }
}

#[cfg(test)]
mod kernel_props;

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::MappingBuilder;

    fn small_mapping() -> AddressMapping {
        // A tiny 1 MiB module: 4 banks, 64 rows, 4 KiB rows.
        MappingBuilder::new()
            .bank_func(&[12, 14])
            .bank_func(&[13, 15])
            .row_bit_range(14, 19)
            .column_bit_range(0, 11)
            .build()
            .unwrap()
    }

    fn controller_noiseless() -> MemoryController {
        MemoryController::new(small_mapping(), SimConfig::noiseless())
    }

    #[test]
    fn first_access_finds_bank_empty() {
        let mut c = controller_noiseless();
        let lat = c.access(PhysAddr::new(0));
        assert_eq!(lat, c.config().timing.row_closed_ns);
        assert_eq!(c.stats().row_empty, 1);
    }

    #[test]
    fn same_row_hits_after_open() {
        let mut c = controller_noiseless();
        let a = PhysAddr::new(0x10);
        c.access(a);
        let lat = c.access(a + 8);
        assert_eq!(lat, c.config().timing.row_hit_ns);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn sbdr_pair_conflicts_every_time() {
        let mut c = controller_noiseless();
        let m = c.mapping().clone();
        let a = m.to_phys(DramAddress::new(1, 3, 0)).unwrap();
        let b = m.to_phys(DramAddress::new(1, 7, 0)).unwrap();
        c.access(a);
        let mut conflict_lat = 0;
        for _ in 0..10 {
            conflict_lat = c.access(b).max(c.access(a));
        }
        assert_eq!(conflict_lat, c.config().timing.row_conflict_ns);
        assert!(c.stats().row_conflicts >= 20);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut c = controller_noiseless();
        let m = c.mapping().clone();
        let a = m.to_phys(DramAddress::new(0, 3, 0)).unwrap();
        let b = m.to_phys(DramAddress::new(2, 9, 0)).unwrap();
        c.access(a);
        c.access(b);
        // Alternating accesses now always hit their own open row.
        for _ in 0..10 {
            assert_eq!(c.access(a), c.config().timing.row_hit_ns);
            assert_eq!(c.access(b), c.config().timing.row_hit_ns);
        }
    }

    #[test]
    fn open_row_tracking_and_close_all() {
        let mut c = controller_noiseless();
        let m = c.mapping().clone();
        let a = m.to_phys(DramAddress::new(3, 5, 0)).unwrap();
        c.access(a);
        assert_eq!(c.open_row(3), Some(5));
        c.close_all_rows();
        assert_eq!(c.open_row(3), None);
        assert_eq!(c.open_row(99), None);
    }

    #[test]
    fn refresh_advances_schedule_and_counts() {
        let mut c = controller_noiseless();
        let before = c.stats().refreshes;
        c.refresh();
        assert_eq!(c.stats().refreshes, before + 1);
        // A long idle period triggers automatic refreshes.
        c.advance_time(c.config().refresh_interval_ns * 3);
        assert!(c.stats().refreshes >= before + 2);
    }

    #[test]
    fn elapsed_time_accumulates_latencies() {
        let mut c = controller_noiseless();
        let l1 = c.access(PhysAddr::new(0));
        let l2 = c.access(PhysAddr::new(0x100000 - 8));
        assert_eq!(c.elapsed_ns(), l1 + l2);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn noise_produces_varying_latencies() {
        let mut c = MemoryController::new(small_mapping(), SimConfig::default());
        let a = PhysAddr::new(0);
        let lats: Vec<u64> = (0..50).map(|_| c.access(a)).collect();
        let distinct: std::collections::HashSet<u64> = lats.iter().copied().collect();
        assert!(distinct.len() > 3, "noisy latencies should vary");
    }

    #[test]
    fn decode_matches_mapping() {
        let c = controller_noiseless();
        let m = c.mapping().clone();
        let addr = PhysAddr::new(0x4_2000);
        assert_eq!(c.decode(addr), m.to_dram(addr));
    }

    #[test]
    fn sim_machine_from_setting_exposes_ground_truth() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let machine = SimMachine::from_setting(&setting, SimConfig::noiseless());
        assert!(machine.ground_truth().equivalent_to(setting.mapping()));
        assert_eq!(machine.setting().unwrap().number, 4);
        let anon = SimMachine::new(small_mapping(), SimConfig::noiseless());
        assert!(anon.setting().is_none());
    }

    #[test]
    fn trr_sampler_spikes_periodically_and_only_on_activations() {
        let mut config = SimConfig::noiseless();
        config.timing.trr_period = 4;
        config.timing.trr_spike_ns = 500;
        let mut c = MemoryController::new(small_mapping(), config.clone());
        let m = c.mapping().clone();
        let a = m.to_phys(DramAddress::new(1, 3, 0)).unwrap();
        let b = m.to_phys(DramAddress::new(1, 7, 0)).unwrap();
        let conflict = c.config().timing.row_conflict_ns;
        let spike = c.config().timing.trr_spike_ns;
        // Alternating SBDR accesses: every access activates, so every 4th
        // one pays the deterministic spike. The first access finds the bank
        // empty (activation #1); 25 more alternations follow.
        let mut latencies = vec![c.access(a)];
        for _ in 0..25 {
            latencies.push(c.access(b));
            latencies.push(c.access(a));
        }
        let spiked = latencies.iter().filter(|&&l| l > conflict).count();
        assert_eq!(spiked, latencies.len() / 4);
        assert!(latencies.iter().all(|&l| l <= conflict + spike));
        // Row hits do not activate and therefore never trigger the sampler.
        let mut c = MemoryController::new(small_mapping(), config);
        c.access(a);
        for _ in 0..20 {
            assert!(c.access(a) <= c.config().timing.row_hit_ns);
        }
    }

    #[test]
    fn row_remap_is_invisible_to_conflict_timing() {
        let remap = dram_model::RowRemap { xor_mask: 0b1010 };
        let mut plain = MemoryController::new(small_mapping(), SimConfig::noiseless());
        let mut remapped =
            MemoryController::new(small_mapping(), SimConfig::noiseless()).with_row_remap(remap);
        let m = plain.mapping().clone();
        let a = m.to_phys(DramAddress::new(1, 3, 0)).unwrap();
        let b = m.to_phys(DramAddress::new(1, 7, 0)).unwrap();
        let c_addr = m.to_phys(DramAddress::new(1, 3, 64)).unwrap();
        for addr in [a, b, c_addr, a, a, b] {
            assert_eq!(plain.access(addr), remapped.access(addr));
        }
        // The DRAM array row differs even though the timing does not.
        assert_eq!(plain.array_row(a), 3);
        assert_eq!(remapped.array_row(a), 3 ^ 0b1010);
        assert_eq!(remapped.row_remap(), Some(remap));
        assert_eq!(plain.row_remap(), None);
    }

    #[test]
    fn from_generated_wires_mapping_and_remap() {
        use dram_model::{MachineClass, MachineGen};
        let gen = MachineGen::new(7).generate(MachineClass::RowRemap);
        let machine = SimMachine::from_generated(&gen, SimConfig::noiseless());
        assert!(machine.ground_truth().equivalent_to(gen.mapping()));
        assert_eq!(machine.controller().row_remap(), gen.row_remap);
        assert_eq!(machine.generated().unwrap().label, gen.label);
        assert!(machine.setting().is_none());

        let in_scope = MachineGen::new(7).generate(MachineClass::InScope);
        let machine = SimMachine::from_generated(&in_scope, SimConfig::noiseless());
        assert_eq!(machine.controller().row_remap(), None);
    }

    fn hammer_victim(c: &mut MemoryController, victim_row: u32) {
        let m = c.mapping().clone();
        let above = m.to_phys(DramAddress::new(0, victim_row + 1, 0)).unwrap();
        let below = m.to_phys(DramAddress::new(0, victim_row - 1, 0)).unwrap();
        for _ in 0..40_000 {
            c.access(above);
            c.access(below);
        }
        c.refresh();
    }

    #[test]
    fn addressed_flips_invert_the_row_remap() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        // A high-bit mask keeps consecutive rows consecutive inside each
        // aligned 64-row block, so a double-sided attack on logical rows
        // r±1 really pressures the array row remap(r).
        let remap = dram_model::RowRemap {
            xor_mask: 0b100_0000,
        };
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        *machine.controller_mut() = machine.controller().clone().with_row_remap(remap);
        let flip_model = machine.controller().flip_model().clone();
        let victim_row = (8..5_000u32)
            .find(|&r| {
                (1..=62).contains(&(r & 63))
                    && flip_model.row_vulnerability(0, remap.apply(r)) > 0.3
            })
            .unwrap();
        hammer_victim(machine.controller_mut(), victim_row);
        let c = machine.controller_mut();
        let raw: Vec<u32> = c.flips().iter().map(|f| f.row).collect();
        let addressed = c.take_flips_addressed();
        assert!(!addressed.is_empty());
        // Raw flips sit in array coordinates; addressed flips undo the
        // involution, landing back on the logical victim row.
        assert!(raw.contains(&remap.apply(victim_row)));
        assert!(addressed.iter().any(|f| f.row == victim_row));
        for (r, a) in raw.iter().zip(&addressed) {
            assert_eq!(remap.apply(*r), a.row);
        }
    }

    #[test]
    fn begin_phase_discards_materialised_flips() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let flip_model = machine.controller().flip_model().clone();
        let victim_row = (1..5_000u32)
            .find(|&r| flip_model.row_vulnerability(0, r) > 0.3)
            .unwrap();
        hammer_victim(machine.controller_mut(), victim_row);
        assert!(!machine.controller().flips().is_empty());
        machine.controller_mut().begin_phase(0xF00D);
        assert!(
            machine.controller().flips().is_empty(),
            "a phase boundary must not leak stale flips into the next phase"
        );
    }

    #[test]
    fn hammering_through_controller_produces_flips() {
        let setting = MachineSetting::no4_haswell_ddr3_4g();
        let mut machine = SimMachine::from_setting(&setting, SimConfig::fast_rowhammer());
        let truth = machine.ground_truth().clone();
        // Find a vulnerable victim row and hammer its neighbours.
        let flip_model = machine.controller().flip_model().clone();
        let victim_row = (1..5_000u32)
            .find(|&r| flip_model.row_vulnerability(0, r) > 0.3)
            .unwrap();
        let above = truth
            .to_phys(DramAddress::new(0, victim_row + 1, 0))
            .unwrap();
        let below = truth
            .to_phys(DramAddress::new(0, victim_row - 1, 0))
            .unwrap();
        let c = machine.controller_mut();
        for _ in 0..40_000 {
            c.access(above);
            c.access(below);
        }
        c.refresh();
        let flips = c.take_flips();
        assert!(
            flips.iter().any(|f| f.row == victim_row),
            "alternating access to the two neighbours must flip the victim"
        );
    }
}
