//! Deterministic generation of valid-by-construction machine models.
//!
//! The paper evaluates on nine fixed machines (Table II), but the
//! interesting failure surface of mapping reverse engineering lies in shapes
//! the paper never enumerated: split row-bit windows, deeper channel/rank
//! interleaving, wider XOR functions, remapped rows. [`MachineGen`] samples
//! such machines from a seed across declared axes:
//!
//! * physical address width 30–39 bits (1 GiB – 512 GiB modules);
//! * 1–2 channels and 1–2 ranks, DDR3 (8 banks/rank) or DDR4 (16);
//! * 3–6 XOR bank functions of varying span;
//! * consecutive vs. split row-bit windows and split column windows;
//! * optional XOR row remapping (an involution on the row index).
//!
//! Every sample is **valid by construction**: the bank-function set has full
//! GF(2) rank, row/column windows are disjoint, and the mapping is a
//! bijection — all re-checked by [`AddressMapping::new`] when the machine is
//! assembled, so a generator bug cannot silently produce an invalid model.
//!
//! Machines come in three [`MachineClass`]es used by the scenario-matrix
//! evaluation:
//!
//! * [`MachineClass::InScope`] — DRAMDig's knowledge assumptions hold and
//!   the pipeline is expected to recover the mapping exactly;
//! * [`MachineClass::WideFunction`] — one bank function spans more bits than
//!   Algorithm 3 enumerates (`MAX_FUNC_BITS`), so the pipeline must *detect*
//!   the failure and report an error rather than return a wrong mapping;
//! * [`MachineClass::RowRemap`] — the controller permutes row indices with
//!   an XOR mask. The permutation is invisible to the conflict timing
//!   channel (row identity sets are unchanged), so the pipeline recovers the
//!   linear skeleton and the evaluation reports the remap as unobservable.

use std::fmt;

use crate::mapping::AddressMapping;
use crate::parse;
use crate::spec::{DdrGeneration, DramGeometry, SystemInfo};
use crate::xor_func::XorFunc;

/// Widest function span (in bits) the DRAMDig pipeline enumerates; the
/// generator keeps in-scope machines at or below this and pushes
/// [`MachineClass::WideFunction`] machines strictly above it.
pub const MAX_IN_SCOPE_SPAN: u32 = 7;

/// A bijective XOR permutation of the row index (`row ^ mask`), modelling
/// in-DRAM row remapping. It is its own inverse and preserves row equality,
/// which is exactly why it cannot be observed through row-buffer conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRemap {
    /// The XOR mask applied to every row index; always below the machine's
    /// row count, so the permutation stays within the row address space.
    pub xor_mask: u32,
}

impl RowRemap {
    /// Applies the remap (an involution: applying it twice is the identity).
    pub const fn apply(self, row: u32) -> u32 {
        row ^ self.xor_mask
    }

    /// Folds a mask onto its reflection-equivalence representative.
    ///
    /// The masks `m` and `m ^ (num_rows - 1)` differ by complementing every
    /// row bit, i.e. by the mirror `row -> num_rows - 1 - row` of the whole
    /// row line. Mirroring preserves which rows are physically adjacent, so
    /// no adjacency evidence — bit flips included — can tell the two masks
    /// apart; they describe the same physical module. This helper picks the
    /// numerically smaller of the pair so equivalent masks compare equal,
    /// and maps the all-ones mask (a pure mirror) onto `0`, i.e. "no
    /// observable remap".
    pub const fn canonical_mask(mask: u32, num_rows: u32) -> u32 {
        let reflected = mask ^ (num_rows - 1);
        if reflected < mask {
            reflected
        } else {
            mask
        }
    }
}

/// Which evaluation class a generated machine belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MachineClass {
    /// DRAMDig's knowledge assumptions hold; exact recovery is expected.
    InScope,
    /// One bank function is wider than Algorithm 3 enumerates; the pipeline
    /// must fail loudly instead of recovering a wrong mapping.
    WideFunction,
    /// Rows are remapped by an XOR mask the timing channel cannot observe;
    /// only the linear skeleton is recoverable.
    RowRemap,
}

impl MachineClass {
    /// Every class, in a stable order.
    pub const ALL: [MachineClass; 3] = [
        MachineClass::InScope,
        MachineClass::WideFunction,
        MachineClass::RowRemap,
    ];

    /// Stable identifier used by the scenario-matrix scoreboard codec.
    pub const fn as_str(self) -> &'static str {
        match self {
            MachineClass::InScope => "in-scope",
            MachineClass::WideFunction => "wide-function",
            MachineClass::RowRemap => "row-remap",
        }
    }

    /// Parses an identifier produced by [`MachineClass::as_str`].
    pub fn from_name(name: &str) -> Option<MachineClass> {
        Self::ALL.into_iter().find(|c| c.as_str() == name)
    }
}

impl fmt::Display for MachineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One sampled machine model: system information consistent with the
/// mapping, the ground-truth mapping itself, and the optional row remap.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedMachine {
    /// Stable identifier derived from the generator seed, e.g.
    /// `g-00000000deadbeef`.
    pub label: String,
    /// System information (capacity, geometry, DDR generation) consistent
    /// with the mapping — what `dmidecode`/`decode-dimms` would report.
    pub system: SystemInfo,
    /// The ground-truth physical-address → DRAM mapping.
    mapping: AddressMapping,
    /// Optional XOR row remapping applied by the simulated controller.
    pub row_remap: Option<RowRemap>,
    /// The evaluation class the machine was generated for.
    pub class: MachineClass,
    /// Human-readable window shape, e.g. `split-rows`.
    pub shape: &'static str,
}

impl GeneratedMachine {
    /// The ground-truth mapping (without the row remap; see
    /// [`GeneratedMachine::row_remap`]).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Widest bank-function span in bits.
    pub fn widest_span(&self) -> u32 {
        self.mapping
            .bank_funcs()
            .iter()
            .map(|f| f.len())
            .max()
            .unwrap_or(0)
    }

    /// One-line axis summary for reports, stable across runs.
    pub fn axes_summary(&self) -> String {
        format!(
            "width={} gen={} channels={} ranks={} funcs={} span={} shape={} remap={} class={}",
            self.system.address_bits(),
            match self.system.generation {
                DdrGeneration::Ddr3 => "ddr3",
                DdrGeneration::Ddr4 => "ddr4",
            },
            self.system.geometry.channels,
            self.system.geometry.ranks_per_dimm,
            self.mapping.bank_funcs().len(),
            self.widest_span(),
            self.shape,
            self.row_remap
                .map_or("none".to_string(), |r| format!("{:#x}", r.xor_mask)),
            self.class,
        )
    }

    /// Serializes the machine as `key = value` lines;
    /// [`GeneratedMachine::decode`] is the exact inverse.
    pub fn encode(&self) -> String {
        let (funcs, rows, cols) = parse::render_mapping(&self.mapping);
        format!(
            concat!(
                "label = {}\n",
                "class = {}\n",
                "shape = {}\n",
                "generation = {}\n",
                "channels = {}\n",
                "ranks = {}\n",
                "capacity_bytes = {}\n",
                "funcs = {}\n",
                "rows = {}\n",
                "cols = {}\n",
                "row_remap = {}\n",
            ),
            self.label,
            self.class,
            self.shape,
            match self.system.generation {
                DdrGeneration::Ddr3 => "ddr3",
                DdrGeneration::Ddr4 => "ddr4",
            },
            self.system.geometry.channels,
            self.system.geometry.ranks_per_dimm,
            self.system.capacity_bytes,
            funcs,
            rows,
            cols,
            self.row_remap
                .map_or("none".to_string(), |r| r.xor_mask.to_string()),
        )
    }

    /// Parses a machine written by [`GeneratedMachine::encode`], re-running
    /// the full mapping validation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a line is malformed, a key is
    /// missing or the decoded pieces do not form a valid machine.
    pub fn decode(text: &str) -> Result<GeneratedMachine, String> {
        let mut fields = std::collections::BTreeMap::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", number + 1))?;
            fields.insert(key.trim().to_string(), value.trim().to_string());
        }
        let get = |key: &str| {
            fields
                .get(key)
                .cloned()
                .ok_or_else(|| format!("missing key `{key}`"))
        };
        let generation = match get("generation")?.as_str() {
            "ddr3" => DdrGeneration::Ddr3,
            "ddr4" => DdrGeneration::Ddr4,
            other => return Err(format!("unknown generation `{other}`")),
        };
        let parse_u64 = |key: &str, v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("invalid `{key}` value `{v}`"))
        };
        let channels = parse_u64("channels", &get("channels")?)? as u32;
        let ranks = parse_u64("ranks", &get("ranks")?)? as u32;
        let capacity = parse_u64("capacity_bytes", &get("capacity_bytes")?)?;
        let mapping = parse::parse_mapping(&get("funcs")?, &get("rows")?, &get("cols")?)
            .map_err(|e| format!("invalid mapping: {e}"))?;
        let class_name = get("class")?;
        let class = MachineClass::from_name(&class_name)
            .ok_or_else(|| format!("unknown class `{class_name}`"))?;
        let row_remap = match get("row_remap")?.as_str() {
            "none" => None,
            value => Some(RowRemap {
                xor_mask: parse_u64("row_remap", value)? as u32,
            }),
        };
        let shape = match get("shape")?.as_str() {
            "consecutive" => "consecutive",
            "wide-tail" => "wide-tail",
            "split-columns" => "split-columns",
            "split-rows" => "split-rows",
            other => return Err(format!("unknown shape `{other}`")),
        };
        let geometry = DramGeometry::new(channels, 1, ranks, generation.banks_per_rank());
        let machine = GeneratedMachine {
            label: get("label")?,
            system: SystemInfo::new(capacity, geometry, generation),
            mapping,
            row_remap,
            class,
            shape,
        };
        machine.verify()?;
        Ok(machine)
    }

    /// Re-checks every construction invariant: the mapping is consistent
    /// with the declared geometry and capacity, the spec-derived bit counts
    /// match, and the remap stays within the row address space.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        if self.mapping.capacity_bytes() != self.system.capacity_bytes {
            return Err(format!(
                "mapping covers {} bytes but the system reports {}",
                self.mapping.capacity_bytes(),
                self.system.capacity_bytes
            ));
        }
        let spec = self.system.spec().map_err(|e| e.to_string())?;
        if spec.bank_bits as usize != self.mapping.bank_funcs().len() {
            return Err(format!(
                "{} bank functions but the geometry implies {}",
                self.mapping.bank_funcs().len(),
                spec.bank_bits
            ));
        }
        if spec.row_bits as usize != self.mapping.row_bits().len() {
            return Err(format!(
                "{} row bits but the spec implies {}",
                self.mapping.row_bits().len(),
                spec.row_bits
            ));
        }
        if spec.column_bits as usize != self.mapping.column_bits().len() {
            return Err(format!(
                "{} column bits but the spec implies {}",
                self.mapping.column_bits().len(),
                spec.column_bits
            ));
        }
        if let Some(remap) = self.row_remap {
            if u64::from(remap.xor_mask) >= u64::from(self.mapping.num_rows()) {
                return Err(format!(
                    "row remap mask {:#x} exceeds the {} rows per bank",
                    remap.xor_mask,
                    self.mapping.num_rows()
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for GeneratedMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.label, self.axes_summary())
    }
}

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijective avalanche of `z`.
const fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for `lane` from `seed`. Grid samplers draw
/// every per-scenario seed (machine, simulator, tool) this way, so a
/// scenario is a pure function of its grid seed and index.
pub const fn mix_seed(seed: u64, lane: u64) -> u64 {
    splitmix_finalize(seed ^ lane.wrapping_mul(GOLDEN_GAMMA))
}

/// A tiny dependency-free SplitMix64 generator: the machine generator must
/// be deterministic and cannot pull the workspace's `rand` stand-in into
/// `dram-model` (which is otherwise dependency-free).
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        splitmix_finalize(self.state)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Draws `count` distinct values from `0..n`, ascending.
    fn distinct(&mut self, n: u64, count: usize) -> Vec<u64> {
        assert!(count as u64 <= n, "cannot draw {count} distinct from {n}");
        let mut picked = Vec::with_capacity(count);
        while picked.len() < count {
            let v = self.below(n);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// Window shape of a sampled machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Columns, pure bank bits, then one consecutive row window; every
    /// function is an isolated two-bit pair (the common Table-II shape).
    Consecutive,
    /// Like [`Shape::Consecutive`] but one function also spans several row
    /// bits (the channel/rank hash of dual-channel machines).
    WideTail,
    /// A column window with a gap; the gap bit anchors the widest function,
    /// which also covers column bits (machines No.1/2/5/6 of Table II).
    SplitColumns,
    /// The pure bank bits sit *inside* the row window, splitting it in two —
    /// a shape the paper never enumerated.
    SplitRows,
}

impl Shape {
    const fn as_str(self) -> &'static str {
        match self {
            Shape::Consecutive => "consecutive",
            Shape::WideTail => "wide-tail",
            Shape::SplitColumns => "split-columns",
            Shape::SplitRows => "split-rows",
        }
    }
}

/// Deterministic machine-model sampler. Construction is `O(address bits)`
/// and infallible: all axis combinations the sampler draws are valid by
/// construction, and the final [`AddressMapping::new`] validation would
/// catch any generator bug as a panic rather than a silently wrong model.
#[derive(Debug, Clone, Copy)]
pub struct MachineGen {
    seed: u64,
}

impl MachineGen {
    /// A generator for one seed; equal seeds generate equal machines.
    pub const fn new(seed: u64) -> Self {
        MachineGen { seed }
    }

    /// The generator seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Samples the machine of the given class for this seed.
    pub fn generate(&self, class: MachineClass) -> GeneratedMachine {
        let mut rng = SplitMix64::new(
            self.seed
                ^ match class {
                    MachineClass::InScope => 0,
                    MachineClass::WideFunction => 0x57ED_E57E_D000_0001,
                    MachineClass::RowRemap => 0x0BAD_CAFE_0000_0002,
                },
        );

        // --- Geometry axes -------------------------------------------------
        // Wide-function machines keep the interleaving shallow so the pool
        // the partition walks stays small even with the 8-10 bit function.
        let deep_interleave = class != MachineClass::WideFunction;
        let generation = if rng.flag() {
            DdrGeneration::Ddr4
        } else {
            DdrGeneration::Ddr3
        };
        let channels = if deep_interleave && rng.flag() { 2 } else { 1 };
        let ranks = if deep_interleave && rng.flag() { 2 } else { 1 };
        let geometry = DramGeometry::new(channels, 1, ranks, generation.banks_per_rank());
        let n = geometry.bank_bits() as usize; // 3..=6 bank functions

        // --- Width axis: 30..=39 physical address bits ---------------------
        let width = 30 + rng.below(10) as u8;
        let column_count = generation.typical_column_bits() as usize; // 13
        let row_count = width as usize - column_count - n;

        // --- Window shape axis ---------------------------------------------
        let shape = match class {
            MachineClass::WideFunction => Shape::WideTail,
            _ => match rng.below(4) {
                0 => Shape::Consecutive,
                1 => Shape::WideTail,
                // Split columns need a second pure bit above the window.
                2 if n >= 2 => Shape::SplitColumns,
                2 => Shape::Consecutive,
                _ => Shape::SplitRows,
            },
        };

        // --- Bit layout ----------------------------------------------------
        // Columns occupy the low bits (optionally with a gap `g` that
        // becomes a pure bank bit), pure bank bits follow (optionally pushed
        // inside the row region), rows fill the rest.
        let mut column_bits: Vec<u8> = Vec::with_capacity(column_count);
        let mut pure_bits: Vec<u8> = Vec::with_capacity(n);
        let gap = match shape {
            Shape::SplitColumns => {
                let g = 6 + rng.below(2) as u8; // 6 or 7, as on real machines
                column_bits.extend((0..=13u8).filter(|&b| b != g));
                pure_bits.push(g);
                Some(g)
            }
            _ => {
                column_bits.extend(0..13u8);
                None
            }
        };
        let region_base = *column_bits.last().expect("13 column bits") + 1;
        let remaining_pure = n - pure_bits.len();
        let row_bits: Vec<u8> = match shape {
            Shape::SplitRows => {
                // `low_rows` rows below the pure chunk, the rest above it.
                let max_low = (row_count - remaining_pure.max(2) - 2).clamp(1, 4);
                let low_rows = 1 + rng.below(max_low as u64) as u8;
                pure_bits
                    .extend(region_base + low_rows..region_base + low_rows + remaining_pure as u8);
                let upper_base = region_base + low_rows + remaining_pure as u8;
                (region_base..region_base + low_rows)
                    .chain(upper_base..width)
                    .collect()
            }
            _ => {
                pure_bits.extend(region_base..region_base + remaining_pure as u8);
                (region_base + remaining_pure as u8..width).collect()
            }
        };
        debug_assert_eq!(row_bits.len(), row_count);
        debug_assert_eq!(pure_bits.len(), n);

        // Row partners for functions are drawn from the *lowest* rows above
        // the pure bits (the empirically observed shape, and what keeps the
        // pool the partition walks small). `eligible` rows are those above
        // every pure bit.
        let highest_pure = *pure_bits.last().expect("at least 3 pure bits");
        let eligible: Vec<u8> = row_bits
            .iter()
            .copied()
            .filter(|&b| b > highest_pure)
            .collect();

        // --- Function shape axis -------------------------------------------
        let wide_span = match (class, shape) {
            (MachineClass::WideFunction, _) => 8 + rng.below(3) as u32, // 8..=10
            (_, Shape::WideTail) => 3 + rng.below(5) as u32,            // 3..=7
            (_, Shape::SplitColumns) => 4 + rng.below(2) as u32,        // 4..=5
            _ => 0,
        };
        let wide_rows = match shape {
            Shape::WideTail => wide_span.saturating_sub(1) as usize,
            Shape::SplitColumns => 1 + rng.below(2) as usize, // 1..=2 rows
            _ => 0,
        };
        let wide_cols = if shape == Shape::SplitColumns {
            wide_span as usize - 1 - wide_rows
        } else {
            0
        };
        let isolated = n - usize::from(wide_span > 0);

        // Distinct partner rows: the wide function's first, then one per
        // isolated pair, all from a small low-row window (one spare row of
        // jitter). Keeping partners low keeps the bank-bit span — and with
        // it the pool Algorithm 1 walks — small, as on the real machines.
        let window = (wide_rows + isolated + 1).min(eligible.len());
        let picked = rng.distinct(window as u64, wide_rows + isolated);
        let partners: Vec<u8> = picked.iter().map(|&i| eligible[i as usize]).collect();
        let (wide_partners, pair_partners) = partners.split_at(wide_rows);

        let mut funcs: Vec<XorFunc> = Vec::with_capacity(n);
        let mut pair_pure: Vec<u8> = pure_bits.clone();
        if wide_span > 0 {
            // The wide function is anchored on the gap bit (split columns)
            // or the lowest pure bit; either way its lowest bit is not a
            // column bit, respecting the paper's empirical observation.
            let anchor = gap.unwrap_or(pure_bits[0]);
            pair_pure.retain(|&b| b != anchor);
            let mut bits = vec![anchor];
            if wide_cols > 0 {
                // Column bits strictly above the gap keep the anchor lowest.
                let above: Vec<u8> = column_bits
                    .iter()
                    .copied()
                    .filter(|&c| c > anchor)
                    .collect();
                for i in rng.distinct(above.len() as u64, wide_cols) {
                    bits.push(above[i as usize]);
                }
            }
            bits.extend_from_slice(wide_partners);
            funcs.push(XorFunc::from_bits(&bits));
        }
        for (pure, partner) in pair_pure.iter().zip(pair_partners) {
            funcs.push(XorFunc::from_bits(&[*pure, *partner]));
        }

        // --- Optional row remap axis ---------------------------------------
        let row_remap = match class {
            MachineClass::RowRemap => Some(RowRemap {
                xor_mask: 1 + rng.below((1u64 << row_count) - 1) as u32,
            }),
            _ => None,
        };

        let mapping = AddressMapping::new(funcs, row_bits, column_bits)
            .expect("generated machines are valid by construction");
        let machine = GeneratedMachine {
            label: format!("g-{:016x}", self.seed),
            system: SystemInfo::new(1u64 << width, geometry, generation),
            mapping,
            row_remap,
            class,
            shape: shape.as_str(),
        };
        machine
            .verify()
            .expect("generated machines satisfy every invariant");
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2;

    fn sample(seed: u64, class: MachineClass) -> GeneratedMachine {
        MachineGen::new(seed).generate(class)
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for class in MachineClass::ALL {
                assert_eq!(sample(seed, class), sample(seed, class));
            }
        }
        assert_ne!(
            sample(1, MachineClass::InScope),
            sample(2, MachineClass::InScope)
        );
    }

    #[test]
    fn axes_stay_in_their_declared_ranges() {
        for seed in 0..200u64 {
            let m = sample(seed, MachineClass::InScope);
            let width = m.system.address_bits();
            assert!((30..=39).contains(&width), "{m}");
            assert!((1..=2).contains(&m.system.geometry.channels), "{m}");
            assert!((1..=2).contains(&m.system.geometry.ranks_per_dimm), "{m}");
            let funcs = m.mapping().bank_funcs().len();
            assert!((3..=6).contains(&funcs), "{m}");
            assert!(m.widest_span() <= MAX_IN_SCOPE_SPAN, "{m}");
            assert!(m.row_remap.is_none(), "{m}");
        }
    }

    #[test]
    fn sampled_function_sets_have_full_rank() {
        for seed in 0..200u64 {
            for class in MachineClass::ALL {
                let m = sample(seed, class);
                assert!(gf2::functions_independent(m.mapping().bank_funcs()), "{m}");
            }
        }
    }

    #[test]
    fn wide_function_machines_exceed_the_enumerable_span() {
        for seed in 0..100u64 {
            let m = sample(seed, MachineClass::WideFunction);
            assert!(m.widest_span() > MAX_IN_SCOPE_SPAN, "{m}");
            assert!(m.widest_span() <= 10, "{m}");
            // The wide bits are disjoint from every two-bit function, so no
            // GF(2) combination of functions has an enumerable span either —
            // that is what makes detection *provably* fail loudly.
            let widest = m
                .mapping()
                .bank_funcs()
                .iter()
                .max_by_key(|f| f.len())
                .copied()
                .unwrap();
            for f in m.mapping().bank_funcs() {
                if *f != widest {
                    assert_eq!(f.mask() & widest.mask(), 0, "{m}");
                }
            }
        }
    }

    #[test]
    fn row_remap_machines_carry_an_involution_within_range() {
        for seed in 0..100u64 {
            let m = sample(seed, MachineClass::RowRemap);
            let remap = m.row_remap.expect("class carries a remap");
            assert!(remap.xor_mask > 0);
            assert!(remap.xor_mask < m.mapping().num_rows());
            for row in [0u32, 1, 17, m.mapping().num_rows() - 1] {
                assert_eq!(remap.apply(remap.apply(row)), row);
            }
        }
    }

    #[test]
    fn canonical_mask_folds_reflections_together() {
        let rows = 1u32 << 16;
        for mask in [1u32, 0x4a31, 0x8001, rows - 2, rows - 1] {
            let mirrored = mask ^ (rows - 1);
            let canon = RowRemap::canonical_mask(mask, rows);
            assert_eq!(canon, RowRemap::canonical_mask(mirrored, rows));
            assert!(canon == mask || canon == mirrored);
            assert_eq!(canon, canon.min(mirrored.min(mask)));
        }
        // A pure mirror of the row line is not an observable remap at all.
        assert_eq!(RowRemap::canonical_mask(rows - 1, rows), 0);
        assert_eq!(RowRemap::canonical_mask(0, rows), 0);
    }

    #[test]
    fn every_shape_is_eventually_sampled() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            seen.insert(sample(seed, MachineClass::InScope).shape);
        }
        for shape in ["consecutive", "wide-tail", "split-columns", "split-rows"] {
            assert!(seen.contains(shape), "shape `{shape}` never sampled");
        }
    }

    #[test]
    fn split_row_machines_have_a_gap_in_the_row_window() {
        let m = (0..200u64)
            .map(|s| sample(s, MachineClass::InScope))
            .find(|m| m.shape == "split-rows")
            .expect("split-rows sampled within 200 seeds");
        let rows = m.mapping().row_bits();
        let contiguous = rows.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(!contiguous, "{m}");
        assert!(
            crate::mapping::format_bit_ranges(rows).contains(", "),
            "{m}"
        );
    }

    #[test]
    fn machines_round_trip_through_the_text_codec() {
        for seed in 0..50u64 {
            for class in MachineClass::ALL {
                let m = sample(seed, class);
                let decoded = GeneratedMachine::decode(&m.encode()).unwrap();
                assert_eq!(decoded, m, "seed {seed} class {class}");
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let m = sample(3, MachineClass::InScope);
        assert!(GeneratedMachine::decode("").is_err());
        assert!(GeneratedMachine::decode("label x\n").is_err());
        assert!(GeneratedMachine::decode(&m.encode().replace("ddr", "xdr")).is_err());
        assert!(
            GeneratedMachine::decode(&m.encode().replace("class = in-scope", "class = x")).is_err()
        );
        // An inconsistent capacity fails verification, not just parsing.
        let broken = m.encode().replace(
            &format!("capacity_bytes = {}", m.system.capacity_bytes),
            "capacity_bytes = 4096",
        );
        assert!(GeneratedMachine::decode(&broken).is_err());
    }

    #[test]
    fn class_names_round_trip() {
        for class in MachineClass::ALL {
            assert_eq!(MachineClass::from_name(class.as_str()), Some(class));
        }
        assert_eq!(MachineClass::from_name("magic"), None);
    }

    #[test]
    fn spec_knowledge_is_consistent_for_every_sample() {
        for seed in 0..100u64 {
            for class in MachineClass::ALL {
                let m = sample(seed, class);
                let spec = m.system.spec().unwrap();
                assert_eq!(spec.row_bits as usize, m.mapping().row_bits().len());
                assert_eq!(spec.column_bits as usize, m.mapping().column_bits().len());
                assert_eq!(spec.bank_bits as usize, m.mapping().bank_funcs().len());
            }
        }
    }
}
