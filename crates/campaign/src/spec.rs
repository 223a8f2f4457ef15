//! Campaign specifications: which jobs a fleet runs.
//!
//! A [`CampaignSpec`] is the cartesian product of Table-II machine numbers,
//! simulator seeds, configuration [`Profile`]s and knowledge [`Ablation`]s.
//! [`CampaignSpec::jobs`] expands it into a deterministic job list; each
//! [`JobSpec`] has a stable id that names it in the journal, the store and
//! the dead-letter list. The spec itself round-trips through a plain-text
//! encoding so `campaign resume` re-derives exactly the same job list the
//! interrupted `campaign run` started from.

use std::fmt;

use dramdig::codec::{self, CodecError};
use dramdig::{DomainKnowledge, DramDigConfig};

/// A named configuration profile (see [`DramDigConfig`]'s constructors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Profile {
    /// Seed-faithful baseline with every acceleration disabled.
    Naive,
    /// Paper defaults ([`DramDigConfig::default`]).
    Default,
    /// Reduced calibration/validation budgets ([`DramDigConfig::fast`]).
    Fast,
    /// All accelerators on ([`DramDigConfig::optimized`]).
    #[default]
    Optimized,
}

impl Profile {
    /// Every profile, in a stable order.
    pub const ALL: [Profile; 4] = [
        Profile::Naive,
        Profile::Default,
        Profile::Fast,
        Profile::Optimized,
    ];

    /// Stable identifier used in job ids, spec files and on the CLI.
    pub const fn as_str(self) -> &'static str {
        match self {
            Profile::Naive => "naive",
            Profile::Default => "default",
            Profile::Fast => "fast",
            Profile::Optimized => "optimized",
        }
    }

    /// Parses an identifier produced by [`Profile::as_str`].
    pub fn from_name(name: &str) -> Option<Profile> {
        Profile::ALL.into_iter().find(|p| p.as_str() == name)
    }

    /// Parses a comma-separated profile list (the spec-file and CLI
    /// `--profiles` syntax), returning the unknown item on failure.
    pub fn parse_list(text: &str) -> Result<Vec<Profile>, String> {
        split_list(text)
            .map(|item| {
                Profile::from_name(item).ok_or_else(|| {
                    format!("unknown profile `{item}` (expected naive, default, fast or optimized)")
                })
            })
            .collect()
    }

    /// The pipeline configuration this profile stands for (without a seed;
    /// the runner derives the seed from the job).
    pub fn config(self) -> DramDigConfig {
        match self {
            Profile::Naive => DramDigConfig::naive(),
            Profile::Default => DramDigConfig::default(),
            Profile::Fast => DramDigConfig::fast(),
            Profile::Optimized => DramDigConfig::optimized(),
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Which knowledge group a job disables before running the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ablation {
    /// Drop the DDR specification (row/column bit counts).
    Specifications,
    /// Drop the system information (total bank count).
    SystemInfo,
    /// Drop the empirical observations.
    Empirical,
}

impl Ablation {
    /// Every ablation, in a stable order.
    pub const ALL: [Ablation; 3] = [
        Ablation::Specifications,
        Ablation::SystemInfo,
        Ablation::Empirical,
    ];

    /// Stable identifier used in job ids, spec files and on the CLI.
    pub const fn as_str(self) -> &'static str {
        match self {
            Ablation::Specifications => "spec",
            Ablation::SystemInfo => "sysinfo",
            Ablation::Empirical => "empirical",
        }
    }

    /// Parses an identifier produced by [`Ablation::as_str`].
    pub fn from_name(name: &str) -> Option<Ablation> {
        Ablation::ALL.into_iter().find(|a| a.as_str() == name)
    }

    /// `knowledge` with this group disabled.
    #[must_use]
    pub fn apply(self, knowledge: DomainKnowledge) -> DomainKnowledge {
        match self {
            Ablation::Specifications => knowledge.without_specifications(),
            Ablation::SystemInfo => knowledge.without_system_info(),
            Ablation::Empirical => knowledge.without_empirical(),
        }
    }

    /// Parses a comma-separated ablation list where `none` stands for "full
    /// knowledge" (the spec-file and CLI `--ablations` syntax), returning
    /// the unknown item on failure.
    pub fn parse_list(text: &str) -> Result<Vec<Option<Ablation>>, String> {
        split_list(text)
            .map(|item| {
                if item == "none" {
                    Ok(None)
                } else {
                    Ablation::from_name(item).map(Some).ok_or_else(|| {
                        format!(
                            "unknown ablation `{item}` (expected none, spec, sysinfo or empirical)"
                        )
                    })
                }
            })
            .collect()
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One job of a campaign: a single pipeline run on one machine setting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobSpec {
    /// Table-II machine number (1–9).
    pub machine: u8,
    /// Base seed for the simulator and the tool RNG; retries derive fresh
    /// seeds from it so a noisy failure is not replayed verbatim.
    pub seed: u64,
    /// Configuration profile the job runs with.
    pub profile: Profile,
    /// Optional knowledge group disabled for this job.
    pub ablation: Option<Ablation>,
}

impl JobSpec {
    /// The stable id naming this job in the journal and the store, e.g.
    /// `m4-s1-optimized` or `m6-s2-default-sysinfo`.
    pub fn id(&self) -> String {
        let mut id = format!("m{}-s{}-{}", self.machine, self.seed, self.profile);
        if let Some(ablation) = self.ablation {
            id.push('-');
            id.push_str(ablation.as_str());
        }
        id
    }

    /// The Table-II label of the machine under test, e.g. `No.4`.
    pub fn machine_label(&self) -> String {
        format!("No.{}", self.machine)
    }

    /// The seed attempt number `attempt` (1-based) runs with: the job's base
    /// seed for attempt 1, then distinct derived seeds so a noisy failure is
    /// never replayed verbatim. The odd multiplier keeps distinct
    /// `(seed, attempt)` pairs distinct.
    #[must_use]
    pub fn attempt_seed(&self, attempt: u32) -> u64 {
        self.seed
            .wrapping_add(u64::from(attempt.saturating_sub(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// The full description of a campaign: job dimensions plus retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Table-II machine numbers to sweep.
    pub machines: Vec<u8>,
    /// Base seeds to sweep.
    pub seeds: Vec<u64>,
    /// Configuration profiles to sweep.
    pub profiles: Vec<Profile>,
    /// Knowledge ablations to sweep (`None` = full knowledge).
    pub ablations: Vec<Option<Ablation>>,
    /// How many times a failed job is retried before it is dead-lettered
    /// (0 = a single attempt).
    pub max_retries: u32,
}

impl CampaignSpec {
    /// A spec sweeping `machines` with one seed, one profile and full
    /// knowledge — the common Table-II reproduction campaign.
    pub fn new(machines: Vec<u8>, seed: u64, profile: Profile) -> Self {
        CampaignSpec {
            machines,
            seeds: vec![seed],
            profiles: vec![profile],
            ablations: vec![None],
            max_retries: 2,
        }
    }

    /// Expands the dimensions into the deterministic job list (machines
    /// outermost, then seeds, profiles, ablations). Duplicate dimension
    /// values (e.g. `--machines 1-3,2`) collapse to one job each — job ids
    /// key the journal and the store, so a duplicated id could never be
    /// accounted as two completions.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut seen = std::collections::BTreeSet::new();
        let mut jobs = Vec::new();
        for &machine in &self.machines {
            for &seed in &self.seeds {
                for &profile in &self.profiles {
                    for &ablation in &self.ablations {
                        let job = JobSpec {
                            machine,
                            seed,
                            profile,
                            ablation,
                        };
                        if seen.insert(job.id()) {
                            jobs.push(job);
                        }
                    }
                }
            }
        }
        jobs
    }

    /// Serializes the spec as `key = value` lines; [`CampaignSpec::decode`]
    /// is the inverse.
    pub fn encode(&self) -> String {
        let join = |items: Vec<String>| items.join(",");
        format!(
            concat!(
                "# dramdig campaign spec\n",
                "machines = {}\n",
                "seeds = {}\n",
                "profiles = {}\n",
                "ablations = {}\n",
                "max_retries = {}\n",
            ),
            join(self.machines.iter().map(u8::to_string).collect()),
            join(self.seeds.iter().map(u64::to_string).collect()),
            join(
                self.profiles
                    .iter()
                    .map(|p| p.as_str().to_string())
                    .collect()
            ),
            join(
                self.ablations
                    .iter()
                    .map(|a| a.map_or("none".to_string(), |a| a.as_str().to_string()))
                    .collect()
            ),
            self.max_retries,
        )
    }

    /// Parses a spec written by [`CampaignSpec::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed lines, unknown keys or values,
    /// or a spec that expands to zero jobs.
    pub fn decode(text: &str) -> Result<Self, CodecError> {
        let mut machines = Vec::new();
        let mut seeds = Vec::new();
        let mut profiles = Vec::new();
        let mut ablations = Vec::new();
        let mut max_retries = 2;
        for (line, key, value) in codec::parse_kv_lines(text)? {
            match key {
                "machines" => {
                    for item in split_list(value) {
                        machines
                            .push(parse_machine_number(item).map_err(|e| CodecError::at(line, e))?);
                    }
                }
                "seeds" => {
                    for item in split_list(value) {
                        seeds.push(codec::parse_u64(line, key, item)?);
                    }
                }
                "profiles" => {
                    profiles
                        .extend(Profile::parse_list(value).map_err(|e| CodecError::at(line, e))?);
                }
                "ablations" => {
                    ablations
                        .extend(Ablation::parse_list(value).map_err(|e| CodecError::at(line, e))?);
                }
                "max_retries" => max_retries = codec::parse_u32(line, key, value)?,
                other => return Err(CodecError::at(line, format!("unknown spec key `{other}`"))),
            }
        }
        let spec = CampaignSpec {
            machines,
            seeds,
            profiles,
            ablations,
            max_retries,
        };
        if spec.jobs().is_empty() {
            return Err(CodecError::whole("spec expands to zero jobs"));
        }
        Ok(spec)
    }
}

fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parses one Table-II machine number, rejecting anything outside `1..=9`
/// instead of silently truncating (260 must not alias onto machine 4).
pub fn parse_machine_number(text: &str) -> Result<u8, String> {
    text.trim()
        .parse::<u8>()
        .ok()
        .filter(|m| (1..=9).contains(m))
        .ok_or_else(|| format!("invalid machine number `{text}` (expected 1..=9)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_are_stable_and_unique() {
        let spec = CampaignSpec {
            machines: vec![4, 7],
            seeds: vec![1, 2],
            profiles: vec![Profile::Optimized, Profile::Naive],
            ablations: vec![None, Some(Ablation::SystemInfo)],
            max_retries: 1,
        };
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        let mut ids: Vec<String> = jobs.iter().map(JobSpec::id).collect();
        assert!(ids.contains(&"m4-s1-optimized".to_string()));
        assert!(ids.contains(&"m7-s2-naive-sysinfo".to_string()));
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len(), "ids must be unique");
        assert_eq!(jobs[0].machine_label(), "No.4");
    }

    #[test]
    fn duplicate_dimension_values_collapse_to_one_job() {
        let spec = CampaignSpec {
            machines: vec![1, 2, 3, 2],
            seeds: vec![1, 1],
            profiles: vec![Profile::Fast, Profile::Fast],
            ablations: vec![None, None],
            max_retries: 0,
        };
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 3, "3 distinct ids, not 4*2*2*2 expansions");
        let ids: Vec<String> = jobs.iter().map(JobSpec::id).collect();
        assert_eq!(ids, vec!["m1-s1-fast", "m2-s1-fast", "m3-s1-fast"]);
    }

    #[test]
    fn machine_numbers_reject_out_of_range_instead_of_truncating() {
        assert_eq!(parse_machine_number("4").unwrap(), 4);
        assert_eq!(parse_machine_number(" 9 ").unwrap(), 9);
        // 260 would alias onto machine 4 under an `as u8` cast.
        assert!(parse_machine_number("260").is_err());
        assert!(parse_machine_number("0").is_err());
        assert!(parse_machine_number("10").is_err());
        assert!(parse_machine_number("x").is_err());
        assert!(CampaignSpec::decode(
            "machines = 260\nseeds = 1\nprofiles = fast\nablations = none\n"
        )
        .is_err());
    }

    #[test]
    fn list_parsers_are_shared_by_spec_and_cli() {
        assert_eq!(
            Profile::parse_list("naive, optimized").unwrap(),
            vec![Profile::Naive, Profile::Optimized]
        );
        assert!(Profile::parse_list("warp").unwrap_err().contains("warp"));
        assert_eq!(
            Ablation::parse_list("none,sysinfo").unwrap(),
            vec![None, Some(Ablation::SystemInfo)]
        );
        assert!(Ablation::parse_list("warp").unwrap_err().contains("warp"));
        assert_eq!(Profile::parse_list("").unwrap(), vec![]);
    }

    #[test]
    fn spec_round_trips_through_the_text_codec() {
        let spec = CampaignSpec {
            machines: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
            seeds: vec![7],
            profiles: vec![Profile::Fast],
            ablations: vec![
                None,
                Some(Ablation::Specifications),
                Some(Ablation::Empirical),
            ],
            max_retries: 3,
        };
        assert_eq!(CampaignSpec::decode(&spec.encode()).unwrap(), spec);
        let simple = CampaignSpec::new(vec![4], 1, Profile::Optimized);
        assert_eq!(CampaignSpec::decode(&simple.encode()).unwrap(), simple);
    }

    #[test]
    fn decode_rejects_bad_specs() {
        assert!(
            CampaignSpec::decode("machines = 1\n").is_err(),
            "no seeds/profiles"
        );
        assert!(CampaignSpec::decode("wat = 1\n").is_err());
        let base = "seeds = 1\nprofiles = optimized\nablations = none\n";
        assert!(CampaignSpec::decode(&format!("machines = x\n{base}")).is_err());
        assert!(CampaignSpec::decode(
            "machines = 1\nseeds = 1\nprofiles = warp\nablations = none\n"
        )
        .is_err());
        assert!(CampaignSpec::decode(
            "machines = 1\nseeds = 1\nprofiles = fast\nablations = wat\n"
        )
        .is_err());
    }

    #[test]
    fn profile_and_ablation_names_round_trip() {
        for p in Profile::ALL {
            assert_eq!(Profile::from_name(p.as_str()), Some(p));
        }
        for a in Ablation::ALL {
            assert_eq!(Ablation::from_name(a.as_str()), Some(a));
        }
        assert_eq!(Profile::from_name("warp"), None);
        assert_eq!(Ablation::from_name("warp"), None);
        assert_eq!(Profile::default(), Profile::Optimized);
        // Profiles resolve to the matching config constructors.
        assert_eq!(Profile::Naive.config(), DramDigConfig::naive());
        assert_eq!(Profile::Optimized.config(), DramDigConfig::optimized());
    }
}
