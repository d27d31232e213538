//! Experiment-wide options and config-driven scenarios.

use earlyreg_core::ReleasePolicy;
use earlyreg_sim::MachineConfig;
use earlyreg_workloads::{registry as workloads_registry, Scale};
use serde::{Deserialize, Serialize};

/// The register-file sizes swept in Figure 11 (both panels use the same
/// x-axis: 40–128 in steps of 8, plus 160).
pub const FIG11_SIZES: [usize; 13] = [40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 160];

/// Options shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOptions {
    /// Workload scale (dynamic instruction budget per benchmark).
    pub scale: Scale,
    /// Worker threads for the simulation sweep (`0` = one per CPU).
    pub threads: usize,
    /// Cap on committed instructions per simulation point (a safety net on
    /// top of the workload's own halt).
    pub max_instructions: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: Scale::Full,
            threads: 0,
            max_instructions: 5_000_000,
        }
    }
}

impl ExperimentOptions {
    /// Parse one scale name.
    pub fn parse_scale(value: &str) -> Result<Scale, String> {
        match value {
            "smoke" => Ok(Scale::Smoke),
            "bench" => Ok(Scale::Bench),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (smoke|bench|full)")),
        }
    }

    /// Parse a `--threads`/`--jobs` value.
    pub fn parse_threads(value: &str) -> Result<usize, String> {
        value
            .parse()
            .map_err(|_| format!("invalid thread count '{value}'"))
    }

    /// Parse a `--max-instructions` value.
    pub fn parse_budget(value: &str) -> Result<u64, String> {
        value
            .parse()
            .map_err(|_| format!("invalid instruction budget '{value}'"))
    }

    /// Number of worker threads to actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// A *scenario*: machine and sweep overrides applied on top of the paper's
/// Table 2 baseline.
///
/// Scenarios make new experiment configurations a config entry instead of a
/// new crate module: every experiment plans its points through
/// [`crate::engine::PlanContext`], which routes all machine construction
/// through [`Scenario::machine`], the Figure 11 sweep axis through
/// [`Scenario::sweep_sizes`] and the policy set through
/// [`Scenario::policies`].  A scenario file is a list of `key = value`
/// lines (`#` comments allowed):
///
/// ```text
/// # A narrower machine with a short Release Queue, swept over four schemes.
/// ros_size = 64
/// lsq_size = 32
/// memory_latency = 120
/// max_pending_branches = 8
/// sweep_sizes = 40,48,56,64,80
/// policies = conv, basic, extended, oracle
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reports mention it; "table2" for the baseline).
    pub name: String,
    /// Override of the Figure 11 register-file sweep axis.
    pub sweep_sizes: Option<Vec<usize>>,
    /// Override of the policy set the figure sweeps compare (ids from the
    /// policy registry; defaults to the paper's canonical three).
    pub policies: Option<Vec<ReleasePolicy>>,
    /// Override of the workload set the sweeps cover (canonical ids from the
    /// workload registry; defaults to the paper's Table 3 suite).  Stored
    /// canonicalised — aliases and case are resolved at parse time.
    pub workloads: Option<Vec<String>>,
    /// Reorder structure size (Table 2: 128).
    pub ros_size: Option<usize>,
    /// Load/store queue entries (Table 2: 64).
    pub lsq_size: Option<usize>,
    /// Main memory latency in cycles (Table 2: 50).
    pub memory_latency: Option<u32>,
    /// Maximum unverified branches / Release Queue depth (Table 2: 20).
    pub max_pending_branches: Option<usize>,
    /// gshare history bits (Table 2: 18).
    pub gshare_bits: Option<u32>,
    /// Fetch width (Table 2: 8).
    pub fetch_width: Option<usize>,
    /// Commit width (Table 2: 8).
    pub commit_width: Option<usize>,
}

/// Every key a scenario file may set, in the order [`Scenario::parse`]
/// matches them.  Unknown-key errors enumerate this list so a typo'd file
/// is self-diagnosing.
pub const SCENARIO_KEYS: [&str; 11] = [
    "name",
    "sweep_sizes",
    "policies",
    "workloads",
    "ros_size",
    "lsq_size",
    "memory_latency",
    "max_pending_branches",
    "gshare_bits",
    "fetch_width",
    "commit_width",
];

impl Scenario {
    /// The unmodified Table 2 baseline.
    pub fn table2() -> Self {
        Scenario {
            name: "table2".to_string(),
            ..Default::default()
        }
    }

    /// True when the scenario changes nothing relative to Table 2.
    pub fn is_baseline(&self) -> bool {
        let baseline = Scenario {
            name: self.name.clone(),
            ..Default::default()
        };
        *self == baseline
    }

    /// Build the machine for one point: Table 2, overridden by the scenario.
    pub fn machine(&self, policy: ReleasePolicy, phys_int: usize, phys_fp: usize) -> MachineConfig {
        let mut config = MachineConfig::icpp02(policy, phys_int, phys_fp);
        if let Some(ros) = self.ros_size {
            config.ros_size = ros;
            config.rename.ros_size = ros;
        }
        if let Some(lsq) = self.lsq_size {
            config.lsq_size = lsq;
        }
        if let Some(latency) = self.memory_latency {
            config.memory_latency = latency;
        }
        if let Some(branches) = self.max_pending_branches {
            config.rename.max_pending_branches = branches;
        }
        if let Some(bits) = self.gshare_bits {
            config.predictor.gshare_bits = bits;
        }
        if let Some(width) = self.fetch_width {
            config.fetch_width = width;
        }
        if let Some(width) = self.commit_width {
            config.commit_width = width;
        }
        config
    }

    /// The register-file sweep axis (Figure 11 and friends).
    pub fn sweep_sizes(&self) -> Vec<usize> {
        self.sweep_sizes
            .clone()
            .unwrap_or_else(|| FIG11_SIZES.to_vec())
    }

    /// The release policies the figure sweeps compare.  Defaults to the
    /// canonical paper three ([`earlyreg_core::PAPER_POLICIES`]); a scenario
    /// can name any subset of the registry (`policies = conv, oracle, ...`).
    pub fn policies(&self) -> Vec<ReleasePolicy> {
        self.policies
            .clone()
            .unwrap_or_else(|| earlyreg_core::PAPER_POLICIES.to_vec())
    }

    /// The workload ids the figure sweeps cover.  Defaults to the paper's
    /// Table 3 suite; a scenario can name any subset of the workload
    /// registry (`workloads = matmul, swim, ...`).
    pub fn workload_ids(&self) -> Vec<&'static str> {
        match &self.workloads {
            Some(names) => names
                .iter()
                .map(|name| {
                    workloads_registry::parse(name)
                        .expect("scenario workloads are validated at parse time")
                        .id
                })
                .collect(),
            None => workloads_registry::paper_descriptors()
                .map(|d| d.id)
                .collect(),
        }
    }

    /// Parse a scenario from `key = value` lines (see the type docs).
    pub fn parse(name: &str, text: &str) -> Result<Self, String> {
        let mut scenario = Scenario {
            name: name.to_string(),
            ..Default::default()
        };
        for (number, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected 'key = value'", number + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: invalid {what} '{value}'", number + 1);
            match key {
                "name" => scenario.name = value.to_string(),
                "sweep_sizes" => {
                    let sizes: Result<Vec<usize>, _> =
                        value.split(',').map(|s| s.trim().parse()).collect();
                    scenario.sweep_sizes = Some(sizes.map_err(|_| bad("size list"))?);
                }
                "policies" => {
                    // Parsed against the policy registry; an unknown name
                    // fails here with the registered ids enumerated.
                    let policies: Result<Vec<ReleasePolicy>, String> = value
                        .split(',')
                        .map(|s| ReleasePolicy::parse(s.trim()))
                        .collect();
                    scenario.policies =
                        Some(policies.map_err(|e| format!("line {}: {e}", number + 1))?);
                }
                "workloads" => {
                    // Parsed against the workload registry; an unknown name
                    // fails here with the registered ids enumerated.
                    let names: Result<Vec<String>, String> = value
                        .split(',')
                        .map(|s| workloads_registry::parse(s.trim()).map(|d| d.id.to_string()))
                        .collect();
                    scenario.workloads =
                        Some(names.map_err(|e| format!("line {}: {e}", number + 1))?);
                }
                "ros_size" => scenario.ros_size = Some(value.parse().map_err(|_| bad("ros_size"))?),
                "lsq_size" => scenario.lsq_size = Some(value.parse().map_err(|_| bad("lsq_size"))?),
                "memory_latency" => {
                    scenario.memory_latency =
                        Some(value.parse().map_err(|_| bad("memory_latency"))?)
                }
                "max_pending_branches" => {
                    scenario.max_pending_branches =
                        Some(value.parse().map_err(|_| bad("max_pending_branches"))?)
                }
                "gshare_bits" => {
                    scenario.gshare_bits = Some(value.parse().map_err(|_| bad("gshare_bits"))?)
                }
                "fetch_width" => {
                    scenario.fetch_width = Some(value.parse().map_err(|_| bad("fetch_width"))?)
                }
                "commit_width" => {
                    scenario.commit_width = Some(value.parse().map_err(|_| bad("commit_width"))?)
                }
                other => {
                    return Err(format!(
                        "line {}: unknown key '{other}' (valid keys: {})",
                        number + 1,
                        SCENARIO_KEYS.join(", ")
                    ))
                }
            }
        }
        // Surface invalid combinations (e.g. a non-power-of-two gshare) now,
        // with the file context, instead of deep inside a sweep.
        scenario
            .machine(ReleasePolicy::Extended, 64, 64)
            .validate()
            .map_err(|e| {
                format!(
                    "scenario '{}' builds an invalid machine: {e}",
                    scenario.name
                )
            })?;
        Ok(scenario)
    }

    /// Load a scenario from a file; the file stem becomes its default name.
    pub fn from_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("scenario");
        Self::parse(name, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = ExperimentOptions::default();
        assert_eq!(o.scale, Scale::Full);
        assert!(o.effective_threads() >= 1);
    }

    #[test]
    fn parses_scale_and_threads() {
        assert_eq!(ExperimentOptions::parse_scale("smoke"), Ok(Scale::Smoke));
        assert_eq!(ExperimentOptions::parse_scale("bench"), Ok(Scale::Bench));
        assert_eq!(ExperimentOptions::parse_scale("full"), Ok(Scale::Full));
        let o = ExperimentOptions {
            threads: ExperimentOptions::parse_threads("3").unwrap(),
            ..Default::default()
        };
        assert_eq!(o.threads, 3);
        assert_eq!(o.effective_threads(), 3);
    }

    #[test]
    fn parses_max_instructions_and_jobs_alias() {
        assert_eq!(ExperimentOptions::parse_budget("1234"), Ok(1234));
        assert_eq!(ExperimentOptions::parse_threads("2"), Ok(2));
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(ExperimentOptions::parse_scale("huge").is_err());
        assert!(ExperimentOptions::parse_threads("many").is_err());
        assert!(ExperimentOptions::parse_budget("-1").is_err());
    }

    #[test]
    fn fig11_sizes_match_the_paper_axis() {
        assert_eq!(FIG11_SIZES.first(), Some(&40));
        assert_eq!(FIG11_SIZES.last(), Some(&160));
        assert_eq!(FIG11_SIZES.len(), 13);
    }

    #[test]
    fn baseline_scenario_is_table2() {
        let scenario = Scenario::table2();
        assert!(scenario.is_baseline());
        let config = scenario.machine(ReleasePolicy::Extended, 96, 96);
        assert_eq!(
            config,
            MachineConfig::icpp02(ReleasePolicy::Extended, 96, 96)
        );
        assert_eq!(scenario.sweep_sizes(), FIG11_SIZES.to_vec());
    }

    #[test]
    fn scenario_parse_applies_overrides() {
        let text = "\
            # tighter machine\n\
            ros_size = 64\n\
            memory_latency = 120  # slow DRAM\n\
            sweep_sizes = 40, 48, 64\n";
        let scenario = Scenario::parse("tight", text).unwrap();
        assert!(!scenario.is_baseline());
        assert_eq!(scenario.name, "tight");
        assert_eq!(scenario.sweep_sizes(), vec![40, 48, 64]);
        let config = scenario.machine(ReleasePolicy::Basic, 48, 48);
        assert_eq!(config.ros_size, 64);
        assert_eq!(config.rename.ros_size, 64);
        assert_eq!(config.memory_latency, 120);
        config.validate().unwrap();
    }

    #[test]
    fn scenario_policies_parse_against_the_registry() {
        // Default: the canonical paper three.
        assert_eq!(
            Scenario::table2().policies(),
            earlyreg_core::PAPER_POLICIES.to_vec()
        );
        let scenario = Scenario::parse("p", "policies = conv, oracle").unwrap();
        assert_eq!(
            scenario.policies(),
            vec![ReleasePolicy::Conventional, ReleasePolicy::Oracle]
        );
        // An unknown policy name fails with the registered ids enumerated.
        let error = Scenario::parse("p", "policies = conv, bogus").unwrap_err();
        assert!(error.contains("unknown policy 'bogus'"), "{error}");
        for id in earlyreg_core::registry::ids() {
            assert!(error.contains(id), "error must list '{id}': {error}");
        }
    }

    #[test]
    fn scenario_workloads_parse_against_the_registry() {
        // Default: the paper's Table 3 ten.
        let default = Scenario::table2().workload_ids();
        assert_eq!(default.len(), 10);
        assert!(default.contains(&"swim") && !default.contains(&"matmul"));
        // Aliases and case canonicalise at parse time.
        let scenario = Scenario::parse("w", "workloads = MATMUL, qsort, swim").unwrap();
        assert_eq!(scenario.workload_ids(), vec!["matmul", "quicksort", "swim"]);
        // An unknown workload name fails with the registered ids enumerated.
        let error = Scenario::parse("w", "workloads = swim, bogus").unwrap_err();
        assert!(error.contains("unknown workload 'bogus'"), "{error}");
        assert!(error.starts_with("line 1:"), "{error}");
        for id in workloads_registry::ids() {
            assert!(error.contains(id), "error must list '{id}': {error}");
        }
    }

    #[test]
    fn scenario_parse_rejects_bad_input() {
        assert!(Scenario::parse("x", "nonsense").is_err());
        assert!(Scenario::parse("x", "ros_size = lots").is_err());
        // A machine that fails validation is rejected at parse time.
        assert!(Scenario::parse("x", "gshare_bits = 60").is_err());
    }

    #[test]
    fn scenario_parse_unknown_key_error_lists_valid_keys() {
        let error = Scenario::parse("x", "bogus_key = 3").unwrap_err();
        assert!(error.contains("unknown key 'bogus_key'"), "{error}");
        for key in SCENARIO_KEYS {
            assert!(error.contains(key), "error must list '{key}': {error}");
        }
    }
}
