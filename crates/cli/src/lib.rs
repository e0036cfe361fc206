//! # vulcan-cli — config-driven simulation runs
//!
//! Describes experiments as JSON (machine, workloads, policy, duration)
//! and runs them through the same stack the benchmark harness uses. The
//! `vulcan-sim` binary is the entry point:
//!
//! ```text
//! vulcan-sim run config.json          # one policy
//! vulcan-sim compare config.json      # all four systems, same mix
//! vulcan-sim example                  # print a commented example config
//! ```

#![warn(missing_docs)]

use vulcan::prelude::*;
use vulcan::sim::{MachineSpec, PAGES_PER_PAPER_GB};
use vulcan_json::Value;

/// Machine description (paper-scaled units).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Fast-tier capacity in paper-GB (scaled 1 GB → 256 pages).
    pub fast_gb: u64,
    /// Slow-tier capacity in paper-GB.
    pub slow_gb: u64,
    /// Optional third-tier (NVM) capacity in paper-GB. `None` (or JSON
    /// `null`) keeps the classic two-tier machine.
    pub nvm_gb: Option<u64>,
    /// Cores on the socket.
    pub cores: u16,
}

fn default_fast_gb() -> u64 {
    32
}
fn default_slow_gb() -> u64 {
    256
}
fn default_cores() -> u16 {
    32
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            fast_gb: default_fast_gb(),
            slow_gb: default_slow_gb(),
            nvm_gb: None,
            cores: default_cores(),
        }
    }
}

impl MachineConfig {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(MachineConfig {
            fast_gb: opt_u64(v, "fast_gb")?.unwrap_or_else(default_fast_gb),
            slow_gb: opt_u64(v, "slow_gb")?.unwrap_or_else(default_slow_gb),
            nvm_gb: opt_u64(v, "nvm_gb")?,
            cores: opt_u64(v, "cores")?.unwrap_or(default_cores() as u64) as u16,
        })
    }

    /// Total capacity across the configured chain, in pages.
    pub fn capacity_pages(&self) -> u64 {
        (self.fast_gb + self.slow_gb + self.nvm_gb.unwrap_or(0)) * PAGES_PER_PAPER_GB
    }

    /// Build the machine spec. A present `nvm_gb` extends the chain to
    /// three tiers; absent keeps the classic two-tier testbed.
    pub fn to_spec(&self) -> MachineSpec {
        let mut spec = match self.nvm_gb {
            None => MachineSpec::paper_testbed(),
            Some(_) => MachineSpec::paper_3tier(),
        };
        spec.tier_mut(TierKind::Fast).capacity_pages = self.fast_gb * PAGES_PER_PAPER_GB;
        spec.tier_mut(TierKind::Slow).capacity_pages = self.slow_gb * PAGES_PER_PAPER_GB;
        if let Some(nvm_gb) = self.nvm_gb {
            spec.tier_mut(TierKind::Nvm).capacity_pages = nvm_gb * PAGES_PER_PAPER_GB;
        }
        spec.n_cores = self.cores;
        spec
    }
}

/// One workload in the mix: either a Table 2 preset or a custom
/// microbenchmark. The JSON form is tagged by a `"kind"` field
/// (`"preset"` or `"micro"`).
#[derive(Clone, Debug)]
pub enum WorkloadConfig {
    /// A Table 2 preset: `memcached`, `pagerank` or `liblinear`.
    Preset {
        /// Preset name.
        preset: String,
        /// Start time in simulated seconds.
        start_sec: u64,
    },
    /// A Zipfian microbenchmark.
    Micro {
        /// Display name.
        name: String,
        /// Resident pages.
        rss_pages: u64,
        /// Working-set pages.
        wss_pages: u64,
        /// Read fraction (default 0.8).
        read_ratio: f64,
        /// Zipf skew (default 0.99).
        skew: f64,
        /// Worker threads (default 8).
        threads: usize,
        /// Pre-place all pages in the slow tier.
        prealloc_slow: bool,
        /// Back with transparent huge pages.
        thp: bool,
        /// Start time in simulated seconds.
        start_sec: u64,
    },
}

fn default_read_ratio() -> f64 {
    0.8
}
fn default_skew() -> f64 {
    0.99
}
fn default_threads() -> usize {
    8
}

/// Field accessors with config-friendly error messages. Missing keys and
/// explicit `null` both read as `None`; present-but-mistyped values are
/// errors.
fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field \"{key}\" must be a non-negative integer")),
    }
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field \"{key}\" must be a number")),
    }
}

fn opt_bool(v: &Value, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("field \"{key}\" must be a boolean")),
    }
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field \"{key}\" must be a string")),
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    opt_u64(v, key)?.ok_or_else(|| format!("missing required field \"{key}\""))
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    opt_str(v, key)?.ok_or_else(|| format!("missing required field \"{key}\""))
}

impl WorkloadConfig {
    fn from_value(v: &Value) -> Result<Self, String> {
        match req_str(v, "kind")?.as_str() {
            "preset" => Ok(WorkloadConfig::Preset {
                preset: req_str(v, "preset")?,
                start_sec: opt_u64(v, "start_sec")?.unwrap_or(0),
            }),
            "micro" => Ok(WorkloadConfig::Micro {
                name: req_str(v, "name")?,
                rss_pages: req_u64(v, "rss_pages")?,
                wss_pages: req_u64(v, "wss_pages")?,
                read_ratio: opt_f64(v, "read_ratio")?.unwrap_or_else(default_read_ratio),
                skew: opt_f64(v, "skew")?.unwrap_or_else(default_skew),
                threads: opt_u64(v, "threads")?.unwrap_or(default_threads() as u64) as usize,
                prealloc_slow: opt_bool(v, "prealloc_slow")?.unwrap_or(false),
                thp: opt_bool(v, "thp")?.unwrap_or(false),
                start_sec: opt_u64(v, "start_sec")?.unwrap_or(0),
            }),
            other => Err(format!(
                "workload \"kind\" must be \"preset\" or \"micro\", got \"{other}\""
            )),
        }
    }

    /// Build the workload spec.
    pub fn to_spec(&self) -> Result<WorkloadSpec, String> {
        match self {
            WorkloadConfig::Preset { preset, start_sec } => {
                let spec = match preset.as_str() {
                    "memcached" => memcached(),
                    "pagerank" => pagerank(),
                    "liblinear" => liblinear(),
                    other => return Err(format!("unknown preset '{other}'")),
                };
                Ok(spec.starting_at(Nanos::secs(*start_sec)))
            }
            WorkloadConfig::Micro {
                name,
                rss_pages,
                wss_pages,
                read_ratio,
                skew,
                threads,
                prealloc_slow,
                thp,
                start_sec,
            } => {
                let mut spec = microbench(
                    name,
                    MicroConfig {
                        rss_pages: *rss_pages,
                        wss_pages: *wss_pages,
                        read_ratio: *read_ratio,
                        skew: *skew,
                        ..Default::default()
                    },
                    *threads,
                )
                .starting_at(Nanos::secs(*start_sec));
                if *prealloc_slow {
                    spec = spec.preallocated(TierKind::Slow);
                }
                if *thp {
                    spec = spec.with_thp();
                }
                Ok(spec)
            }
        }
    }
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Simulated seconds to run.
    pub seconds: u64,
    /// RNG seed.
    pub seed: u64,
    /// The tiering policy. Parsed from the config's `"policy"` string at
    /// load time, so an unknown name fails once, before anything runs.
    pub policy: PolicyKind,
    /// The co-located workloads.
    pub workloads: Vec<WorkloadConfig>,
    /// Optional path to dump the full series JSON.
    pub series_out: Option<String>,
}

fn default_seconds() -> u64 {
    60
}
fn default_seed() -> u64 {
    42
}
fn default_policy() -> PolicyKind {
    PolicyKind::Vulcan
}

impl ExperimentConfig {
    /// Parse a config from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = vulcan_json::parse(text).map_err(|e| format!("config parse error: {e}"))?;
        if v.as_object().is_none() {
            return Err("config parse error: top level must be an object".into());
        }
        let machine = match v.get("machine") {
            None | Some(Value::Null) => MachineConfig::default(),
            Some(m) => MachineConfig::from_value(m)?,
        };
        let workloads = v
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("config needs a \"workloads\" array")?
            .iter()
            .map(WorkloadConfig::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let policy = match opt_str(&v, "policy")? {
            None => default_policy(),
            Some(name) => name.parse::<PolicyKind>().map_err(|e| e.to_string())?,
        };
        Ok(ExperimentConfig {
            machine,
            seconds: opt_u64(&v, "seconds")?.unwrap_or_else(default_seconds),
            seed: opt_u64(&v, "seed")?.unwrap_or_else(default_seed),
            policy,
            workloads,
            series_out: opt_str(&v, "series_out")?,
        })
    }

    /// Run the experiment with `policy_override` (or the config's policy).
    pub fn run(&self, policy_override: Option<PolicyKind>) -> Result<RunResult, String> {
        self.run_with_telemetry(policy_override, Telemetry::disabled())
    }

    /// Run the experiment recording into `telemetry`. Pass an enabled
    /// handle to capture counters, phase spans and the event trace;
    /// results are identical either way (same seed → same run).
    pub fn run_with_telemetry(
        &self,
        policy_override: Option<PolicyKind>,
        telemetry: Telemetry,
    ) -> Result<RunResult, String> {
        Ok(self.build_runner(policy_override, telemetry)?.run())
    }

    /// Build the configured runner without running it — the shared front
    /// half of [`run_with_telemetry`](ExperimentConfig::run_with_telemetry)
    /// and the `vulcan-sim checkpoint` verb, which steps it partway and
    /// serializes the state instead of finishing the run.
    pub fn build_runner(
        &self,
        policy_override: Option<PolicyKind>,
        telemetry: Telemetry,
    ) -> Result<SimRunner, String> {
        if self.workloads.is_empty() {
            return Err("config needs at least one workload".into());
        }
        let kind = policy_override.unwrap_or(self.policy);
        let specs: Result<Vec<WorkloadSpec>, String> =
            self.workloads.iter().map(|w| w.to_spec()).collect();
        let specs = specs?;
        let total_rss: u64 = specs.iter().map(|w| w.rss_pages()).sum();
        let capacity = self.machine.capacity_pages();
        if total_rss > capacity {
            return Err(format!(
                "combined RSS ({total_rss} pages) exceeds machine capacity ({capacity} pages)"
            ));
        }
        Ok(SimRunner::builder()
            .machine(self.machine.to_spec())
            .workloads(specs)
            .profiler_factory(move |_| kind.profiler())
            .policy(kind.make())
            .config(SimConfig {
                n_quanta: self.seconds,
                seed: self.seed,
                telemetry,
                ..Default::default()
            })
            .build())
    }

    /// A commented example configuration.
    pub fn example() -> &'static str {
        r#"{
  "machine": { "fast_gb": 32, "slow_gb": 256, "cores": 32 },
  "seconds": 120,
  "seed": 42,
  "policy": "vulcan",
  "workloads": [
    { "kind": "preset", "preset": "memcached" },
    { "kind": "preset", "preset": "liblinear", "start_sec": 30 },
    { "kind": "micro", "name": "scanner", "rss_pages": 4096,
      "wss_pages": 1024, "read_ratio": 0.9, "threads": 4,
      "prealloc_slow": true, "start_sec": 60 }
  ],
  "series_out": null
}"#
    }
}

/// Render a run result as the standard report table.
pub fn report(res: &RunResult) -> String {
    let mut table = Table::new(
        format!("{} — per-workload results", res.policy),
        &[
            "workload",
            "class",
            "perf",
            "latency(ns)",
            "FTHR",
            "hot ratio",
        ],
    );
    for w in &res.per_workload {
        table.row(&[
            w.name.clone(),
            format!("{:?}", w.class),
            format!("{:.0}", w.performance()),
            format!("{:.0}", w.mean_latency_ns),
            format!("{:.3}", w.mean_fthr),
            format!("{:.3}", w.mean_hot_ratio),
        ]);
    }
    format!("{}\nCFI fairness: {:.3}\n", table.render(), res.cfi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_config_parses_and_validates() {
        let cfg = ExperimentConfig::from_json(ExperimentConfig::example()).unwrap();
        assert_eq!(cfg.workloads.len(), 3);
        assert_eq!(cfg.policy, PolicyKind::Vulcan);
        for w in &cfg.workloads {
            w.to_spec().unwrap();
        }
    }

    #[test]
    fn defaults_fill_in() {
        let cfg = ExperimentConfig::from_json(
            r#"{"workloads": [{"kind": "preset", "preset": "memcached"}]}"#,
        )
        .unwrap();
        assert_eq!(cfg.machine.fast_gb, 32);
        assert_eq!(cfg.seconds, 60);
        assert_eq!(cfg.policy, PolicyKind::Vulcan);
    }

    #[test]
    fn unknown_preset_and_policy_are_rejected() {
        let w = WorkloadConfig::Preset {
            preset: "redis".into(),
            start_sec: 0,
        };
        assert!(w.to_spec().is_err());
        // An unknown policy fails at config-parse time, not at run time.
        let err = ExperimentConfig::from_json(
            r#"{"policy": "firefly",
                "workloads": [{"kind": "preset", "preset": "memcached"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown policy 'firefly'"), "{err}");
        for kind in PolicyKind::ALL {
            let cfg = ExperimentConfig::from_json(&format!(
                r#"{{"policy": "{kind}",
                     "workloads": [{{"kind": "preset", "preset": "memcached"}}]}}"#
            ))
            .unwrap();
            assert_eq!(cfg.policy, kind);
        }
    }

    #[test]
    fn oversized_mix_is_rejected() {
        let cfg = ExperimentConfig::from_json(
            r#"{
                "machine": {"fast_gb": 1, "slow_gb": 1, "cores": 4},
                "workloads": [{"kind": "preset", "preset": "memcached"}]
            }"#,
        )
        .unwrap();
        let err = cfg.run(None).unwrap_err();
        assert!(err.contains("exceeds machine capacity"), "{err}");
    }

    #[test]
    fn tiny_run_end_to_end() {
        let cfg = ExperimentConfig::from_json(
            r#"{
                "machine": {"fast_gb": 2, "slow_gb": 16, "cores": 8},
                "seconds": 3,
                "workloads": [
                    {"kind": "micro", "name": "a", "rss_pages": 256,
                     "wss_pages": 64, "threads": 2}
                ]
            }"#,
        )
        .unwrap();
        let res = cfg.run(None).unwrap();
        assert_eq!(res.policy, "vulcan");
        assert!(res.workload("a").ops_total > 0);
        let text = report(&res);
        assert!(text.contains("CFI fairness"));
        // Policy override works too.
        let res2 = cfg.run(Some(PolicyKind::Memtis)).unwrap();
        assert_eq!(res2.policy, "memtis");
    }

    #[test]
    fn three_tier_machine_config_extends_the_chain() {
        let cfg = ExperimentConfig::from_json(
            r#"{
                "machine": {"fast_gb": 2, "slow_gb": 8, "nvm_gb": 32, "cores": 8},
                "seconds": 2,
                "workloads": [
                    {"kind": "micro", "name": "a", "rss_pages": 256,
                     "wss_pages": 64, "threads": 2}
                ]
            }"#,
        )
        .unwrap();
        let spec = cfg.machine.to_spec();
        assert_eq!(spec.n_tiers(), 3);
        assert_eq!(
            spec.tier(TierKind::Nvm).capacity_pages,
            32 * PAGES_PER_PAPER_GB
        );
        // Omitting nvm_gb keeps the two-tier machine.
        assert_eq!(MachineConfig::default().to_spec().n_tiers(), 2);
        let res = cfg.run(None).unwrap();
        assert!(res.workload("a").ops_total > 0);
    }

    #[test]
    fn empty_workloads_rejected() {
        let cfg = ExperimentConfig::from_json(r#"{"workloads": []}"#).unwrap();
        assert!(cfg.run(None).is_err());
    }
}
