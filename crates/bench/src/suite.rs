//! The declarative experiment harness: every simulation sweep in the
//! evaluation is a grid of independent [`ExperimentCell`]s.
//!
//! A cell is fully self-contained — policy factory, profiler factory,
//! machine, workload mix, quantum count and RNG seed — so cells can run
//! in any order on any number of threads and still produce identical
//! results. [`Experiment::run`] executes the grid on the workspace
//! thread pool and returns results in declaration order, which is what
//! keeps the JSON artifacts under `target/experiments/` byte-identical
//! across `--threads 1` and `--threads N`.
//!
//! Seed derivation: a grid maps trial `t` of a sweep with base seed `b`
//! to [`cell_seed`]`(b, t) = b + t`. Trials therefore use common random
//! numbers across policies (trial `t` sees the same workload randomness
//! under every policy), and the historical per-figure seeds are
//! preserved exactly (figure 10 has always run seeds `0..n_trials`).
//!
//! The figure binaries and the `vulcan-bench suite` driver share the
//! same grid builders ([`fig10_grid`], [`ablation_grid`], …) declared in
//! [`SUITE`]; the driver can replay any subset of them through one code
//! path, scaled down with [`SuiteOpts::quick`] for CI.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rayon::prelude::*;
use vulcan::core::{VulcanConfig, VulcanPolicy};
use vulcan::migrate::{MechanismConfig, PrepStrategy};
use vulcan::prelude::*;
use vulcan::runtime::SystemState;

/// Builds a fresh policy instance for one cell.
pub type PolicyFactory = Arc<dyn Fn() -> Box<dyn TieringPolicy> + Send + Sync>;

/// Builds a fresh profiler for one workload of one cell. Returning
/// [`AnyProfiler`] keeps the runtime's enum-dispatch fast path.
pub type ProfilerFactory = Arc<dyn Fn(&WorkloadSpec) -> AnyProfiler + Send + Sync>;

/// Derive the seed of trial `trial` in a sweep with base seed `base`.
///
/// The scheme is deliberately the identity offset: trials share random
/// streams across policies (common random numbers) and the pre-harness
/// artifacts — which ran seeds `base..base + n_trials` — are reproduced
/// bit-for-bit.
pub fn cell_seed(base: u64, trial: u64) -> u64 {
    base + trial
}

/// One self-contained simulation: everything [`SimRunner`] needs, as
/// data. Cells are `Sync`, carry no results, and depend on nothing but
/// their own fields — the properties that make a grid order- and
/// thread-count-independent.
#[derive(Clone)]
pub struct ExperimentCell {
    /// Display label (`tpp/s0`, `no-cbfrp`, …) for progress lines and
    /// the suite artifact.
    pub label: String,
    /// Policy constructor.
    pub policy: PolicyFactory,
    /// Profiler constructor (per workload).
    pub profiler: ProfilerFactory,
    /// The simulated machine.
    pub machine: MachineSpec,
    /// The co-located workload mix.
    pub specs: Vec<WorkloadSpec>,
    /// Quanta to simulate.
    pub quanta: u64,
    /// RNG seed (see [`cell_seed`]).
    pub seed: u64,
    /// Override of [`SimConfig::quantum_active`] (`None` = default).
    pub quantum_active: Option<Nanos>,
    /// Per-thread page-table replication (ablation switch).
    pub replication: bool,
    /// Fault-injection rates (ISSUE 5; all-zero = disabled, exact no-op).
    pub faults: vulcan::sim::FaultConfig,
    /// Intra-cell shard count for the execute phase (ISSUE 7). `1` is
    /// the sequential sweep; results are byte-identical for any value.
    pub shards: usize,
}

impl ExperimentCell {
    /// A cell for a registered [`PolicyKind`] on the paper testbed with
    /// the policy's native profiler.
    pub fn new(kind: PolicyKind, specs: Vec<WorkloadSpec>, quanta: u64, seed: u64) -> Self {
        ExperimentCell::custom(
            format!("{kind}/s{seed}"),
            Arc::new(move || kind.make()),
            Arc::new(move |_| kind.profiler()),
            specs,
            quanta,
            seed,
        )
    }

    /// A cell with explicit policy and profiler factories (ablations,
    /// custom policies such as figure 4's promoter).
    pub fn custom(
        label: impl Into<String>,
        policy: PolicyFactory,
        profiler: ProfilerFactory,
        specs: Vec<WorkloadSpec>,
        quanta: u64,
        seed: u64,
    ) -> Self {
        ExperimentCell {
            label: label.into(),
            policy,
            profiler,
            machine: MachineSpec::paper_testbed(),
            specs,
            quanta,
            seed,
            quantum_active: None,
            replication: true,
            faults: vulcan::sim::FaultConfig::default(),
            shards: 1,
        }
    }

    /// Replace the simulated machine.
    pub fn on_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = machine;
        self
    }

    /// Override the active time per quantum.
    pub fn with_quantum_active(mut self, q: Nanos) -> Self {
        self.quantum_active = Some(q);
        self
    }

    /// Toggle per-thread page-table replication.
    pub fn with_replication(mut self, on: bool) -> Self {
        self.replication = on;
        self
    }

    /// Inject faults from `cfg`'s seeded schedule (the chaos sweeps).
    pub fn with_faults(mut self, faults: vulcan::sim::FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Shard the execute phase across `n` core-disjoint sweeps.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    fn config(&self, n_quanta: u64) -> SimConfig {
        let mut cfg = SimConfig {
            n_quanta,
            seed: self.seed,
            replication: self.replication,
            faults: self.faults.clone(),
            shards: self.shards,
            ..Default::default()
        };
        if let Some(q) = self.quantum_active {
            cfg.quantum_active = q;
        }
        cfg
    }

    fn build(&self, n_quanta: u64) -> SimRunner {
        let profiler = Arc::clone(&self.profiler);
        SimRunner::builder()
            .machine(self.machine.clone())
            .workloads(self.specs.clone())
            .profiler_factory(move |w| profiler(w))
            .policy((self.policy)())
            .config(self.config(n_quanta))
            .build()
    }

    /// A runner configured for `n_quanta: 0`, for binaries that step
    /// quanta manually (the THP study inspects TLB state mid-run).
    pub fn paused_runner(&self) -> SimRunner {
        self.build(0)
    }

    /// Run the cell to completion.
    pub fn run(&self) -> RunResult {
        self.build(self.quanta).run()
    }
}

/// A named grid of cells.
pub struct Experiment {
    /// Grid name (`fig10`, `ablation`, …).
    pub name: String,
    /// The cells, in declaration order.
    pub cells: Vec<ExperimentCell>,
}

impl Experiment {
    /// An empty grid.
    pub fn new(name: impl Into<String>) -> Self {
        Experiment {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// Append a cell.
    pub fn push(&mut self, cell: ExperimentCell) {
        self.cells.push(cell);
    }

    /// Run every cell on the workspace thread pool, reporting progress
    /// on stderr. Results come back in declaration order regardless of
    /// which thread finished which cell first.
    pub fn run(&self) -> Vec<RunResult> {
        let total = self.cells.len();
        let done = AtomicUsize::new(0);
        let name = self.name.as_str();
        self.cells
            .par_iter()
            .map(|cell| {
                let res = cell.run();
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{name}] {k}/{total} {}", cell.label);
                res
            })
            .collect()
    }
}

/// Scaling knobs shared by the figure binaries (full fidelity) and the
/// `vulcan-bench suite` driver (`--quick` for CI).
#[derive(Clone, Copy, Debug)]
pub struct SuiteOpts {
    /// Trials per sweep point.
    pub trials: u64,
    /// Cap on quanta per cell (`None` = paper-fidelity durations).
    pub quanta_cap: Option<u64>,
}

impl SuiteOpts {
    /// Paper-fidelity grids: `VULCAN_TRIALS` trials, full durations.
    /// The figure binaries always use this, so their artifacts match the
    /// historical output byte for byte.
    pub fn full() -> Self {
        SuiteOpts {
            trials: crate::trials(),
            quanta_cap: None,
        }
    }

    /// CI-scale grids: one trial, quanta capped at 20.
    pub fn quick() -> Self {
        SuiteOpts {
            trials: 1,
            quanta_cap: Some(20),
        }
    }

    fn quanta(&self, full: u64) -> u64 {
        match self.quanta_cap {
            Some(cap) => full.min(cap),
            None => full,
        }
    }
}

/// Figure 1: Memtis on Memcached/Liblinear, solo and co-located.
pub fn fig1_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("fig1");
    let quanta = o.quanta(60);
    for (label, specs) in [
        ("solo_mc", vec![memcached()]),
        ("solo_lib", vec![liblinear()]),
        ("co", vec![memcached(), liblinear()]),
    ] {
        let mut cell = ExperimentCell::new(PolicyKind::Memtis, specs, quanta, 1);
        cell.label = label.into();
        exp.push(cell);
    }
    exp
}

/// Figure 4's read-ratio sweep points.
pub const FIG4_RATIOS: [f64; 6] = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];

/// Figure 4's promotion policy: promote every sufficiently hot slow
/// page through one copy engine or the other.
pub struct Promoter {
    /// `true` = synchronous copies (stall, always land); `false` =
    /// asynchronous transactional copies (no stalls, dirty aborts).
    pub sync: bool,
}

impl TieringPolicy for Promoter {
    fn name(&self) -> &'static str {
        if self.sync {
            "sync"
        } else {
            "async"
        }
    }

    fn on_quantum(&mut self, state: &mut SystemState) {
        let mech = MechanismConfig::linux_baseline();
        for w in 0..state.n_workloads() {
            state.poll_async(w, &mech);
            // Watermark demotion keeps room for the drifting hot set
            // (off the critical path for both variants).
            if state.fast_free() < 128 {
                let victims: Vec<Vpn> = {
                    let ws = &state.workloads[w];
                    let mut cold: Vec<(Vpn, f64)> = ws
                        .process
                        .space
                        .mapped_vpns()
                        .filter(|&v| ws.process.space.pte(v).tier() == Some(TierKind::Fast))
                        .map(|v| (v, ws.heat().get(v).heat))
                        .collect();
                    cold.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                    cold.into_iter().take(256).map(|(v, _)| v).collect()
                };
                state.migrate_background(w, &victims, TierKind::Slow, &mech);
            }
            let hot: Vec<Vpn> = {
                let ws = &state.workloads[w];
                let mut hot: Vec<(Vpn, f64)> = ws
                    .heat()
                    .iter()
                    .filter(|(vpn, s)| {
                        s.heat >= 1.0
                            && ws.process.space.pte(*vpn).tier() == Some(TierKind::Slow)
                            && !ws.async_migrator.is_inflight(*vpn)
                    })
                    .map(|(v, s)| (v, s.heat))
                    .collect();
                // The heat map iterates in hash order; the copy engines
                // are order-sensitive (capacity, dirty aborts), so pick
                // a deterministic order: hottest first, VPN tie-break.
                hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                hot.into_iter().map(|(v, _)| v).collect()
            };
            if hot.is_empty() {
                continue;
            }
            if self.sync {
                state.migrate_sync(w, &hot, TierKind::Fast, &mech);
            } else {
                state.migrate_async(w, &hot, TierKind::Fast);
            }
        }
    }
}

/// Figure 4: sync vs async promotion across read ratios. Cell order is
/// ratio-major, then trial, then `[sync, async]`.
pub fn fig4_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("fig4");
    let quanta = o.quanta(20);
    for &ratio in &FIG4_RATIOS {
        for trial in 0..o.trials {
            let seed = cell_seed(0, trial);
            for sync in [true, false] {
                let spec = microbench(
                    "mb",
                    MicroConfig {
                        rss_pages: 2_048,
                        wss_pages: 64,
                        read_ratio: ratio,
                        skew: 1.35,   // heavy head: a few pages carry most of the load
                        wss_drift: 1, // the hot set keeps moving: sustained promotion
                        ..Default::default()
                    },
                    2,
                )
                .preallocated(TierKind::Slow);
                let engine = if sync { "sync" } else { "async" };
                exp.push(
                    ExperimentCell::custom(
                        format!("r{ratio:.2}/{engine}/s{seed}"),
                        Arc::new(move || Box::new(Promoter { sync })),
                        Arc::new(|_| PebsProfiler::new(4).into()),
                        vec![spec],
                        quanta,
                        seed,
                    )
                    .on_machine(MachineSpec::small(1024, 4096, 32))
                    .with_quantum_active(Nanos::millis(1)),
                );
            }
        }
    }
    exp
}

/// Figure 8: the four systems across WSS scenarios. Cell order is
/// scenario-major, then policy, then trial.
pub fn fig8_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("fig8");
    let quanta = o.quanta(40);
    for scenario in WssScenario::ALL {
        for kind in PolicyKind::PAPER {
            for trial in 0..o.trials {
                let seed = cell_seed(0, trial);
                let spec = microbench("mb", MicroConfig::fig8_scenario(scenario), 8)
                    .preallocated(TierKind::Slow);
                let mut cell = ExperimentCell::new(kind, vec![spec], quanta, seed);
                cell.label = format!("{}/{kind}/s{seed}", scenario.label());
                exp.push(cell);
            }
        }
    }
    exp
}

/// Figure 9: a single Vulcan run of the §5.3 co-location.
pub fn fig9_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("fig9");
    exp.push(ExperimentCell::new(
        PolicyKind::Vulcan,
        crate::colocation_specs(),
        o.quanta(200),
        1,
    ));
    exp
}

/// Figure 10: the four systems × trials on the §5.3 co-location. Cell
/// order is policy-major, then trial; seeds are `0..trials`.
pub fn fig10_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("fig10");
    let quanta = o.quanta(200);
    for kind in PolicyKind::PAPER {
        for trial in 0..o.trials {
            exp.push(ExperimentCell::new(
                kind,
                crate::colocation_specs(),
                quanta,
                cell_seed(0, trial),
            ));
        }
    }
    exp
}

/// Extended comparison: all seven registered systems, one run each.
pub fn extended_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("extended_compare");
    let quanta = o.quanta(200);
    for kind in PolicyKind::ALL {
        exp.push(ExperimentCell::new(
            kind,
            crate::colocation_specs(),
            quanta,
            42,
        ));
    }
    exp
}

fn ablation_variants() -> Vec<(&'static str, VulcanConfig, bool)> {
    let base = VulcanConfig::default();
    vec![
        ("full", base.clone(), true),
        (
            "no-cbfrp",
            VulcanConfig {
                cbfrp: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no-bias",
            VulcanConfig {
                biased_queues: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no-replication",
            VulcanConfig {
                mechanism: MechanismConfig {
                    scope: ShootdownScope::ProcessWide,
                    ..MechanismConfig::vulcan()
                },
                ..base.clone()
            },
            false,
        ),
        (
            "no-shadowing",
            VulcanConfig {
                mechanism: MechanismConfig {
                    shadowing: false,
                    ..MechanismConfig::vulcan()
                },
                ..base.clone()
            },
            true,
        ),
        (
            "linux-mechanism",
            VulcanConfig {
                mechanism: MechanismConfig {
                    prep: PrepStrategy::BaselineGlobal,
                    scope: ShootdownScope::ProcessWide,
                    shadowing: false,
                    ..MechanismConfig::vulcan()
                },
                ..base
            },
            false,
        ),
    ]
}

/// Component ablation: Vulcan with one innovation disabled at a time.
pub fn ablation_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("ablation");
    let quanta = o.quanta(200);
    for (name, cfg, replication) in ablation_variants() {
        exp.push(
            ExperimentCell::custom(
                name,
                Arc::new(move || Box::new(VulcanPolicy::with_config(cfg.clone()))),
                Arc::new(|_| HybridProfiler::vulcan_default().into()),
                crate::colocation_specs(),
                quanta,
                42,
            )
            .with_replication(replication),
        );
    }
    exp
}

/// The bias study's workloads, in grid order.
pub const BIAS_WORKLOADS: [&str; 2] = ["pagerank", "write-heavy"];

/// The bias study's policy lineage, in grid order.
pub const BIAS_VARIANTS: [&str; 3] = [
    "mtm (r/w split only)",
    "vulcan no-bias (all async)",
    "vulcan (table 1)",
];

fn bias_workload(which: &str) -> WorkloadSpec {
    match which {
        "pagerank" => pagerank(),
        // Write-heavy drifting hot set: the worst case for async-only
        // promotion (every transaction lands in the dirty window).
        "write-heavy" => microbench(
            "write-heavy",
            MicroConfig {
                rss_pages: 8_192,
                wss_pages: 128,
                read_ratio: 0.1,
                skew: 1.2,
                wss_drift: 1,
                ..Default::default()
            },
            8,
        )
        .preallocated(TierKind::Slow),
        _ => unreachable!(),
    }
}

fn bias_policy(variant: &str) -> Box<dyn TieringPolicy> {
    match variant {
        "mtm (r/w split only)" => Box::new(Mtm::new()),
        "vulcan no-bias (all async)" => Box::new(VulcanPolicy::with_config(VulcanConfig {
            biased_queues: false,
            ..Default::default()
        })),
        "vulcan (table 1)" => Box::new(VulcanPolicy::new()),
        _ => unreachable!(),
    }
}

/// Biased-policy lineage (§3.5): MTM → no-bias → Table 1, on two
/// workloads with different sharing structure. Cell order is
/// workload-major, variant-minor.
pub fn bias_grid(o: &SuiteOpts) -> Experiment {
    let mut exp = Experiment::new("bias_study");
    let quanta = o.quanta(40);
    for which in BIAS_WORKLOADS {
        for variant in BIAS_VARIANTS {
            // Isolate the *policy*: same PEBS profiler for every variant.
            exp.push(
                ExperimentCell::custom(
                    format!("{which}/{variant}"),
                    Arc::new(move || bias_policy(variant)),
                    Arc::new(|_| PebsProfiler::new(16).into()),
                    vec![bias_workload(which)],
                    quanta,
                    42,
                )
                .on_machine(MachineSpec::small(4_096, 32_768, 16))
                .with_replication(variant != BIAS_VARIANTS[0]),
            );
        }
    }
    exp
}

/// The THP study's working-set sizes (2 MiB regions), in grid order.
pub const THP_WSS_REGIONS: [u64; 3] = [4, 8, 16];

/// THP study: TLB reach and split-on-promotion under the Vulcan policy.
/// Cell order is WSS-major, then `[4 KiB, THP]`.
pub fn thp_grid(o: &SuiteOpts) -> Experiment {
    use vulcan::sim::HUGE_PAGE_PAGES;
    let mut exp = Experiment::new("thp");
    let quanta = o.quanta(15);
    for wss_regions in THP_WSS_REGIONS {
        for thp in [false, true] {
            let spec = {
                let s = microbench(
                    "mb",
                    MicroConfig {
                        rss_pages: 16 * HUGE_PAGE_PAGES as u64,
                        wss_pages: wss_regions * HUGE_PAGE_PAGES as u64,
                        skew: 0.6,
                        ..Default::default()
                    },
                    8,
                );
                if thp {
                    s.with_thp()
                } else {
                    s
                }
            };
            let mut cell = ExperimentCell::new(PolicyKind::Vulcan, vec![spec], quanta, 1);
            cell.label = format!("wss{wss_regions}/{}", if thp { "thp" } else { "base" });
            exp.push(cell);
        }
    }
    exp
}

/// One target the `vulcan-bench suite` driver can run.
pub struct SuiteEntry {
    /// Target name (matches the figure binary).
    pub name: &'static str,
    /// Grid builder; `None` marks an analytic target with no simulation
    /// grid (its binary derives the figure from the cost model alone).
    pub build: Option<fn(&SuiteOpts) -> Experiment>,
}

/// Every figure/table target, in paper order. Simulation targets carry
/// their grid builder; analytic ones are listed so `suite --list` is a
/// complete index.
pub const SUITE: [SuiteEntry; 14] = [
    SuiteEntry {
        name: "fig1",
        build: Some(fig1_grid),
    },
    SuiteEntry {
        name: "fig2",
        build: None,
    },
    SuiteEntry {
        name: "fig3",
        build: None,
    },
    SuiteEntry {
        name: "fig4",
        build: Some(fig4_grid),
    },
    SuiteEntry {
        name: "fig7",
        build: None,
    },
    SuiteEntry {
        name: "fig8",
        build: Some(fig8_grid),
    },
    SuiteEntry {
        name: "fig9",
        build: Some(fig9_grid),
    },
    SuiteEntry {
        name: "fig10",
        build: Some(fig10_grid),
    },
    SuiteEntry {
        name: "table1",
        build: None,
    },
    SuiteEntry {
        name: "table2",
        build: None,
    },
    SuiteEntry {
        name: "ablation",
        build: Some(ablation_grid),
    },
    SuiteEntry {
        name: "bias_study",
        build: Some(bias_grid),
    },
    SuiteEntry {
        name: "thp",
        build: Some(thp_grid),
    },
    SuiteEntry {
        name: "extended_compare",
        build: Some(extended_grid),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_identity_offset() {
        assert_eq!(cell_seed(0, 3), 3);
        assert_eq!(cell_seed(100, 7), 107);
    }

    #[test]
    fn quick_opts_scale_grids_down() {
        let full = fig10_grid(&SuiteOpts {
            trials: 2,
            quanta_cap: None,
        });
        let quick = fig10_grid(&SuiteOpts::quick());
        assert_eq!(full.cells.len(), 8);
        assert_eq!(quick.cells.len(), 4);
        assert!(quick.cells.iter().all(|c| c.quanta <= 20));
        assert_eq!(full.cells[0].quanta, 200);
    }

    #[test]
    fn fig10_grid_is_policy_major_with_trial_seeds() {
        let o = SuiteOpts {
            trials: 2,
            quanta_cap: None,
        };
        let exp = fig10_grid(&o);
        let labels: Vec<&str> = exp.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "tpp/s0",
                "tpp/s1",
                "memtis/s0",
                "memtis/s1",
                "nomad/s0",
                "nomad/s1",
                "vulcan/s0",
                "vulcan/s1"
            ]
        );
        assert_eq!(exp.cells[1].seed, 1);
    }

    #[test]
    fn suite_registry_covers_all_fourteen_targets() {
        assert_eq!(SUITE.len(), 14);
        let sim = SUITE.iter().filter(|e| e.build.is_some()).count();
        assert_eq!(sim, 9);
        // Each registered sim target builds a non-empty quick grid.
        for entry in SUITE.iter() {
            if let Some(build) = entry.build {
                let exp = build(&SuiteOpts::quick());
                assert!(!exp.cells.is_empty(), "{} grid is empty", entry.name);
                assert_eq!(exp.name, entry.name);
            }
        }
    }

    #[test]
    fn tiny_grid_runs_in_declaration_order() {
        let mut exp = Experiment::new("test");
        for seed in [5u64, 3, 9] {
            exp.push(ExperimentCell::new(
                PolicyKind::Vulcan,
                vec![microbench(
                    "mb",
                    MicroConfig {
                        rss_pages: 128,
                        wss_pages: 32,
                        ..Default::default()
                    },
                    2,
                )],
                2,
                seed,
            ));
        }
        let results = exp.run();
        assert_eq!(results.len(), 3);
        // Every cell ran the vulcan policy and produced a finished run.
        for res in &results {
            assert_eq!(res.policy, "vulcan");
            assert!(res.workload("mb").ops_total > 0);
        }
        // Declaration order is preserved: rerunning cell 1 alone gives
        // the same result object as slot 1 of the grid run.
        let solo = exp.cells[1].run();
        assert_eq!(solo.cfi, results[1].cfi);
        assert_eq!(
            solo.workload("mb").ops_total,
            results[1].workload("mb").ops_total
        );
    }
}
