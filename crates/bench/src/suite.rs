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
//! [`SUITE`] lists every figure and table of the evaluation. Each entry
//! names its grid builder, if it simulates, and its renderer (both in
//! [`crate::figures`]); `vulcan-bench suite` renders any subset of them
//! through one code path, scaled down with [`SuiteOpts::quick`] for CI.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rayon::prelude::*;
use vulcan::prelude::*;
use vulcan_json::Value;

use crate::figures;

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

    fn config(&self, n_quanta: u64) -> SimConfig {
        let mut cfg = SimConfig {
            n_quanta,
            seed: self.seed,
            replication: self.replication,
            faults: self.faults.clone(),
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

    /// A runner configured for `n_quanta: 0`, for drivers that step
    /// quanta themselves (the THP study reads TLB state before taking
    /// the result; the sweeps audit teardown).
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
        self.run_cells(ExperimentCell::run)
    }

    /// [`run`](Self::run) with a custom driver per cell, for targets that
    /// read runner state before taking the result (the THP study).
    pub fn run_cells<T: Send>(&self, drive: impl Fn(&ExperimentCell) -> T + Sync) -> Vec<T> {
        let total = self.cells.len();
        let done = AtomicUsize::new(0);
        let name = self.name.as_str();
        self.cells
            .par_iter()
            .map(|cell| {
                let out = drive(cell);
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{name}] {k}/{total} {}", cell.label);
                out
            })
            .collect()
    }

    /// The `suite.json` rows of `results`, this grid's results in
    /// declaration order.
    pub fn cell_rows(&self, results: &[RunResult]) -> Vec<CellRow> {
        self.cells
            .iter()
            .zip(results)
            .map(|(cell, res)| CellRow {
                label: cell.label.clone(),
                policy: res.policy.clone(),
                seed: cell.seed,
                quanta: cell.quanta,
                cfi: res.cfi,
            })
            .collect()
    }
}

/// The scale a grid is built and rendered at: full fidelity, or
/// `--quick` for CI.
#[derive(Clone, Copy, Debug)]
pub struct SuiteOpts {
    /// Trials per sweep point.
    pub trials: u64,
    /// Cap on quanta per cell (`None` = paper-fidelity durations).
    pub quanta_cap: Option<u64>,
}

impl SuiteOpts {
    /// Paper-fidelity grids: `VULCAN_TRIALS` trials, full durations, so
    /// the artifacts match the historical output byte for byte.
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

    pub(crate) fn quanta(&self, full: u64) -> u64 {
        match self.quanta_cap {
            Some(cap) => full.min(cap),
            None => full,
        }
    }
}

/// One `suite.json` row: a simulated cell and the CFI it reached.
pub struct CellRow {
    /// The cell's label within its grid.
    pub label: String,
    /// The policy that ran it.
    pub policy: String,
    /// The cell's seed.
    pub seed: u64,
    /// Quanta simulated.
    pub quanta: u64,
    /// The run's cumulative fairness index.
    pub cfi: f64,
}

/// A target rendered at one scale: what `vulcan-bench suite` prints and
/// saves for it.
pub struct Figure {
    /// One row per simulated cell, in grid order (none for analytic
    /// targets).
    pub cells: Vec<CellRow>,
    /// The paper table.
    pub table: Table,
    /// Text printed under the table (empty for none).
    pub note: String,
    /// The artifact saved as `target/experiments/<target>.json`.
    pub artifact: Value,
}

/// One figure or table of the evaluation.
pub struct SuiteEntry {
    /// Target name, also the artifact's file stem.
    pub name: &'static str,
    /// Grid builder; `None` marks an analytic target with no simulation
    /// grid (it derives its figure from the cost model or the code).
    pub build: Option<fn(&SuiteOpts) -> Experiment>,
    /// Run the target at a scale and render it; a simulation target runs
    /// `build`'s grid exactly once.
    pub render: fn(&SuiteOpts) -> Figure,
}

/// Every figure/table target, in paper order.
pub const SUITE: [SuiteEntry; 14] = [
    SuiteEntry {
        name: "fig1",
        build: Some(figures::fig1_grid),
        render: figures::fig1,
    },
    SuiteEntry {
        name: "fig2",
        build: None,
        render: figures::fig2,
    },
    SuiteEntry {
        name: "fig3",
        build: None,
        render: figures::fig3,
    },
    SuiteEntry {
        name: "fig4",
        build: Some(figures::fig4_grid),
        render: figures::fig4,
    },
    SuiteEntry {
        name: "fig7",
        build: None,
        render: figures::fig7,
    },
    SuiteEntry {
        name: "fig8",
        build: Some(figures::fig8_grid),
        render: figures::fig8,
    },
    SuiteEntry {
        name: "fig9",
        build: Some(figures::fig9_grid),
        render: figures::fig9,
    },
    SuiteEntry {
        name: "fig10",
        build: Some(figures::fig10_grid),
        render: figures::fig10,
    },
    SuiteEntry {
        name: "table1",
        build: None,
        render: figures::table1,
    },
    SuiteEntry {
        name: "table2",
        build: None,
        render: figures::table2,
    },
    SuiteEntry {
        name: "ablation",
        build: Some(figures::ablation_grid),
        render: figures::ablation,
    },
    SuiteEntry {
        name: "bias_study",
        build: Some(figures::bias_grid),
        render: figures::bias_study,
    },
    SuiteEntry {
        name: "thp",
        build: Some(figures::thp_grid),
        render: figures::thp,
    },
    SuiteEntry {
        name: "extended_compare",
        build: Some(figures::extended_grid),
        render: figures::extended_compare,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig10_grid;

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
        // Every target renders at a scale no preset uses. Two trials
        // exercise the per-point aggregation, and a renderer that took
        // the grid's shape from anywhere but these opts indexes out of
        // range; two quanta end before pagerank and liblinear arrive, so
        // renderers must read a missing series as empty.
        let opts = SuiteOpts {
            trials: 2,
            quanta_cap: Some(2),
        };
        for entry in SUITE.iter() {
            let fig = (entry.render)(&opts);
            let cells = entry.build.map_or(0, |build| {
                let exp = build(&opts);
                assert!(!exp.cells.is_empty(), "{} grid is empty", entry.name);
                assert_eq!(exp.name, entry.name);
                exp.cells.len()
            });
            assert_eq!(fig.cells.len(), cells, "{}: one row per cell", entry.name);
            let rendered = match &fig.artifact {
                Value::Array(items) => !items.is_empty(),
                Value::Object(map) => !map.is_empty(),
                _ => false,
            };
            assert!(rendered, "{}: empty artifact", entry.name);
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
