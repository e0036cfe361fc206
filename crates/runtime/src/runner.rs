//! The quantum-stepped simulation driver.
//!
//! Each *quantum* represents one displayed second of the paper's
//! timelines but simulates a shorter active window (`quantum_active`,
//! default 2 ms) of every thread's execution — the workloads are
//! stationary at sub-second scale, so the window is statistically
//! representative while keeping full-timeline runs (~200 s) cheap.
//! Throughput and bandwidth are normalized to simulated *active* time, so
//! the scaling does not distort any reported rate.

use crate::access::run_thread_quantum;
use crate::policy::TieringPolicy;
use crate::state::{MigrationCounts, SystemState, WorkloadState};
use vulcan_metrics::{CfiAccumulator, PlaneSample, SeriesSet, StatPlanes};
use vulcan_profile::AnyProfiler;
use vulcan_sim::{
    Cycles, FaultConfig, FaultPlan, FaultSite, FaultStats, Machine, MachineSpec, Nanos, TierKind,
    N_FAULT_SITES,
};
use vulcan_telemetry::{Counter, EventKind, Telemetry};
use vulcan_vm::TlbArray;
use vulcan_workloads::{WorkloadClass, WorkloadSpec};

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Simulated active execution per quantum (per thread).
    pub quantum_active: Nanos,
    /// Displayed wall time per quantum (timeline granularity).
    pub quantum_wall: Nanos,
    /// Number of quanta to run.
    pub n_quanta: u64,
    /// RNG seed (trials vary this).
    pub seed: u64,
    /// Enable per-thread page-table replication (§3.4); ablation switch.
    pub replication: bool,
    /// Record full time series (disable for throughput-only sweeps).
    pub record_series: bool,
    /// Telemetry sink. Disabled by default; an enabled handle records
    /// metrics, phase spans and a structured event trace without
    /// changing any simulation result.
    pub telemetry: Telemetry,
    /// Fault-injection rates (ISSUE 5). All-zero by default, in which
    /// case the plan is an exact no-op and output stays byte-identical
    /// to a build without the subsystem. The schedule derives from
    /// `seed`, so reruns and different `--threads` values see the same
    /// fault sequence.
    pub faults: FaultConfig,
    /// Has no effect: every quantum runs one sequential sweep. The
    /// member once split that sweep across threads without changing any
    /// result. It stays because `perfbench` still names it in a
    /// `SimConfig` literal; checkpoints still write it and read it back,
    /// so their bytes are unchanged.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            quantum_active: Nanos::millis(2),
            quantum_wall: Nanos::secs(1),
            n_quanta: 60,
            seed: 42,
            replication: true,
            record_series: true,
            telemetry: Telemetry::disabled(),
            faults: FaultConfig::default(),
            shards: 1,
        }
    }
}

impl vulcan_json::Snapshot for SimConfig {
    /// The telemetry handle is NOT serialized (recording never affects
    /// results); a restored config starts with a disabled sink.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        snap::obj(vec![
            ("quantum_active", snap::u64_value(self.quantum_active.0)),
            ("quantum_wall", snap::u64_value(self.quantum_wall.0)),
            ("n_quanta", snap::u64_value(self.n_quanta)),
            ("seed", snap::u64_value(self.seed)),
            ("replication", Value::Bool(self.replication)),
            ("record_series", Value::Bool(self.record_series)),
            ("faults", self.faults.snapshot()),
            ("shards", snap::u64_value(self.shards as u64)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        Ok(SimConfig {
            quantum_active: Nanos(snap::field_u64(v, "quantum_active")?),
            quantum_wall: Nanos(snap::field_u64(v, "quantum_wall")?),
            n_quanta: snap::field_u64(v, "n_quanta")?,
            seed: snap::field_u64(v, "seed")?,
            replication: snap::field_bool(v, "replication")?,
            record_series: snap::field_bool(v, "record_series")?,
            telemetry: Telemetry::disabled(),
            faults: FaultConfig::restore(snap::field(v, "faults")?)?,
            shards: snap::field_usize(v, "shards")?,
        })
    }
}

/// Per-workload summary of a finished run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Ground-truth class.
    pub class: WorkloadClass,
    /// Mean throughput over started quanta (ops per active second).
    pub mean_ops_per_sec: f64,
    /// Mean operation latency (ns).
    pub mean_latency_ns: f64,
    /// Mean fast-tier hit ratio (FTHR).
    pub mean_fthr: f64,
    /// Mean fraction of the RSS resident in fast memory (Figure 1's
    /// "hot page ratio" — the share of pages classified hot).
    pub mean_hot_ratio: f64,
    /// Mean read bandwidth (GB/s of demand traffic).
    pub mean_read_gbps: f64,
    /// Mean write bandwidth (GB/s of demand traffic).
    pub mean_write_gbps: f64,
    /// Total operations completed.
    pub ops_total: u64,
    /// Total synchronous migration stall charged.
    pub stall_cycles: Cycles,
    /// Page-table memory added by per-thread replication.
    pub replication_overhead_bytes: u64,
}

impl WorkloadResult {
    /// The paper's per-class performance metric: op latency inverse for
    /// latency-critical workloads, throughput for best-effort ones.
    pub fn performance(&self) -> f64 {
        match self.class {
            WorkloadClass::LatencyCritical => {
                if self.mean_latency_ns == 0.0 {
                    0.0
                } else {
                    1e9 / self.mean_latency_ns
                }
            }
            WorkloadClass::BestEffort => self.mean_ops_per_sec,
        }
    }
}

/// Summary of a finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The policy that ran.
    pub policy: String,
    /// Per-workload summaries, in spec order.
    pub per_workload: Vec<WorkloadResult>,
    /// FTHR-weighted Cumulative Fairness Index (equation 4).
    pub cfi: f64,
    /// Recorded time series (empty if disabled).
    pub series: SeriesSet,
}

impl RunResult {
    /// Look up a workload's result by name.
    pub fn workload(&self, name: &str) -> &WorkloadResult {
        self.per_workload
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no workload named {name}"))
    }
}

/// One workload's slice of a [`QuantumOutcome`], index-aligned with the
/// runner's workload list. Non-live slots (not yet arrived, departed)
/// report the all-zero default.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadQuantum {
    /// Whether the workload executed this quantum.
    pub live: bool,
    /// Operations completed this quantum.
    pub ops: u64,
    /// Demand accesses served by the fast tier.
    pub fast_hits: u64,
    /// Demand accesses served by the slow tier.
    pub slow_hits: u64,
    /// Mean operation latency this quantum (ns).
    pub mean_latency_ns: f64,
    /// Throughput this quantum (ops per simulated active second).
    pub ops_per_sec: f64,
    /// Fast-tier hit ratio after this quantum's EMA update (equation 2).
    pub fthr: f64,
    /// Fast-resident share of the RSS after this quantum's decisions.
    pub hot_ratio: f64,
    /// Synchronous migration stall charged this quantum.
    pub stall: Cycles,
}

/// The typed result of one [`SimRunner::run_quantum`] step: everything
/// step-wise drivers (the churn engine, tests) previously scraped out
/// of `SystemState` internals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuantumOutcome {
    /// Index of the quantum that ran (pre-increment).
    pub quantum_index: u64,
    /// Simulated instant after the quantum's wall time elapsed — the
    /// timestamp timeline consumers should stamp this quantum with.
    pub ended_at: Nanos,
    /// Pages moved this quantum, by mechanism and direction.
    pub migrations: MigrationCounts,
    /// Free fast-tier pages after the quantum's decisions.
    pub fast_free: u64,
    /// Total fast-tier capacity in pages.
    pub fast_capacity: u64,
    /// Per-workload slices, index-aligned with the workload list.
    pub workloads: Vec<WorkloadQuantum>,
}

/// The simulation driver: workloads + machine + policy.
pub struct SimRunner {
    /// The live system state (public for policy unit tests).
    pub state: SystemState,
    policy: Box<dyn TieringPolicy>,
    cfg: SimConfig,
    // Kept past construction so workloads admitted mid-run (churn) get
    // profilers from the same factory as construction-time specs.
    profiler_factory: BoxedProfilerFactory,
    series: SeriesSet,
    cfi: CfiAccumulator,
    planes: StatPlanes,
    // Telemetry handles held across quanta (cheap no-ops when disabled).
    ops_counter: Counter,
    fast_hits_counter: Counter,
    slow_hits_counter: Counter,
    quanta_counter: Counter,
    lat_hist: vulcan_telemetry::Histogram,
    // Fault-injection counters, indexed by `FaultSite::index()`, plus
    // the last published tallies (counters receive per-quantum deltas).
    fault_injected: [Counter; N_FAULT_SITES],
    fault_recovered: [Counter; N_FAULT_SITES],
    published_faults: FaultStats,
}

/// Telemetry counter names per fault site, in [`FaultSite::ALL`] order
/// (counter names must be `&'static str`, so the `faults.injected.` /
/// `faults.recovered.` prefixes cannot be concatenated at runtime).
const FAULT_INJECTED_NAMES: [&str; N_FAULT_SITES] = [
    "faults.injected.alloc_fast",
    "faults.injected.alloc_slow",
    "faults.injected.copy_fail",
    "faults.injected.shootdown_timeout",
    "faults.injected.throttle",
    "faults.injected.sample_drop",
    "faults.injected.alloc_nvm",
];
const FAULT_RECOVERED_NAMES: [&str; N_FAULT_SITES] = [
    "faults.recovered.alloc_fast",
    "faults.recovered.alloc_slow",
    "faults.recovered.copy_fail",
    "faults.recovered.shootdown_timeout",
    "faults.recovered.throttle",
    "faults.recovered.sample_drop",
    "faults.recovered.alloc_nvm",
];

/// Marker type for a [`SimRunnerBuilder`] field that has been provided.
pub struct Set;
/// Marker type for a required [`SimRunnerBuilder`] field not yet provided.
pub struct Unset;

/// A boxed per-workload profiler constructor, as stored by the builder.
type BoxedProfilerFactory = Box<dyn FnMut(&WorkloadSpec) -> AnyProfiler>;

/// Builder for [`SimRunner`] with compile-checked required fields.
///
/// The three type parameters track whether the machine, the workloads
/// and the policy have been supplied; [`SimRunnerBuilder::build`] only
/// exists once all three are [`Set`], so forgetting one is a compile
/// error, not a panic:
///
/// ```compile_fail
/// # use vulcan_runtime::SimRunner;
/// // error[E0599]: no method `build` — the policy was never provided.
/// SimRunner::builder()
///     .machine(vulcan_sim::MachineSpec::small(64, 512, 4))
///     .workloads(vec![])
///     .build();
/// ```
///
/// The profiler factory defaults to [`HybridProfiler::vulcan_default`]
/// and the configuration to [`SimConfig::default`]; both are optional.
///
/// [`HybridProfiler::vulcan_default`]: vulcan_profile::HybridProfiler::vulcan_default
pub struct SimRunnerBuilder<M = Unset, W = Unset, P = Unset> {
    machine: Option<MachineSpec>,
    specs: Vec<WorkloadSpec>,
    profiler_factory: BoxedProfilerFactory,
    policy: Option<Box<dyn TieringPolicy>>,
    cfg: SimConfig,
    _state: std::marker::PhantomData<(M, W, P)>,
}

impl<M, W, P> SimRunnerBuilder<M, W, P> {
    fn transition<M2, W2, P2>(self) -> SimRunnerBuilder<M2, W2, P2> {
        SimRunnerBuilder {
            machine: self.machine,
            specs: self.specs,
            profiler_factory: self.profiler_factory,
            policy: self.policy,
            cfg: self.cfg,
            _state: std::marker::PhantomData,
        }
    }

    /// The simulated machine to run on (required).
    pub fn machine(mut self, spec: MachineSpec) -> SimRunnerBuilder<Set, W, P> {
        self.machine = Some(spec);
        self.transition()
    }

    /// The co-located workload mix (required; may be empty for
    /// machine-only tests).
    pub fn workloads(mut self, specs: Vec<WorkloadSpec>) -> SimRunnerBuilder<M, Set, P> {
        self.specs = specs;
        self.transition()
    }

    /// The tiering policy driving migration decisions (required).
    pub fn policy(mut self, policy: Box<dyn TieringPolicy>) -> SimRunnerBuilder<M, W, Set> {
        self.policy = Some(policy);
        self.transition()
    }

    /// Override the per-workload profiler factory (optional; defaults to
    /// Vulcan's hybrid profiler for every workload).
    ///
    /// Accepts any return type convertible into [`AnyProfiler`]: a
    /// concrete profiler or a `Box` of one (unboxed onto the enum fast
    /// path).
    pub fn profiler_factory<R: Into<AnyProfiler>>(
        mut self,
        mut f: impl FnMut(&WorkloadSpec) -> R + 'static,
    ) -> SimRunnerBuilder<M, W, P> {
        self.profiler_factory = Box::new(move |spec| f(spec).into());
        self
    }

    /// Override the run configuration (optional; defaults to
    /// [`SimConfig::default`]).
    pub fn config(mut self, cfg: SimConfig) -> SimRunnerBuilder<M, W, P> {
        self.cfg = cfg;
        self
    }
}

impl SimRunnerBuilder<Set, Set, Set> {
    /// Construct the runner. Only callable once machine, workloads and
    /// policy have all been provided.
    // Allow-listed for the ISSUE 5 lint gate: the typestate parameters
    // prove both options are Some — this method only exists on
    // `SimRunnerBuilder<Set, Set, Set>`.
    #[allow(clippy::expect_used)]
    pub fn build(self) -> SimRunner {
        SimRunner::construct(
            self.machine.expect("machine is Set"),
            self.specs,
            self.profiler_factory,
            self.policy.expect("policy is Set"),
            self.cfg,
        )
    }
}

impl SimRunner {
    /// Start building a runner: machine, workloads and policy are
    /// required; profiler factory and config are optional.
    pub fn builder() -> SimRunnerBuilder {
        SimRunnerBuilder {
            machine: None,
            specs: Vec::new(),
            profiler_factory: Box::new(|_| vulcan_profile::HybridProfiler::vulcan_default().into()),
            policy: None,
            cfg: SimConfig::default(),
            _state: std::marker::PhantomData,
        }
    }

    /// Build a runner with the given machine, workloads, profiler factory
    /// and policy.
    fn construct(
        machine_spec: MachineSpec,
        specs: Vec<WorkloadSpec>,
        mut make_profiler: BoxedProfilerFactory,
        policy: Box<dyn TieringPolicy>,
        cfg: SimConfig,
    ) -> SimRunner {
        let n = specs.len();
        let mut state = SystemState::new(
            Machine::new(machine_spec),
            specs,
            &mut make_profiler,
            cfg.replication,
            cfg.seed,
        );
        state.quantum_active = cfg.quantum_active;
        state.telemetry = cfg.telemetry.clone();
        // Install the fault schedule after construction so workload
        // prealloc (placement before the run starts) is never injected.
        // With all rates zero the plan is disabled and every hook is an
        // exact no-op, preserving byte-identical output.
        if cfg.faults.any_enabled() {
            state.machine.faults = FaultPlan::new(cfg.seed, cfg.faults.clone());
        }
        let tel = &cfg.telemetry;
        let (ops_counter, fast_hits_counter, slow_hits_counter, quanta_counter) = (
            tel.counter("sim.ops"),
            tel.counter("sim.accesses.fast"),
            tel.counter("sim.accesses.slow"),
            tel.counter("sim.quanta"),
        );
        // Per-quantum mean op latency distribution (ns).
        let lat_hist = tel.histogram(
            "quantum.mean_latency_ns",
            &[100, 300, 1_000, 3_000, 10_000, 30_000, 100_000],
        );
        let fault_injected = FAULT_INJECTED_NAMES.map(|n| tel.counter(n));
        let fault_recovered = FAULT_RECOVERED_NAMES.map(|n| tel.counter(n));
        SimRunner {
            state,
            policy,
            cfg,
            profiler_factory: make_profiler,
            series: SeriesSet::new(),
            cfi: CfiAccumulator::new(n),
            planes: StatPlanes::new(n),
            ops_counter,
            fast_hits_counter,
            slow_hits_counter,
            quanta_counter,
            lat_hist,
            fault_injected,
            fault_recovered,
            published_faults: FaultStats::default(),
        }
    }

    /// Serialize the runner's complete state as a versioned checkpoint
    /// (see [`crate::checkpoint`]). Take it at a quantum boundary —
    /// between [`run_quantum`](Self::run_quantum) calls — where the
    /// phase protocol guarantees a consistent state.
    pub fn checkpoint(&self) -> Result<vulcan_json::Value, String> {
        use vulcan_json::{snap, Snapshot as _, Value};
        Ok(snap::obj(vec![
            (
                "format",
                Value::Str(crate::checkpoint::CHECKPOINT_FORMAT.to_string()),
            ),
            (
                "version",
                snap::u64_value(crate::checkpoint::CHECKPOINT_VERSION),
            ),
            (
                "policy",
                snap::obj(vec![
                    ("name", Value::Str(self.policy.name().to_string())),
                    ("state", self.policy.snapshot_state()?),
                ]),
            ),
            ("config", self.cfg.snapshot()),
            ("state", self.state.checkpoint_value()),
            ("series", self.series.snapshot()),
            ("cfi", self.cfi.snapshot()),
            ("planes", self.planes.snapshot()),
        ]))
    }

    /// Rebuild a runner from a checkpoint. `policy` must be a freshly
    /// constructed policy of the same kind (and config) the checkpoint
    /// was taken under — its name is checked, then its serialized state
    /// is replayed into it. `profiler_factory` is only consulted for
    /// workloads admitted *after* the restore (churn); every existing
    /// workload's profiler is restored from the checkpoint itself.
    pub fn restore<R: Into<AnyProfiler>>(
        v: &vulcan_json::Value,
        mut policy: Box<dyn TieringPolicy>,
        mut profiler_factory: impl FnMut(&WorkloadSpec) -> R + 'static,
    ) -> Result<SimRunner, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        crate::checkpoint::validate_header(v)?;
        let stored = crate::checkpoint::policy_name(v)?;
        if stored != policy.name() {
            return Err(CheckpointError::PolicyMismatch {
                expected: stored.to_string(),
                found: policy.name().to_string(),
            });
        }
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| CheckpointError::Invalid(format!("missing \"{name}\"")))
        };
        let invalid = CheckpointError::Invalid;
        policy
            .restore_state(
                field("policy")?
                    .get("state")
                    .ok_or_else(|| invalid("missing policy state".to_string()))?,
            )
            .map_err(invalid)?;
        let (cfg, state, series, cfi, planes) = Self::restore_parts(v)?;
        Ok(Self::assemble(
            cfg,
            state,
            policy,
            Box::new(move |spec| profiler_factory(spec).into()),
            series,
            cfi,
            planes,
        ))
    }

    /// Fork a checkpoint under a *different* policy and, optionally, a
    /// re-parameterized machine (the tournament's what-if knobs). Unlike
    /// [`restore`](Self::restore), no policy-name check is made and no
    /// policy state is replayed — the new policy starts cold against the
    /// checkpointed placement — and every live workload gets a fresh
    /// profiler from `profiler_factory` (profiler families are paired
    /// with policies, so the checkpointed internals may not even be the
    /// right kind). `respec` may change latency/bandwidth/cost
    /// parameters but not the tier shape or core count.
    pub fn fork<R: Into<AnyProfiler>>(
        v: &vulcan_json::Value,
        policy: Box<dyn TieringPolicy>,
        mut profiler_factory: impl FnMut(&WorkloadSpec) -> R + 'static,
        respec: Option<MachineSpec>,
    ) -> Result<SimRunner, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        crate::checkpoint::validate_header(v)?;
        let (cfg, mut state, series, cfi, planes) = Self::restore_parts(v)?;
        if let Some(spec) = respec {
            state
                .machine
                .reconfigure(spec)
                .map_err(CheckpointError::Invalid)?;
        }
        let mut factory: BoxedProfilerFactory = Box::new(move |spec| profiler_factory(spec).into());
        for ws in &mut state.workloads {
            if ws.started && !ws.departed {
                ws.profiler = factory(&ws.spec);
            }
        }
        Ok(Self::assemble(
            cfg, state, policy, factory, series, cfi, planes,
        ))
    }

    /// Decode the checkpoint payload sections shared by
    /// [`restore`](Self::restore) and [`fork`](Self::fork).
    #[allow(clippy::type_complexity)]
    fn restore_parts(
        v: &vulcan_json::Value,
    ) -> Result<
        (
            SimConfig,
            SystemState,
            SeriesSet,
            CfiAccumulator,
            StatPlanes,
        ),
        crate::checkpoint::CheckpointError,
    > {
        use crate::checkpoint::CheckpointError;
        use vulcan_json::Snapshot as _;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| CheckpointError::Invalid(format!("missing \"{name}\"")))
        };
        let invalid = CheckpointError::Invalid;
        let cfg = SimConfig::restore(field("config")?).map_err(invalid)?;
        let state = SystemState::from_checkpoint(field("state")?).map_err(invalid)?;
        let series = vulcan_metrics::SeriesSet::restore(field("series")?).map_err(invalid)?;
        let cfi = CfiAccumulator::restore(field("cfi")?).map_err(invalid)?;
        let planes = StatPlanes::restore(field("planes")?).map_err(invalid)?;
        let n = state.n_workloads();
        if cfi.cumulative().len() != n || planes.len() != n {
            return Err(CheckpointError::Invalid(format!(
                "accumulators cover {}/{} workloads, state has {n}",
                cfi.cumulative().len(),
                planes.len()
            )));
        }
        Ok((cfg, state, series, cfi, planes))
    }

    /// Wire restored parts into a runner (telemetry counters rebuilt
    /// against the restored — disabled — sink).
    fn assemble(
        cfg: SimConfig,
        state: SystemState,
        policy: Box<dyn TieringPolicy>,
        profiler_factory: BoxedProfilerFactory,
        series: SeriesSet,
        cfi: CfiAccumulator,
        planes: StatPlanes,
    ) -> SimRunner {
        let tel = &cfg.telemetry;
        let (ops_counter, fast_hits_counter, slow_hits_counter, quanta_counter) = (
            tel.counter("sim.ops"),
            tel.counter("sim.accesses.fast"),
            tel.counter("sim.accesses.slow"),
            tel.counter("sim.quanta"),
        );
        let lat_hist = tel.histogram(
            "quantum.mean_latency_ns",
            &[100, 300, 1_000, 3_000, 10_000, 30_000, 100_000],
        );
        let fault_injected = FAULT_INJECTED_NAMES.map(|n| tel.counter(n));
        let fault_recovered = FAULT_RECOVERED_NAMES.map(|n| tel.counter(n));
        SimRunner {
            state,
            policy,
            cfg,
            profiler_factory,
            series,
            cfi,
            planes,
            ops_counter,
            fast_hits_counter,
            slow_hits_counter,
            quanta_counter,
            lat_hist,
            fault_injected,
            fault_recovered,
            published_faults: FaultStats::default(),
        }
    }

    /// The configured total quantum count — on a restored or forked
    /// runner, the original run's horizon (quanta already executed
    /// count toward it; see [`SystemState::quantum_index`]).
    pub fn n_quanta(&self) -> u64 {
        self.cfg.n_quanta
    }

    /// Run the quanta remaining until the configured total and summarize.
    /// On a fresh runner this equals [`run`](Self::run); on a restored
    /// one it completes exactly the quanta the original run had left.
    pub fn run_remaining(mut self) -> RunResult {
        while self.state.quantum_index < self.cfg.n_quanta {
            self.run_quantum();
        }
        self.into_result()
    }

    /// Admit a workload mid-run (open-loop churn): builds its profiler
    /// from the configured factory, spawns it via
    /// [`SystemState::spawn_workload`], and extends every per-workload
    /// accumulator so summaries stay index-aligned. Static runs never
    /// call this, so their results are byte-identical to before the
    /// churn subsystem existed.
    pub fn spawn_workload(&mut self, spec: WorkloadSpec) -> Result<usize, crate::SpawnError> {
        let profiler = (self.profiler_factory)(&spec);
        let i = self.state.spawn_workload(spec, profiler)?;
        self.planes.grow_to(self.state.n_workloads());
        self.cfi.grow_to(self.state.n_workloads());
        Ok(i)
    }

    /// Run all configured quanta and summarize.
    pub fn run(mut self) -> RunResult {
        for _ in 0..self.cfg.n_quanta {
            self.run_quantum();
        }
        self.into_result()
    }

    /// Execute a single quantum and return its typed outcome (exposed
    /// for step-wise drivers like the churn engine).
    ///
    /// The quantum is a fixed phase protocol:
    ///
    /// 1. **admit** — staggered arrivals, departures, and commits of
    ///    async transactions whose copy window elapsed;
    /// 2. **execute** — every thread of every started workload sweeps
    ///    its active window, the bandwidth contention rolls, and
    ///    profiling epochs run;
    /// 3. **decide + migrate** — the policy observes the state and
    ///    issues migrations;
    /// 4. **account** — per-quantum stats roll into the planes, the
    ///    series, the CFI and the returned [`QuantumOutcome`].
    pub fn run_quantum(&mut self) -> QuantumOutcome {
        // Oracle builds: stamp divergence reports from anywhere below
        // this quantum with the simulated time it executed at.
        #[cfg(feature = "oracle")]
        vulcan_oracle::set_now(self.state.now.0);
        if self.state.quantum_index == 0 {
            self.policy.on_start(&mut self.state);
        }

        self.phase_admit();
        self.phase_execute();

        // Policy decisions.
        let st = &mut self.state;
        self.policy.on_quantum(st);
        for w in 0..st.workloads.len() {
            st.recount_fast(w);
        }

        // Oracle builds: after the quantum's migrations and unmaps have
        // landed, every surviving walk-cache entry must still agree with
        // an uncached radix walk.
        #[cfg(feature = "oracle")]
        for ws in &st.workloads {
            ws.process.space.verify_walk_caches();
        }

        // Metrics and series.
        let mut outcome = self.record_quantum();
        self.quanta_counter.inc();
        self.publish_fault_stats();

        // The per-quantum page queues must be drained by the roll above:
        // policies consume them within the quantum they were filled, and
        // anything left over would accumulate without bound.
        debug_assert!(
            self.state.workloads.iter().all(
                |w| w.stats.hint_faulted_pages.is_empty() && w.stats.aborted_pages_q.is_empty()
            ),
            "per-quantum page queues not drained"
        );

        self.state.now += self.cfg.quantum_wall;
        self.state.quantum_index += 1;
        outcome.ended_at = self.state.now;
        outcome
    }

    /// Phase 1: staggered arrivals (§5.3), departures, and async-copy
    /// commits, all before any thread executes.
    fn phase_admit(&mut self) {
        let st = &mut self.state;

        // Workloads whose start time is zero were started at
        // construction; their arrival event is emitted on the first
        // quantum.
        for w in &mut st.workloads {
            let arrives_now = !w.started && !w.departed && w.spec.start <= st.now;
            if arrives_now {
                w.started = true;
            }
            if arrives_now || (st.quantum_index == 0 && w.started) {
                st.telemetry.emit(
                    st.now,
                    Some(&w.spec.name),
                    EventKind::WorkloadArrival {
                        rss_pages: w.spec.rss_pages(),
                    },
                );
            }
        }
        for wi in 0..st.workloads.len() {
            let due = st.workloads[wi]
                .spec
                .stop
                .is_some_and(|t| t <= st.now && st.workloads[wi].started);
            if due {
                st.teardown(wi);
            }
        }

        // Commit async transactions whose copy window elapsed before this
        // quantum runs: transactional migration completes in microseconds,
        // so its placement takes effect in the very next quantum, exactly
        // like a synchronous promotion (minus the stall).
        for wi in 0..st.workloads.len() {
            if st.workloads[wi].started && st.workloads[wi].async_migrator.inflight() > 0 {
                let mech = st.workloads[wi].async_mech;
                st.poll_async(wi, &mech);
            }
        }
    }

    /// Phase 2: every thread of every started workload, then the
    /// bandwidth roll, then the profiling epochs.
    fn phase_execute(&mut self) {
        let st = &mut self.state;
        let quantum = self.cfg.quantum_active;
        // Execute every thread of every started workload.
        for wi in 0..st.workloads.len() {
            if !st.workloads[wi].started {
                continue;
            }
            // Split the workload out of the Vec to borrow machine+tlbs
            // mutably alongside it.
            let (machine, tlbs) = (&mut st.machine, &mut st.tlbs);
            let ws = &mut st.workloads[wi];
            execute_workload(machine, tlbs, ws, quantum);
        }

        // Roll bandwidth contention into the next quantum.
        st.machine.end_quantum(quantum);

        // Profiling epochs (daemon side). Freshly poisoned PTEs must be
        // flushed from the workload's TLBs so the hint faults fire.
        for ws in &mut st.workloads {
            if !ws.started {
                continue;
            }
            let out = ws.profiler.epoch(&mut ws.process.space);
            ws.stats.daemon_cycles += out.cycles;
            if st.telemetry.is_enabled() {
                st.telemetry
                    .record_phase(&ws.spec.name, "profiler.epoch", out.cycles);
                st.telemetry.emit(
                    st.now,
                    Some(&ws.spec.name),
                    EventKind::ProfilerScan {
                        pages_poisoned: out.poisoned.len() as u64,
                    },
                );
            }
            if !out.poisoned.is_empty() {
                let cores = st
                    .machine
                    .topology
                    .cores_of(ws.process.sim_threads().iter().copied());
                for vpn in out.poisoned {
                    st.tlbs
                        .invalidate_on(cores.iter().copied(), ws.process.asid, vpn);
                }
            }
        }
    }

    /// Push this quantum's fault-injection and recovery deltas into the
    /// telemetry counters. Observational only; a disabled plan never
    /// accumulates, so this is a no-op in fault-free runs.
    fn publish_fault_stats(&mut self) {
        let plan = &self.state.machine.faults;
        if !plan.is_enabled() || !self.state.telemetry.is_enabled() {
            return;
        }
        let stats = plan.stats().clone();
        for site in FaultSite::ALL {
            let i = site.index();
            self.fault_injected[i].add(stats.injected[i] - self.published_faults.injected[i]);
            self.fault_recovered[i].add(stats.recovered[i] - self.published_faults.recovered[i]);
        }
        self.published_faults = stats;
    }

    fn record_quantum(&mut self) -> QuantumOutcome {
        let st = &mut self.state;
        let t = st.now.as_secs_f64();
        let wall_secs = self.cfg.quantum_wall.as_secs_f64();
        let started_count = st.workloads.iter().filter(|w| w.started).count().max(1);
        let gfmc = st.machine.allocator(TierKind::Fast).capacity() as f64 / started_count as f64;

        let mut allocs = Vec::with_capacity(st.workloads.len());
        let mut fthrs = Vec::with_capacity(st.workloads.len());
        let mut slices = Vec::with_capacity(st.workloads.len());
        let all_started = st.workloads.iter().all(|w| w.started);

        for (wi, ws) in st.workloads.iter_mut().enumerate() {
            if !ws.started {
                allocs.push(0.0);
                fthrs.push(0.0);
                slices.push(WorkloadQuantum::default());
                continue;
            }
            // Capture this quantum's rates before rolling.
            let ops_per_sec = ws.stats.ops_per_sec_q();
            let latency = ws.stats.mean_op_latency_q();
            let hit = ws.stats.quantum_hit_ratio();
            let active_s = ws.stats.active_q.as_secs_f64().max(1e-12);
            let rbw = ws.stats.read_bytes_q as f64 / active_s / 1e9;
            let wbw = ws.stats.write_bytes_q as f64 / active_s / 1e9;
            let (ops, fast_hits, slow_hits) = (ws.stats.ops_q, ws.stats.fast_q, ws.stats.slow_q);
            let stall = ws.stats.stall_q;
            self.ops_counter.add(ws.stats.ops_q);
            self.fast_hits_counter.add(ws.stats.fast_q);
            self.slow_hits_counter.add(ws.stats.slow_q);
            if ws.stats.ops_q > 0 {
                self.lat_hist.record(latency as u64);
            }
            ws.stats.roll_quantum();
            let fthr = ws.stats.fthr;
            let fast_pages = ws.stats.fast_used as f64;

            // Hot-page ratio: fraction of the hot set resident in fast.
            let hot_ratio = hot_page_ratio(ws);

            self.planes.push(
                wi,
                PlaneSample {
                    ops_per_sec,
                    latency_ns: latency,
                    fthr,
                    hot_ratio,
                    read_gbps: rbw,
                    write_gbps: wbw,
                },
            );

            allocs.push(fast_pages);
            fthrs.push(fthr);
            slices.push(WorkloadQuantum {
                live: true,
                ops,
                fast_hits,
                slow_hits,
                mean_latency_ns: latency,
                ops_per_sec,
                fthr,
                hot_ratio,
                stall,
            });

            if self.cfg.record_series {
                let name = ws.spec.name.clone();
                let rss = ws.rss_pages() as f64;
                let gpt = if rss == 0.0 {
                    1.0
                } else {
                    (gfmc / rss).min(1.0)
                };
                let slow_pages = rss - fast_pages;
                for (suffix, v) in [
                    ("fthr", fthr),
                    ("hit", hit),
                    ("gpt", gpt),
                    ("fast_pages", fast_pages),
                    ("slow_pages", slow_pages),
                    ("hot_ratio", hot_ratio),
                    ("ops_per_sec", ops_per_sec),
                    ("latency_ns", latency),
                    ("bw_read_gbps", rbw),
                    ("bw_write_gbps", wbw),
                ] {
                    self.series.entry(&format!("{name}.{suffix}")).push(t, v);
                }
            }
            let _ = wall_secs;
        }
        // CFI is accumulated over the full-co-location window: fairness
        // among N workloads is only defined once all N compete (solo
        // warm-up phases would otherwise dominate the cumulative X_i).
        if all_started {
            self.cfi.record(&allocs, &fthrs);
        }

        QuantumOutcome {
            quantum_index: st.quantum_index,
            // Stamped by `run_quantum` once the wall clock advances.
            ended_at: st.now,
            migrations: std::mem::take(&mut st.migrations_q),
            fast_free: st.fast_free(),
            fast_capacity: st.fast_capacity(),
            workloads: slices,
        }
    }

    /// Summarize without running further quanta (for step-wise drivers
    /// that interleave [`SimRunner::run_quantum`] with inspection).
    pub fn into_result(self) -> RunResult {
        // Release-mode counterpart of the per-quantum drain
        // `debug_assert` in `run_quantum`: a queue that survives to the
        // end of the run means some policy path is accumulating pages
        // without bound, and that must fail loudly even in optimized
        // benchmark builds.
        for ws in &self.state.workloads {
            assert!(
                ws.stats.hint_faulted_pages.is_empty() && ws.stats.aborted_pages_q.is_empty(),
                "workload {}: per-quantum page queues not drained at teardown",
                ws.spec.name
            );
        }
        let per_workload = self
            .state
            .workloads
            .iter()
            .enumerate()
            .map(|(wi, ws)| {
                let means = self.planes.means(wi);
                WorkloadResult {
                    name: ws.spec.name.clone(),
                    class: ws.spec.class,
                    mean_ops_per_sec: means.ops_per_sec,
                    mean_latency_ns: means.latency_ns,
                    mean_fthr: means.fthr,
                    mean_hot_ratio: means.hot_ratio,
                    mean_read_gbps: means.read_gbps,
                    mean_write_gbps: means.write_gbps,
                    ops_total: ws.stats.ops_total,
                    stall_cycles: ws.stats.stall_cycles,
                    replication_overhead_bytes: ws.process.space.replication_overhead_bytes(),
                }
            })
            .collect();
        RunResult {
            policy: self.policy.name().to_string(),
            per_workload,
            cfi: self.cfi.cfi(),
            series: self.series,
        }
    }
}

/// One workload's slice of the execute phase: charge pending
/// sync-migration stall against the budget, sweep every thread, and
/// account the blocked time.
fn execute_workload(
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    ws: &mut WorkloadState,
    quantum: Nanos,
) {
    let n_threads = ws.spec.n_threads;
    // Charge pending sync-migration stall against this quantum.
    let stall_per_thread = ws.pending_stall / n_threads as u64;
    ws.pending_stall = Nanos::ZERO;
    let budget = quantum.saturating_sub(stall_per_thread);
    for t in 0..n_threads {
        run_thread_quantum(machine, tlbs, ws, t, budget);
    }
    // Blocked time is wall time: it counts against throughput
    // (ops / active second) and inflates the quantum's op
    // latencies — on-critical-path migration is not free.
    let blocked = stall_per_thread * n_threads as u64;
    ws.stats.active_q += blocked;
    ws.stats.op_latency_q += blocked;
}

/// Figure 1's "hot page ratio": the fraction of a workload's resident
/// pages the tiering system currently classifies hot. Capacity-based
/// systems equate "hot" with fast-tier residency, so this is the
/// fast-resident share of the RSS — the quantity that collapses from
/// ~75% to <28% for Memcached under co-location (§2.2, Figure 1d).
pub fn hot_page_ratio(ws: &crate::state::WorkloadState) -> f64 {
    let rss = ws.rss_pages();
    if rss == 0 {
        return 0.0;
    }
    ws.stats.fast_used as f64 / rss as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{StaticPlacement, UniformPartition};
    use vulcan_profile::PebsProfiler;
    use vulcan_workloads::{microbench, MicroConfig};

    fn quick_cfg(n: u64) -> SimConfig {
        SimConfig {
            quantum_active: Nanos::micros(200),
            n_quanta: n,
            ..Default::default()
        }
    }

    fn micro_spec(name: &str, rss: u64, wss: u64) -> WorkloadSpec {
        microbench(
            name,
            MicroConfig {
                rss_pages: rss,
                wss_pages: wss,
                ..Default::default()
            },
            2,
        )
    }

    fn pebs_runner(
        machine: MachineSpec,
        specs: Vec<WorkloadSpec>,
        policy: Box<dyn TieringPolicy>,
        cfg: SimConfig,
    ) -> SimRunner {
        SimRunner::builder()
            .machine(machine)
            .workloads(specs)
            .profiler_factory(|_| Box::new(PebsProfiler::new(4)))
            .policy(policy)
            .config(cfg)
            .build()
    }

    #[test]
    fn run_completes_and_reports() {
        let runner = pebs_runner(
            MachineSpec::small(256, 2048, 8),
            vec![micro_spec("a", 512, 128)],
            Box::new(StaticPlacement),
            quick_cfg(5),
        );
        let res = runner.run();
        assert_eq!(res.policy, "static");
        let w = res.workload("a");
        assert!(w.ops_total > 0);
        assert!(w.mean_ops_per_sec > 0.0);
        assert!(w.mean_latency_ns > 0.0);
        assert!((0.0..=1.0).contains(&w.mean_fthr));
        assert!((0.0..=1.0).contains(&res.cfi));
        assert!(res.series.get("a.fthr").is_some());
        assert_eq!(res.series.get("a.fthr").unwrap().len(), 5);
    }

    #[test]
    fn first_touch_fills_fast_tier_first() {
        let runner = pebs_runner(
            MachineSpec::small(64, 2048, 8),
            vec![micro_spec("a", 512, 512)],
            Box::new(StaticPlacement),
            quick_cfg(3),
        );
        let res = runner.run();
        let fast = res.series.get("a.fast_pages").unwrap().last().unwrap();
        assert_eq!(fast, 64.0, "fast tier fully used before spilling");
    }

    #[test]
    fn small_wss_reaches_high_hit_ratio_in_fast() {
        // WSS (32 pages) fits the 256-page fast tier: nearly all accesses
        // should land fast even with static placement.
        let runner = pebs_runner(
            MachineSpec::small(256, 2048, 8),
            vec![micro_spec("a", 128, 32)],
            Box::new(StaticPlacement),
            quick_cfg(5),
        );
        let res = runner.run();
        assert!(
            res.workload("a").mean_fthr > 0.9,
            "fthr = {}",
            res.workload("a").mean_fthr
        );
    }

    #[test]
    fn staggered_workload_starts_late() {
        let specs = vec![
            micro_spec("early", 128, 32),
            micro_spec("late", 128, 32).starting_at(Nanos::secs(3)),
        ];
        let runner = pebs_runner(
            MachineSpec::small(256, 2048, 8),
            specs,
            Box::new(StaticPlacement),
            quick_cfg(6),
        );
        let res = runner.run();
        let early = res.workload("early").ops_total;
        let late = res.workload("late").ops_total;
        assert!(late > 0, "late workload eventually runs");
        assert!(early > late, "early ran more quanta: {early} vs {late}");
        // Late workload's series shows zero-activity leading quanta.
        let ops = &res.series.get("late.ops_per_sec").unwrap().points;
        assert_eq!(ops.len(), 3, "recorded only after start");
    }

    #[test]
    fn uniform_quota_limits_fast_usage() {
        let specs = vec![micro_spec("a", 512, 512), micro_spec("b", 512, 512)];
        let runner = pebs_runner(
            MachineSpec::small(128, 4096, 8),
            specs,
            Box::new(UniformPartition),
            quick_cfg(4),
        );
        let res = runner.run();
        for name in ["a", "b"] {
            let fast = res.series.get(&format!("{name}.fast_pages")).unwrap();
            assert!(
                fast.last().unwrap() <= 64.0 + 1.0,
                "{name} exceeded quota: {:?}",
                fast.last()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            pebs_runner(
                MachineSpec::small(128, 1024, 8),
                vec![micro_spec("a", 256, 64)],
                Box::new(StaticPlacement),
                quick_cfg(3),
            )
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.workload("a").ops_total, b.workload("a").ops_total);
        assert_eq!(a.cfi, b.cfi);
    }

    #[test]
    fn per_quantum_page_queues_stay_bounded() {
        // Hint-fault-heavy profiler fills `hint_faulted_pages` every
        // quantum; the roll must drain it so its length never grows with
        // the quantum count (capacity stays bounded by one quantum's
        // worth of faults).
        let mut runner = SimRunner::builder()
            .machine(MachineSpec::small(128, 2048, 8))
            .workloads(vec![micro_spec("a", 512, 256)])
            .profiler_factory(|_| vulcan_profile::HintFaultProfiler::new(0.5))
            .policy(Box::new(StaticPlacement))
            .config(quick_cfg(0))
            .build();
        for q in 0..12 {
            runner.run_quantum();
            let stats = &runner.state.workloads[0].stats;
            assert!(
                stats.hint_faulted_pages.is_empty(),
                "hint queue drained after quantum {q}"
            );
            assert!(
                stats.aborted_pages_q.is_empty(),
                "abort queue drained after quantum {q}"
            );
            // Capacity is bounded by one quantum's fault volume (at most
            // every resident page, doubled by Vec growth) — were the
            // queue not drained, 12 quanta of faults would blow past it.
            assert!(
                stats.hint_faulted_pages.capacity() <= 2 * 512,
                "queue capacity {} grew beyond one quantum's faults",
                stats.hint_faulted_pages.capacity()
            );
        }
        assert!(runner.state.workloads[0].stats.hint_faults > 0);
    }

    #[test]
    fn performance_metric_by_class() {
        let mut w = WorkloadResult {
            name: "x".into(),
            class: WorkloadClass::BestEffort,
            mean_ops_per_sec: 100.0,
            mean_latency_ns: 1000.0,
            mean_fthr: 0.5,
            mean_hot_ratio: 0.5,
            mean_read_gbps: 0.0,
            mean_write_gbps: 0.0,
            ops_total: 1,
            stall_cycles: Cycles::ZERO,
            replication_overhead_bytes: 0,
        };
        assert_eq!(w.performance(), 100.0);
        w.class = WorkloadClass::LatencyCritical;
        assert_eq!(w.performance(), 1e6, "1e9/latency");
    }
}
