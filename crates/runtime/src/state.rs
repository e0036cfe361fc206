//! Live simulation state: the machine plus one [`WorkloadState`] per
//! co-located application, with the migration helpers policies call.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vulcan_migrate::{migrate_sync, AsyncMigrator, MechanismConfig, ShadowRegistry, SyncOutcome};
use vulcan_profile::{AnyProfiler, HeatMap};
use vulcan_sim::{Cycles, FrameId, Machine, Nanos, SimThreadId, TierKind};
use vulcan_telemetry::{EventKind, Telemetry};
use vulcan_vm::{Asid, Process, TlbArray, Vpn};
use vulcan_workloads::{AccessGen, WorkloadClass, WorkloadSpec};

/// Per-quantum and cumulative statistics of one workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadStats {
    /// Operations completed (cumulative).
    pub ops_total: u64,
    /// Operations completed this quantum.
    pub ops_q: u64,
    /// Sum of op latencies this quantum.
    pub op_latency_q: Nanos,
    /// Demand accesses hitting the fast tier this quantum (`a_fast`, eq 1).
    pub fast_q: u64,
    /// Demand accesses hitting the slow tier this quantum (`a_slow`, eq 1).
    pub slow_q: u64,
    /// Bytes read this quantum (for Figure 8 bandwidth).
    pub read_bytes_q: u64,
    /// Bytes written this quantum.
    pub write_bytes_q: u64,
    /// Simulated active time consumed this quantum (Σ over threads).
    pub active_q: Nanos,
    /// Time spent waiting on memory this quantum (Σ over threads).
    pub mem_time_q: Nanos,
    /// Fast-Tier Hit Ratio, EMA per equation 2 (α = 0.8).
    pub fthr: f64,
    /// Previous quantum's raw hit ratio (`H̄_{i,t-1}`).
    pub prev_h: f64,
    /// Hint faults taken (cumulative).
    pub hint_faults: u64,
    /// Major (allocation) faults taken (cumulative).
    pub major_faults: u64,
    /// Per-thread table replication faults taken (cumulative).
    pub replication_faults: u64,
    /// Cycles consumed by daemon-side work (profiling epochs, async
    /// commits) — not charged to the application.
    pub daemon_cycles: Cycles,
    /// Cycles of synchronous migration stall charged to the app
    /// (cumulative).
    pub stall_cycles: Cycles,
    /// Stall charged this quantum (cleared by [`roll_quantum`]); the
    /// per-quantum slice of `stall_cycles` surfaced in `QuantumOutcome`.
    ///
    /// [`roll_quantum`]: WorkloadStats::roll_quantum
    pub stall_q: Cycles,
    /// Pages this workload currently holds in the fast tier.
    pub fast_used: u64,
    /// Pages hint-faulted this quantum (consumed by TPP-style policies).
    pub hint_faulted_pages: Vec<(Vpn, bool)>,
    /// Pages whose async transactions aborted this quantum after
    /// exhausting dirty retries. Policies that care (Vulcan) escalate
    /// them to synchronous copies; others leave them in the slow tier.
    pub aborted_pages_q: Vec<Vpn>,
}

/// EMA weight of equation 2 (the paper sets α = 0.8).
pub const FTHR_ALPHA: f64 = 0.8;

impl WorkloadStats {
    /// Raw hit ratio of this quantum (`H̄_{i,t}`, equation 1).
    pub fn quantum_hit_ratio(&self) -> f64 {
        let total = self.fast_q + self.slow_q;
        if total == 0 {
            // No samples: carry the previous estimate forward.
            self.prev_h
        } else {
            self.fast_q as f64 / total as f64
        }
    }

    /// Roll the quantum: update the FTHR EMA (equation 2) and clear the
    /// per-quantum counters.
    pub fn roll_quantum(&mut self) {
        let h = self.quantum_hit_ratio();
        self.fthr = FTHR_ALPHA * h + (1.0 - FTHR_ALPHA) * self.prev_h;
        self.prev_h = h;
        self.ops_q = 0;
        self.op_latency_q = Nanos::ZERO;
        self.fast_q = 0;
        self.slow_q = 0;
        self.read_bytes_q = 0;
        self.write_bytes_q = 0;
        self.active_q = Nanos::ZERO;
        self.mem_time_q = Nanos::ZERO;
        self.stall_q = Cycles::ZERO;
        self.hint_faulted_pages.clear();
        self.aborted_pages_q.clear();
    }

    /// Mean op latency this quantum (ns), 0 when idle.
    pub fn mean_op_latency_q(&self) -> f64 {
        if self.ops_q == 0 {
            0.0
        } else {
            self.op_latency_q.as_f64() / self.ops_q as f64
        }
    }

    /// Throughput this quantum in ops per simulated active second.
    pub fn ops_per_sec_q(&self) -> f64 {
        if self.active_q.0 == 0 {
            0.0
        } else {
            self.ops_q as f64 / self.active_q.as_secs_f64()
        }
    }

    /// Memory-time share of active time (a duty-cycle signal the LC/BE
    /// classifier uses).
    pub fn memory_duty_q(&self) -> f64 {
        if self.active_q.0 == 0 {
            0.0
        } else {
            self.mem_time_q.as_f64() / self.active_q.as_f64()
        }
    }
}

impl vulcan_json::Snapshot for WorkloadStats {
    /// Every counter serializes, including the per-quantum ones: a
    /// checkpoint is taken at a quantum boundary where the page queues
    /// are drained, but the cumulative totals, the FTHR EMA pair
    /// (`fthr`, `prev_h`) and the carried byte counters all feed the
    /// next quantum's equations and reports.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let hint_vpns: Vec<u64> = self.hint_faulted_pages.iter().map(|&(v, _)| v.0).collect();
        let hint_writes: Vec<Value> = self
            .hint_faulted_pages
            .iter()
            .map(|&(_, w)| Value::Bool(w))
            .collect();
        let aborted: Vec<u64> = self.aborted_pages_q.iter().map(|v| v.0).collect();
        snap::obj(vec![
            ("ops_total", snap::u64_value(self.ops_total)),
            ("ops_q", snap::u64_value(self.ops_q)),
            ("op_latency_q", snap::u64_value(self.op_latency_q.0)),
            ("fast_q", snap::u64_value(self.fast_q)),
            ("slow_q", snap::u64_value(self.slow_q)),
            ("read_bytes_q", snap::u64_value(self.read_bytes_q)),
            ("write_bytes_q", snap::u64_value(self.write_bytes_q)),
            ("active_q", snap::u64_value(self.active_q.0)),
            ("mem_time_q", snap::u64_value(self.mem_time_q.0)),
            ("fthr", snap::f64_value(self.fthr)),
            ("prev_h", snap::f64_value(self.prev_h)),
            ("hint_faults", snap::u64_value(self.hint_faults)),
            ("major_faults", snap::u64_value(self.major_faults)),
            (
                "replication_faults",
                snap::u64_value(self.replication_faults),
            ),
            ("daemon_cycles", snap::u64_value(self.daemon_cycles.0)),
            ("stall_cycles", snap::u64_value(self.stall_cycles.0)),
            ("stall_q", snap::u64_value(self.stall_q.0)),
            ("fast_used", snap::u64_value(self.fast_used)),
            ("hint_vpns", snap::u64_array(&hint_vpns)),
            ("hint_writes", Value::Array(hint_writes)),
            ("aborted_pages_q", snap::u64_array(&aborted)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::{snap, Value};
        let hint_vpns = snap::array_u64(snap::field(v, "hint_vpns")?)?;
        let hint_writes = snap::field_array(v, "hint_writes")?;
        if hint_writes.len() != hint_vpns.len() {
            return Err("hint-fault arrays have mismatched lengths".to_string());
        }
        let hint_faulted_pages = hint_vpns
            .into_iter()
            .zip(hint_writes)
            .map(|(vpn, w)| match w {
                Value::Bool(b) => Ok((Vpn(vpn), *b)),
                other => Err(format!("hint write flag is not a bool: {other:?}")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let aborted_pages_q = snap::array_u64(snap::field(v, "aborted_pages_q")?)?
            .into_iter()
            .map(Vpn)
            .collect();
        Ok(WorkloadStats {
            ops_total: snap::field_u64(v, "ops_total")?,
            ops_q: snap::field_u64(v, "ops_q")?,
            op_latency_q: Nanos(snap::field_u64(v, "op_latency_q")?),
            fast_q: snap::field_u64(v, "fast_q")?,
            slow_q: snap::field_u64(v, "slow_q")?,
            read_bytes_q: snap::field_u64(v, "read_bytes_q")?,
            write_bytes_q: snap::field_u64(v, "write_bytes_q")?,
            active_q: Nanos(snap::field_u64(v, "active_q")?),
            mem_time_q: Nanos(snap::field_u64(v, "mem_time_q")?),
            fthr: snap::field_f64(v, "fthr")?,
            prev_h: snap::field_f64(v, "prev_h")?,
            hint_faults: snap::field_u64(v, "hint_faults")?,
            major_faults: snap::field_u64(v, "major_faults")?,
            replication_faults: snap::field_u64(v, "replication_faults")?,
            daemon_cycles: Cycles(snap::field_u64(v, "daemon_cycles")?),
            stall_cycles: Cycles(snap::field_u64(v, "stall_cycles")?),
            stall_q: Cycles(snap::field_u64(v, "stall_q")?),
            fast_used: snap::field_u64(v, "fast_used")?,
            hint_faulted_pages,
            aborted_pages_q,
        })
    }
}

/// One co-located workload's live state.
pub struct WorkloadState {
    /// The workload's specification.
    pub spec: WorkloadSpec,
    /// Its process (address space, threads).
    pub process: Process,
    /// Its profiler (the daemon decouples the choice per workload, §3.2).
    /// Held as [`AnyProfiler`] so the per-access path dispatches through
    /// an inlined `match` instead of a virtual call.
    pub profiler: AnyProfiler,
    /// Shadow frames of its promoted pages.
    pub shadows: ShadowRegistry,
    /// Its dedicated asynchronous migration engine (§3.2: per-application
    /// migration threads).
    pub async_migrator: AsyncMigrator,
    /// Fast-tier quota in pages, if a policy partitions capacity.
    pub quota: Option<u64>,
    /// Mechanism used to commit this workload's async transactions
    /// (remembered from the last `poll_async`, so the runtime can drive
    /// in-flight copies to completion between quanta — real transactional
    /// migration completes within microseconds, not a whole quantum).
    pub async_mech: MechanismConfig,
    /// Statistics.
    pub stats: WorkloadStats,
    /// Whether the workload has started (staggered arrivals).
    pub started: bool,
    /// Whether the workload has terminated and released its memory.
    pub departed: bool,
    pub(crate) gen: Box<dyn AccessGen>,
    pub(crate) rngs: Vec<SmallRng>,
    /// Sync-migration stall to distribute over threads next quantum.
    pub(crate) pending_stall: Nanos,
}

impl WorkloadState {
    /// The workload's RSS in mapped pages.
    pub fn rss_pages(&self) -> u64 {
        self.process.space.rss_pages()
    }

    /// The workload's heat map.
    pub fn heat(&self) -> &HeatMap {
        self.profiler.heat()
    }

    /// Ground-truth class (evaluation only; Vulcan classifies itself).
    pub fn class(&self) -> WorkloadClass {
        self.spec.class
    }

    /// Effective fast-tier quota (unlimited when unset).
    pub fn effective_quota(&self) -> u64 {
        self.quota.unwrap_or(u64::MAX)
    }

    /// Serialize this workload's complete live state for checkpointing.
    /// The generator's *config* travels inside the spec; only its mutable
    /// cursor state is captured separately — restore rebuilds the
    /// generator from the spec and replays that state into it.
    pub fn checkpoint_value(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Snapshot as _, Value};
        let rngs: Vec<Value> = self
            .rngs
            .iter()
            .map(|r| snap::u64_array(&r.state()))
            .collect();
        snap::obj(vec![
            ("spec", self.spec.snapshot()),
            ("process", self.process.snapshot()),
            ("profiler", self.profiler.checkpoint_state()),
            ("shadows", self.shadows.snapshot()),
            ("async_migrator", self.async_migrator.snapshot()),
            (
                "quota",
                match self.quota {
                    Some(q) => snap::u64_value(q),
                    None => Value::Null,
                },
            ),
            ("async_mech", self.async_mech.snapshot()),
            ("stats", self.stats.snapshot()),
            ("started", Value::Bool(self.started)),
            ("departed", Value::Bool(self.departed)),
            ("gen", self.gen.snapshot_state()),
            ("rngs", Value::Array(rngs)),
            ("pending_stall", snap::u64_value(self.pending_stall.0)),
        ])
    }

    /// Rebuild a workload from [`checkpoint_value`](Self::checkpoint_value)
    /// output: the generator is constructed fresh from the restored spec,
    /// then its cursor state and per-thread RNG streams are replayed in.
    pub fn from_checkpoint(v: &vulcan_json::Value) -> Result<WorkloadState, String> {
        use rand::rngs::SmallRng;
        use vulcan_json::{snap, Snapshot as _, Value};
        let spec = WorkloadSpec::restore(snap::field(v, "spec")?)?;
        let mut gen = spec.build();
        gen.restore_state(snap::field(v, "gen")?)?;
        let mut rngs = Vec::new();
        for r in snap::field_array(v, "rngs")? {
            let words = snap::array_u64(r)?;
            let state: [u64; 4] = words
                .try_into()
                .map_err(|w: Vec<u64>| format!("rng state needs 4 words, got {}", w.len()))?;
            rngs.push(SmallRng::from_state(state));
        }
        if rngs.len() != spec.n_threads {
            return Err(format!(
                "workload {}: {} rng streams for {} threads",
                spec.name,
                rngs.len(),
                spec.n_threads
            ));
        }
        let quota = match snap::field(v, "quota")? {
            Value::Null => None,
            q => Some(snap::value_u64(q)?),
        };
        Ok(WorkloadState {
            process: vulcan_vm::Process::restore(snap::field(v, "process")?)?,
            profiler: AnyProfiler::from_checkpoint(snap::field(v, "profiler")?)?,
            shadows: ShadowRegistry::restore(snap::field(v, "shadows")?)?,
            async_migrator: AsyncMigrator::restore(snap::field(v, "async_migrator")?)?,
            quota,
            async_mech: MechanismConfig::restore(snap::field(v, "async_mech")?)?,
            stats: WorkloadStats::restore(snap::field(v, "stats")?)?,
            started: snap::field_bool(v, "started")?,
            departed: snap::field_bool(v, "departed")?,
            gen,
            rngs,
            pending_stall: Nanos(snap::field_u64(v, "pending_stall")?),
            spec,
        })
    }
}

/// Why a mid-run [`SystemState::spawn_workload`] was refused. The caller
/// (an admission controller, a test) decides whether to queue, reject or
/// retry; nothing in the existing state is modified on failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnError {
    /// Every 16-bit ASID is in use (workload slots are never reused).
    AsidExhausted,
    /// Preallocation could not find frames in either tier.
    OutOfMemory {
        /// Pages still unplaced when both tiers ran dry.
        missing_pages: u64,
    },
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::AsidExhausted => write!(f, "no free ASID for new workload"),
            SpawnError::OutOfMemory { missing_pages } => {
                write!(f, "prealloc failed: {missing_pages} pages short of RSS")
            }
        }
    }
}

impl std::error::Error for SpawnError {}

/// Per-quantum migration tallies, drained by the runner into each
/// [`QuantumOutcome`](crate::runner::QuantumOutcome).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationCounts {
    /// Pages moved into the fast tier by sync/background migration.
    pub promoted: u64,
    /// Pages moved into the slow tier by sync/background migration.
    pub demoted: u64,
    /// Pages committed by asynchronous (transactional) migration.
    pub async_committed: u64,
    /// Async transactions aborted after exhausting dirty retries.
    pub async_aborted: u64,
}

impl MigrationCounts {
    /// Whether any migration activity was recorded.
    pub fn any(&self) -> bool {
        *self != MigrationCounts::default()
    }
}

/// The complete mutable simulation state handed to policies each quantum.
pub struct SystemState {
    /// The simulated machine.
    pub machine: Machine,
    /// Per-core TLBs.
    pub tlbs: TlbArray,
    /// Co-located workloads.
    pub workloads: Vec<WorkloadState>,
    /// Current simulated instant (quantum-aligned).
    pub now: Nanos,
    /// Quantum counter.
    pub quantum_index: u64,
    /// Simulated active window per quantum (set by the runner; used to
    /// convert per-quantum rates into per-nanosecond rates).
    pub quantum_active: Nanos,
    /// Telemetry sink (disabled by default; the runner installs the
    /// configured handle). Recording never affects simulation results.
    pub telemetry: Telemetry,
    /// Migration tallies of the current quantum (the runner drains them
    /// into the quantum's [`QuantumOutcome`](crate::runner::QuantumOutcome)).
    pub migrations_q: MigrationCounts,
    // Spawn bookkeeping, carried past construction so workloads admitted
    // mid-run (the churn engine) follow the exact same thread-numbering,
    // core-rotation and RNG-seeding recipe as construction-time specs.
    pub(crate) replication: bool,
    pub(crate) base_seed: u64,
    pub(crate) next_sim_tid: u32,
    pub(crate) next_core: u16,
}

impl SystemState {
    /// Build the state: spawn processes and threads, pin each workload to
    /// its own dedicated core range (§5.3: 8 cores and 8 threads per app).
    // Allow-listed for the ISSUE 5 lint gate: construction-time spec
    // validation (ASID width, prealloc within capacity) fails fast by
    // design; fault injection is installed only after construction.
    #[allow(clippy::expect_used)]
    pub fn new(
        machine: Machine,
        specs: Vec<WorkloadSpec>,
        make_profiler: &mut dyn FnMut(&WorkloadSpec) -> AnyProfiler,
        replication: bool,
        seed: u64,
    ) -> SystemState {
        let mut machine = machine;
        let n_cores = machine.topology.n_cores();
        let tlbs = TlbArray::new(n_cores);
        let mut workloads = Vec::with_capacity(specs.len());
        let mut next_sim_tid = 0u32;
        let mut next_core = 0u16;
        for (i, spec) in specs.into_iter().enumerate() {
            let asid = u16::try_from(i + 1).expect("more workloads than TLB ASID tags");
            let mut process = Process::new(Asid(asid), replication);
            let mut sim_ids = Vec::new();
            for _ in 0..spec.n_threads {
                let sim_id = SimThreadId(next_sim_tid);
                next_sim_tid += 1;
                process.spawn_thread(sim_id);
                sim_ids.push(sim_id);
            }
            // Dedicated core range, wrapping if the socket runs out.
            let span = u16::try_from(spec.n_threads)
                .unwrap_or(u16::MAX)
                .min(n_cores);
            let lo = next_core % n_cores;
            let hi = (lo + span).min(n_cores);
            machine.topology.pin_range(&sim_ids, lo, hi);
            next_core = hi % n_cores;

            // Optional pre-allocation of the whole RSS into one tier
            // (the §5.2 microbenchmarks place data before accessing it).
            if let Some(tier) = spec.prealloc {
                for v in 0..spec.rss_pages() {
                    let frame = machine
                        .alloc_with_fallback(tier)
                        .expect("prealloc exceeds machine capacity");
                    process.space.map(Vpn(v), frame, vulcan_vm::LocalTid(0));
                }
            }

            let mut profiler = make_profiler(&spec);
            // Pre-size the flat heat table to the footprint so the access
            // path never pays an incremental resize.
            profiler.heat_mut().reserve(spec.rss_pages());
            let rngs = (0..spec.n_threads)
                .map(|t| SmallRng::seed_from_u64(seed ^ ((i as u64) << 32) ^ t as u64))
                .collect();
            let gen = spec.build();
            workloads.push(WorkloadState {
                process,
                profiler,
                shadows: ShadowRegistry::new(),
                async_migrator: AsyncMigrator::new(),
                quota: None,
                async_mech: MechanismConfig::linux_baseline(),
                stats: WorkloadStats::default(),
                started: spec.start == Nanos::ZERO,
                departed: false,
                gen,
                rngs,
                pending_stall: Nanos::ZERO,
                spec,
            });
        }
        SystemState {
            machine,
            tlbs,
            workloads,
            now: Nanos::ZERO,
            quantum_index: 0,
            quantum_active: Nanos::millis(2),
            telemetry: Telemetry::disabled(),
            migrations_q: MigrationCounts::default(),
            replication,
            base_seed: seed,
            next_sim_tid,
            next_core,
        }
    }

    /// Admit a new workload mid-run (open-loop churn). Follows the exact
    /// construction recipe — next ASID, sequential sim-thread IDs, the
    /// rotating core range, per-thread RNG seeds derived from the run
    /// seed and the workload's slot index — so a tenant admitted at
    /// quantum *q* is indistinguishable from one constructed with
    /// `start = q`'s instant. Returns the new workload's slot index.
    ///
    /// Preallocation (when `spec.prealloc` is set) is performed *before*
    /// any other state mutates and is never subject to fault injection,
    /// matching construction-time placement; on failure every frame
    /// taken so far is returned and the state is untouched.
    ///
    /// The workload starts immediately if `spec.start <= now`; otherwise
    /// the runner's staggered-arrival path starts it on time.
    pub fn spawn_workload(
        &mut self,
        spec: WorkloadSpec,
        profiler: AnyProfiler,
    ) -> Result<usize, SpawnError> {
        let i = self.workloads.len();
        let Ok(asid) = u16::try_from(i + 1) else {
            return Err(SpawnError::AsidExhausted);
        };

        // Phase 1 (fallible): place the RSS. Collect frames first so a
        // mid-prealloc exhaustion unwinds cleanly.
        let mut prealloc_frames: Vec<FrameId> = Vec::new();
        if let Some(tier) = spec.prealloc {
            let rss = spec.rss_pages();
            for done in 0..rss {
                match self.machine.alloc_with_fallback_uninjected(tier) {
                    Ok(f) => prealloc_frames.push(f),
                    Err(_) => {
                        for f in prealloc_frames {
                            self.machine.free(f);
                        }
                        return Err(SpawnError::OutOfMemory {
                            missing_pages: rss - done,
                        });
                    }
                }
            }
        }

        // Phase 2 (infallible): threads, cores, page tables, profiler.
        let mut process = Process::new(Asid(asid), self.replication);
        let mut sim_ids = Vec::new();
        for _ in 0..spec.n_threads {
            let sim_id = SimThreadId(self.next_sim_tid);
            self.next_sim_tid += 1;
            process.spawn_thread(sim_id);
            sim_ids.push(sim_id);
        }
        let n_cores = self.machine.topology.n_cores();
        let span = u16::try_from(spec.n_threads)
            .unwrap_or(u16::MAX)
            .min(n_cores);
        let lo = self.next_core % n_cores;
        let hi = (lo + span).min(n_cores);
        self.machine.topology.pin_range(&sim_ids, lo, hi);
        self.next_core = hi % n_cores;

        for (v, frame) in prealloc_frames.into_iter().enumerate() {
            process
                .space
                .map(Vpn(v as u64), frame, vulcan_vm::LocalTid(0));
        }

        let mut profiler = profiler;
        profiler.heat_mut().reserve(spec.rss_pages());
        let rngs = (0..spec.n_threads)
            .map(|t| SmallRng::seed_from_u64(self.base_seed ^ ((i as u64) << 32) ^ t as u64))
            .collect();
        let gen = spec.build();
        let started = spec.start <= self.now;
        if started {
            self.telemetry.emit(
                self.now,
                Some(&spec.name),
                EventKind::WorkloadArrival {
                    rss_pages: spec.rss_pages(),
                },
            );
        }
        self.workloads.push(WorkloadState {
            process,
            profiler,
            shadows: ShadowRegistry::new(),
            async_migrator: AsyncMigrator::new(),
            quota: None,
            async_mech: MechanismConfig::linux_baseline(),
            stats: WorkloadStats::default(),
            started,
            departed: false,
            gen,
            rngs,
            pending_stall: Nanos::ZERO,
            spec,
        });
        self.recount_fast(i);
        Ok(i)
    }

    /// Number of workloads.
    pub fn n_workloads(&self) -> usize {
        self.workloads.len()
    }

    /// Free pages in the fast tier.
    pub fn fast_free(&self) -> u64 {
        self.machine.free_pages(TierKind::Fast)
    }

    /// Total fast-tier capacity in pages.
    pub fn fast_capacity(&self) -> u64 {
        self.machine.allocator(TierKind::Fast).capacity()
    }

    /// Synchronously migrate pages of workload `w` to `dest`. The phase
    /// cost stalls the workload's threads (charged next quantum), modeling
    /// on-critical-path migration.
    pub fn migrate_sync(
        &mut self,
        w: usize,
        pages: &[Vpn],
        dest: TierKind,
        cfg: &MechanismConfig,
    ) -> SyncOutcome {
        let ws = &mut self.workloads[w];
        let out = migrate_sync(
            &mut ws.process,
            &mut self.machine,
            &mut self.tlbs,
            &mut ws.shadows,
            pages,
            dest,
            cfg,
        );
        let stall = out.total_cycles();
        ws.stats.stall_cycles += stall;
        ws.stats.stall_q += stall;
        ws.pending_stall += stall.to_nanos();
        self.tally_migration(dest, out.moved.len() as u64);
        self.record_migration(w, dest, &out, true);
        self.charge_global_prep(w, cfg);
        self.recount_fast(w);
        out
    }

    /// Tally moved pages into the per-quantum migration counters
    /// surfaced by [`QuantumOutcome`](crate::QuantumOutcome).
    fn tally_migration(&mut self, dest: TierKind, pages: u64) {
        if pages == 0 {
            return;
        }
        // Counters are chain-top-relative: moves into the fast tier are
        // promotions, moves into any lower tier count as demotions.
        if dest == TierKind::Fast {
            self.migrations_q.promoted += pages;
        } else {
            self.migrations_q.demoted += pages;
        }
    }

    /// Record a batch migration's events and per-phase spans. Purely
    /// observational; no-op when telemetry is disabled.
    fn record_migration(
        &self,
        w: usize,
        dest: TierKind,
        out: &SyncOutcome,
        on_critical_path: bool,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        // Shootdown ack-timeout retries (fault injection): histogram of
        // retry rounds per batch, recorded even when every page failed.
        if out.sd_retries > 0 {
            self.telemetry
                .histogram("migrate.shootdown_retries", &[1, 2, 3, 4, 6, 8])
                .record(out.sd_retries as u64);
        }
        if out.moved.is_empty() {
            return;
        }
        let name = &self.workloads[w].spec.name;
        let kind = if dest == TierKind::Fast {
            EventKind::PagesPromoted {
                pages: out.moved.len() as u64,
                sync: on_critical_path,
            }
        } else {
            EventKind::PagesDemoted {
                pages: out.moved.len() as u64,
                remap_only: out.remap_only,
            }
        };
        self.telemetry.emit(self.now, Some(name), kind);
        for (phase, cycles) in [
            ("migrate.prep", out.phases.prep),
            ("migrate.trap", out.phases.trap),
            ("migrate.unmap", out.phases.unmap),
            ("migrate.shootdown", out.phases.shootdown),
            ("migrate.copy", out.phases.copy),
            ("migrate.remap", out.phases.remap),
        ] {
            if cycles > Cycles::ZERO {
                self.telemetry.record_phase(name, phase, cycles);
            }
        }
    }

    /// Global migration preparation (`lru_add_drain_all`) interrupts
    /// *every* core: co-located workloads pay the per-CPU drain handler
    /// even though they did not migrate anything — the cross-workload
    /// disturbance Vulcan's per-workload preparation eliminates (§3.2).
    fn charge_global_prep(&mut self, initiator: usize, cfg: &MechanismConfig) {
        if cfg.prep != vulcan_migrate::PrepStrategy::BaselineGlobal {
            return;
        }
        let per_cpu = self.machine.spec().migration_costs.prep_per_cpu.to_nanos();
        for (i, ws) in self.workloads.iter_mut().enumerate() {
            if i == initiator || !ws.started {
                continue;
            }
            // One drain handler per core running this workload's threads.
            ws.pending_stall += per_cpu * ws.spec.n_threads as u64;
            let charge =
                self.machine.spec().migration_costs.prep_per_cpu * ws.spec.n_threads as u64;
            ws.stats.stall_cycles += charge;
            ws.stats.stall_q += charge;
        }
    }

    /// Migrate pages of workload `w` off the critical path: same
    /// five-phase mechanism, but the cost is charged to the daemon (e.g.
    /// kswapd-style demotion, Memtis's background kmigrated) instead of
    /// stalling the application.
    pub fn migrate_background(
        &mut self,
        w: usize,
        pages: &[Vpn],
        dest: TierKind,
        cfg: &MechanismConfig,
    ) -> SyncOutcome {
        let ws = &mut self.workloads[w];
        let out = migrate_sync(
            &mut ws.process,
            &mut self.machine,
            &mut self.tlbs,
            &mut ws.shadows,
            pages,
            dest,
            cfg,
        );
        ws.stats.daemon_cycles += out.total_cycles();
        self.tally_migration(dest, out.moved.len() as u64);
        self.record_migration(w, dest, &out, false);
        self.charge_global_prep(w, cfg);
        self.recount_fast(w);
        out
    }

    /// Start asynchronous (transactional) migrations for workload `w`.
    pub fn migrate_async(&mut self, w: usize, pages: &[Vpn], dest: TierKind) -> usize {
        let ws = &mut self.workloads[w];
        let started = ws.async_migrator.start(
            &mut ws.process,
            &mut self.machine,
            &mut self.tlbs,
            pages,
            dest,
            self.now,
        );
        if started > 0 {
            self.telemetry.emit(
                self.now,
                Some(&self.workloads[w].spec.name),
                EventKind::AsyncStarted {
                    pages: started as u64,
                },
            );
        }
        started
    }

    /// Drive workload `w`'s in-flight async transactions; commits are
    /// charged to the daemon, not the application.
    ///
    /// The dirty-retry decision uses each page's observed write rate to
    /// estimate the probability a write landed inside one copy window
    /// (see [`vulcan_migrate::AsyncMigrator`]).
    pub fn poll_async(&mut self, w: usize, cfg: &MechanismConfig) {
        self.workloads[w].async_mech = *cfg;
        // The copy window stretches with memory-bandwidth contention: a
        // loaded copy takes longer, so more writes land inside it — the
        // write-intensive pathology of Observation #4.
        let contention = self
            .machine
            .bandwidth
            .inflation(TierKind::Fast)
            .max(self.machine.bandwidth.inflation(TierKind::Slow));
        let window_ns = self
            .machine
            .spec()
            .migration_costs
            .copy_single
            .to_nanos()
            .as_f64()
            * contention;
        let active_ns = self.quantum_active.as_f64().max(1.0);
        let retried_before = self.workloads[w].async_migrator.stats.retried;
        let ws = &mut self.workloads[w];
        let WorkloadState {
            process,
            profiler,
            shadows,
            async_migrator,
            stats,
            ..
        } = ws;
        let heat = profiler.heat();
        let mut dirty_prob = |vpn: vulcan_vm::Vpn| -> f64 {
            // Decayed sampled writes approximate writes per quantum
            // (steady state: w_q / (1 - decay)); scale to the window.
            let writes_per_quantum = heat.get(vpn).writes * (1.0 - vulcan_profile::DEFAULT_DECAY);
            (writes_per_quantum * window_ns / active_ns).min(1.0)
        };
        let poll = async_migrator.poll(
            process,
            &mut self.machine,
            &mut self.tlbs,
            shadows,
            self.now,
            cfg,
            &mut dirty_prob,
        );
        stats.daemon_cycles += poll.background;
        stats.aborted_pages_q.extend_from_slice(&poll.aborted);
        self.migrations_q.async_committed += poll.committed.len() as u64;
        self.migrations_q.async_aborted += poll.aborted.len() as u64;
        if !poll.committed.is_empty() || !poll.aborted.is_empty() {
            self.recount_fast(w);
        }
        if self.telemetry.is_enabled() {
            let ws = &self.workloads[w];
            let name = &ws.spec.name;
            let retried = ws.async_migrator.stats.retried - retried_before;
            if retried > 0 {
                self.telemetry.emit(
                    self.now,
                    Some(name),
                    EventKind::AsyncRetried { pages: retried },
                );
            }
            if !poll.committed.is_empty() {
                self.telemetry.emit(
                    self.now,
                    Some(name),
                    EventKind::AsyncCommitted {
                        pages: poll.committed.len() as u64,
                    },
                );
            }
            if !poll.aborted.is_empty() {
                self.telemetry.emit(
                    self.now,
                    Some(name),
                    EventKind::AsyncAborted {
                        pages: poll.aborted.len() as u64,
                    },
                );
            }
        }
    }

    /// Refresh workload `w`'s fast-tier page count from the address
    /// space's resident counters (authoritative, O(1)).
    pub fn recount_fast(&mut self, w: usize) {
        let ws = &mut self.workloads[w];
        let space = &ws.process.space;
        // Oracle builds: the counters must equal the reference model, a
        // scan of every mapped PTE.
        #[cfg(feature = "oracle")]
        {
            let mut scan = [0u64; vulcan_sim::MAX_TIERS];
            for (_, pte) in space.mapped_ptes() {
                if let Some(t) = pte.tier() {
                    scan[t.index()] += 1;
                }
            }
            let counted = TierKind::ALL.map(|t| space.resident(t));
            vulcan_oracle::check(
                vulcan_oracle::Structure::Resident,
                counted == scan,
                None,
                || {
                    format!(
                    "workload {w}: resident counters {counted:?} != scan of mapped PTEs {scan:?}"
                )
                },
            );
        }
        ws.stats.fast_used = space.resident(TierKind::Fast);
    }

    /// Set workload `w`'s fast-tier quota in pages.
    pub fn set_quota(&mut self, w: usize, pages: u64) {
        if self.workloads[w].quota != Some(pages) {
            self.telemetry.emit(
                self.now,
                Some(&self.workloads[w].spec.name),
                EventKind::QuotaChanged { fast_pages: pages },
            );
        }
        self.workloads[w].quota = Some(pages);
    }

    /// Tear down workload `w`: abort in-flight transactions, unmap and
    /// free every page and shadow, flush its TLB entries on every core.
    /// Idempotent; called by the runner when a workload departs.
    // Allow-listed for the ISSUE 5 lint gate: the expects guard the
    // page-table invariant that a VPN listed as mapped has a frame —
    // teardown must free every frame or conservation is violated.
    #[allow(clippy::expect_used)]
    pub fn teardown(&mut self, w: usize) {
        let ws = &mut self.workloads[w];
        if ws.departed {
            return;
        }
        ws.started = false;
        ws.departed = true;
        self.telemetry.emit(
            self.now,
            Some(&self.workloads[w].spec.name),
            EventKind::WorkloadDeparture,
        );
        let ws = &mut self.workloads[w];
        ws.async_migrator.abort_all(&mut self.machine);
        let vpns: Vec<Vpn> = ws.process.space.mapped_vpns().collect();
        for vpn in vpns {
            let pte = ws.process.space.unmap(vpn).expect("listed as mapped");
            self.machine
                .free(pte.frame().expect("mapped page has a frame"));
        }
        for f in ws.shadows.evict(usize::MAX) {
            self.machine.free(f);
        }
        let asid = ws.process.asid;
        let n_cores = u16::try_from(self.tlbs.len()).expect("one TLB per core, cores are u16");
        for c in 0..n_cores {
            self.tlbs.core(vulcan_sim::CoreId(c)).flush_asid(asid);
        }
        ws.stats.fast_used = 0;
    }

    /// Reclaim shadow frames of workload `w` when the slow tier is under
    /// pressure, freeing up to `n` frames.
    pub fn reclaim_shadows(&mut self, w: usize, n: usize) -> usize {
        let ws = &mut self.workloads[w];
        let evicted = ws.shadows.evict(n);
        let count = evicted.len();
        for f in evicted {
            self.machine.free(f);
        }
        count
    }

    /// Serialize the complete system state at a quantum boundary.
    /// Telemetry is deliberately NOT serialized: recording never affects
    /// simulation results, and a restored state always starts with a
    /// disabled sink (the runner re-installs the configured handle).
    pub fn checkpoint_value(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Snapshot as _, Value};
        let workloads = self
            .workloads
            .iter()
            .map(WorkloadState::checkpoint_value)
            .collect();
        snap::obj(vec![
            ("machine", self.machine.snapshot()),
            ("tlbs", self.tlbs.snapshot()),
            ("workloads", Value::Array(workloads)),
            ("now", snap::u64_value(self.now.0)),
            ("quantum_index", snap::u64_value(self.quantum_index)),
            ("quantum_active", snap::u64_value(self.quantum_active.0)),
            ("migrations_q", self.migrations_q.snapshot()),
            ("replication", Value::Bool(self.replication)),
            ("base_seed", snap::u64_value(self.base_seed)),
            (
                "next_sim_tid",
                snap::u64_value(u64::from(self.next_sim_tid)),
            ),
            ("next_core", snap::u64_value(u64::from(self.next_core))),
        ])
    }

    /// Rebuild a system state from [`checkpoint_value`](Self::checkpoint_value)
    /// output. The spawn bookkeeping (`base_seed`, `next_sim_tid`,
    /// `next_core`) round-trips so a tenant admitted after the restore
    /// follows the exact same recipe as in the original run.
    pub fn from_checkpoint(v: &vulcan_json::Value) -> Result<SystemState, String> {
        use vulcan_json::{snap, Snapshot as _};
        let workloads = snap::field_array(v, "workloads")?
            .iter()
            .map(WorkloadState::from_checkpoint)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SystemState {
            machine: Machine::restore(snap::field(v, "machine")?)?,
            tlbs: TlbArray::restore(snap::field(v, "tlbs")?)?,
            workloads,
            now: Nanos(snap::field_u64(v, "now")?),
            quantum_index: snap::field_u64(v, "quantum_index")?,
            quantum_active: Nanos(snap::field_u64(v, "quantum_active")?),
            telemetry: Telemetry::disabled(),
            migrations_q: MigrationCounts::restore(snap::field(v, "migrations_q")?)?,
            replication: snap::field_bool(v, "replication")?,
            base_seed: snap::field_u64(v, "base_seed")?,
            next_sim_tid: u32::try_from(snap::field_u64(v, "next_sim_tid")?)
                .map_err(|_| "next_sim_tid out of range".to_string())?,
            next_core: u16::try_from(snap::field_u64(v, "next_core")?)
                .map_err(|_| "next_core out of range".to_string())?,
        })
    }
}

impl vulcan_json::Snapshot for MigrationCounts {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("promoted", snap::u64_value(self.promoted)),
            ("demoted", snap::u64_value(self.demoted)),
            ("async_committed", snap::u64_value(self.async_committed)),
            ("async_aborted", snap::u64_value(self.async_aborted)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        Ok(MigrationCounts {
            promoted: snap::field_u64(v, "promoted")?,
            demoted: snap::field_u64(v, "demoted")?,
            async_committed: snap::field_u64(v, "async_committed")?,
            async_aborted: snap::field_u64(v, "async_aborted")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_profile::PebsProfiler;
    use vulcan_sim::MachineSpec;
    use vulcan_workloads::{microbench, MicroConfig};

    fn mk_state(n_workloads: usize) -> SystemState {
        let specs: Vec<WorkloadSpec> = (0..n_workloads)
            .map(|i| {
                microbench(
                    &format!("w{i}"),
                    MicroConfig {
                        rss_pages: 128,
                        wss_pages: 64,
                        ..Default::default()
                    },
                    2,
                )
            })
            .collect();
        SystemState::new(
            Machine::new(MachineSpec::small(256, 1024, 8)),
            specs,
            &mut |_| PebsProfiler::new(4).into(),
            true,
            42,
        )
    }

    #[test]
    fn construction_pins_threads_to_disjoint_cores() {
        let st = mk_state(2);
        assert_eq!(st.n_workloads(), 2);
        let c0 = st
            .machine
            .topology
            .cores_of(st.workloads[0].process.sim_threads().iter().copied());
        let c1 = st
            .machine
            .topology
            .cores_of(st.workloads[1].process.sim_threads().iter().copied());
        assert!(c0.is_disjoint(&c1), "dedicated core sets per app");
    }

    #[test]
    fn distinct_asids() {
        let st = mk_state(3);
        let asids: std::collections::BTreeSet<u16> =
            st.workloads.iter().map(|w| w.process.asid.0).collect();
        assert_eq!(asids.len(), 3);
    }

    #[test]
    fn fthr_ema_follows_equation_two() {
        let mut s = WorkloadStats {
            fast_q: 80,
            slow_q: 20,
            ..Default::default()
        };
        s.roll_quantum();
        // H̄_1 = 0.8; prev was 0: FTHR = 0.8·0.8 + 0.2·0 = 0.64.
        assert!((s.fthr - 0.64).abs() < 1e-12);
        s.fast_q = 80;
        s.slow_q = 20;
        s.roll_quantum();
        // FTHR = 0.8·0.8 + 0.2·0.8 = 0.8.
        assert!((s.fthr - 0.8).abs() < 1e-12);
    }

    #[test]
    fn idle_quantum_carries_hit_ratio_forward() {
        let mut s = WorkloadStats {
            fast_q: 100,
            ..Default::default()
        };
        s.roll_quantum();
        let f1 = s.fthr;
        s.roll_quantum(); // no accesses
        assert!((s.quantum_hit_ratio() - 1.0).abs() < 1e-12);
        assert!(s.fthr >= f1);
    }

    #[test]
    fn quantum_rates() {
        let s = WorkloadStats {
            ops_q: 100,
            active_q: Nanos::millis(1),
            op_latency_q: Nanos(500_000),
            mem_time_q: Nanos(250_000),
            ..Default::default()
        };
        assert!((s.ops_per_sec_q() - 100_000.0).abs() < 1e-6);
        assert!((s.mean_op_latency_q() - 5_000.0).abs() < 1e-9);
        assert!((s.memory_duty_q() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn effective_quota_defaults_to_unlimited() {
        let mut st = mk_state(1);
        assert_eq!(st.workloads[0].effective_quota(), u64::MAX);
        st.set_quota(0, 64);
        assert_eq!(st.workloads[0].effective_quota(), 64);
    }

    #[test]
    fn recount_fast_matches_tables() {
        use vulcan_vm::LocalTid;
        let mut st = mk_state(1);
        // Map two pages in fast, one in slow.
        for (i, tier) in [TierKind::Fast, TierKind::Fast, TierKind::Slow]
            .iter()
            .enumerate()
        {
            let f = st.machine.alloc(*tier).unwrap();
            st.workloads[0]
                .process
                .space
                .map(Vpn(i as u64), f, LocalTid(0));
        }
        st.recount_fast(0);
        assert_eq!(st.workloads[0].stats.fast_used, 2);
    }

    #[test]
    fn sync_migration_charges_stall() {
        use vulcan_vm::LocalTid;
        let mut st = mk_state(1);
        let f = st.machine.alloc(TierKind::Slow).unwrap();
        st.workloads[0].process.space.map(Vpn(0), f, LocalTid(0));
        st.workloads[0]
            .process
            .space
            .touch(Vpn(0), LocalTid(0), false)
            .unwrap();
        let cfg = MechanismConfig::vulcan();
        let out = st.migrate_sync(0, &[Vpn(0)], TierKind::Fast, &cfg);
        assert_eq!(out.moved.len(), 1);
        assert!(st.workloads[0].pending_stall > Nanos::ZERO);
        assert!(st.workloads[0].stats.stall_cycles > Cycles::ZERO);
        assert_eq!(st.workloads[0].stats.fast_used, 1);
    }
}
