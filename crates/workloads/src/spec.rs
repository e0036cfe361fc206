//! Workload specifications and the Table 2 presets.

use crate::apps::{KvConfig, KvStore, PageRank, PrConfig, Sweep, SweepConfig};
use crate::bufferpool::{BufferPool, BufferPoolConfig};
use crate::gen::AccessGen;
use crate::microbench::{MicroConfig, Microbench};
use crate::trace::{Trace, TraceReplayer};
use std::sync::Arc;
use vulcan_sim::{Nanos, TierKind};

/// Ground-truth service class of a workload.
///
/// The runtime reports this for evaluation; Vulcan's daemon does **not**
/// read it — it classifies black-box workloads from their utilization
/// patterns (§3.3), and the classifier is tested against this truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Online service; performance = request latency.
    LatencyCritical,
    /// Batch job; performance = throughput.
    BestEffort,
}

/// Which generator a workload uses.
#[derive(Clone, Debug)]
pub enum WorkloadKind {
    /// Memcached-like KV store.
    Kv(KvConfig),
    /// PageRank-like graph computation.
    PageRank(PrConfig),
    /// Liblinear-like training sweep.
    Sweep(SweepConfig),
    /// Nomad-style Zipfian microbenchmark.
    Micro(MicroConfig),
    /// Database buffer pool: phase-alternating scans and point lookups.
    BufferPool(BufferPoolConfig),
    /// Replay of a recorded access trace.
    Replay(Arc<Trace>),
}

/// A complete workload description the runtime can instantiate.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Display name.
    pub name: String,
    /// Ground-truth class (evaluation only).
    pub class: WorkloadClass,
    /// Worker threads.
    pub n_threads: usize,
    /// Simulated start time (staggered arrivals, §5.3).
    pub start: Nanos,
    /// Generator configuration.
    pub kind: WorkloadKind,
    /// Pre-map the whole RSS into a tier before the run (the §5.2
    /// microbenchmarks "allocate data to specific segments of the tiered
    /// memory"); `None` means demand paging.
    pub prealloc: Option<TierKind>,
    /// Back demand-paged memory with transparent huge pages: faults map
    /// whole 2 MiB regions and the TLB caches one entry per region
    /// (§3.5 enables THP by default for TLB coverage).
    pub thp: bool,
    /// Simulated departure time: the workload terminates, releasing all
    /// of its memory (GFMC then redistributes over the survivors, §3.3's
    /// "dynamically adjusting based on n"). `None` = runs forever.
    pub stop: Option<Nanos>,
}

impl WorkloadSpec {
    /// Instantiate the access generator.
    pub fn build(&self) -> Box<dyn AccessGen> {
        match &self.kind {
            WorkloadKind::Kv(c) => Box::new(KvStore::new(c.clone())),
            WorkloadKind::PageRank(c) => Box::new(PageRank::new(PrConfig {
                n_threads: self.n_threads,
                ..c.clone()
            })),
            WorkloadKind::Sweep(c) => Box::new(Sweep::new(SweepConfig {
                n_threads: self.n_threads,
                ..c.clone()
            })),
            WorkloadKind::Micro(c) => Box::new(Microbench::new(c.clone())),
            WorkloadKind::BufferPool(c) => Box::new(BufferPool::new(BufferPoolConfig {
                n_threads: self.n_threads,
                ..c.clone()
            })),
            WorkloadKind::Replay(t) => {
                Box::new(TraceReplayer::new(t.clone()).expect("validated trace"))
            }
        }
    }

    /// The workload's RSS in pages.
    pub fn rss_pages(&self) -> u64 {
        match &self.kind {
            WorkloadKind::Kv(c) => c.rss_pages,
            WorkloadKind::PageRank(c) => c.rss_pages,
            WorkloadKind::Sweep(c) => c.rss_pages,
            WorkloadKind::Micro(c) => c.rss_pages,
            WorkloadKind::BufferPool(c) => c.rss_pages,
            WorkloadKind::Replay(t) => t.rss_pages,
        }
    }

    /// Delay the workload's start (the paper starts PageRank at 50 s and
    /// Liblinear at 110 s, §5.3).
    pub fn starting_at(mut self, t: Nanos) -> Self {
        self.start = t;
        self
    }

    /// Pre-map the whole RSS into `tier` before the run.
    pub fn preallocated(mut self, tier: TierKind) -> Self {
        self.prealloc = Some(tier);
        self
    }

    /// Enable transparent huge pages for this workload.
    pub fn with_thp(mut self) -> Self {
        self.thp = true;
        self
    }

    /// Terminate the workload at `t`, releasing its memory.
    pub fn stopping_at(mut self, t: Nanos) -> Self {
        self.stop = Some(t);
        self
    }
}

impl vulcan_json::Snapshot for WorkloadKind {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let (tag, cfg) = match self {
            WorkloadKind::Kv(c) => ("kv", c.snapshot()),
            WorkloadKind::PageRank(c) => ("pagerank", c.snapshot()),
            WorkloadKind::Sweep(c) => ("sweep", c.snapshot()),
            WorkloadKind::Micro(c) => ("micro", c.snapshot()),
            WorkloadKind::BufferPool(c) => ("bufferpool", c.snapshot()),
            WorkloadKind::Replay(t) => ("replay", t.to_value()),
        };
        snap::obj(vec![("kind", Value::Str(tag.to_string())), ("config", cfg)])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let cfg = snap::field(v, "config")?;
        Ok(match snap::field_str(v, "kind")? {
            "kv" => WorkloadKind::Kv(KvConfig::restore(cfg)?),
            "pagerank" => WorkloadKind::PageRank(PrConfig::restore(cfg)?),
            "sweep" => WorkloadKind::Sweep(SweepConfig::restore(cfg)?),
            "micro" => WorkloadKind::Micro(MicroConfig::restore(cfg)?),
            "bufferpool" => WorkloadKind::BufferPool(BufferPoolConfig::restore(cfg)?),
            "replay" => WorkloadKind::Replay(Arc::new(Trace::from_value(cfg)?)),
            other => return Err(format!("unknown workload kind \"{other}\"")),
        })
    }
}

impl vulcan_json::Snapshot for WorkloadSpec {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let class = match self.class {
            WorkloadClass::LatencyCritical => "lc",
            WorkloadClass::BestEffort => "be",
        };
        let prealloc = match self.prealloc {
            Some(t) => Value::Str(t.name().to_string()),
            None => Value::Null,
        };
        let stop = match self.stop {
            Some(t) => snap::u64_value(t.0),
            None => Value::Null,
        };
        snap::obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("class", Value::Str(class.to_string())),
            ("n_threads", snap::u64_value(self.n_threads as u64)),
            ("start", snap::u64_value(self.start.0)),
            ("kind", self.kind.snapshot()),
            ("prealloc", prealloc),
            ("thp", Value::Bool(self.thp)),
            ("stop", stop),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::{snap, Value};
        let class = match snap::field_str(v, "class")? {
            "lc" => WorkloadClass::LatencyCritical,
            "be" => WorkloadClass::BestEffort,
            other => return Err(format!("unknown workload class \"{other}\"")),
        };
        let prealloc = match snap::field(v, "prealloc")? {
            Value::Null => None,
            Value::Str(s) => Some(
                TierKind::ALL
                    .iter()
                    .copied()
                    .find(|t| t.name() == s.as_str())
                    .ok_or_else(|| format!("unknown prealloc tier \"{s}\""))?,
            ),
            _ => return Err("prealloc is neither null nor a tier name".to_string()),
        };
        let stop = match snap::field(v, "stop")? {
            Value::Null => None,
            other => Some(Nanos(snap::value_u64(other)?)),
        };
        Ok(WorkloadSpec {
            name: snap::field_str(v, "name")?.to_string(),
            class,
            n_threads: snap::field_usize(v, "n_threads")?,
            start: Nanos(snap::field_u64(v, "start")?),
            kind: WorkloadKind::restore(snap::field(v, "kind")?)?,
            prealloc,
            thp: snap::field_bool(v, "thp")?,
            stop,
        })
    }
}

/// Table 2: Memcached, 51 GB, YCSB-style KV — latency-critical.
pub fn memcached() -> WorkloadSpec {
    WorkloadSpec {
        name: "memcached".into(),
        class: WorkloadClass::LatencyCritical,
        n_threads: 8,
        start: Nanos::ZERO,
        kind: WorkloadKind::Kv(KvConfig::default()),
        prealloc: None,
        thp: false,
        stop: None,
    }
}

/// Table 2: PageRank, 42 GB web-graph scoring — best-effort.
pub fn pagerank() -> WorkloadSpec {
    WorkloadSpec {
        name: "pagerank".into(),
        class: WorkloadClass::BestEffort,
        n_threads: 8,
        start: Nanos::ZERO,
        kind: WorkloadKind::PageRank(PrConfig::default()),
        prealloc: None,
        thp: false,
        stop: None,
    }
}

/// Table 2: Liblinear on KDD12, 69 GB — best-effort.
pub fn liblinear() -> WorkloadSpec {
    WorkloadSpec {
        name: "liblinear".into(),
        class: WorkloadClass::BestEffort,
        n_threads: 8,
        start: Nanos::ZERO,
        kind: WorkloadKind::Sweep(SweepConfig::default()),
        prealloc: None,
        thp: false,
        stop: None,
    }
}

/// A workload replaying a recorded trace.
pub fn replay(name: &str, trace: Arc<Trace>, class: WorkloadClass) -> WorkloadSpec {
    let n_threads = trace.n_threads;
    WorkloadSpec {
        name: name.into(),
        class,
        n_threads,
        start: Nanos::ZERO,
        kind: WorkloadKind::Replay(trace),
        prealloc: None,
        thp: false,
        stop: None,
    }
}

/// A microbenchmark workload (Figures 4 and 8).
pub fn microbench(name: &str, cfg: MicroConfig, n_threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        class: WorkloadClass::BestEffort,
        n_threads,
        start: Nanos::ZERO,
        kind: WorkloadKind::Micro(cfg),
        prealloc: None,
        thp: false,
        stop: None,
    }
}

/// A buffer-pool workload (scan/point-lookup phases over a paged
/// relation). Classed best-effort by default: the scan phases dominate
/// its runtime and its metric of interest is sweep throughput.
pub fn bufferpool(name: &str, cfg: BufferPoolConfig, n_threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        class: WorkloadClass::BestEffort,
        n_threads,
        start: Nanos::ZERO,
        kind: WorkloadKind::BufferPool(cfg),
        prealloc: None,
        thp: false,
        stop: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_presets() {
        assert_eq!(memcached().rss_pages(), 13_056);
        assert_eq!(pagerank().rss_pages(), 10_752);
        assert_eq!(liblinear().rss_pages(), 17_664);
        assert_eq!(memcached().class, WorkloadClass::LatencyCritical);
        assert_eq!(liblinear().class, WorkloadClass::BestEffort);
        for spec in [memcached(), pagerank(), liblinear()] {
            assert_eq!(spec.n_threads, 8, "8 threads per app (§5.3)");
        }
    }

    #[test]
    fn builders_produce_generators_with_matching_rss() {
        for spec in [memcached(), pagerank(), liblinear()] {
            let g = spec.build();
            assert_eq!(g.rss_pages(), spec.rss_pages());
        }
    }

    #[test]
    fn staggered_start() {
        let w = pagerank().starting_at(Nanos::secs(50));
        assert_eq!(w.start, Nanos::secs(50));
        assert_eq!(w.stop, None);
        let w = w.stopping_at(Nanos::secs(120));
        assert_eq!(w.stop, Some(Nanos::secs(120)));
    }

    #[test]
    fn micro_spec() {
        let w = microbench("mb", MicroConfig::default(), 4);
        assert_eq!(w.n_threads, 4);
        assert_eq!(w.rss_pages(), 8_192);
    }

    #[test]
    fn spec_snapshot_roundtrips_every_kind() {
        use vulcan_json::Snapshot;
        let trace = {
            let mut g = Microbench::new(MicroConfig {
                rss_pages: 256,
                wss_pages: 64,
                ..Default::default()
            });
            Arc::new(Trace::record(&mut g, 2, 10, 7))
        };
        let specs = vec![
            memcached().starting_at(Nanos::secs(3)),
            pagerank().preallocated(TierKind::Slow),
            liblinear().stopping_at(Nanos::secs(99)),
            microbench("mb", MicroConfig::default(), 4).with_thp(),
            bufferpool("bp", BufferPoolConfig::default(), 4),
            replay("rp", trace, WorkloadClass::LatencyCritical),
        ];
        for spec in specs {
            let snap = spec.snapshot();
            let back = WorkloadSpec::restore(&snap).expect("restore");
            assert_eq!(back.snapshot(), snap, "snapshot(restore(c)) == c");
            assert_eq!(back.name, spec.name);
            assert_eq!(back.class, spec.class);
            assert_eq!(back.n_threads, spec.n_threads);
            assert_eq!(back.start, spec.start);
            assert_eq!(back.prealloc, spec.prealloc);
            assert_eq!(back.thp, spec.thp);
            assert_eq!(back.stop, spec.stop);
            assert_eq!(back.rss_pages(), spec.rss_pages());
        }
    }

    /// One spec of every generator kind, at its default configuration.
    fn one_of_each_kind() -> Vec<WorkloadSpec> {
        let trace = {
            let mut g = Microbench::new(MicroConfig {
                rss_pages: 256,
                wss_pages: 64,
                ..Default::default()
            });
            Arc::new(Trace::record(&mut g, 2, 10, 7))
        };
        vec![
            memcached(),
            pagerank(),
            liblinear(),
            microbench("mb", MicroConfig::default(), 4),
            bufferpool("bp", BufferPoolConfig::default(), 4),
            replay("rp", trace, WorkloadClass::BestEffort),
        ]
    }

    /// Every stateful generator must resume exactly where it left off: a
    /// fresh generator built from the restored spec plus
    /// `restore_state` produces the same access stream as the original
    /// continuing uninterrupted.
    #[test]
    fn generator_state_roundtrip_continues_the_access_stream() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use vulcan_json::Snapshot;
        for spec in one_of_each_kind() {
            let mut rng = SmallRng::seed_from_u64(11);
            let mut gen = spec.build();
            let mut buf = Vec::new();
            // Warm up mid-phase and mid-cursor on several threads.
            for i in 0..700 {
                buf.clear();
                gen.next_op(i % spec.n_threads, &mut rng, &mut buf);
            }
            let state = gen.snapshot_state();
            let spec2 = WorkloadSpec::restore(&spec.snapshot()).expect("spec restore");
            let mut fresh = spec2.build();
            fresh
                .restore_state(&state)
                .unwrap_or_else(|e| panic!("{}: restore_state: {e}", spec.name));
            assert_eq!(
                fresh.snapshot_state(),
                state,
                "{}: snapshot_state(restore_state(s)) == s",
                spec.name
            );
            // Both must now produce identical streams from the same RNG.
            let rng_state = rng.state();
            let mut rng2 = SmallRng::from_state(rng_state);
            let mut buf2 = Vec::new();
            for i in 0..300 {
                let tid = i % spec.n_threads;
                buf.clear();
                buf2.clear();
                gen.next_op(tid, &mut rng, &mut buf);
                fresh.next_op(tid, &mut rng2, &mut buf2);
                assert_eq!(buf, buf2, "{}: op {i} diverged after restore", spec.name);
            }
        }
    }

    /// The runtime's fill-and-rewind protocol, for every generator: a
    /// chunk filled by `fill_batch`, of which only a prefix is consumed
    /// (a quantum budget running out mid-chunk), is rewound through
    /// `snapshot_state`/`restore_state` plus an RNG snapshot and
    /// refilled for that prefix. Plans, generator state and RNG must
    /// match the same number of `next_op` calls exactly.
    #[test]
    fn fill_and_rewind_match_next_op_for_every_generator() {
        use crate::gen::{AccessPlan, PageAccess};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        const CHUNK: usize = 128;
        for spec in one_of_each_kind() {
            let (mut ops, mut planes) = (spec.build(), spec.build());
            let mut ops_rng = SmallRng::seed_from_u64(5);
            let mut planes_rng = SmallRng::seed_from_u64(5);
            let (mut plan, mut refill) = (AccessPlan::default(), AccessPlan::default());
            let mut op = Vec::new();
            for round in 0..24 {
                let tid = round % spec.n_threads;
                let consumed = (round * 37) % CHUNK + 1;
                let state = planes.snapshot_state();
                let rng_before = planes_rng.clone();
                plan.clear();
                assert_eq!(
                    planes.fill_batch(tid, &mut planes_rng, &mut plan, CHUNK),
                    CHUNK
                );
                assert_eq!(plan.ops(), CHUNK);
                for i in 0..consumed {
                    op.clear();
                    ops.next_op(tid, &mut ops_rng, &mut op);
                    let (start, end) = plan.op_range(i);
                    let filled: Vec<PageAccess> = (start..end)
                        .map(|j| PageAccess {
                            offset: plan.offsets[j],
                            write: plan.writes[j],
                        })
                        .collect();
                    assert_eq!(filled, op, "{}: round {round} op {i}", spec.name);
                }
                if consumed < CHUNK {
                    planes.restore_state(&state).expect("own snapshot restores");
                    planes_rng = rng_before;
                    refill.clear();
                    planes.fill_batch(tid, &mut planes_rng, &mut refill, consumed);
                    let (_, end) = plan.op_range(consumed - 1);
                    assert_eq!(refill.offsets, plan.offsets[..end], "{}", spec.name);
                }
                assert_eq!(
                    planes.snapshot_state(),
                    ops.snapshot_state(),
                    "{}: generator state after round {round}",
                    spec.name
                );
                assert_eq!(planes_rng.state(), ops_rng.state(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn bufferpool_spec() {
        let w = bufferpool("bufpool", BufferPoolConfig::default(), 4).with_thp();
        assert_eq!(w.n_threads, 4);
        assert_eq!(w.rss_pages(), 12_288);
        assert_eq!(w.class, WorkloadClass::BestEffort);
        assert!(w.thp, "scan phases are THP-sensitive");
        // The spec's thread count overrides the config's.
        let g = w.build();
        assert_eq!(g.rss_pages(), w.rss_pages());
    }
}
