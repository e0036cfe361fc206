//! The three workloads. Each repetition is a fixed amount of simulated
//! work, generated from the seed alone, so repetitions of one seed do the
//! same work and their digests must agree.

use vulcan::prelude::*;
use vulcan::runtime::checkpoint::parse_checkpoint;
use vulcan::runtime::{CheckpointError, SimRunner};
use vulcan_churn::{Catalog, ChurnConfig, ChurnEngine};
use vulcan_json::Value;

use crate::clock::{cpu_timed, peak_rss_mib};
use crate::meter::{Meter, ReadSample, StatTotals, WriteSample};

/// Steps of every workload: enough for the p95 of step time to keep ten
/// samples beyond it in every repetition.
const QUANTA: u64 = 200;
/// Checkpoint probes: writes of a freshly built runner's checkpoint, and
/// reads of that text.
const PROBE_WRITES: u64 = 3;
const PROBE_READS: u64 = 5;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's co-location (Figs 1, 8, 10): memcached from t=0,
    /// pagerank from 50 s, liblinear from 110 s, under Vulcan. All three
    /// generators take the scalar access loop.
    PaperColoc,
    /// Two Zipf tenants under MEMTIS on a 2-tier machine whose fast tier
    /// holds a third of their RSS. Every access takes the batched plane
    /// sweep; no Vulcan code runs.
    ZipfPlanes,
    /// Open-loop tenancy on a DRAM→CXL→NVM chain under Vulcan: spawn,
    /// teardown, admission, compaction, shadow reclaim, chain demotion.
    Churn3Tier,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperColoc,
        Workload::ZipfPlanes,
        Workload::Churn3Tier,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperColoc => "paper_coloc",
            Workload::ZipfPlanes => "zipf_planes",
            Workload::Churn3Tier => "churn_3tier",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// CPU time of one set-up, the runner or engine built and dropped.
    pub fn setup_ns(self, seed: u64) -> u64 {
        match self {
            Workload::PaperColoc => cpu_timed(|| paper_runner(seed, PolicyKind::Vulcan.make())).1,
            Workload::ZipfPlanes => cpu_timed(|| zipf_runner(seed, PolicyKind::Memtis.make())).1,
            Workload::Churn3Tier => cpu_timed(|| churn_engine(seed, PolicyKind::Vulcan.make())).1,
        }
    }

    /// Run one repetition into `meter`: the workload's own work, then the
    /// checkpoint probes.
    pub fn run(self, seed: u64, meter: &mut Meter) {
        let (vulcan, memtis) = (PolicyKind::Vulcan, PolicyKind::Memtis);
        match self {
            Workload::PaperColoc => static_run(meter, vulcan, |p| paper_runner(seed, p)),
            Workload::ZipfPlanes => static_run(meter, memtis, |p| zipf_runner(seed, p)),
            Workload::Churn3Tier => churn_run(seed, meter),
        }
        // Read before the probes, which would otherwise show in the peak
        // of every later repetition.
        meter.rep.peak_rss_mib = peak_rss_mib();
        match self {
            Workload::PaperColoc => {
                let fresh = paper_runner(seed, meter.policy(vulcan.make()));
                probe_runner(meter, vulcan, fresh);
            }
            Workload::ZipfPlanes => {
                let fresh = zipf_runner(seed, meter.policy(memtis.make()));
                probe_runner(meter, memtis, fresh);
            }
            Workload::Churn3Tier => {
                let fresh = churn_engine(seed, meter.policy(vulcan.make()));
                probe_engine(meter, fresh);
            }
        }
    }
}

fn config(seed: u64, n_quanta: u64) -> SimConfig {
    SimConfig {
        n_quanta,
        seed,
        shards: 1,
        ..SimConfig::default()
    }
}

fn paper_runner(seed: u64, policy: Box<dyn TieringPolicy>) -> SimRunner {
    SimRunner::builder()
        .machine(MachineSpec::paper_testbed())
        .workloads(vec![
            memcached(),
            pagerank().starting_at(Nanos::secs(50)),
            liblinear().starting_at(Nanos::secs(110)),
        ])
        .profiler_factory(|_| PolicyKind::Vulcan.profiler())
        .policy(policy)
        .config(config(seed, QUANTA))
        .build()
}

fn zipf_runner(seed: u64, policy: Box<dyn TieringPolicy>) -> SimRunner {
    let mut lc = microbench(
        "lc-zipf",
        MicroConfig {
            rss_pages: 3_072,
            wss_pages: 1_024,
            skew: 0.99,
            read_ratio: 0.9,
            ..MicroConfig::default()
        },
        4,
    );
    lc.class = WorkloadClass::LatencyCritical;
    let be = microbench(
        "be-drift",
        MicroConfig {
            rss_pages: 3_072,
            wss_pages: 1_536,
            skew: 0.9,
            read_ratio: 0.7,
            wss_drift: 64,
            ..MicroConfig::default()
        },
        4,
    );
    SimRunner::builder()
        .machine(MachineSpec::small(2_048, 16_384, 8))
        .workloads(vec![lc, be])
        .profiler_factory(|_| PolicyKind::Memtis.profiler())
        .policy(policy)
        .config(config(seed, QUANTA))
        .build()
}

/// Two preallocated anchors that never leave; tenants come and go
/// around them.
fn churn_engine(seed: u64, policy: Box<dyn TieringPolicy>) -> ChurnEngine {
    let mut lc = microbench(
        "anchor-lc",
        MicroConfig {
            rss_pages: 512,
            wss_pages: 128,
            read_ratio: 0.9,
            skew: 1.1,
            ..MicroConfig::default()
        },
        2,
    )
    .preallocated(TierKind::Slow);
    lc.class = WorkloadClass::LatencyCritical;
    let be = microbench(
        "anchor-be",
        MicroConfig {
            rss_pages: 512,
            wss_pages: 256,
            read_ratio: 0.6,
            skew: 0.9,
            ..MicroConfig::default()
        },
        2,
    )
    .preallocated(TierKind::Slow);
    let runner = SimRunner::builder()
        .machine(MachineSpec::small3(1_024, 2_048, 4_096, 8))
        .workloads(vec![lc, be])
        .profiler_factory(|_| PolicyKind::Vulcan.profiler())
        .policy(policy)
        .config(SimConfig {
            quantum_active: Nanos::millis(1),
            ..config(seed, 0)
        })
        .build();
    let cfg = ChurnConfig {
        arrival_rate_per_sec: 4.0,
        n_quanta: QUANTA,
        ..ChurnConfig::default()
    };
    ChurnEngine::new(runner, seed, cfg, Catalog::default_mix())
}

/// Time one checkpoint write: `snapshot`, then `to_json`. Returns the
/// text, or counts a failed check.
fn write(
    meter: &mut Meter,
    id: u64,
    snapshot: impl FnOnce() -> Result<Value, String>,
) -> Option<String> {
    let (value, snapshot_ns) = meter.timed("ckpt.snapshot", id, snapshot);
    let value = match value {
        Ok(v) => v,
        Err(e) => {
            meter.check("checkpoint", false, || e);
            return None;
        }
    };
    let (text, serialize_ns) = meter.timed("ckpt.serialize", id, || value.to_json());
    meter.rep.writes.push(WriteSample {
        snapshot_ns,
        serialize_ns,
    });
    Some(text)
}

/// Time `parse_checkpoint` then `rebuild` on checkpoint text.
fn read_back<R>(
    meter: &mut Meter,
    id: u64,
    text: &str,
    rebuild: impl FnOnce(&Value) -> Result<R, CheckpointError>,
) -> Option<R> {
    let (parsed, parse_ns) = meter.timed("ckpt.parse", id, || parse_checkpoint(text));
    let (rebuilt, rebuild_ns) =
        meter.timed("ckpt.rebuild", id, || parsed.and_then(|v| rebuild(&v)));
    meter.rep.reads.push(ReadSample {
        parse_ns,
        rebuild_ns,
        bytes: text.len() as u64,
    });
    meter.check("checkpoint reads back", rebuilt.is_ok(), || {
        format!("{:?}", rebuilt.as_ref().err())
    });
    rebuilt.ok()
}

/// The restored copy must write the very checkpoint it was read from.
fn check_rewrite(meter: &mut Meter, text: &str, rewritten: Result<Value, String>) {
    let same = rewritten.map(|v| v.to_json() == text);
    meter.check(
        "restored state rewrites identically",
        same == Ok(true),
        || format!("{same:?}"),
    );
}

/// Checkpoint probes: `PROBE_WRITES` writes of a freshly built runner's
/// checkpoint, then `PROBE_READS` reads of that text, each copy dropped
/// at once. No workload makes a checkpoint of its own, so the probes feed
/// `checkpoint_ms` and `restore_ms` but neither `cpu_s` nor
/// `peak_rss_mb`. They run after the repetition's own work, once its
/// runner is gone.
fn probe<R>(
    meter: &mut Meter,
    kind: PolicyKind,
    checkpoint: impl Fn() -> Result<Value, String>,
    restore: impl Fn(&Value, Box<dyn TieringPolicy>) -> Result<R, CheckpointError>,
    rewrite: impl Fn(&R) -> Result<Value, String>,
) {
    let mut text = None;
    for id in 0..PROBE_WRITES {
        text = write(meter, id, &checkpoint);
    }
    let Some(text) = text else {
        return;
    };
    for id in 0..PROBE_READS {
        let policy = meter.policy(kind.make());
        let copy = read_back(meter, id, &text, |v| restore(v, policy));
        if let (0, Some(copy)) = (id, copy) {
            check_rewrite(meter, &text, rewrite(&copy));
        }
    }
}

/// Checkpoint probes of a freshly built runner.
fn probe_runner(meter: &mut Meter, kind: PolicyKind, fresh: SimRunner) {
    probe(
        meter,
        kind,
        || fresh.checkpoint(),
        |v, policy| SimRunner::restore(v, policy, move |_| kind.profiler()),
        SimRunner::checkpoint,
    );
}

/// Checkpoint probes of a freshly built churn engine.
fn probe_engine(meter: &mut Meter, fresh: ChurnEngine) {
    probe(
        meter,
        PolicyKind::Vulcan,
        || fresh.checkpoint(),
        |v, policy| {
            ChurnEngine::restore(
                v,
                policy,
                |_| PolicyKind::Vulcan.profiler(),
                Catalog::default_mix(),
            )
        },
        ChurnEngine::checkpoint,
    );
}

/// paper_coloc and zipf_planes: every quantum of the runner `build`
/// makes, then teardown and audit.
fn static_run(
    meter: &mut Meter,
    kind: PolicyKind,
    build: impl Fn(Box<dyn TieringPolicy>) -> SimRunner,
) {
    let policy = meter.policy(kind.make());
    let mut runner = meter.setup(|| build(policy));
    let base = StatTotals::of(&runner.state);
    while runner.state.quantum_index < runner.n_quanta() {
        meter.quantum(&mut runner);
    }
    let (_, leaked) = meter.finish(0, base, runner);
    meter.check("teardown frees every frame", leaked == 0, || {
        format!("{leaked} frames in use")
    });
}

/// churn_3tier: the steps, then `finish()` with its frame audit and the
/// arrival ledger.
fn churn_run(seed: u64, meter: &mut Meter) {
    // Churn steps return no outcome: the counters come through the
    // delegate, which therefore wraps the policy in every repetition.
    let policy = meter.delegate(PolicyKind::Vulcan.make());
    let mut engine = meter.setup(|| churn_engine(seed, policy));
    let base = StatTotals::of(&engine.runner().state);
    for _ in 0..QUANTA {
        meter.churn_step(&mut engine);
    }
    meter.absorb(base, &engine.runner().state);
    let (report, ns) = meter.timed("finish", 0, || engine.finish());
    meter.rep.finish_ns += ns;
    let s = &report.stats;
    meter.check(
        "arrivals = admitted + queued + rejected",
        s.arrivals == s.admitted + s.queued + s.rejected,
        || format!("{s:?}"),
    );
    meter.check(
        "finish frees every frame",
        report.leaked_total() == 0,
        || format!("in use per tier: {:?}", report.leaked_by_tier),
    );
    let d = &mut meter.rep.digest;
    d.result(&report.run);
    for v in [
        s.arrivals,
        s.admitted,
        s.admitted_from_queue,
        s.queued,
        s.rejected,
        s.timed_out,
        s.departed,
        s.retired_at_end,
        s.compaction_rounds,
        s.shadows_reclaimed,
        s.compaction_promoted,
        s.peak_active,
    ] {
        d.u64(v);
    }
    for w in &report.windows {
        d.f64(w.jain_fthr.unwrap_or(-1.0));
        d.f64(w.fast_util);
    }
    meter.rep.churn = Some(report.stats);
}
