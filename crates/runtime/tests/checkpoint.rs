//! Restore-replay identity oracle (ISSUE 10, runtime layer).
//!
//! Checkpoint at quantum Q, serialize to JSON text, reparse, restore
//! into a fresh runner, run to completion: every per-quantum outcome and
//! the final serialized state must be identical to the straight run.
//! Any divergence is a hidden-state bug in some layer's `Snapshot`.

use vulcan_json::{Map, Value};
use vulcan_profile::{HintFaultProfiler, PebsProfiler};
use vulcan_runtime::checkpoint::parse_checkpoint;
use vulcan_runtime::{
    QuantumOutcome, SimConfig, SimRunner, StaticPlacement, SystemState, TieringPolicy,
    UniformPartition,
};
use vulcan_sim::{FaultConfig, MachineSpec, Nanos, TierKind};
use vulcan_vm::Vpn;
use vulcan_workloads::{
    microbench, KvConfig, MicroConfig, WorkloadClass, WorkloadKind, WorkloadSpec,
};

fn specs() -> Vec<WorkloadSpec> {
    vec![
        microbench(
            "mb",
            MicroConfig {
                rss_pages: 384,
                wss_pages: 96,
                ..Default::default()
            },
            2,
        ),
        WorkloadSpec {
            name: "kv".into(),
            class: WorkloadClass::LatencyCritical,
            n_threads: 2,
            start: Nanos::secs(2),
            kind: WorkloadKind::Kv(KvConfig {
                rss_pages: 256,
                ..Default::default()
            }),
            prealloc: None,
            thp: false,
            stop: None,
        },
    ]
}

struct Cell {
    policy: fn() -> Box<dyn TieringPolicy>,
    faults: FaultConfig,
}

fn mk_runner(cell: &Cell, n_quanta: u64) -> SimRunner {
    SimRunner::builder()
        .machine(MachineSpec::small(192, 4096, 8))
        .workloads(specs())
        .profiler_factory(|_| PebsProfiler::new(4))
        .policy((cell.policy)())
        .config(SimConfig {
            quantum_active: Nanos::micros(300),
            n_quanta,
            faults: cell.faults.clone(),
            ..Default::default()
        })
        .build()
}

/// Run `total` quanta; when `restore_at` is set, checkpoint after that
/// quantum, push the state through a full JSON text round trip, restore
/// into a brand-new runner, and continue on it.
fn drive(cell: &Cell, total: u64, restore_at: Option<u64>) -> (Vec<QuantumOutcome>, String) {
    let mut runner = mk_runner(cell, total);
    let mut outcomes = Vec::new();
    for q in 0..total {
        outcomes.push(runner.run_quantum());
        if restore_at == Some(q) {
            let text = runner.checkpoint().unwrap().to_json();
            let v = parse_checkpoint(&text).unwrap();
            runner = SimRunner::restore(&v, (cell.policy)(), |_| PebsProfiler::new(4)).unwrap();
            // The checkpoint itself must round-trip bit-identically.
            assert_eq!(runner.checkpoint().unwrap().to_json(), text);
        }
    }
    let fin = runner.checkpoint().unwrap().to_json();
    (outcomes, fin)
}

fn assert_identity(cell: &Cell, label: &str) {
    let total = 10;
    let (straight, straight_fin) = drive(cell, total, None);
    for at in [0, 3, 7] {
        let (resumed, resumed_fin) = drive(cell, total, Some(at));
        assert_eq!(
            resumed, straight,
            "{label}: outcomes diverged, restore at {at}"
        );
        assert_eq!(
            resumed_fin, straight_fin,
            "{label}: final state diverged, restore at {at}"
        );
    }
}

#[test]
fn identity_static_policy_shards_1() {
    assert_identity(
        &Cell {
            policy: || Box::new(StaticPlacement),
            faults: FaultConfig::default(),
        },
        "static",
    );
}

#[test]
fn identity_uniform_policy_shards_1_and_4() {
    assert_identity(
        &Cell {
            policy: || Box::new(UniformPartition),
            faults: FaultConfig::default(),
        },
        "uniform",
    );
}

#[test]
fn identity_under_fault_injection() {
    // The fault plan's RNG position and per-site counters are hidden
    // state: a restore that reseeded the plan would inject a different
    // fault schedule after the checkpoint.
    assert_identity(
        &Cell {
            policy: || Box::new(StaticPlacement),
            faults: FaultConfig {
                alloc_fast_rate: 0.05,
                copy_fail_rate: 0.05,
                ..Default::default()
            },
        },
        "static/faults",
    );
}

/// `checkpoint` with `key` set in its `config` object (appended if
/// absent, replaced in place if present).
fn with_config_member(checkpoint: &Value, key: &str, value: Value) -> Value {
    let mut root = Map::new();
    for (k, v) in checkpoint.as_object().unwrap().iter() {
        let v = match k {
            "config" => Value::Object(v.as_object().unwrap().clone().with(key, value.clone())),
            _ => v.clone(),
        };
        root.insert(k, v);
    }
    Value::Object(root)
}

/// Checkpoints written while `SimConfig` still chose between two access
/// loops end their `config` object with a `"batched_planes"` member.
/// Both loops produced the same bytes and only the plane sweep is left,
/// so the member is ignored: such a checkpoint restores, with either
/// value, and replays to the straight run's outcomes and final state.
#[test]
fn checkpoint_carrying_batched_planes_restores_and_replays() {
    let cell = Cell {
        policy: || Box::new(UniformPartition),
        faults: FaultConfig::default(),
    };
    let (total, at) = (10, 4);
    let (straight, straight_fin) = drive(&cell, total, None);
    for batched in [false, true] {
        let mut runner = mk_runner(&cell, total);
        let mut outcomes: Vec<QuantumOutcome> = (0..at).map(|_| runner.run_quantum()).collect();
        let old_format = with_config_member(
            &runner.checkpoint().unwrap(),
            "batched_planes",
            Value::Bool(batched),
        );
        let v = parse_checkpoint(&old_format.to_json()).unwrap();
        runner = SimRunner::restore(&v, (cell.policy)(), |_| PebsProfiler::new(4)).unwrap();
        outcomes.extend((at..total).map(|_| runner.run_quantum()));
        assert_eq!(outcomes, straight, "batched_planes={batched}");
        assert_eq!(
            runner.checkpoint().unwrap().to_json(),
            straight_fin,
            "batched_planes={batched}"
        );
    }
}

/// A run that split its sweep across four threads wrote `"shards": 4`
/// in its checkpoint's `config` object, and bytes otherwise identical to
/// a one-thread run's. Every run now takes one sweep and the member has
/// no effect: such a checkpoint restores, re-checkpoints to the same
/// text, and replays to the straight run's outcomes and final state.
#[test]
fn checkpoint_written_at_four_shards_restores_and_replays() {
    let cell = Cell {
        policy: || Box::new(UniformPartition),
        faults: FaultConfig::default(),
    };
    let (total, at) = (10, 4);
    let (straight, straight_fin) = drive(&cell, total, None);
    let mut runner = mk_runner(&cell, total);
    let mut outcomes: Vec<QuantumOutcome> = (0..at).map(|_| runner.run_quantum()).collect();
    let text = with_config_member(&runner.checkpoint().unwrap(), "shards", 4u64.into()).to_json();
    assert!(
        text.contains("\"shards\":4"),
        "test premise: the member is set"
    );
    let v = parse_checkpoint(&text).unwrap();
    runner = SimRunner::restore(&v, (cell.policy)(), |_| PebsProfiler::new(4)).unwrap();
    assert_eq!(runner.checkpoint().unwrap().to_json(), text);
    outcomes.extend((at..total).map(|_| runner.run_quantum()));
    assert_eq!(outcomes, straight);
    let straight_fin = parse_checkpoint(&straight_fin).unwrap();
    assert_eq!(
        runner.checkpoint().unwrap().to_json(),
        with_config_member(&straight_fin, "shards", 4u64.into()).to_json()
    );
}

#[test]
fn identity_with_hint_fault_profiler() {
    // Hint-fault profilers mutate page-table hint bits and carry RNG
    // state of their own; run the oracle over that profiler family too.
    let total = 8;
    let mk = || {
        SimRunner::builder()
            .machine(MachineSpec::small(128, 2048, 8))
            .workloads(specs())
            .profiler_factory(|_| HintFaultProfiler::new(0.3))
            .policy(Box::new(UniformPartition))
            .config(SimConfig {
                quantum_active: Nanos::micros(300),
                n_quanta: total,
                ..Default::default()
            })
            .build()
    };
    let straight: Vec<QuantumOutcome> = {
        let mut r = mk();
        (0..total).map(|_| r.run_quantum()).collect()
    };
    let mut r = mk();
    let mut resumed = Vec::new();
    for q in 0..total {
        resumed.push(r.run_quantum());
        if q == 4 {
            let text = r.checkpoint().unwrap().to_json();
            let v = parse_checkpoint(&text).unwrap();
            r = SimRunner::restore(&v, Box::new(UniformPartition), |_| {
                HintFaultProfiler::new(0.3)
            })
            .unwrap();
        }
    }
    assert_eq!(resumed, straight);
}

/// Promotes slow-resident pages asynchronously in small batches so that
/// transactions straddle quantum boundaries — and therefore checkpoints.
struct AsyncPromoter;

impl TieringPolicy for AsyncPromoter {
    fn name(&self) -> &'static str {
        "async-promoter"
    }

    fn on_quantum(&mut self, state: &mut SystemState) {
        for w in 0..state.n_workloads() {
            let pages: Vec<Vpn> = {
                let ws = &state.workloads[w];
                ws.process
                    .space
                    .mapped_vpns()
                    .filter(|&v| {
                        ws.process.space.pte(v).tier() == Some(TierKind::Slow)
                            && !ws.async_migrator.is_inflight(v)
                    })
                    .take(24)
                    .collect()
            };
            if !pages.is_empty() {
                state.migrate_async(w, &pages, TierKind::Fast);
            }
        }
    }
}

/// Satellite: a checkpoint taken while async migration transactions are
/// in flight must serialize them (issue quantum, destination, pinned
/// pages, copy-engine RNG position) so the restored run commits or
/// aborts exactly the same transactions at exactly the same quanta.
#[test]
fn identity_with_inflight_async_migrations() {
    let total = 10;
    let specs = || {
        vec![
            microbench(
                "dep",
                MicroConfig {
                    rss_pages: 512,
                    wss_pages: 64,
                    ..Default::default()
                },
                2,
            )
            .preallocated(TierKind::Slow),
            microbench(
                "stay",
                MicroConfig {
                    rss_pages: 512,
                    wss_pages: 64,
                    ..Default::default()
                },
                2,
            )
            .preallocated(TierKind::Slow),
        ]
    };
    let mk = || {
        SimRunner::builder()
            .machine(MachineSpec::small(2_048, 4_096, 8))
            .workloads(specs())
            .profiler_factory(|_| PebsProfiler::new(4))
            .policy(Box::new(AsyncPromoter))
            .config(SimConfig {
                quantum_active: Nanos::micros(200),
                n_quanta: total,
                // Copy failures exercise the abort path on both sides of
                // the checkpoint boundary.
                faults: FaultConfig {
                    copy_fail_rate: 0.1,
                    ..Default::default()
                },
                ..Default::default()
            })
            .build()
    };
    let straight: Vec<QuantumOutcome> = {
        let mut r = mk();
        (0..total).map(|_| r.run_quantum()).collect()
    };
    for at in [0, 2, 5] {
        let mut r = mk();
        let mut resumed = Vec::new();
        for q in 0..total {
            resumed.push(r.run_quantum());
            if q == at {
                assert!(
                    r.state
                        .workloads
                        .iter()
                        .any(|w| w.async_migrator.inflight() > 0),
                    "test premise: transactions are in flight at the checkpoint"
                );
                let text = r.checkpoint().unwrap().to_json();
                let v = parse_checkpoint(&text).unwrap();
                r = SimRunner::restore(&v, Box::new(AsyncPromoter), |_| PebsProfiler::new(4))
                    .unwrap();
                assert!(
                    r.state
                        .workloads
                        .iter()
                        .any(|w| w.async_migrator.inflight() > 0),
                    "restore must rehydrate the in-flight transactions"
                );
                assert_eq!(r.checkpoint().unwrap().to_json(), text);
            }
        }
        assert_eq!(
            resumed, straight,
            "async interleaving diverged, restore at {at}"
        );
    }
}

#[test]
fn run_remaining_completes_the_original_plan() {
    let cell = Cell {
        policy: || Box::new(StaticPlacement),
        faults: FaultConfig::default(),
    };
    let straight = mk_runner(&cell, 10).run();
    let mut runner = mk_runner(&cell, 10);
    for _ in 0..6 {
        runner.run_quantum();
    }
    let v = runner.checkpoint().unwrap();
    let resumed = SimRunner::restore(&v, Box::new(StaticPlacement), |_| PebsProfiler::new(4))
        .unwrap()
        .run_remaining();
    assert_eq!(
        resumed.workload("mb").ops_total,
        straight.workload("mb").ops_total
    );
    assert_eq!(
        resumed.workload("kv").ops_total,
        straight.workload("kv").ops_total
    );
    assert_eq!(resumed.cfi.to_bits(), straight.cfi.to_bits());
    assert_eq!(resumed.series.to_json(), straight.series.to_json());
}

#[test]
fn restore_rejects_wrong_policy() {
    let runner = mk_runner(
        &Cell {
            policy: || Box::new(StaticPlacement),
            faults: FaultConfig::default(),
        },
        4,
    );
    let v = runner.checkpoint().unwrap();
    let err = match SimRunner::restore(&v, Box::new(UniformPartition), |_| PebsProfiler::new(4)) {
        Ok(_) => panic!("wrong policy must not restore"),
        Err(e) => e,
    };
    assert_eq!(
        err,
        vulcan_runtime::CheckpointError::PolicyMismatch {
            expected: "static".to_string(),
            found: "uniform".to_string(),
        }
    );
}

/// A present PTE whose two-bit tier field holds `0b11` (no chain tier
/// encodes it) fails the restore with a typed error instead of panicking
/// when the page tables are decoded.
#[test]
fn restore_rejects_an_invalid_pte_tier_with_a_typed_error() {
    let static_cell = Cell {
        policy: || Box::new(StaticPlacement),
        faults: FaultConfig::default(),
    };
    let mut runner = mk_runner(&static_cell, 4);
    runner.run_quantum();
    let text = runner.checkpoint().unwrap().to_json();
    // Set the tier bits (9–10) of the first present PTE of the first
    // leaf table.
    let start = text.find("\"ptes\":[").expect("a leaf table") + "\"ptes\":[".len();
    let end = start + text[start..].find(']').expect("closed array");
    let mut words: Vec<i64> = text[start..end]
        .split(',')
        .map(|w| w.parse().expect("PTE word"))
        .collect();
    let slot = words
        .iter()
        .position(|&w| w & 1 == 1)
        .expect("a present PTE");
    words[slot] |= 0b11 << 9;
    let words: Vec<String> = words.iter().map(i64::to_string).collect();
    let corrupt = format!("{}{}{}", &text[..start], words.join(","), &text[end..]);
    let v = parse_checkpoint(&corrupt).unwrap();
    let err = match SimRunner::restore(&v, Box::new(StaticPlacement), |_| PebsProfiler::new(4)) {
        Ok(_) => panic!("a corrupt PTE must not restore"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, vulcan_runtime::CheckpointError::Invalid(m)
            if m.contains(&format!("slot {slot}: PTE tier field 3 is not a valid chain index"))),
        "{err}"
    );
}

/// The tournament's fork contract: a checkpoint taken under one policy
/// forks under a *different* policy and a re-parameterized machine —
/// no name check, cold policy, fresh profilers — and the continuation
/// completes with frames conserved on every chain tier.
#[test]
fn fork_swaps_policy_and_respecs_the_machine() {
    let total = 10;
    let cell = Cell {
        policy: || Box::new(StaticPlacement),
        faults: FaultConfig::default(),
    };
    let mut origin = mk_runner(&cell, total);
    for _ in 0..4 {
        origin.run_quantum();
    }
    let v = origin.checkpoint().unwrap();

    // Same shape and capacities, slower slow tier: the what-if knob.
    let mut respec = MachineSpec::small(192, 4096, 8);
    respec.access_costs.slow = Nanos(respec.access_costs.slow.0 * 4);
    let mut fork = SimRunner::fork(
        &v,
        Box::new(UniformPartition),
        |_| PebsProfiler::new(4),
        Some(respec),
    )
    .unwrap();
    assert_eq!(fork.state.quantum_index, 4, "fork resumes mid-run");
    let mut baseline = SimRunner::fork(
        &v,
        Box::new(UniformPartition),
        |_| PebsProfiler::new(4),
        None,
    )
    .unwrap();
    for _ in 4..total {
        fork.run_quantum();
        baseline.run_quantum();
    }
    for r in [&mut fork, &mut baseline] {
        for w in 0..r.state.n_workloads() {
            r.state.teardown(w);
        }
        for &tier in r.state.machine.spec().chain() {
            assert_eq!(
                r.state.machine.allocator(tier).used_frames(),
                0,
                "fork leaked frames on {}",
                tier.name()
            );
        }
    }
    let (slow, fast) = (fork.into_result(), baseline.into_result());
    // 4x slow-tier latency must cost measurable work.
    let ops =
        |r: &vulcan_runtime::RunResult| -> u64 { r.per_workload.iter().map(|w| w.ops_total).sum() };
    assert!(
        ops(&slow) < ops(&fast),
        "respec did not bite: {} vs {} ops",
        ops(&slow),
        ops(&fast)
    );
}

/// A what-if spec may not change the tier shape, capacities or core
/// count — frame numbering and thread pinning would silently break.
#[test]
fn fork_rejects_shape_changing_respec() {
    let cell = Cell {
        policy: || Box::new(StaticPlacement),
        faults: FaultConfig::default(),
    };
    let mut origin = mk_runner(&cell, 4);
    origin.run_quantum();
    let v = origin.checkpoint().unwrap();
    let err = match SimRunner::fork(
        &v,
        Box::new(StaticPlacement),
        |_| PebsProfiler::new(4),
        Some(MachineSpec::small(256, 4096, 8)), // fast capacity changed
    ) {
        Ok(_) => panic!("shape-changing respec must not fork"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("tier shape"), "unexpected error: {msg}");
}
