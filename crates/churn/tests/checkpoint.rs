//! Mid-churn restore-replay identity.
//!
//! The churn engine is the hardest checkpoint surface in the workspace:
//! the payload must carry the event queue (with original sequence
//! numbers so same-instant events keep their FIFO order), the decision
//! stream counters, the admission queue, and every tally — on top of
//! the runner's full machine/workload/policy state. These tests pin the
//! contract the CI round-trip step relies on: checkpoint at step `k`,
//! restore, `run_remaining()`, and the final report — including the
//! JSON artifact that `vulcan-sim churn --out` writes — is byte-equal
//! to the straight run's.

use vulcan_churn::{Catalog, ChurnConfig, ChurnEngine};
use vulcan_profile::PebsProfiler;
use vulcan_runtime::checkpoint::{parse_checkpoint, CheckpointError};
use vulcan_runtime::{SimConfig, SimRunner, StaticPlacement};
use vulcan_sim::{MachineSpec, Nanos};
use vulcan_workloads::{microbench, MicroConfig, WorkloadSpec};

fn anchors() -> Vec<WorkloadSpec> {
    vec![
        microbench(
            "anchor-a",
            MicroConfig {
                rss_pages: 256,
                wss_pages: 64,
                ..Default::default()
            },
            2,
        ),
        microbench(
            "anchor-b",
            MicroConfig {
                rss_pages: 256,
                wss_pages: 64,
                ..Default::default()
            },
            2,
        ),
    ]
}

fn runner(seed: u64) -> SimRunner {
    SimRunner::builder()
        .machine(MachineSpec::small(1_024, 16_384, 8))
        .workloads(anchors())
        .profiler_factory(|_| Box::new(PebsProfiler::new(4)))
        .policy(Box::new(StaticPlacement))
        .config(SimConfig {
            quantum_active: Nanos::micros(200),
            n_quanta: 0, // the engine owns stepping
            seed,
            ..Default::default()
        })
        .build()
}

fn churny_cfg(n_quanta: u64) -> ChurnConfig {
    ChurnConfig {
        arrival_rate_per_sec: 6.0,
        lifetime_xm: Nanos::secs(2),
        lifetime_alpha: 1.5,
        n_quanta,
        compaction_period: Nanos::secs(4),
        ..Default::default()
    }
}

fn engine(seed: u64, n_quanta: u64) -> ChurnEngine {
    ChurnEngine::new(
        runner(seed),
        seed,
        churny_cfg(n_quanta),
        Catalog::default_mix(),
    )
}

/// checkpoint@k → restore → run_remaining ≡ straight run over several
/// checkpoint positions including quantum 0 (before the first step) —
/// the artifact text itself must match, not just the tallies.
#[test]
fn mid_churn_identity() {
    let n_quanta = 24;
    let straight = engine(42, n_quanta).run();
    let straight_json = straight.to_value().to_json();
    for at in [0u64, 7, 15] {
        let mut e = engine(42, n_quanta);
        for _ in 0..at {
            e.step();
        }
        let text = e.checkpoint().unwrap().to_json();
        let v = parse_checkpoint(&text).unwrap();
        let resumed = ChurnEngine::restore(
            &v,
            Box::new(StaticPlacement),
            |_: &WorkloadSpec| Box::new(PebsProfiler::new(4)),
            Catalog::default_mix(),
        )
        .unwrap();
        // Idempotency before replay: checkpoint(restore(c)) == c.
        assert_eq!(
            resumed.checkpoint().unwrap().to_json(),
            text,
            "re-checkpoint diverged at quantum {at}"
        );
        let report = resumed.run_remaining();
        assert_eq!(report.stats, straight.stats, "at {at}");
        assert_eq!(
            report.to_value().to_json(),
            straight_json,
            "artifact diverged for checkpoint at quantum {at}"
        );
    }
}

/// The churn section must survive with real pressure on every field:
/// pick a checkpoint point where tenants are live, the event queue is
/// non-trivial, and arrivals have been tallied.
#[test]
fn checkpoint_carries_live_churn_state() {
    let mut e = engine(42, 24);
    for _ in 0..12 {
        e.step();
    }
    assert!(e.stats().arrivals > 0, "no arrivals after 12 steps");
    let v = e.checkpoint().unwrap();
    let churn = v.get("churn").expect("churn section");
    let entries = churn
        .get("events")
        .and_then(|ev| ev.get("entries"))
        .and_then(|x| x.as_array())
        .expect("event entries");
    assert!(
        !entries.is_empty(),
        "a live open-loop engine always has a scheduled arrival"
    );
}

/// A static-run checkpoint (no churn section) must be rejected with the
/// pointed error, not silently resumed as a rate-0 engine.
#[test]
fn restore_rejects_static_checkpoint() {
    let r = runner(42);
    let text = r.checkpoint().unwrap().to_json();
    let v = parse_checkpoint(&text).unwrap();
    let err = ChurnEngine::restore(
        &v,
        Box::new(StaticPlacement),
        |_: &WorkloadSpec| Box::new(PebsProfiler::new(4)),
        Catalog::default_mix(),
    )
    .err()
    .expect("static checkpoint must not restore as a churn engine");
    match err {
        CheckpointError::Invalid(msg) => assert!(
            msg.contains("no \"churn\" section"),
            "unexpected message: {msg}"
        ),
        other => panic!("expected Invalid, got {other:?}"),
    }
}
