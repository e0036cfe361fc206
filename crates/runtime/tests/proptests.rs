//! Property-based tests for the simulation runtime: conservation laws
//! and metric bounds must hold for arbitrary workload mixes.

use proptest::prelude::*;
use vulcan_profile::PebsProfiler;
use vulcan_runtime::checkpoint::parse_checkpoint;
use vulcan_runtime::{SimConfig, SimRunner, StaticPlacement, TieringPolicy, UniformPartition};
use vulcan_sim::{MachineSpec, Nanos, TierKind};
use vulcan_workloads::{microbench, MicroConfig, WorkloadSpec};

fn mix(sizes: &[(u64, u64)], prealloc: bool) -> Vec<WorkloadSpec> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &(rss, wss))| {
            let spec = microbench(
                &format!("w{i}"),
                MicroConfig {
                    rss_pages: rss,
                    wss_pages: wss,
                    ..Default::default()
                },
                2,
            );
            if prealloc {
                spec.preallocated(TierKind::Slow)
            } else {
                spec
            }
        })
        .collect()
}

fn arb_sizes() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(
        (64u64..512).prop_flat_map(|rss| (Just(rss), 8u64..=rss.min(256))),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any run: frame accounting balances exactly (mapped pages +
    /// shadows + async reservations = used frames), every FTHR/CFI stays
    /// in range, and all workloads make progress.
    #[test]
    fn conservation_and_bounds(
        sizes in arb_sizes(),
        prealloc in any::<bool>(),
        seed in 0u64..1_000,
        uniform in any::<bool>(),
    ) {
        let policy: Box<dyn TieringPolicy> = if uniform {
            Box::new(UniformPartition)
        } else {
            Box::new(StaticPlacement)
        };
        let mut runner = SimRunner::builder()
            .machine(MachineSpec::small(256, 4_096, 8))
            .workloads(mix(&sizes, prealloc))
            .profiler_factory(|_| Box::new(PebsProfiler::new(8)))
            .policy(policy)
            .config(SimConfig {
                quantum_active: Nanos::micros(200),
                n_quanta: 0,
                seed,
                ..Default::default()
            })
            .build();
        for _ in 0..5 {
            runner.run_quantum();
        }
        let st = &runner.state;
        let used = st.machine.allocator(TierKind::Fast).used_frames()
            + st.machine.allocator(TierKind::Slow).used_frames();
        let expected: u64 = st
            .workloads
            .iter()
            .map(|w| {
                w.rss_pages() + w.shadows.len() as u64 + w.async_migrator.inflight() as u64
            })
            .sum();
        prop_assert_eq!(used, expected, "frame conservation");

        for w in &st.workloads {
            prop_assert!(w.stats.ops_total > 0);
            prop_assert!((0.0..=1.0).contains(&w.stats.fthr));
            // Incremental fast-used counter equals an authoritative scan.
            let scan = w
                .process
                .space
                .mapped_vpns()
                .filter(|&v| w.process.space.pte(v).tier() == Some(TierKind::Fast))
                .count() as u64;
            prop_assert_eq!(w.stats.fast_used, scan, "fast_used counter drift");
        }

        let res = runner.run();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&res.cfi));
    }

    /// Identical (seed, mix, policy) runs agree bit-for-bit on every
    /// reported metric.
    #[test]
    fn full_determinism(sizes in arb_sizes(), seed in 0u64..1_000) {
        let make = || {
            SimRunner::builder()
                .machine(MachineSpec::small(256, 4_096, 8))
                .workloads(mix(&sizes, true))
                .profiler_factory(|_| Box::new(PebsProfiler::new(8)))
                .policy(Box::new(UniformPartition))
                .config(SimConfig {
                    quantum_active: Nanos::micros(200),
                    n_quanta: 4,
                    seed,
                    ..Default::default()
                })
                .build()
                .run()
        };
        let (a, b) = (make(), make());
        prop_assert_eq!(a.cfi, b.cfi);
        for (x, y) in a.per_workload.iter().zip(&b.per_workload) {
            prop_assert_eq!(x.ops_total, y.ops_total);
            prop_assert_eq!(x.mean_fthr, y.mean_fthr);
            prop_assert_eq!(x.mean_latency_ns, y.mean_latency_ns);
        }
    }

    /// ISSUE 10: checkpoint → restore → run is indistinguishable from the
    /// straight run, for arbitrary (policy × tier shape × seed × quantum)
    /// tuples — and re-checkpointing a just-restored runner reproduces
    /// the checkpoint byte-for-byte (idempotency).
    #[test]
    fn checkpoint_restore_replay_identity(
        sizes in arb_sizes(),
        seed in 0u64..1_000,
        uniform in any::<bool>(),
        three_tier in any::<bool>(),
        restore_at in 0u64..6,
    ) {
        let total = 7u64;
        let machine = if three_tier {
            MachineSpec::small3(192, 2_048, 4_096, 8)
        } else {
            MachineSpec::small(192, 4_096, 8)
        };
        let policy = move || -> Box<dyn TieringPolicy> {
            if uniform {
                Box::new(UniformPartition)
            } else {
                Box::new(StaticPlacement)
            }
        };
        let mk = || {
            SimRunner::builder()
                .machine(machine.clone())
                .workloads(mix(&sizes, false))
                .profiler_factory(|_| Box::new(PebsProfiler::new(8)))
                .policy(policy())
                .config(SimConfig {
                    quantum_active: Nanos::micros(200),
                    n_quanta: total,
                    seed,
                    ..Default::default()
                })
                .build()
        };
        let mut straight = mk();
        let mut straight_out = Vec::new();
        for _ in 0..total {
            straight_out.push(straight.run_quantum());
        }
        let mut r = mk();
        let mut resumed_out = Vec::new();
        for q in 0..total {
            resumed_out.push(r.run_quantum());
            if q == restore_at {
                let text = r.checkpoint().expect("checkpoint").to_json();
                let v = parse_checkpoint(&text).expect("reparse");
                r = SimRunner::restore(&v, policy(), |_| Box::new(PebsProfiler::new(8)))
                    .expect("restore");
                // Idempotency: checkpoint(restore(c)) == c.
                let again = r.checkpoint().expect("re-checkpoint").to_json();
                prop_assert_eq!(again, text, "checkpoint not idempotent under restore");
            }
        }
        prop_assert_eq!(resumed_out, straight_out, "replay diverged");
        prop_assert_eq!(
            r.checkpoint().expect("final checkpoint").to_json(),
            straight.checkpoint().expect("final checkpoint").to_json(),
            "final state diverged"
        );
    }

    /// Different seeds perturb the run (the trials in Figure 10 are
    /// genuinely independent samples). The working set must exceed the
    /// fast tier so placement — and therefore cost — depends on the
    /// seed-driven first-touch order.
    #[test]
    fn seeds_actually_vary(seed_a in 0u64..500, offset in 1u64..500) {
        let make = |seed| {
            SimRunner::builder()
                .machine(MachineSpec::small(128, 4_096, 8))
                .workloads(mix(&[(512, 256)], false))
                .profiler_factory(|_| Box::new(PebsProfiler::new(8)))
                .policy(Box::new(StaticPlacement))
                .config(SimConfig {
                    quantum_active: Nanos::micros(200),
                    n_quanta: 3,
                    seed,
                    ..Default::default()
                })
                .build()
                .run()
        };
        let a = make(seed_a);
        let b = make(seed_a + offset);
        let same = a
            .per_workload
            .iter()
            .zip(&b.per_workload)
            .all(|(x, y)| x.ops_total == y.ops_total);
        prop_assert!(!same, "different seeds must differ somewhere");
    }
}
