//! The paper's figures and tables, one [`SUITE`](crate::suite::SUITE)
//! target each. A simulation target's grid builder sits next to the
//! renderer that turns the grid's results into the paper table, the
//! note printed under it and the JSON artifact; an analytic target
//! derives all three from the cost model or the code alone.
//!
//! Renderers read a grid's shape from the [`SuiteOpts`] it was built
//! with, never from the environment, so every target renders at any
//! scale. A capped run can end before a staggered arrival (pagerank at
//! 50 s, liblinear at 110 s); that workload then has no series, and the
//! renderers read it as an empty one. At full scale every series
//! exists.

use std::fmt::Write as _;
use std::sync::Arc;

use vulcan::metrics::{OnlineStats, TimeSeries};
use vulcan::migrate::migrate_sync;
use vulcan::prelude::*;
use vulcan::runtime::SystemState;
use vulcan::sim::{CoreId, Machine, MigrationCosts, SimThreadId, HUGE_PAGE_PAGES};
use vulcan::vm::{Asid, LocalTid, Process, TlbArray};
use vulcan_json::{Map, Value};

use crate::suite::{cell_seed, Experiment, ExperimentCell, Figure, SuiteOpts};

/// Series `name` of `res`, empty when the run ended before its workload
/// arrived.
fn series<'a>(res: &'a RunResult, name: &str) -> &'a TimeSeries {
    static EMPTY: TimeSeries = TimeSeries {
        name: String::new(),
        points: Vec::new(),
    };
    res.series.get(name).unwrap_or(&EMPTY)
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

/// Figure 1: hot and cold pages identified over time under MEMTIS for
/// Memcached (LC) and Liblinear (BE) — solo and co-located — plus the
/// (d) panel: hot-page ratio and normalized performance.
///
/// Paper anchors: Memcached's hot-page ratio collapses from ~75% solo to
/// <28% co-located; its normalized performance drops to ~0.8x while
/// Liblinear's fast-tier occupancy dominates (Observation #1).
pub(crate) fn fig1(o: &SuiteOpts) -> Figure {
    let grid = fig1_grid(o);
    let results = grid.run();
    // Grid order: [solo_mc, solo_lib, co].
    let (solo_mc, solo_lib, co) = (&results[0], &results[1], &results[2]);

    // Panels (a)-(c): hot (fast-resident) vs cold page counts over time.
    let mut panels = Map::new();
    for (label, res, names) in [
        ("a_memcached_solo", solo_mc, vec!["memcached"]),
        ("b_liblinear_solo", solo_lib, vec!["liblinear"]),
        ("c_colocated", co, vec!["memcached", "liblinear"]),
    ] {
        let mut panel = Map::new();
        for name in names {
            for kind in ["fast_pages", "slow_pages"] {
                let key = format!("{name}.{kind}");
                let s = series(res, &key);
                panel.insert(key, vulcan_json::pairs_to_value(&s.points));
            }
        }
        panels.insert(label, Value::Object(panel));
    }

    // Panel (d): settled hot-page ratio and normalized performance.
    let settle = 30.0;
    let ratio =
        |r: &RunResult, name: &str| series(r, &format!("{name}.hot_ratio")).mean_after(settle);
    let mc_solo_ratio = ratio(solo_mc, "memcached");
    let mc_co_ratio = ratio(co, "memcached");
    let lib_solo_ratio = ratio(solo_lib, "liblinear");
    let lib_co_ratio = ratio(co, "liblinear");
    let mc_norm =
        co.workload("memcached").performance() / solo_mc.workload("memcached").performance();
    let lib_norm =
        co.workload("liblinear").performance() / solo_lib.workload("liblinear").performance();

    let mut table = Table::new(
        "Figure 1(d): impact of co-location under MEMTIS",
        &[
            "workload",
            "hot ratio solo",
            "hot ratio co-located",
            "normalized perf",
        ],
    );
    table.row(&[
        "memcached (LC)".into(),
        format!("{:.2}", mc_solo_ratio),
        format!("{:.2}", mc_co_ratio),
        format!("{mc_norm:.2}"),
    ]);
    table.row(&[
        "liblinear (BE)".into(),
        format!("{:.2}", lib_solo_ratio),
        format!("{:.2}", lib_co_ratio),
        format!("{lib_norm:.2}"),
    ]);

    panels.insert(
        "d_summary",
        Map::new()
            .with(
                "memcached",
                Map::new()
                    .with("solo_ratio", mc_solo_ratio)
                    .with("co_ratio", mc_co_ratio)
                    .with("normalized_perf", mc_norm),
            )
            .with(
                "liblinear",
                Map::new()
                    .with("solo_ratio", lib_solo_ratio)
                    .with("co_ratio", lib_co_ratio)
                    .with("normalized_perf", lib_norm),
            ),
    );
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nPaper: Memcached ~75% -> <28% hot ratio, performance -> 0.8x; \
               Liblinear dominates the fast tier and tolerates co-location."
            .into(),
        artifact: Value::Object(panels),
    }
}

/// Figure 2: breakdown of migration costs for a single base page (4 KiB)
/// across varying numbers of CPUs.
///
/// Paper anchors: total rises from ~50 K cycles at 2 CPUs to ~750 K at
/// 32; the preparation share grows from 38.3% to 76.9% (Observation #2).
pub(crate) fn fig2(_: &SuiteOpts) -> Figure {
    let costs = MigrationCosts::default();
    let mut table = Table::new(
        "Figure 2: single base-page migration breakdown vs CPU count (cycles)",
        &[
            "cpus",
            "prep",
            "trap",
            "unmap",
            "shootdown",
            "copy",
            "remap",
            "total",
            "prep%",
        ],
    );
    let mut rows = Vec::new();
    for cpus in [2u16, 4, 8, 16, 32] {
        let b = costs.single_page_baseline(cpus);
        table.row(&[
            cpus.to_string(),
            b.prep.to_string(),
            b.trap.to_string(),
            b.unmap.to_string(),
            b.shootdown.to_string(),
            b.copy.to_string(),
            b.remap.to_string(),
            b.total().to_string(),
            format!("{:.1}", 100.0 * b.prep_share()),
        ]);
        rows.push(Value::Object(
            Map::new()
                .with("cpus", cpus)
                .with("prep", b.prep.0)
                .with("trap", b.trap.0)
                .with("unmap", b.unmap.0)
                .with("shootdown", b.shootdown.0)
                .with("copy", b.copy.0)
                .with("remap", b.remap.0)
                .with("total", b.total().0)
                .with("prep_share", b.prep_share()),
        ));
    }
    Figure {
        cells: Vec::new(),
        table,
        note: "\nPaper: 50K -> 750K cycles and 38.3% -> 76.9% preparation share \
               from 2 to 32 CPUs; the model is calibrated to those anchors."
            .into(),
        artifact: rows.into(),
    }
}

/// Figure 3: contribution of TLB operations and page-copy operations to
/// migration time across batch sizes and thread counts (32-CPU system).
///
/// Paper anchors: copying dominates small batches; TLB coherence grows to
/// ~65% of migration time at 512 pages × 32 threads (Observation #3).
pub(crate) fn fig3(_: &SuiteOpts) -> Figure {
    let costs = MigrationCosts::default();
    let pages = [2u64, 8, 32, 128, 512];
    let threads = [1u16, 2, 4, 8, 16, 32];

    let mut table = Table::new(
        "Figure 3: TLB share of migration time (%), pages x threads",
        &["pages", "t=1", "t=2", "t=4", "t=8", "t=16", "t=32"],
    );
    let mut rows = Vec::new();
    for &p in &pages {
        let mut cells = vec![p.to_string()];
        for &t in &threads {
            // Threads pinned to distinct cores; responders exclude self.
            let targets = t.saturating_sub(1);
            let tlb = costs.shootdown_batched(p, targets).as_f64();
            let copy = costs.copy_batched(p).as_f64();
            let share = 100.0 * tlb / (tlb + copy);
            cells.push(format!("{share:.1}"));
            rows.push(Value::Object(
                Map::new()
                    .with("pages", p)
                    .with("threads", t)
                    .with("tlb_cycles", tlb)
                    .with("copy_cycles", copy)
                    .with("tlb_share", share / 100.0),
            ));
        }
        table.row(&cells);
    }
    Figure {
        cells: Vec::new(),
        table,
        note: "\nPaper: copy-dominated at few pages; TLB operations reach ~65% \
               at 512 pages with 32 threads."
            .into(),
        artifact: rows.into(),
    }
}

/// Figure 4's read-ratio sweep points.
const FIG4_RATIOS: [f64; 6] = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];

/// Figure 4's promotion policy: promote every sufficiently hot slow
/// page through one copy engine or the other.
struct Promoter {
    /// `true` = synchronous copies (stall, always land); `false` =
    /// asynchronous transactional copies (no stalls, dirty aborts).
    sync: bool,
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

/// Figure 4: synchronous vs asynchronous page copying for hot-page
/// promotion across read/write ratios (higher is better).
///
/// Methodology follows §2.2: hot pages are promoted from the slow tier
/// *while the application keeps accessing them* — the working set drifts
/// continuously, so migration pressure never dies down. Asynchronous
/// (transactional) copying excels for read-intensive patterns — no
/// stalls — but write-intensive patterns dirty the copy window, forcing
/// retries/aborts; synchronous copying stalls the accessors but always
/// lands the page.
pub(crate) fn fig4(o: &SuiteOpts) -> Figure {
    let grid = fig4_grid(o);
    let results = grid.run();
    let n_trials = o.trials as usize;

    let mut table = Table::new(
        "Figure 4: hot-page promotion throughput (ops/s) vs read ratio",
        &["read ratio", "sync copy", "async copy", "async/sync"],
    );
    let mut rows = Vec::new();
    for (ri, &r) in FIG4_RATIOS.iter().enumerate() {
        let (mut sync_stats, mut async_stats) = (OnlineStats::new(), OnlineStats::new());
        for trial in 0..n_trials {
            // Grid order: ratio-major, then trial, then [sync, async].
            let base = (ri * n_trials + trial) * 2;
            sync_stats.push(results[base].workload("mb").mean_ops_per_sec);
            async_stats.push(results[base + 1].workload("mb").mean_ops_per_sec);
        }
        let (s, a) = (sync_stats.mean(), async_stats.mean());
        table.row(&[
            format!("{r:.2}"),
            format!("{s:.0}"),
            format!("{a:.0}"),
            format!("{:.3}", a / s),
        ]);
        rows.push(Value::Object(
            Map::new()
                .with("read_ratio", r)
                .with("sync_ops", s)
                .with("async_ops", a)
                .with("sync_ci95", sync_stats.ci95())
                .with("async_ci95", async_stats.ci95()),
        ));
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nPaper: async wins for read-intensive access (no copy stalls); \
               sync wins for write-intensive access (no dirty retries/aborts)."
            .into(),
        artifact: rows.into(),
    }
}

/// Figure 7's copy-bandwidth contention factor: the microbench migrates
/// while the application saturates the slow tier, so copies run well
/// below peak (see `MigrationCosts::with_copy_contention`). Calibrated so
/// the 2-page optimized-preparation speedup lands on the paper's 3.44x.
const FIG7_UNDER_LOAD: f64 = 6.0;

/// Figure 7's testbed: a 32-core machine with one 32-thread process
/// owning `pages` private slow-tier pages (one owner thread per core).
fn fig7_setup(pages: u64) -> (Process, Machine, TlbArray, ShadowRegistry) {
    let mut spec = MachineSpec::paper_testbed();
    spec.migration_costs = spec.migration_costs.with_copy_contention(FIG7_UNDER_LOAD);
    let mut machine = Machine::new(spec);
    let mut process = Process::new(Asid(1), true);
    for i in 0..32u32 {
        process.spawn_thread(SimThreadId(i));
        machine.topology.pin(SimThreadId(i), CoreId(i as u16));
    }
    for v in 0..pages {
        let frame = machine.alloc(TierKind::Slow).expect("slow capacity");
        // All pages private to thread 0 (the migrating app's thread).
        process.space.map(Vpn(v), frame, LocalTid(0));
        process.space.touch(Vpn(v), LocalTid(0), false).unwrap();
    }
    (process, machine, TlbArray::new(32), ShadowRegistry::new())
}

/// Cycles to promote `pages` private pages synchronously under `cfg`.
fn fig7_cost(pages: u64, cfg: &MechanismConfig) -> f64 {
    let (mut p, mut m, mut t, mut s) = fig7_setup(pages);
    let vpns: Vec<Vpn> = (0..pages).map(Vpn).collect();
    let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &vpns, TierKind::Fast, cfg);
    assert_eq!(out.moved.len() as u64, pages);
    out.total_cycles().as_f64()
}

/// Figure 7: speedup of Vulcan's memory-migration optimizations (higher
/// is better).
///
/// Synchronous migrations of 2–512 private pages on the 32-core testbed,
/// comparing the Linux baseline against (1) optimized migration
/// preparation alone and (2) preparation + targeted TLB shootdowns.
///
/// Paper anchors: up to 3.44x with optimized preparation alone and 4.06x
/// combined, for 2-page migrations; gains shrink as copying dominates.
pub(crate) fn fig7(_: &SuiteOpts) -> Figure {
    let baseline = MechanismConfig::linux_baseline();
    let opt_prep = MechanismConfig {
        prep: PrepStrategy::Optimized,
        ..MechanismConfig::linux_baseline()
    };
    let opt_both = MechanismConfig {
        prep: PrepStrategy::Optimized,
        scope: ShootdownScope::Targeted,
        ..MechanismConfig::linux_baseline()
    };

    let mut table = Table::new(
        "Figure 7: migration speedup over the Linux baseline (32 CPUs)",
        &[
            "pages",
            "baseline (cyc)",
            "+opt prep",
            "+opt prep & TLB",
            "speedup prep",
            "speedup both",
        ],
    );
    let mut rows = Vec::new();
    for pages in [2u64, 8, 32, 128, 512] {
        let base = fig7_cost(pages, &baseline);
        let prep = fig7_cost(pages, &opt_prep);
        let both = fig7_cost(pages, &opt_both);
        table.row(&[
            pages.to_string(),
            format!("{base:.0}"),
            format!("{prep:.0}"),
            format!("{both:.0}"),
            format!("{:.2}x", base / prep),
            format!("{:.2}x", base / both),
        ]);
        rows.push(Value::Object(
            Map::new()
                .with("pages", pages)
                .with("baseline_cycles", base)
                .with("opt_prep_cycles", prep)
                .with("opt_both_cycles", both)
                .with("speedup_prep", base / prep)
                .with("speedup_both", base / both),
        ));
    }
    Figure {
        cells: Vec::new(),
        table,
        note: "\nPaper: up to 3.44x (optimized preparation) and 4.06x (plus \
               targeted shootdowns) at 2 pages; benefits shrink for larger \
               batches as page copying dominates."
            .into(),
        artifact: rows.into(),
    }
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

/// Mean bandwidth (GB/s) of one figure 8 cell in its two phases.
struct Fig8Bandwidth {
    read_prog: f64,
    write_prog: f64,
    read_stable: f64,
    write_stable: f64,
}

fn fig8_bandwidth(res: &RunResult) -> Fig8Bandwidth {
    let phase = |name: &str, lo: f64, hi: f64| {
        let vals: Vec<f64> = series(res, name)
            .points
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, v)| v)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    Fig8Bandwidth {
        read_prog: phase("mb.bw_read_gbps", 1.0, 10.0),
        write_prog: phase("mb.bw_write_gbps", 1.0, 10.0),
        read_stable: phase("mb.bw_read_gbps", 25.0, 40.0),
        write_stable: phase("mb.bw_write_gbps", 25.0, 40.0),
    }
}

/// Figure 8: migration performance comparison between TPP, MEMTIS, NOMAD
/// and VULCAN across working-set sizes (higher is better).
///
/// Methodology follows §5.2 / Nomad: data is allocated in the slow tier,
/// then a Zipfian reader/writer runs over the WSS; read and write
/// bandwidth is reported for the *migration-in-progress* phase (first
/// quanta after start, while hot pages move up) and the *migration
/// stable* phase (after placement converges).
///
/// Paper anchor: Vulcan sustains the highest bandwidth, especially once
/// migration is stable.
pub(crate) fn fig8(o: &SuiteOpts) -> Figure {
    let grid = fig8_grid(o);
    let results = grid.run();
    let n_trials = o.trials as usize;

    let mut table = Table::new(
        "Figure 8: microbench bandwidth (GB/s): in-migration vs stable",
        &[
            "wss",
            "policy",
            "read(prog)",
            "write(prog)",
            "read(stable)",
            "write(stable)",
        ],
    );
    let mut rows = Vec::new();
    for (si, scenario) in WssScenario::ALL.into_iter().enumerate() {
        for (pi, policy) in PolicyKind::PAPER.into_iter().enumerate() {
            let mut agg = [
                OnlineStats::new(),
                OnlineStats::new(),
                OnlineStats::new(),
                OnlineStats::new(),
            ];
            for trial in 0..n_trials {
                // Grid order: scenario-major, then policy, then trial.
                let idx = (si * PolicyKind::PAPER.len() + pi) * n_trials + trial;
                let c = fig8_bandwidth(&results[idx]);
                agg[0].push(c.read_prog);
                agg[1].push(c.write_prog);
                agg[2].push(c.read_stable);
                agg[3].push(c.write_stable);
            }
            table.row(&[
                scenario.label().into(),
                policy.name().into(),
                format!("{:.2}", agg[0].mean()),
                format!("{:.2}", agg[1].mean()),
                format!("{:.2}", agg[2].mean()),
                format!("{:.2}", agg[3].mean()),
            ]);
            rows.push(Value::Object(
                Map::new()
                    .with("wss", scenario.label())
                    .with("policy", policy.name())
                    .with("read_in_progress", agg[0].mean())
                    .with("write_in_progress", agg[1].mean())
                    .with("read_stable", agg[2].mean())
                    .with("write_stable", agg[3].mean()),
            ));
        }
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nPaper: Vulcan shows superior read/write bandwidth, particularly \
               in the migration-stable phase, across all working-set sizes."
            .into(),
        artifact: rows.into(),
    }
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

/// Figure 9: dynamic memory allocation and memory-tiering performance of
/// co-located workloads under VULCAN.
///
/// Memcached starts at 0 s, PageRank at 50 s, Liblinear at 110 s (§5.3).
/// Panels: (a) fast/slow tier occupancy per workload, (b) fast-tier hit
/// ratio (FTHR) over time, (c) guaranteed performance target (GPT) as
/// the GFMC shrinks with each arrival.
pub(crate) fn fig9(o: &SuiteOpts) -> Figure {
    let grid = fig9_grid(o);
    let results = grid.run();
    let res = &results[0];

    // Dump the three panels as JSON series.
    let mut out = Map::new();
    for name in ["memcached", "pagerank", "liblinear"] {
        for (panel, kind) in [
            ("a_allocation", "fast_pages"),
            ("a_allocation", "slow_pages"),
            ("b_fthr", "fthr"),
            ("c_gpt", "gpt"),
        ] {
            let key = format!("{panel}.{name}.{kind}");
            let s = series(res, &format!("{name}.{kind}"));
            out.insert(key, vulcan_json::pairs_to_value(&s.points));
        }
    }

    // Summarize the phase transitions in a table: values at 40 s (solo),
    // 100 s (two apps), 190 s (three apps).
    let mut table = Table::new(
        "Figure 9 summary: Vulcan dynamics at phase boundaries",
        &["workload", "metric", "t=40s", "t=100s", "t=190s"],
    );
    let at = |name: &str, kind: &str, t: f64| -> String {
        series(res, &format!("{name}.{kind}"))
            .points
            .iter()
            .rfind(|&&(ts, _)| ts <= t)
            .map(|&(_, v)| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into())
    };
    for name in ["memcached", "pagerank", "liblinear"] {
        for kind in ["fast_pages", "fthr", "gpt"] {
            table.row(&[
                name.into(),
                kind.into(),
                at(name, kind, 40.0),
                at(name, kind, 100.0),
                at(name, kind, 190.0),
            ]);
        }
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nPaper: allocations rebalance at each arrival; every workload's \
               FTHR stays at or above its (shrinking) GPT — the QoS guarantee."
            .into(),
        artifact: Value::Object(out),
    }
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

const FIG10_APPS: [&str; 3] = ["memcached", "pagerank", "liblinear"];

/// One policy's figure 10 statistics across trials.
struct Fig10Agg {
    perf: [OnlineStats; 3],
    cfi: OnlineStats,
}

/// Steady-state performance: settled-tail latency inverse for the LC
/// app, settled-tail throughput for BE apps (Figure 10 reports the
/// co-located steady state).
fn fig10_perf(res: &RunResult, name: &str) -> f64 {
    let settle = 150.0;
    match res.workload(name).class {
        WorkloadClass::LatencyCritical => {
            let lat = series(res, &format!("{name}.latency_ns")).mean_after(settle);
            if lat == 0.0 {
                0.0
            } else {
                1e9 / lat
            }
        }
        WorkloadClass::BestEffort => series(res, &format!("{name}.ops_per_sec")).mean_after(settle),
    }
}

/// Figure 10: performance and fairness comparison of Memcached, PageRank
/// and Liblinear between TPP, MEMTIS, NOMAD and VULCAN (higher is
/// better), over multiple trials with 95% confidence intervals.
///
/// Paper anchors: Vulcan ≈ +35% over TPP and +25% over Memtis on
/// Memcached; ≈ +5.3% over TPP and +19% over Memtis on PageRank; ≈ +15%
/// over Memtis on Liblinear (slightly under TPP); fairness +52% over
/// Memtis and +86% over Nomad; averages: +12.4% performance, +75.3%
/// fairness.
pub(crate) fn fig10(o: &SuiteOpts) -> Figure {
    let n_trials = o.trials;
    // Independent (policy × trial) cells run on the thread pool; the
    // grid comes back in declaration order (policy-major, trial-minor).
    let grid = fig10_grid(o);
    let results = grid.run();

    let policies = PolicyKind::PAPER;
    let mut agg: Vec<Fig10Agg> = (0..policies.len())
        .map(|_| Fig10Agg {
            perf: [OnlineStats::new(), OnlineStats::new(), OnlineStats::new()],
            cfi: OnlineStats::new(),
        })
        .collect();
    for (i, res) in results.iter().enumerate() {
        let pi = i / n_trials as usize;
        for (ai, app) in FIG10_APPS.iter().enumerate() {
            agg[pi].perf[ai].push(fig10_perf(res, app));
        }
        agg[pi].cfi.push(res.cfi);
    }

    // Normalize each app's performance to the lowest-performing policy
    // (the paper normalizes to the worst approach).
    let mins: Vec<f64> = (0..3)
        .map(|ai| {
            agg.iter()
                .map(|a| a.perf[ai].mean())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut table = Table::new(
        format!("Figure 10: normalized performance & CFI ({n_trials} trials, 95% CI)"),
        &["policy", "memcached", "pagerank", "liblinear", "CFI"],
    );
    let mut rows = Vec::new();
    for (pi, policy) in policies.iter().enumerate() {
        let mut cells_out = vec![policy.to_string()];
        let mut json_apps = Map::new();
        for (ai, app) in FIG10_APPS.iter().enumerate() {
            let mean = agg[pi].perf[ai].mean() / mins[ai];
            let ci = agg[pi].perf[ai].ci95() / mins[ai];
            cells_out.push(format!("{mean:.3}±{ci:.3}"));
            json_apps.insert(*app, Map::new().with("normalized", mean).with("ci95", ci));
        }
        cells_out.push(format!(
            "{:.3}±{:.3}",
            agg[pi].cfi.mean(),
            agg[pi].cfi.ci95()
        ));
        table.row(&cells_out);
        rows.push(Value::Object(
            Map::new()
                .with("policy", policy.name())
                .with("apps", json_apps)
                .with("cfi", agg[pi].cfi.mean())
                .with("cfi_ci95", agg[pi].cfi.ci95()),
        ));
    }

    // Headline averages (the paper's 12.4% performance / 75.3% fairness).
    let vi = policies
        .iter()
        .position(|&p| p == PolicyKind::Vulcan)
        .expect("vulcan");
    let mut perf_gains = Vec::new();
    let mut fair_gains = Vec::new();
    let mut note = String::new();
    for (pi, policy) in policies.iter().enumerate() {
        if pi == vi {
            continue;
        }
        for ai in 0..3 {
            perf_gains.push(agg[vi].perf[ai].mean() / agg[pi].perf[ai].mean() - 1.0);
        }
        fair_gains.push(agg[vi].cfi.mean() / agg[pi].cfi.mean() - 1.0);
        let _ = writeln!(
            note,
            "vulcan vs {policy}: perf {:+.1}%/{:+.1}%/{:+.1}% (mc/pr/lib), fairness {:+.1}%",
            100.0 * (agg[vi].perf[0].mean() / agg[pi].perf[0].mean() - 1.0),
            100.0 * (agg[vi].perf[1].mean() / agg[pi].perf[1].mean() - 1.0),
            100.0 * (agg[vi].perf[2].mean() / agg[pi].perf[2].mean() - 1.0),
            100.0 * (agg[vi].cfi.mean() / agg[pi].cfi.mean() - 1.0),
        );
    }
    let avg_perf = 100.0 * perf_gains.iter().sum::<f64>() / perf_gains.len() as f64;
    let avg_fair = 100.0 * fair_gains.iter().sum::<f64>() / fair_gains.len() as f64;
    let _ = write!(
        note,
        "\nHeadline: average performance improvement {avg_perf:+.1}% \
         (paper: +12.4%), average fairness improvement {avg_fair:+.1}% \
         (paper: +75.3%)."
    );
    rows.push(Value::Object(
        Map::new().with(
            "headline",
            Map::new()
                .with("avg_perf_gain_pct", avg_perf)
                .with("avg_fairness_gain_pct", avg_fair),
        ),
    ));
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note,
        artifact: rows.into(),
    }
}

/// Table 1: page promotion priority and strategy — printed directly from
/// the implementation (`vulcan_core::queues::PageClass`), so the code and
/// the paper's table cannot drift apart.
pub(crate) fn table1(_: &SuiteOpts) -> Figure {
    let mut table = Table::new(
        "Table 1: page promotion priority and strategy",
        &["page type", "read/write pattern", "priority", "strategy"],
    );
    for class in PageClass::ALL {
        let (ty, rw) = match class {
            PageClass::PrivateRead => ("Private", "Read-intensive"),
            PageClass::SharedRead => ("Shared", "Read-intensive"),
            PageClass::PrivateWrite => ("Private", "Write-intensive"),
            PageClass::SharedWrite => ("Shared", "Write-intensive"),
        };
        table.row(&[
            ty.into(),
            rw.into(),
            "★".repeat(class.stars() as usize),
            if class.use_async() {
                "Async copy"
            } else {
                "Sync copy"
            }
            .into(),
        ]);
    }
    let rows: Vec<Value> = PageClass::ALL
        .iter()
        .map(|c| {
            Value::Object(
                Map::new()
                    .with("class", format!("{c:?}"))
                    .with("stars", c.stars())
                    .with("async", c.use_async()),
            )
        })
        .collect();
    Figure {
        cells: Vec::new(),
        table,
        note: String::new(),
        artifact: rows.into(),
    }
}

/// Table 2: workloads and RSS in tiered memory — the scaled inventory
/// this reproduction instantiates (1 paper-GB = 256 pages, DESIGN.md §5).
pub(crate) fn table2(_: &SuiteOpts) -> Figure {
    let mut table = Table::new(
        "Table 2: workloads and RSS in tiered memory (scaled 1 GB -> 256 pages)",
        &[
            "app",
            "workload",
            "class",
            "paper RSS",
            "scaled RSS (pages)",
        ],
    );
    let apps = [
        (
            memcached(),
            "In-memory KV engine, YCSB-style 90/10 GET/SET",
            "51 GB",
        ),
        (
            pagerank(),
            "PageRank scoring of a power-law web graph",
            "42 GB",
        ),
        (
            liblinear(),
            "Linear classification sweep (KDD12-like)",
            "69 GB",
        ),
    ];
    let mut rows = Vec::new();
    for (spec, desc, paper_rss) in apps {
        table.row(&[
            spec.name.clone(),
            desc.into(),
            format!("{:?}", spec.class),
            paper_rss.into(),
            spec.rss_pages().to_string(),
        ]);
        rows.push(Value::Object(
            Map::new()
                .with("app", &spec.name)
                .with("class", format!("{:?}", spec.class))
                .with("paper_rss", paper_rss)
                .with("scaled_pages", spec.rss_pages())
                .with("threads", spec.n_threads),
        ));
    }
    Figure {
        cells: Vec::new(),
        table,
        note: String::new(),
        artifact: rows.into(),
    }
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

/// Component ablation: which of Vulcan's four innovations buys what.
///
/// §3.6 discusses the trade-offs of each mechanism (e.g. automatically
/// enabling/disabling per-thread replication). This re-runs the
/// three-application co-location with one component disabled at a time:
///
/// * `full`            — Vulcan as shipped;
/// * `no-cbfrp`        — uniform GFMC quotas instead of Algorithm 1;
/// * `no-bias`         — one FIFO heat queue, everything async (Table 1
///   disabled);
/// * `no-replication`  — process-wide page tables and shootdowns (§3.4
///   disabled);
/// * `no-shadowing`    — demotions always copy (§3.5's Nomad borrow
///   disabled);
/// * `linux-mechanism` — Vulcan policy on the vanilla mechanism (global
///   preparation + process-wide shootdowns).
pub(crate) fn ablation(o: &SuiteOpts) -> Figure {
    let grid = ablation_grid(o);
    let results = grid.run();

    let mut table = Table::new(
        "Vulcan component ablation (3-app co-location, 200 s)",
        &[
            "variant",
            "mc latency(ns)",
            "mc FTHR",
            "CFI",
            "stall Mcyc",
            "PT overhead (KiB)",
        ],
    );
    let mut rows = Vec::new();
    for (cell, res) in grid.cells.iter().zip(&results) {
        let lat = series(res, "memcached.latency_ns").mean_after(150.0);
        let stall: u64 = res.per_workload.iter().map(|w| w.stall_cycles.0).sum();
        let pt_overhead: u64 = res
            .per_workload
            .iter()
            .map(|w| w.replication_overhead_bytes)
            .sum();
        table.row(&[
            cell.label.clone(),
            format!("{lat:.0}"),
            format!("{:.3}", res.workload("memcached").mean_fthr),
            format!("{:.3}", res.cfi),
            format!("{:.1}", stall as f64 / 1e6),
            format!("{}", pt_overhead / 1024),
        ]);
        rows.push(Value::Object(
            Map::new()
                .with("variant", cell.label.as_str())
                .with("memcached_latency_ns", lat)
                .with("memcached_fthr", res.workload("memcached").mean_fthr)
                .with("cfi", res.cfi)
                .with("total_stall_cycles", stall)
                .with("pagetable_overhead_bytes", pt_overhead),
        ));
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nReading: the mechanism optimizations dominate the overhead story \
               (the linux-mechanism variant roughly doubles total stall and adds \
               latency); shadowing buys demotion latency; replication trades \
               page-table memory for targeted shootdowns (§3.6). With all three \
               apps saturating their entitlements, CBFRP degenerates to the \
               uniform split — its value shows when demands are asymmetric and \
               the LC must reclaim from an over-entitled BE (see the \
               fair_partitioning example and cbfrp unit tests)."
            .into(),
        artifact: rows.into(),
    }
}

/// The bias study's workloads, in grid order.
const BIAS_WORKLOADS: [&str; 2] = ["pagerank", "write-heavy"];

/// The bias study's policy lineage, in grid order.
const BIAS_VARIANTS: [&str; 3] = [
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

/// Biased-policy lineage study (§3.5): MTM introduced the read/write
/// copy-engine split; Vulcan adds thread-level ownership (targeted
/// shootdowns, private-first priority) and fairness on top. This runs
/// the lineage on one workload with controllable sharing structure:
/// PageRank's mix of private edge shards, private next-rank writes and a
/// shared rank array exercises every one of Table 1's four classes.
pub(crate) fn bias_study(o: &SuiteOpts) -> Figure {
    let grid = bias_grid(o);
    let results = grid.run();

    let mut table = Table::new(
        "biased-policy lineage (same PEBS profiler for every variant)",
        &["workload", "variant", "ops/s", "FTHR", "app stall (Mcyc)"],
    );
    let mut rows = Vec::new();
    for (wi, which) in BIAS_WORKLOADS.into_iter().enumerate() {
        for (vi, label) in BIAS_VARIANTS.into_iter().enumerate() {
            // Grid order: workload-major, variant-minor.
            let res = &results[wi * BIAS_VARIANTS.len() + vi];
            let w = &res.per_workload[0];
            table.row(&[
                which.into(),
                label.into(),
                format!("{:.0}", w.mean_ops_per_sec),
                format!("{:.3}", w.mean_fthr),
                format!("{:.1}", w.stall_cycles.0 as f64 / 1e6),
            ]);
            rows.push(Value::Object(
                Map::new()
                    .with("workload", which)
                    .with("variant", label)
                    .with("ops_per_sec", w.mean_ops_per_sec)
                    .with("fthr", w.mean_fthr)
                    .with("stall_cycles", w.stall_cycles.0),
            ));
        }
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nMTM pays process-wide shootdowns and global preparation for every \
               sync copy; Vulcan's ownership-targeted mechanism cuts the stall, and \
               Table 1's priorities put the cheap (private, read-intensive) pages \
               first. The no-bias variant shows what the queues themselves add."
            .into(),
        artifact: rows.into(),
    }
}

/// The THP study's working-set sizes (2 MiB regions), in grid order.
const THP_WSS_REGIONS: [u64; 3] = [4, 8, 16];

/// THP study: TLB reach and split-on-promotion under the Vulcan policy.
/// Cell order is WSS-major, then `[4 KiB, THP]`.
pub fn thp_grid(o: &SuiteOpts) -> Experiment {
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

/// Transparent-huge-page study (§3.4/§3.5): Vulcan "enables THPs to
/// maximize TLB coverage by default, despite proactively splitting them
/// into base pages during promotion". This quantifies both halves: the
/// TLB-reach benefit of 2 MiB entries, and the migration-granularity
/// benefit of splitting before promotion. Each cell is stepped quantum
/// by quantum so its TLB state can be read before the result is taken.
pub(crate) fn thp(o: &SuiteOpts) -> Figure {
    let grid = thp_grid(o);
    let stepped = grid.run_cells(|cell| {
        let mut runner = cell.paused_runner();
        for _ in 0..cell.quanta {
            runner.run_quantum();
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        for c in 0..8u16 {
            let (h, m) = runner.state.tlbs.core(CoreId(c)).stats();
            hits += h;
            misses += m;
        }
        let tlb = hits as f64 / (hits + misses).max(1) as f64;
        let huge = runner.state.workloads[0].process.space.huge_count() as u64;
        (runner.into_result(), tlb, huge)
    });
    let (results, probes): (Vec<RunResult>, Vec<(f64, u64)>) = stepped
        .into_iter()
        .map(|(res, tlb, huge)| (res, (tlb, huge)))
        .unzip();

    let mut table = Table::new(
        "THP study: TLB reach and split-on-promotion (Vulcan policy)",
        &[
            "WSS (2MiB regions)",
            "paging",
            "ops/s",
            "TLB hit ratio",
            "THP regions left",
        ],
    );
    let mut rows = Vec::new();
    for (i, &wss_regions) in THP_WSS_REGIONS.iter().enumerate() {
        for (j, thp) in [false, true].into_iter().enumerate() {
            // Grid order: WSS-major, then [4 KiB, THP].
            let (res, (tlb, huge)) = (&results[i * 2 + j], probes[i * 2 + j]);
            let ops = res.workload("mb").mean_ops_per_sec;
            table.row(&[
                wss_regions.to_string(),
                if thp { "2MiB (THP)" } else { "4KiB" }.into(),
                format!("{ops:.0}"),
                format!("{tlb:.3}"),
                huge.to_string(),
            ]);
            rows.push(Value::Object(
                Map::new()
                    .with("wss_regions", wss_regions)
                    .with("thp", thp)
                    .with("ops_per_sec", ops)
                    .with("tlb_hit_ratio", tlb)
                    .with("huge_regions_left", huge),
            ));
        }
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nTHP extends TLB reach (one entry per 512 pages) for large working \
               sets; Vulcan still splits the regions it promotes, so base-page \
               migration granularity is preserved (fewer THP regions remain when \
               tiering pressure is high)."
            .into(),
        artifact: rows.into(),
    }
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

/// Extended system comparison: the paper's four systems plus the MTM
/// ancestor, the uniform-partition straw man (§3.3 dismisses it as
/// inefficient) and the no-migration floor, all on the §5.3 three-app
/// co-location. This situates Vulcan in the wider design space the paper
/// surveys in §2.1/§6.
pub(crate) fn extended_compare(o: &SuiteOpts) -> Figure {
    // One cell per registered system ([`PolicyKind::ALL`]), in registry
    // order.
    let grid = extended_grid(o);
    let results = grid.run();

    let mut table = Table::new(
        "extended comparison: 7 systems, 3-app co-location, 200 s",
        &["system", "mc latency(ns)", "pr ops/s", "lib ops/s", "CFI"],
    );
    let mut rows = Vec::new();
    for res in &results {
        let lat = series(res, "memcached.latency_ns").mean_after(150.0);
        let pr = series(res, "pagerank.ops_per_sec").mean_after(150.0);
        let lib = series(res, "liblinear.ops_per_sec").mean_after(150.0);
        table.row(&[
            res.policy.clone(),
            format!("{lat:.0}"),
            format!("{pr:.0}"),
            format!("{lib:.0}"),
            format!("{:.3}", res.cfi),
        ]);
        rows.push(Value::Object(
            Map::new()
                .with("system", &res.policy)
                .with("memcached_latency_ns", lat)
                .with("pagerank_ops", pr)
                .with("liblinear_ops", lib)
                .with("cfi", res.cfi),
        ));
    }
    Figure {
        cells: grid.cell_rows(&results),
        table,
        note: "\nThe no-migration floor shows what tiering buys at all; the uniform \
               straw man is fair but wastes capacity on demand mismatches; the \
               hotness-ranked systems (TPP/Memtis/Nomad/MTM) trade the LC workload \
               away; Vulcan holds both ends."
            .into(),
        artifact: rows.into(),
    }
}
