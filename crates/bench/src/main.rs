//! `vulcan-bench` — render the evaluation's figures and tables and run
//! its contract-checked sweeps.
//!
//! ```text
//! vulcan-bench suite                      render every figure and table
//! vulcan-bench suite fig10 ablation       render a subset
//! vulcan-bench suite --quick --threads 2  CI-scale run on two threads
//! vulcan-bench suite --list               index of all 14 targets
//! ```
//!
//! `suite` prints each target's table and note and writes its artifact
//! to `target/experiments/<target>.json`, then writes a per-cell summary
//! of every simulated grid to `target/experiments/suite.json`.
//! Wall-clock timings are deliberately excluded from the artifacts so
//! they are deterministic across machines and thread counts.

use vulcan::prelude::Table;
use vulcan_bench::suite::{SuiteOpts, SUITE};
use vulcan_bench::SweepReport;
use vulcan_json::{Map, Value};

const USAGE: &str = "\
vulcan-bench — evaluation suite driver (Vulcan reproduction)

USAGE:
    vulcan-bench suite [TARGETS...] [OPTIONS]   render figures and tables
    vulcan-bench chaos [OPTIONS]                fault-injection sweep: every
                                                fault site × rates × the four
                                                policies, asserting the
                                                degradation contract
    vulcan-bench churn [OPTIONS]                open-loop tenancy sweep:
                                                arrival rates × the four
                                                policies, hundreds of tenant
                                                lifetimes per cell
    vulcan-bench tiers [OPTIONS]                chain-shape sweep: the policy
                                                registry raced over {2,3}-tier
                                                machines, frame conservation
                                                audited on every chain tier
    vulcan-bench tournament [OPTIONS]           fork one mid-run checkpoint
                                                across the policy registry ×
                                                what-if machine knobs; ranked
                                                report with deltas vs the
                                                origin policy
    vulcan-bench oracle [TARGETS...] [OPTIONS]  run grids in lockstep with
                                                reference models (requires
                                                a --features oracle build)
    vulcan-bench help                           this text

OPTIONS (suite, oracle):
    --quick        CI scale: 1 trial per point, quanta capped at 20
    --threads <N>  thread-pool size (RAYON_NUM_THREADS is the env knob)
    --list         list all 14 targets and exit

OPTIONS (chaos):
    --quick        CI scale: 2 fault rates, 12 quanta per cell
    --threads <N>  thread-pool size

OPTIONS (churn):
    --quick        CI scale: 1 arrival rate, 16 quanta per cell
    --threads <N>  thread-pool size

OPTIONS (tiers):
    --quick        CI scale: paper policies only, 10 quanta per cell
    --threads <N>  thread-pool size

OPTIONS (tournament):
    --quick        CI scale: shorter prefix and continuations (the full
                   registry races either way)
    --threads <N>  thread-pool size (forks run concurrently)

--threads sizes the pool running whole cells concurrently; each cell
runs on one thread.

The chaos sweep exits non-zero if any cell panics, leaks a frame at
teardown, lets Vulcan's FTHR drop below GPT, or produces rate-0 output
that differs from a run with no fault plan installed. Results land in
target/experiments/chaos.json.

The churn sweep drives Poisson arrivals with Pareto lifetimes through
capacity-gated admission against every paper policy, and exits non-zero
if any cell panics, leaks a frame after the final teardown sweep, falls
short of the tenant floor (full scale), or produces a rate-0 control
that differs from the plain static run. Results land in
target/experiments/churn.json.

The tiers sweep races the policy registry over 2- and 3-tier machine
shapes (the buffer-pool family under THP plus a latency-critical front
end), and exits non-zero if any cell leaks a frame on any chain tier at
teardown. Results land in target/experiments/tiers.json.

Targets default to all 14. Each prints its table and writes
target/experiments/<target>.json; the simulated cells are summarized in
target/experiments/suite.json. The analytic targets (fig2, fig3, fig7,
table1, table2) have no grid and render from the cost model or the code.

The oracle subcommand replays the same grids with every optimized hot-path
structure (heat map, walk caches, Zipf sampler, loaded-latency cache)
diffed against a naive reference model at each step; the first divergence
aborts the run with the structure, VPN and simulated time identified.
";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Options shared by the `suite` and `oracle` grid drivers.
struct GridArgs {
    quick: bool,
    list: bool,
    names: Vec<String>,
}

fn parse_grid_args(args: &[String]) -> GridArgs {
    let mut parsed = GridArgs {
        quick: false,
        list: false,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--list" => parsed.list = true,
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage_error("--threads needs a positive integer"));
                rayon::pool::set_num_threads(n);
            }
            flag if flag.starts_with("--threads=") => {
                let n = flag["--threads=".len()..]
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage_error("--threads needs a positive integer"));
                rayon::pool::set_num_threads(n);
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown option '{flag}'")),
            name => parsed.names.push(name.to_string()),
        }
    }
    parsed
}

fn print_target_list() {
    for entry in SUITE.iter() {
        let kind = if entry.build.is_some() {
            "simulation grid"
        } else {
            "analytic (no grid)"
        };
        println!("{:<18} {kind}", entry.name);
    }
}

fn selected_entries(names: &[String]) -> Vec<&'static vulcan_bench::suite::SuiteEntry> {
    for name in names {
        if !SUITE.iter().any(|e| e.name == name.as_str()) {
            let all: Vec<&str> = SUITE.iter().map(|e| e.name).collect();
            usage_error(&format!(
                "unknown target '{name}' (expected one of: {})",
                all.join(", ")
            ));
        }
    }
    SUITE
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect()
}

fn cmd_suite(args: &[String]) {
    let GridArgs { quick, list, names } = parse_grid_args(args);
    if list {
        print_target_list();
        return;
    }
    let opts = if quick {
        SuiteOpts::quick()
    } else {
        SuiteOpts::full()
    };
    let selected = selected_entries(&names);

    let mut table = Table::new(
        format!(
            "suite: per-cell results ({} threads)",
            rayon::pool::current_num_threads()
        ),
        &["experiment", "cell", "policy", "seed", "quanta", "CFI"],
    );
    let mut rows = Vec::new();
    for entry in selected {
        let fig = (entry.render)(&opts);
        fig.table.print();
        if !fig.note.is_empty() {
            println!("{}", fig.note);
        }
        vulcan_bench::save_json_or_exit(entry.name, &fig.artifact);
        for cell in fig.cells {
            table.row(&[
                entry.name.to_string(),
                cell.label.clone(),
                cell.policy.clone(),
                cell.seed.to_string(),
                cell.quanta.to_string(),
                format!("{:.3}", cell.cfi),
            ]);
            rows.push(Value::Object(
                Map::new()
                    .with("experiment", entry.name)
                    .with("cell", cell.label)
                    .with("policy", cell.policy)
                    .with("seed", cell.seed)
                    .with("quanta", cell.quanta)
                    .with("cfi", cell.cfi),
            ));
        }
    }
    table.print();
    vulcan_bench::save_json_or_exit("suite", &rows);
}

/// The body every contract-checked sweep shares. `run` runs the sweep at
/// full or `--quick` scale and returns its table, the line printed when
/// it passes, and its report. A violation of `contract` exits 1 before
/// the artifact is written.
fn cmd_sweep(
    name: &str,
    contract: &str,
    args: &[String],
    run: impl FnOnce(bool) -> (Table, String, SweepReport),
) {
    let GridArgs { quick, list, names } = parse_grid_args(args);
    if list || !names.is_empty() {
        usage_error(&format!("{name} takes no targets (it runs one fixed grid)"));
    }
    let (table, passed, report) = run(quick);
    table.print();
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("{name}: VIOLATION: {v}");
        }
        eprintln!(
            "{name}: {} {contract} violation(s)",
            report.violations.len()
        );
        std::process::exit(1);
    }
    println!("{passed}");
    vulcan_bench::save_json_or_exit(name, &report.rows);
}

fn cmd_chaos(args: &[String]) {
    use vulcan_bench::chaos::{chaos_table, run_chaos, ChaosOpts};
    cmd_sweep("chaos", "degradation-contract", args, |quick| {
        let report = run_chaos(&if quick {
            ChaosOpts::quick()
        } else {
            ChaosOpts::full()
        });
        let passed = format!(
            "chaos: {} cells, zero panics, frames conserved, rate-0 identical",
            report.rows.len()
        );
        (chaos_table(&report.rows), passed, report)
    });
}

fn cmd_churn(args: &[String]) {
    use vulcan_bench::churn::{churn_table, run_churn, ChurnOpts};
    cmd_sweep("churn", "contract", args, |quick| {
        let report = run_churn(&if quick {
            ChurnOpts::quick()
        } else {
            ChurnOpts::full()
        });
        let passed = format!(
            "churn: {} cells, zero panics, frames conserved, rate-0 identical to static",
            report.rows.len()
        );
        (churn_table(&report.rows), passed, report)
    });
}

fn cmd_tiers(args: &[String]) {
    use vulcan_bench::tiers::{run_tiers, tiers_table, TiersOpts};
    cmd_sweep("tiers", "contract", args, |quick| {
        let report = run_tiers(&if quick {
            TiersOpts::quick()
        } else {
            TiersOpts::full()
        });
        let passed = format!(
            "tiers: {} cells, zero panics, frames conserved on every chain tier",
            report.rows.len()
        );
        (tiers_table(&report.rows), passed, report)
    });
}

fn cmd_tournament(args: &[String]) {
    use vulcan_bench::tournament::{run_tournament, tournament_table, TournamentOpts};
    cmd_sweep("tournament", "contract", args, |quick| {
        let opts = if quick {
            TournamentOpts::quick()
        } else {
            TournamentOpts::full()
        };
        let report = run_tournament(&opts);
        let passed = format!(
            "tournament: {} forks from one checkpoint at quantum {}, zero \
             frame-conservation violations",
            report.rows.len(),
            opts.fork_at
        );
        (tournament_table(&report.rows), passed, report)
    });
}

/// Lockstep differential run: replay the suite grids with the reference
/// models checking every hot-path structure at every step. Only does
/// anything in a `--features oracle` build — the checks are compiled
/// out otherwise, so running the plain binary would silently verify
/// nothing; refuse instead of pretending.
#[cfg(not(feature = "oracle"))]
fn cmd_oracle(_args: &[String]) {
    eprintln!(
        "error: this binary was built without the `oracle` feature, so the \
         lockstep checks are compiled out and an oracle run would verify \
         nothing.\n\nRebuild with:\n    cargo run --release -p vulcan-bench \
         --features oracle -- oracle --quick"
    );
    std::process::exit(2);
}

#[cfg(feature = "oracle")]
fn cmd_oracle(args: &[String]) {
    let GridArgs { quick, list, names } = parse_grid_args(args);
    if list {
        print_target_list();
        return;
    }
    let opts = if quick {
        SuiteOpts::quick()
    } else {
        SuiteOpts::full()
    };
    let selected = selected_entries(&names);

    vulcan_oracle::reset_checks();
    let mut cells = 0usize;
    for entry in selected {
        let Some(build) = entry.build else {
            eprintln!(
                "[oracle] {}: analytic target, no simulation grid to verify",
                entry.name
            );
            continue;
        };
        let exp = build(&opts);
        cells += exp.cells.len();
        // A divergence panics inside the grid run with the structure,
        // VPN and simulated time identified; completion means every
        // lockstep comparison in every cell agreed.
        let _ = exp.run();
    }

    let mut table = vulcan::metrics::Table::new(
        format!("oracle: lockstep checks performed across {cells} cells"),
        &["structure", "checks"],
    );
    let mut rows = Vec::new();
    for s in vulcan_oracle::Structure::ALL {
        table.row(&[s.name().to_string(), vulcan_oracle::checks(s).to_string()]);
        rows.push(vulcan_json::Value::Object(
            vulcan_json::Map::new()
                .with("structure", s.name())
                .with("checks", vulcan_oracle::checks(s)),
        ));
    }
    table.print();
    println!(
        "oracle: {} lockstep checks, zero divergences",
        vulcan_oracle::total_checks()
    );
    vulcan_bench::save_json_or_exit("oracle", &rows);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => cmd_suite(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("churn") => cmd_churn(&args[1..]),
        Some("tiers") => cmd_tiers(&args[1..]),
        Some("tournament") => cmd_tournament(&args[1..]),
        Some("oracle") => cmd_oracle(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => print!("{USAGE}"),
        None => usage_error("missing subcommand"),
        Some(other) => usage_error(&format!("unknown subcommand '{other}'")),
    }
}
