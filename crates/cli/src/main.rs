//! `vulcan-sim` — run tiered-memory experiments from a JSON config.

use vulcan::prelude::{PolicyKind, Telemetry};
use vulcan_cli::{report, ExperimentConfig};

const USAGE: &str = "\
vulcan-sim — tiered-memory simulation runner (Vulcan reproduction)

USAGE:
    vulcan-sim run [OPTIONS] <config.json>   run the config's policy
    vulcan-sim compare <config.json>         run tpp, memtis, nomad and vulcan
    vulcan-sim churn [OPTIONS]               open-loop tenancy churn run:
                                             Poisson arrivals, Pareto
                                             lifetimes, admission control
    vulcan-sim checkpoint <config.json> --at <q> --out <ck.json>
                                             run q quanta, then serialize the
                                             complete simulation state
    vulcan-sim resume <ck.json> [OPTIONS]    restore a checkpoint and run the
                                             remaining quanta; the results are
                                             byte-identical to the straight run
    vulcan-sim example                       print an example config
    vulcan-sim help                          this text

OPTIONS (run):
    --trace <out.jsonl>   write the structured event trace as JSON lines
    --metrics             print the telemetry summary after the run

OPTIONS (churn):
    --rate <r>            arrivals per simulated second (default 2.0;
                          0 degenerates to a static anchor-only run)
    --duration <ns>       simulated nanoseconds to run, rounded up to
                          whole 1-second quanta (default 60000000000)
    --seed <s>            RNG seed for arrivals/lifetimes/templates
                          (default 42; same seed, same run, bit for bit)
    --policy <name>       tiering policy (default vulcan)
    --trace <out.jsonl>   write the structured event trace as JSON lines
    --out <report.json>   write the deterministic churn report artifact
    --checkpoint-at <q>   serialize the engine after quantum q (the run
                          still continues to completion)
    --checkpoint-out <p>  where to write the mid-churn checkpoint
                          (required with --checkpoint-at)

OPTIONS (resume):
    --out <report.json>   churn checkpoints: write the churn report
                          artifact (sha256-comparable with the straight
                          run's --out)
    --series-out <p>      static checkpoints: write the series JSON
                          (sha256-comparable with the straight run's
                          series_out)
";

/// A usage or configuration error (exit status 2), as opposed to a
/// runtime failure such as an unwritable output file (exit status 1).
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

fn load(path: &str) -> Result<ExperimentConfig, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    ExperimentConfig::from_json(&text).map_err(CliError::Usage)
}

fn dump_series(cfg: &ExperimentConfig, res: &vulcan::prelude::RunResult) -> Result<(), CliError> {
    if let Some(path) = &cfg.series_out {
        std::fs::write(path, res.series.to_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        println!("[series written to {path}]");
    }
    Ok(())
}

struct RunArgs {
    config: String,
    trace: Option<String>,
    metrics: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, CliError> {
    let mut config = None;
    let mut trace = None;
    let mut metrics = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--trace needs an output path".into()))?
                        .clone(),
                );
            }
            "--metrics" => metrics = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")));
            }
            path if config.is_none() => config = Some(path.to_string()),
            extra => {
                return Err(CliError::Usage(format!("unexpected argument '{extra}'")));
            }
        }
    }
    Ok(RunArgs {
        config: config.ok_or_else(|| CliError::Usage("run needs a config path".into()))?,
        trace,
        metrics,
    })
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let run = parse_run_args(args)?;
    let cfg = load(&run.config)?;
    let telemetry = if run.trace.is_some() || run.metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let res = cfg
        .run_with_telemetry(None, telemetry.clone())
        .map_err(CliError::Usage)?;
    print!("{}", report(&res));
    if let Some(path) = &run.trace {
        std::fs::write(path, telemetry.events_jsonl())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        println!("[trace written to {path}]");
    }
    if run.metrics {
        println!();
        print!("{}", telemetry.summary());
    }
    dump_series(&cfg, &res)
}

struct ChurnArgs {
    rate: f64,
    duration_ns: u64,
    seed: u64,
    policy: PolicyKind,
    trace: Option<String>,
    out: Option<String>,
    checkpoint_at: Option<u64>,
    checkpoint_out: Option<String>,
}

fn parse_churn_args(args: &[String]) -> Result<ChurnArgs, CliError> {
    let mut parsed = ChurnArgs {
        rate: 2.0,
        duration_ns: 60_000_000_000,
        seed: 42,
        policy: PolicyKind::Vulcan,
        trace: None,
        out: None,
        checkpoint_at: None,
        checkpoint_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--rate" => {
                parsed.rate = value("--rate")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or_else(|| {
                        CliError::Usage("--rate needs a finite non-negative number".into())
                    })?;
            }
            "--duration" => {
                parsed.duration_ns = value("--duration")?
                    .parse::<u64>()
                    .ok()
                    .filter(|d| *d > 0)
                    .ok_or_else(|| {
                        CliError::Usage("--duration needs a positive nanosecond count".into())
                    })?;
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage("--seed needs an unsigned integer".into()))?;
            }
            "--policy" => {
                parsed.policy = value("--policy")?
                    .parse::<PolicyKind>()
                    .map_err(|e| CliError::Usage(e.to_string()))?;
            }
            "--trace" => parsed.trace = Some(value("--trace")?),
            "--out" => parsed.out = Some(value("--out")?),
            "--checkpoint-at" => {
                parsed.checkpoint_at =
                    Some(value("--checkpoint-at")?.parse::<u64>().map_err(|_| {
                        CliError::Usage("--checkpoint-at needs a quantum index".into())
                    })?);
            }
            "--checkpoint-out" => parsed.checkpoint_out = Some(value("--checkpoint-out")?),
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")));
            }
            extra => {
                return Err(CliError::Usage(format!("unexpected argument '{extra}'")));
            }
        }
    }
    if parsed.checkpoint_at.is_some() != parsed.checkpoint_out.is_some() {
        return Err(CliError::Usage(
            "--checkpoint-at and --checkpoint-out go together: one says \
             when to serialize the engine, the other where to write it"
                .into(),
        ));
    }
    if let Some(at) = parsed.checkpoint_at {
        let n_quanta = parsed.duration_ns.div_ceil(1_000_000_000);
        if at >= n_quanta {
            return Err(CliError::Usage(format!(
                "--checkpoint-at {at} is past the run: the configured \
                 duration spans {n_quanta} quanta"
            )));
        }
    }
    Ok(parsed)
}

/// The churn anchors: one latency-critical and one best-effort tenant
/// that never depart, so every window has live residents to be fair to
/// while the open-loop tenants arrive and leave around them.
fn churn_anchors() -> Vec<vulcan::prelude::WorkloadSpec> {
    use vulcan::prelude::*;
    let mut lc = microbench(
        "anchor-lc",
        MicroConfig {
            rss_pages: 512,
            wss_pages: 128,
            read_ratio: 0.9,
            ..Default::default()
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
            ..Default::default()
        },
        2,
    )
    .preallocated(TierKind::Slow);
    vec![lc, be]
}

/// Print the churn tallies and audit frame conservation — shared by the
/// straight `churn` run and a `resume` of a mid-churn checkpoint, so
/// both render identically.
fn print_churn_report(rep: &vulcan_churn::ChurnReport) -> Result<(), CliError> {
    let s = &rep.stats;
    println!(
        "  arrivals={} admitted={} (+{} from queue) queued={} rejected={} timed_out={}",
        s.arrivals, s.admitted, s.admitted_from_queue, s.queued, s.rejected, s.timed_out
    );
    println!(
        "  departed={} retired_at_end={} peak_active={} compaction_rounds={} promoted={}",
        s.departed, s.retired_at_end, s.peak_active, s.compaction_rounds, s.compaction_promoted
    );
    println!(
        "  windowed_jain={} windowed_fthr={} p99_latency_ns={}",
        rep.mean_windowed_jain()
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".into()),
        rep.mean_windowed_fthr()
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".into()),
        rep.p99_latency_ns()
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".into()),
    );
    if rep.leaked_total() != 0 {
        return Err(CliError::Runtime(format!(
            "frame-conservation violation: {:?} frames leaked per tier",
            rep.leaked_by_tier
        )));
    }
    println!(
        "  frames conserved: 0 on every tier after {} teardowns",
        s.retired()
    );
    Ok(())
}

/// Write the deterministic churn report artifact (`--out`).
fn dump_churn_report(rep: &vulcan_churn::ChurnReport, path: &str) -> Result<(), CliError> {
    std::fs::write(path, rep.to_value().to_json())
        .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    println!("[report written to {path}]");
    Ok(())
}

fn cmd_churn(args: &[String]) -> Result<(), CliError> {
    use vulcan::prelude::*;
    let a = parse_churn_args(args)?;
    let telemetry = if a.trace.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let n_quanta = a.duration_ns.div_ceil(1_000_000_000);
    let kind = a.policy;
    let runner = SimRunner::builder()
        .machine(MachineSpec::small(2_048, 32_768, 8))
        .workloads(churn_anchors())
        .profiler_factory(move |_| kind.profiler())
        .policy(kind.make())
        .config(SimConfig {
            n_quanta: 0, // the engine owns stepping
            seed: a.seed,
            quantum_active: Nanos::millis(1),
            telemetry: telemetry.clone(),
            ..Default::default()
        })
        .build();
    let cfg = vulcan_churn::ChurnConfig {
        arrival_rate_per_sec: a.rate,
        n_quanta,
        ..vulcan_churn::ChurnConfig::default()
    };
    let mut engine =
        vulcan_churn::ChurnEngine::new(runner, a.seed, cfg, vulcan_churn::Catalog::default_mix());
    if let (Some(at), Some(out)) = (a.checkpoint_at, &a.checkpoint_out) {
        for _ in 0..at {
            engine.step();
        }
        let ck = engine
            .checkpoint()
            .map_err(|e| CliError::Runtime(format!("cannot checkpoint: {e}")))?;
        std::fs::write(out, ck.to_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
        println!("[checkpoint at quantum {at} written to {out}]");
    }
    let rep = engine.run_remaining();

    println!(
        "churn: policy={} rate={}/s duration={}s seed={}",
        rep.run.policy, a.rate, n_quanta, a.seed
    );
    print_churn_report(&rep)?;
    if let Some(path) = &a.out {
        dump_churn_report(&rep, path)?;
    }
    if let Some(path) = &a.trace {
        std::fs::write(path, telemetry.events_jsonl())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        println!("[trace written to {path}]");
    }
    Ok(())
}

fn parse_checkpoint_args(args: &[String]) -> Result<(String, u64, String), CliError> {
    let mut config = None;
    let mut at = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--at" => {
                at = Some(
                    value("--at")?
                        .parse::<u64>()
                        .map_err(|_| CliError::Usage("--at needs a quantum index".into()))?,
                );
            }
            "--out" => out = Some(value("--out")?),
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")));
            }
            path if config.is_none() => config = Some(path.to_string()),
            extra => {
                return Err(CliError::Usage(format!("unexpected argument '{extra}'")));
            }
        }
    }
    Ok((
        config.ok_or_else(|| CliError::Usage("checkpoint needs a config path".into()))?,
        at.ok_or_else(|| CliError::Usage("checkpoint needs --at <quantum>".into()))?,
        out.ok_or_else(|| CliError::Usage("checkpoint needs --out <path>".into()))?,
    ))
}

fn cmd_checkpoint(args: &[String]) -> Result<(), CliError> {
    let (config, at, out) = parse_checkpoint_args(args)?;
    let cfg = load(&config)?;
    if at >= cfg.seconds {
        return Err(CliError::Usage(format!(
            "--at {at} is past the run: the config spans {} quanta",
            cfg.seconds
        )));
    }
    let mut runner = cfg
        .build_runner(None, Telemetry::disabled())
        .map_err(CliError::Usage)?;
    for _ in 0..at {
        runner.run_quantum();
    }
    let ck = runner
        .checkpoint()
        .map_err(|e| CliError::Runtime(format!("cannot checkpoint: {e}")))?;
    std::fs::write(&out, ck.to_json())
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!(
        "[checkpoint of {config} at quantum {at}/{} written to {out}]",
        cfg.seconds
    );
    Ok(())
}

fn parse_resume_args(
    args: &[String],
) -> Result<(String, Option<String>, Option<String>), CliError> {
    let mut path = None;
    let mut out = None;
    let mut series_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")?),
            "--series-out" => series_out = Some(value("--series-out")?),
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")));
            }
            p if path.is_none() => path = Some(p.to_string()),
            extra => {
                return Err(CliError::Usage(format!("unexpected argument '{extra}'")));
            }
        }
    }
    Ok((
        path.ok_or_else(|| CliError::Usage("resume needs a checkpoint path".into()))?,
        out,
        series_out,
    ))
}

fn cmd_resume(args: &[String]) -> Result<(), CliError> {
    use vulcan::prelude::*;
    use vulcan::runtime::checkpoint as ck;
    let (path, out, series_out) = parse_resume_args(args)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    // Every CheckpointError — truncation, foreign format, version skew,
    // inconsistent fields — is an input problem: exit 2, never a panic.
    let v = ck::parse_checkpoint(&text).map_err(|e| CliError::Usage(e.to_string()))?;
    let name = ck::policy_name(&v).map_err(|e| CliError::Usage(e.to_string()))?;
    let kind = name
        .parse::<PolicyKind>()
        .map_err(|e| CliError::Usage(format!("checkpoint policy: {e}")))?;
    let at = ck::quantum_index(&v).map_err(|e| CliError::Usage(e.to_string()))?;
    if v.get("churn").is_some() {
        if series_out.is_some() {
            return Err(CliError::Usage(
                "--series-out is for static checkpoints; a churn resume \
                 writes its artifact with --out"
                    .into(),
            ));
        }
        let engine = vulcan_churn::ChurnEngine::restore(
            &v,
            kind.make(),
            move |_| kind.profiler(),
            vulcan_churn::Catalog::default_mix(),
        )
        .map_err(|e| CliError::Usage(e.to_string()))?;
        let rep = engine.run_remaining();
        println!("churn (resumed at quantum {at}): policy={}", rep.run.policy);
        print_churn_report(&rep)?;
        if let Some(path) = &out {
            dump_churn_report(&rep, path)?;
        }
    } else {
        if out.is_some() {
            return Err(CliError::Usage(
                "--out is the churn artifact; a static resume writes its \
                 series with --series-out"
                    .into(),
            ));
        }
        let runner = SimRunner::restore(&v, kind.make(), move |_| kind.profiler())
            .map_err(|e| CliError::Usage(e.to_string()))?;
        let res = runner.run_remaining();
        println!("[resumed at quantum {at}]");
        print!("{}", report(&res));
        if let Some(path) = &series_out {
            std::fs::write(path, res.series.to_json())
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            println!("[series written to {path}]");
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("compare needs a config path".into()))?;
    let cfg = load(path)?;
    for policy in PolicyKind::PAPER {
        let res = cfg.run(Some(policy)).map_err(CliError::Usage)?;
        print!("{}", report(&res));
        println!();
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("churn") => cmd_churn(&args[1..]),
        Some("checkpoint") => cmd_checkpoint(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("example") => {
            println!("{}", ExperimentConfig::example());
            Ok(())
        }
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(())
        }
        None => Err(CliError::Usage("missing subcommand".into())),
        Some(other) => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    };
    if let Err(e) = result {
        eprintln!("error: {}", e.message());
        if matches!(e, CliError::Usage(_)) {
            eprint!("\n{USAGE}");
        }
        std::process::exit(e.exit_code());
    }
}
