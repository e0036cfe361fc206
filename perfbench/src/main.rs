//! `vulcan-perfbench`: end-to-end and per-layer CPU-time benchmark of
//! the Vulcan simulator. See README.md beside this package.
//!
//! ```text
//! vulcan-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vulcan-perfbench repeat [--runs N] [--seed S] [--sets 1|2]
//! ```
//!
//! A run repeats one workload until `--seconds` of wall time are used,
//! one repetition after another, and prints every metric by name with
//! its unit, then one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions and reports the per-layer
//! metrics, writing the spans under `target/perfbench/`.

mod clock;
mod meter;
mod repeat;
mod report;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use clock::HostRecord;
use meter::{Meter, Rep};
use report::Metric;
use vulcan_json::{Map, Value};
use workloads::Workload;

/// Set-ups timed before each repetition, on top of the repetition's own,
/// so the set-up median rests on enough samples spread over the run.
const SETUP_SAMPLES: usize = 5;

const USAGE: &str = "usage: vulcan-perfbench --workload <paper_coloc|zipf_planes|churn_3tier> \
--seed <n> --seconds <s> --trace <0|1>
       vulcan-perfbench repeat [--runs N] [--seed S] [--sets 1|2]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("repeat") {
        repeat::main(&args[1..])
    } else {
        Run::parse(&args).map(Run::execute)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `args`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Reject flags outside `known`, and flags missing their value.
pub fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) {
            return Err(format!("unknown argument '{}'", args[i]));
        }
        if i + 1 >= args.len() {
            return Err(format!("{} needs a value", args[i]));
        }
        i += 2;
    }
    Ok(())
}

/// Parse `--flag` as a number, with a default when absent.
pub fn number<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}: '{v}' is not a valid number")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

/// One benchmark run: a workload, a seed, a time budget, a mode.
struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Run {
    fn parse(args: &[String]) -> Result<Run, String> {
        check_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
        let name = flag(args, "--workload").ok_or("--workload is required")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
        let seconds: f64 = number(args, "--seconds", None)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        let trace = match flag(args, "--trace").ok_or("--trace is required")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        };
        Ok(Run {
            workload,
            seed: number(args, "--seed", None)?,
            seconds,
            trace,
        })
    }

    fn execute(self) {
        let mut setup = Vec::new();
        let mut rep_lines = Vec::new();
        let host = HostRecord::start();
        let t0 = Instant::now();
        let (mut plain, mut traced) = (Vec::<Rep>::new(), Vec::<Rep>::new());
        loop {
            // Traced runs alternate untraced and traced repetitions so
            // drift on the host touches both alike.
            let trace_next = self.trace && plain.len() > traced.len();
            let rep_start = Instant::now();
            setup.extend((0..SETUP_SAMPLES).map(|_| self.workload.setup_ns(self.seed)));
            let mut meter = Meter::new(trace_next);
            self.workload.run(self.seed, &mut meter);
            let rep_s = rep_start.elapsed().as_secs_f64();
            rep_lines.push(format!(
                "  rep {}{}: cpu {:.4} s, wall {rep_s:.4} s",
                plain.len() + traced.len(),
                if trace_next { " (traced)" } else { "" },
                meter.rep.cpu_ns() as f64 * 1e-9
            ));
            if trace_next {
                traced.push(meter.rep);
            } else {
                plain.push(meter.rep);
            }
            let pair_done = !self.trace || plain.len() == traced.len();
            let next_s = if self.trace { 2.0 * rep_s } else { rep_s };
            if pair_done && t0.elapsed().as_secs_f64() + next_s > self.seconds {
                break;
            }
        }
        let noise = host.stop();

        let mut attempted = 0;
        let mut failed = 0;
        for r in plain.iter().chain(&traced) {
            attempted += r.attempted;
            failed += r.failed;
        }
        // Every repetition of a seed must simulate the same thing, traced
        // or not.
        let digest = plain[0].digest;
        for r in plain.iter().chain(&traced).skip(1) {
            attempted += 1;
            if r.digest != digest {
                failed += 1;
                let kind = if r.traced { "traced" } else { "untraced" };
                eprintln!(
                    "check failed: {kind} repetition digest {} differs from {}",
                    r.digest.hex(),
                    digest.hex()
                );
            }
        }

        let metrics = if self.trace {
            report::per_layer(&traced, &plain, &noise)
        } else {
            report::end_to_end(&plain, &setup)
        };
        let name = self.workload.name();
        println!(
            "{name} seed {} trace {}: {} untraced + {} traced repetitions in {:.2} s",
            self.seed,
            u8::from(self.trace),
            plain.len(),
            traced.len(),
            noise.wall_s
        );
        println!("  digest {}", digest.hex());
        for line in &rep_lines {
            println!("{line}");
        }
        for Metric { name, value, unit } in &metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        println!(
            "  host: wall {:.3} s, steal {:.2} s, run-queue wait {:.4} s, {} cpus",
            noise.wall_s, noise.steal_s, noise.runq_wait_s, noise.cpus
        );
        println!("  checks: {attempted} attempted, {failed} failed");
        if self.trace {
            write_spans(name, self.seed, &traced);
        }

        let mut json = Map::new();
        for Metric { name, value, unit } in metrics {
            json.insert(name, Map::new().with("value", value).with("unit", unit));
        }
        let line = Map::new()
            .with("correct", failed == 0)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", json);
        println!("{}", Value::Object(line).to_json());
    }
}

/// Write the traced repetitions' spans; a failure costs only the file.
fn write_spans(workload: &str, seed: u64, traced: &[Rep]) {
    let dir = std::path::Path::new("target/perfbench");
    let path = dir.join(format!("spans-{workload}-s{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, report::spans_jsonl(workload, seed, traced)));
    match written {
        Ok(()) => println!("  spans: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
