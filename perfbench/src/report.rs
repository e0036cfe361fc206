//! Order statistics and the metrics a run reports.

use crate::clock::HostNoise;
use crate::meter::{ReadSample, Rep, Span, WriteSample};

/// Linear-interpolated percentile `p` ∈ [0, 100] of unsorted samples;
/// 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs two
/// samples or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

const MS: f64 = 1e6;

/// The percentile over a run's repetitions at which a per-repetition
/// time is reported. On a shared host the same work runs at the speed of
/// a core whose other hardware thread is busy, with stretches, present in
/// some runs and not in others, where it runs up to 1.45 times faster.
/// The busy speed bounds a repetition's time from above, so an upper
/// percentile lands on it in nearly every run, where the median moves
/// with the share of fast stretches (README.md, "Clock").
const REP_PERCENTILE: f64 = 90.0;

/// A per-repetition figure at [`REP_PERCENTILE`] over repetitions.
fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    percentile(&reps.iter().map(f).collect::<Vec<_>>(), REP_PERCENTILE)
}

/// Percentile `p` of each repetition's samples, at [`REP_PERCENTILE`]
/// over repetitions.
fn per_rep_pct(reps: &[Rep], p: f64, samples: impl Fn(&Rep) -> Vec<f64>) -> f64 {
    per_rep(reps, |r| percentile(&samples(r), p))
}

fn steps(r: &Rep) -> Vec<f64> {
    r.steps.iter().map(|s| s.cpu_ns as f64).collect()
}

fn part(i: usize) -> impl Fn(&Rep) -> Vec<f64> {
    move |r| r.steps.iter().map(|s| s.split[i] as f64).collect()
}

fn writes(f: impl Fn(&WriteSample) -> u64) -> impl Fn(&Rep) -> Vec<f64> {
    move |r| r.writes.iter().map(|w| f(w) as f64).collect()
}

fn reads(f: impl Fn(&ReadSample) -> u64) -> impl Fn(&Rep) -> Vec<f64> {
    move |r| r.reads.iter().map(|x| f(x) as f64).collect()
}

/// The end-to-end metrics, from untraced repetitions. Each time is taken
/// per repetition (a total, or a percentile of that repetition's steps or
/// probes) and reported at [`REP_PERCENTILE`] over repetitions; set-up is
/// the median of every build timed in the run.
pub fn end_to_end(reps: &[Rep], setup_ns: &[u64]) -> Vec<Metric> {
    let setup: Vec<f64> = setup_ns
        .iter()
        .chain(reps.iter().map(|r| &r.setup_ns))
        .map(|&ns| ns as f64)
        .collect();
    vec![
        m("setup_s", median(&setup) / 1e9, "s"),
        m("cpu_s", per_rep(reps, |r| r.cpu_ns() as f64) / 1e9, "s"),
        // Every repetition makes the same accesses.
        m(
            "sim_macc_per_s",
            reps[0].counts.accesses as f64 / per_rep(reps, |r| r.step_ns() as f64) * 1e3,
            "Macc/s",
        ),
        m("quantum_ms_p50", per_rep_pct(reps, 50.0, steps) / MS, "ms"),
        m("quantum_ms_p95", per_rep_pct(reps, 95.0, steps) / MS, "ms"),
        // The first repetition's: later ones would include its probes.
        m("peak_rss_mb", reps[0].peak_rss_mib, "MiB"),
        m(
            "checkpoint_ms",
            per_rep_pct(reps, 50.0, writes(|w| w.snapshot_ns + w.serialize_ns)) / MS,
            "ms",
        ),
        m(
            "restore_ms",
            per_rep_pct(reps, 50.0, reads(|x| x.parse_ns + x.rebuild_ns)) / MS,
            "ms",
        ),
    ]
}

/// The per-layer metrics, from traced repetitions, reduced like the
/// end-to-end ones; `plain` gives the untraced CPU time the tracing
/// overhead is measured against.
pub fn per_layer(traced: &[Rep], plain: &[Rep], host: &HostNoise) -> Vec<Metric> {
    // Simulated counts repeat exactly for a seed; any repetition will do.
    let first = &traced[0];
    let c = &first.counts;
    let moved: u64 = first.steps.iter().map(|s| s.moved).sum();
    let bytes: u64 = first.reads.iter().map(|x| x.bytes).sum();
    let churn = first.churn.clone().unwrap_or_default();
    let mig = &c.migrations;
    let cpu_ratio = per_rep(traced, |r| r.cpu_ns() as f64) / per_rep(plain, |r| r.cpu_ns() as f64);
    let sum_ns = |i: usize| per_rep(traced, |r| part(i)(r).iter().sum());
    let count = |name, v: u64| m(name, v as f64, "count");
    vec![
        m("execute.cpu_ms", sum_ns(0) / MS, "ms"),
        m(
            "execute.cpu_ms_p50",
            per_rep_pct(traced, 50.0, part(0)) / MS,
            "ms",
        ),
        m(
            "execute.ns_per_access",
            sum_ns(0) / c.accesses.max(1) as f64,
            "ns",
        ),
        m("decide.cpu_ms", sum_ns(1) / MS, "ms"),
        m(
            "decide.cpu_ms_p50",
            per_rep_pct(traced, 50.0, part(1)) / MS,
            "ms",
        ),
        m(
            "decide.cpu_ms_p95",
            per_rep_pct(traced, 95.0, part(1)) / MS,
            "ms",
        ),
        m(
            "decide.us_per_page",
            sum_ns(1) / 1e3 / moved.max(1) as f64,
            "us",
        ),
        m("account.cpu_ms", sum_ns(2) / MS, "ms"),
        m(
            "account.cpu_ms_p50",
            per_rep_pct(traced, 50.0, part(2)) / MS,
            "ms",
        ),
        m(
            "finish.cpu_ms",
            per_rep(traced, |r| r.finish_ns as f64) / MS,
            "ms",
        ),
        count("churn.arrivals", churn.arrivals),
        count("churn.spawned", churn.spawned()),
        count("churn.departed", churn.departed),
        count("churn.queued", churn.queued),
        count("churn.rejected", churn.rejected),
        count("churn.compaction_rounds", churn.compaction_rounds),
        count("churn.shadows_reclaimed", churn.shadows_reclaimed),
        count("churn.compaction_promoted", churn.compaction_promoted),
        m(
            "ckpt.snapshot_ms_p50",
            per_rep_pct(traced, 50.0, writes(|w| w.snapshot_ns)) / MS,
            "ms",
        ),
        m(
            "ckpt.serialize_ms_p50",
            per_rep_pct(traced, 50.0, writes(|w| w.serialize_ns)) / MS,
            "ms",
        ),
        m(
            "ckpt.parse_ms_p50",
            per_rep_pct(traced, 50.0, reads(|x| x.parse_ns)) / MS,
            "ms",
        ),
        m(
            "ckpt.rebuild_ms_p50",
            per_rep_pct(traced, 50.0, reads(|x| x.rebuild_ns)) / MS,
            "ms",
        ),
        m(
            "ckpt.bytes_p50",
            percentile(&reads(|x| x.bytes)(first), 50.0),
            "bytes",
        ),
        m(
            "ckpt.parse_ns_per_byte",
            per_rep(traced, |r| reads(|x| x.parse_ns)(r).iter().sum()) / bytes.max(1) as f64,
            "ns/byte",
        ),
        count("sim.accesses", c.accesses),
        count("sim.ops", c.ops),
        m(
            "sim.fast_hit_ratio",
            c.fast_hits as f64 / c.accesses.max(1) as f64,
            "ratio",
        ),
        count("migrate.promoted", mig.promoted),
        count("migrate.demoted", mig.demoted),
        count("migrate.async_committed", mig.async_committed),
        count("migrate.async_aborted", mig.async_aborted),
        m(
            "migrate.async_commit_ratio",
            mig.async_committed as f64 / (mig.async_committed + mig.async_aborted).max(1) as f64,
            "ratio",
        ),
        m(
            "migrate.stall_mcycles",
            c.stall_cycles as f64 / 1e6,
            "Mcycles",
        ),
        m(
            "profile.daemon_mcycles",
            c.daemon_cycles as f64 / 1e6,
            "Mcycles",
        ),
        count("vm.major_faults", c.major_faults),
        count("vm.hint_faults", c.hint_faults),
        count("vm.replication_faults", c.replication_faults),
        m("host.wall_s", host.wall_s, "s"),
        m("host.runq_wait_s", host.runq_wait_s, "s"),
        count("host.cpus", host.cpus as u64),
        m("trace.overhead_pct", (cpu_ratio - 1.0) * 100.0, "%"),
    ]
}

/// Spans of every traced repetition as JSON lines.
pub fn spans_jsonl(workload: &str, seed: u64, traced: &[Rep]) -> String {
    use vulcan_json::{Map, Value};
    let mut out = String::new();
    for (rep, r) in traced.iter().enumerate() {
        for s in &r.spans {
            let Span {
                name,
                id,
                start_ns,
                end_ns,
            } = *s;
            let line = Map::new()
                .with("workload", workload)
                .with("seed", seed)
                .with("rep", rep as u64)
                .with("name", name)
                .with("id", id)
                .with("parent", s.parent())
                .with("start_ns", start_ns)
                .with("end_ns", end_ns);
            out.push_str(&Value::Object(line).to_json());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn times_are_reported_at_the_upper_percentile_of_repetitions() {
        use crate::meter::StepSample;
        let rep = |ns: [u64; 3]| Rep {
            steps: ns
                .iter()
                .map(|&cpu_ns| StepSample {
                    cpu_ns,
                    ..StepSample::default()
                })
                .collect(),
            ..Rep::default()
        };
        // Step totals 18, 14, 16: the 90th percentile interpolates between
        // the two largest.
        let reps = [rep([5, 9, 4]), rep([7, 3, 4]), rep([6, 8, 2])];
        assert_eq!(per_rep(&reps, |r| r.step_ns() as f64), 17.6);
        // Per-repetition medians 5, 4, 6.
        assert_eq!(per_rep_pct(&reps, 50.0, steps), 5.8);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
