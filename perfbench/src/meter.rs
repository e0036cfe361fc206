//! Timing of the calls the benchmark makes into the simulator, plus the
//! delegating policy that splits each step at the policy call.
//!
//! A [`Meter`] records one repetition of a workload. Every call into the
//! public API goes through it and is timed on the thread CPU clock:
//! steps (`SimRunner::run_quantum`, `ChurnEngine::step`), checkpoint
//! writes and reads, and the end-of-run teardown. In a traced
//! repetition the policy is wrapped in a [`Delegate`], so each step
//! splits from outside into three parts:
//!
//! - **execute**: step entry to the policy call (admission, the access
//!   sweep, profiling; on churn also the event drain);
//! - **decide**: the policy call itself, with the migrations it issues;
//! - **account**: policy return to step exit (recount, planes, series,
//!   CFI; on churn also the fairness window).
//!
//! Spans stay in memory and are written out when the run ends.

use std::cell::RefCell;
use std::rc::Rc;

use vulcan::runtime::{MigrationCounts, QuantumOutcome, RunResult, SystemState, TieringPolicy};
use vulcan::sim::TierKind;
use vulcan_churn::ChurnEngine;
use vulcan_json::Value;

use crate::clock::thread_cpu_ns;

/// FNV-1a over the simulated results of a repetition. Equal digests
/// mean the simulation did the same work; timings never enter it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in one integer.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in one float, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// Fold in a step outcome.
    pub fn outcome(&mut self, o: &QuantumOutcome) {
        self.u64(o.quantum_index);
        self.u64(o.ended_at.0);
        self.migrations(&o.migrations);
        self.u64(o.fast_free);
        self.u64(o.fast_capacity);
        for w in &o.workloads {
            self.u64(u64::from(w.live));
            self.u64(w.ops);
            self.u64(w.fast_hits);
            self.u64(w.slow_hits);
            self.f64(w.mean_latency_ns);
            self.f64(w.ops_per_sec);
            self.f64(w.fthr);
            self.f64(w.hot_ratio);
            self.u64(w.stall.0);
        }
    }

    fn migrations(&mut self, m: &MigrationCounts) {
        self.u64(m.promoted);
        self.u64(m.demoted);
        self.u64(m.async_committed);
        self.u64(m.async_aborted);
    }

    /// Fold in a run summary.
    pub fn result(&mut self, r: &RunResult) {
        self.str(&r.policy);
        self.f64(r.cfi);
        for w in &r.per_workload {
            self.str(&w.name);
            self.u64(w.ops_total);
            self.f64(w.mean_ops_per_sec);
            self.f64(w.mean_latency_ns);
            self.f64(w.mean_fthr);
            self.f64(w.mean_hot_ratio);
            self.f64(w.mean_read_gbps);
            self.f64(w.mean_write_gbps);
            self.u64(w.stall_cycles.0);
            self.u64(w.replication_overhead_bytes);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What the delegating policy saw in one step, read after the policy
/// ran and before the account phase rolls the per-quantum counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StateSample {
    /// Demand accesses this quantum (fast + slow hits).
    pub accesses: u64,
    /// Of those, fast-tier hits.
    pub fast_hits: u64,
    /// Operations completed this quantum.
    pub ops: u64,
    /// Pages moved so far this quantum, by mechanism and direction.
    pub migrations: MigrationCounts,
    /// Digest of the per-tenant counters after the decision.
    pub digest: Digest,
}

impl StateSample {
    fn of(st: &SystemState) -> StateSample {
        let mut s = StateSample {
            migrations: st.migrations_q,
            ..StateSample::default()
        };
        s.digest.migrations(&st.migrations_q);
        s.digest.u64(st.fast_free());
        // Churn keeps every departed tenant's slot; only live ones change.
        for (i, w) in st.workloads.iter().enumerate() {
            if !w.started || w.departed {
                continue;
            }
            let c = &w.stats;
            s.accesses += c.fast_q + c.slow_q;
            s.fast_hits += c.fast_q;
            s.ops += c.ops_q;
            for v in [
                i as u64,
                c.fast_q,
                c.slow_q,
                c.ops_q,
                c.stall_q.0,
                c.fast_used,
                c.fthr.to_bits(),
                w.quota.unwrap_or(u64::MAX),
            ] {
                s.digest.u64(v);
            }
        }
        s
    }
}

/// Marks the delegate leaves for the step that is running.
#[derive(Debug, Default)]
struct Probe {
    /// Read the clock around the policy (traced repetitions only).
    timed: bool,
    /// `on_quantum` calls since the step began (exactly one per step).
    calls: u64,
    /// CPU spent in `on_start` since the step began.
    start_ns: u64,
    /// Thread CPU clock at `on_quantum` entry and exit.
    enter_ns: u64,
    exit_ns: u64,
    sample: StateSample,
}

/// A `TieringPolicy` that forwards every call to the wrapped policy and
/// notes, around `on_quantum`, the CPU clock and the public counters.
pub struct Delegate {
    inner: Box<dyn TieringPolicy>,
    probe: Rc<RefCell<Probe>>,
}

impl TieringPolicy for Delegate {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, state: &mut SystemState) {
        let timed = self.probe.borrow().timed;
        let t0 = if timed { thread_cpu_ns() } else { 0 };
        self.inner.on_start(state);
        if timed {
            self.probe.borrow_mut().start_ns += thread_cpu_ns() - t0;
        }
    }

    fn on_quantum(&mut self, state: &mut SystemState) {
        let timed = self.probe.borrow().timed;
        let enter = if timed { thread_cpu_ns() } else { 0 };
        self.inner.on_quantum(state);
        let exit = if timed { thread_cpu_ns() } else { 0 };
        let mut p = self.probe.borrow_mut();
        p.calls += 1;
        p.enter_ns = enter;
        p.exit_ns = exit;
        p.sample = StateSample::of(state);
    }

    fn snapshot_state(&self) -> Result<Value, String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), String> {
        self.inner.restore_state(v)
    }
}

/// One timed step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepSample {
    /// CPU time of the whole call.
    pub cpu_ns: u64,
    /// Execute, decide and account CPU time (traced repetitions only).
    pub split: [u64; 3],
    /// Pages the step moved (promoted, demoted or committed).
    pub moved: u64,
}

/// One checkpoint write: `checkpoint` then `Value::to_json`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteSample {
    pub snapshot_ns: u64,
    pub serialize_ns: u64,
}

/// One checkpoint read: `parse_checkpoint` then `restore`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadSample {
    pub parse_ns: u64,
    pub rebuild_ns: u64,
    pub bytes: u64,
}

/// Simulated counters of a repetition. They repeat exactly for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub accesses: u64,
    pub fast_hits: u64,
    pub ops: u64,
    pub migrations: MigrationCounts,
    pub stall_cycles: u64,
    pub daemon_cycles: u64,
    pub major_faults: u64,
    pub hint_faults: u64,
    pub replication_faults: u64,
}

impl Counts {
    fn add_migrations(&mut self, m: &MigrationCounts) {
        self.migrations.promoted += m.promoted;
        self.migrations.demoted += m.demoted;
        self.migrations.async_committed += m.async_committed;
        self.migrations.async_aborted += m.async_aborted;
    }
}

/// Cumulative per-tenant `WorkloadStats` counters of one runner.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatTotals([u64; 5]);

impl StatTotals {
    /// Sum the cumulative counters over every tenant slot.
    pub fn of(st: &SystemState) -> StatTotals {
        let mut t = [0u64; 5];
        for w in &st.workloads {
            let s = &w.stats;
            for (acc, v) in t.iter_mut().zip([
                s.stall_cycles.0,
                s.daemon_cycles.0,
                s.major_faults,
                s.hint_faults,
                s.replication_faults,
            ]) {
                *acc += v;
            }
        }
        StatTotals(t)
    }
}

/// A span: one timed region, named after its layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Quantum index for step parts, probe number for checkpoint parts.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The span this one is a part of.
    pub fn parent(&self) -> Option<&'static str> {
        match self.name {
            "execute" | "decide" | "account" => Some("step"),
            "ckpt.snapshot" | "ckpt.serialize" => Some("write"),
            "ckpt.parse" | "ckpt.rebuild" => Some("read"),
            _ => None,
        }
    }
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub traced: bool,
    pub setup_ns: u64,
    pub steps: Vec<StepSample>,
    /// The checkpoint probes, which stay out of [`cpu_ns`](Rep::cpu_ns).
    pub writes: Vec<WriteSample>,
    pub reads: Vec<ReadSample>,
    /// `VmHWM` of the process when the repetition's own work ended,
    /// before any probe, in MiB.
    pub peak_rss_mib: f64,
    /// CPU time of the end-of-run calls (teardown, audit, summary).
    pub finish_ns: u64,
    pub counts: Counts,
    pub churn: Option<vulcan_churn::ChurnStats>,
    pub digest: Digest,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Rep {
    /// CPU time of the workload's own timed calls: its steps and the end
    /// of the run.
    pub fn cpu_ns(&self) -> u64 {
        self.step_ns() + self.finish_ns
    }

    /// CPU time spent inside steps.
    pub fn step_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.cpu_ns).sum()
    }
}

/// Records one repetition.
pub struct Meter {
    probe: Rc<RefCell<Probe>>,
    pub rep: Rep,
}

impl Meter {
    /// A meter for one repetition; `traced` splits steps and keeps spans.
    pub fn new(traced: bool) -> Meter {
        Meter {
            probe: Rc::new(RefCell::new(Probe {
                timed: traced,
                ..Probe::default()
            })),
            rep: Rep {
                traced,
                ..Rep::default()
            },
        }
    }

    fn traced(&self) -> bool {
        self.rep.traced
    }

    /// The policy to hand a runner: wrapped in a traced repetition,
    /// untouched otherwise.
    pub fn policy(&self, inner: Box<dyn TieringPolicy>) -> Box<dyn TieringPolicy> {
        if self.traced() {
            self.delegate(inner)
        } else {
            inner
        }
    }

    /// The policy wrapped in every repetition. Churn steps return no
    /// outcome, so their counters can only be read through the policy
    /// call; untraced, the wrapper reads no clock.
    pub fn delegate(&self, inner: Box<dyn TieringPolicy>) -> Box<dyn TieringPolicy> {
        Box::new(Delegate {
            inner,
            probe: Rc::clone(&self.probe),
        })
    }

    /// Time one call, keeping a span in a traced repetition.
    pub fn timed<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = thread_cpu_ns();
        let out = f();
        let t1 = thread_cpu_ns();
        self.span(name, id, t0, t1);
        (out, t1 - t0)
    }

    fn span(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.traced() {
            self.rep.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns,
            });
        }
    }

    /// Count one correctness check; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.rep.attempted += 1;
        if !ok {
            self.rep.failed += 1;
            eprintln!("check failed: {what}: {}", detail());
        }
    }

    /// Time one `SimRunner::run_quantum`.
    pub fn quantum(&mut self, runner: &mut vulcan::runtime::SimRunner) -> QuantumOutcome {
        self.begin_step();
        let t0 = thread_cpu_ns();
        let out = runner.run_quantum();
        let t1 = thread_cpu_ns();
        let accesses: u64 = out
            .workloads
            .iter()
            .map(|w| w.fast_hits + w.slow_hits)
            .sum();
        let c = &mut self.rep.counts;
        c.accesses += accesses;
        c.fast_hits += out.workloads.iter().map(|w| w.fast_hits).sum::<u64>();
        c.ops += out.workloads.iter().map(|w| w.ops).sum::<u64>();
        c.add_migrations(&out.migrations);
        self.rep.digest.outcome(&out);
        let moved = moved(&out.migrations);
        self.end_step(out.quantum_index, t0, t1, moved);
        out
    }

    /// Time one `ChurnEngine::step`; the engine's policy must be a
    /// [`delegate`](Self::delegate) of this meter.
    pub fn churn_step(&mut self, engine: &mut ChurnEngine) {
        self.begin_step();
        let t0 = thread_cpu_ns();
        engine.step();
        let t1 = thread_cpu_ns();
        let sample = self.probe.borrow().sample;
        let c = &mut self.rep.counts;
        c.accesses += sample.accesses;
        c.fast_hits += sample.fast_hits;
        c.ops += sample.ops;
        c.add_migrations(&sample.migrations);
        self.rep.digest.u64(sample.digest.0);
        let index = engine.runner().state.quantum_index - 1;
        self.end_step(index, t0, t1, moved(&sample.migrations));
    }

    fn begin_step(&mut self) {
        let mut p = self.probe.borrow_mut();
        p.calls = 0;
        p.start_ns = 0;
    }

    fn end_step(&mut self, id: u64, t0: u64, t1: u64, moved: u64) {
        let mut split = [0; 3];
        if self.traced() {
            let (enter, exit, start_ns, calls) = {
                let p = self.probe.borrow();
                (p.enter_ns, p.exit_ns, p.start_ns, p.calls)
            };
            assert_eq!(calls, 1, "a traced step must call its wrapped policy once");
            split = [enter - t0 - start_ns, exit - enter + start_ns, t1 - exit];
            self.span("step", id, t0, t1);
            self.span("execute", id, t0, enter);
            self.span("decide", id, enter, exit);
            self.span("account", id, exit, t1);
        }
        self.rep.steps.push(StepSample {
            cpu_ns: t1 - t0,
            split,
            moved,
        });
    }

    /// Add the `WorkloadStats` counters a runner accumulated since `base`.
    pub fn absorb(&mut self, base: StatTotals, st: &SystemState) {
        let now = StatTotals::of(st);
        let d: Vec<u64> = now.0.iter().zip(base.0).map(|(a, b)| a - b).collect();
        let c = &mut self.rep.counts;
        c.stall_cycles += d[0];
        c.daemon_cycles += d[1];
        c.major_faults += d[2];
        c.hint_faults += d[3];
        c.replication_faults += d[4];
    }

    /// Time the set-up call `build`.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let (built, ns) = self.timed("setup", 0, build);
        self.rep.setup_ns = ns;
        built
    }

    /// Time the end of a runner's life, after adding the counters it
    /// gathered since `base`: tear every tenant down, audit every chain
    /// tier, summarize. Returns the summary and the frames still in use,
    /// which must be zero.
    pub fn finish(
        &mut self,
        id: u64,
        base: StatTotals,
        mut runner: vulcan::runtime::SimRunner,
    ) -> (RunResult, u64) {
        self.absorb(base, &runner.state);
        let ((result, leaked), ns) = self.timed("finish", id, || {
            let st = &mut runner.state;
            for w in 0..st.n_workloads() {
                if !st.workloads[w].departed {
                    st.teardown(w);
                }
            }
            let leaked = used_frames(st);
            (runner.into_result(), leaked)
        });
        self.rep.finish_ns += ns;
        self.rep.digest.result(&result);
        (result, leaked)
    }
}

/// Pages a quantum moved between tiers.
fn moved(m: &MigrationCounts) -> u64 {
    m.promoted + m.demoted + m.async_committed
}

/// Frames in use on every tier of the machine's chain.
pub fn used_frames(st: &SystemState) -> u64 {
    let chain: &[TierKind] = st.machine.spec().chain();
    chain
        .iter()
        .map(|&t| st.machine.allocator(t).used_frames())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan::prelude::*;
    use vulcan::runtime::checkpoint::parse_checkpoint;
    use vulcan::runtime::{CheckpointError, SimRunner};
    use vulcan_churn::{Catalog, ChurnConfig};

    fn cell(seed: u64, policy: Box<dyn TieringPolicy>) -> SimRunner {
        let tenant = |name: &str, skew: f64| {
            microbench(
                name,
                MicroConfig {
                    rss_pages: 512,
                    wss_pages: 192,
                    skew,
                    ..MicroConfig::default()
                },
                2,
            )
        };
        let mut lc = tenant("lc", 1.1);
        lc.class = WorkloadClass::LatencyCritical;
        SimRunner::builder()
            .machine(MachineSpec::small(256, 4_096, 8))
            .workloads(vec![
                lc,
                tenant("be", 0.8),
                tenant("late", 0.9).starting_at(Nanos::secs(3)),
            ])
            .profiler_factory(|_| PolicyKind::Vulcan.profiler())
            .policy(policy)
            .config(SimConfig {
                n_quanta: 10,
                seed,
                quantum_active: Nanos::micros(200),
                ..SimConfig::default()
            })
            .build()
    }

    /// Every outcome plus the summary, as text.
    fn run_cell(mut runner: SimRunner) -> String {
        let mut out = String::new();
        while runner.state.quantum_index < runner.n_quanta() {
            out += &format!("{:?}\n", runner.run_quantum());
        }
        let r = runner.into_result();
        out + &format!(
            "{:?} {:?} {}",
            r.per_workload,
            r.cfi,
            r.series.to_value().to_json()
        )
    }

    fn churn_report(seed: u64, policy: Box<dyn TieringPolicy>) -> String {
        let runner = SimRunner::builder()
            .machine(MachineSpec::small3(512, 1_024, 4_096, 8))
            .workloads(vec![])
            .profiler_factory(|_| PolicyKind::Vulcan.profiler())
            .policy(policy)
            .config(SimConfig {
                seed,
                quantum_active: Nanos::micros(200),
                ..SimConfig::default()
            })
            .build();
        let cfg = ChurnConfig {
            arrival_rate_per_sec: 4.0,
            n_quanta: 12,
            ..ChurnConfig::default()
        };
        let report = ChurnEngine::new(runner, seed, cfg, Catalog::default_mix()).run();
        format!(
            "{:?} {:?} {:?} {:?}",
            report.stats, report.leaked_by_tier, report.windows, report.run.per_workload
        )
    }

    #[test]
    fn delegate_leaves_a_cell_unchanged() {
        // Uniform is the policy that acts in `on_start`.
        for kind in [PolicyKind::Vulcan, PolicyKind::Uniform] {
            for seed in [3, 11] {
                let meter = Meter::new(true);
                let plain = run_cell(cell(seed, kind.make()));
                let wrapped = run_cell(cell(seed, meter.delegate(kind.make())));
                assert_eq!(plain, wrapped, "{kind} seed {seed}");
            }
        }
    }

    #[test]
    fn delegate_leaves_a_churn_cell_unchanged() {
        for seed in [3, 11] {
            let meter = Meter::new(true);
            let plain = churn_report(seed, PolicyKind::Vulcan.make());
            let wrapped = churn_report(seed, meter.delegate(PolicyKind::Vulcan.make()));
            assert_eq!(plain, wrapped, "seed {seed}");
        }
    }

    #[test]
    fn checkpoint_restores_through_a_delegate() {
        let meter = Meter::new(true);
        let mut origin = cell(5, meter.delegate(PolicyKind::Vulcan.make()));
        for _ in 0..4 {
            origin.run_quantum();
        }
        let text = origin.checkpoint().expect("checkpoint").to_json();
        let v = parse_checkpoint(&text).expect("parse");
        // The delegate reports the wrapped policy's name, so the restore
        // accepts it, and replays the wrapped policy's state.
        let copy = SimRunner::restore(&v, meter.delegate(PolicyKind::Vulcan.make()), |_| {
            PolicyKind::Vulcan.profiler()
        })
        .expect("restore through a delegate");
        let rewritten = copy.checkpoint().expect("checkpoint of the copy").to_json();
        assert!(rewritten == text, "the policy state did not round-trip");
        assert_eq!(run_cell(copy), run_cell(origin));
        let wrong = SimRunner::restore(&v, meter.delegate(PolicyKind::Memtis.make()), |_| {
            PolicyKind::Memtis.profiler()
        });
        assert!(matches!(wrong, Err(CheckpointError::PolicyMismatch { .. })));
    }

    #[test]
    fn probes_stay_out_of_cpu_time() {
        let rep = Rep {
            steps: vec![StepSample {
                cpu_ns: 5,
                ..StepSample::default()
            }],
            writes: vec![WriteSample {
                snapshot_ns: 1,
                serialize_ns: 2,
            }],
            reads: vec![ReadSample {
                parse_ns: 3,
                rebuild_ns: 4,
                bytes: 100,
            }],
            finish_ns: 6,
            ..Rep::default()
        };
        assert_eq!(rep.step_ns(), 5);
        assert_eq!(rep.cpu_ns(), 11);
    }

    #[test]
    fn traced_steps_split_into_their_three_parts() {
        let mut meter = Meter::new(true);
        let mut runner = cell(7, meter.policy(PolicyKind::Vulcan.make()));
        for _ in 0..4 {
            meter.quantum(&mut runner);
        }
        assert_eq!(meter.rep.steps.len(), 4);
        for s in &meter.rep.steps {
            assert_eq!(s.split.iter().sum::<u64>(), s.cpu_ns);
        }
        assert_eq!(meter.rep.spans.len(), 16, "step, execute, decide, account");

        let mut plain = Meter::new(false);
        let mut runner = cell(7, plain.policy(PolicyKind::Vulcan.make()));
        plain.quantum(&mut runner);
        assert_eq!(plain.rep.steps[0].split, [0; 3]);
        assert!(plain.rep.spans.is_empty());
    }
}
