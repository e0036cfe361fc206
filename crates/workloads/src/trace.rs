//! Access-trace recording and replay.
//!
//! Any generator's access stream can be captured into a [`Trace`] —
//! serializable, diffable, shareable — and replayed deterministically
//! through the same [`AccessGen`] interface. Replay makes experiments
//! reproducible across generator changes and lets externally produced
//! traces (converted to the JSON schema) drive the simulator.

use crate::gen::{AccessGen, PageAccess};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use vulcan_json::{Map, Value};
use vulcan_sim::Nanos;

/// One recorded operation: the accesses a thread issued for one op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Thread that issued the op.
    pub tid: u32,
    /// `(page offset, is_write)` pairs, in issue order.
    pub accesses: Vec<(u64, bool)>,
}

/// A recorded access trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// RSS of the recorded workload, in pages.
    pub rss_pages: u64,
    /// Off-memory time per op, in nanoseconds.
    pub fixed_op_nanos: u64,
    /// Worker threads of the recorded workload.
    pub n_threads: usize,
    /// Operations, in global record order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Record `ops_per_thread` operations per thread from `gen`,
    /// round-robin across `n_threads`, using a deterministic RNG.
    pub fn record(
        gen: &mut dyn AccessGen,
        n_threads: usize,
        ops_per_thread: usize,
        seed: u64,
    ) -> Trace {
        assert!(n_threads > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(n_threads * ops_per_thread);
        let mut buf = Vec::new();
        for i in 0..n_threads * ops_per_thread {
            let tid = i % n_threads;
            buf.clear();
            gen.next_op(tid, &mut rng, &mut buf);
            ops.push(TraceOp {
                tid: tid as u32,
                accesses: buf.iter().map(|a| (a.offset, a.write)).collect(),
            });
        }
        Trace {
            rss_pages: gen.rss_pages(),
            fixed_op_nanos: gen.fixed_op_nanos().0,
            n_threads,
            ops,
        }
    }

    /// Serialize as a JSON value:
    /// `{"rss_pages": N, "fixed_op_nanos": N, "n_threads": N,
    ///   "ops": [{"tid": N, "accesses": [[offset, write], ...]}, ...]}`.
    pub fn to_value(&self) -> Value {
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|op| {
                Value::Object(
                    Map::new()
                        .with("tid", op.tid)
                        .with("accesses", vulcan_json::pairs_to_value(&op.accesses)),
                )
            })
            .collect();
        Value::Object(
            Map::new()
                .with("rss_pages", self.rss_pages)
                .with("fixed_op_nanos", self.fixed_op_nanos)
                .with("n_threads", self.n_threads)
                .with("ops", ops),
        )
    }

    /// Serialize as JSON text (see [`to_value`](Self::to_value)).
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let v = vulcan_json::parse(text).map_err(|e| format!("trace parse error: {e}"))?;
        Self::from_value(&v)
    }

    /// Parse from a JSON value (see [`to_value`](Self::to_value)).
    pub fn from_value(v: &Value) -> Result<Trace, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("trace missing numeric \"{name}\""))
        };
        let mut ops = Vec::new();
        for (i, op) in v
            .get("ops")
            .and_then(Value::as_array)
            .ok_or("trace missing \"ops\"")?
            .iter()
            .enumerate()
        {
            let tid = op
                .get("tid")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("op {i}: missing \"tid\""))? as u32;
            let mut accesses = Vec::new();
            for a in op
                .get("accesses")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("op {i}: missing \"accesses\""))?
            {
                match a.as_array() {
                    Some([offset, write]) => accesses.push((
                        offset
                            .as_u64()
                            .ok_or_else(|| format!("op {i}: non-numeric offset"))?,
                        write
                            .as_bool()
                            .ok_or_else(|| format!("op {i}: non-boolean write flag"))?,
                    )),
                    _ => return Err(format!("op {i}: access is not an [offset, write] pair")),
                }
            }
            ops.push(TraceOp { tid, accesses });
        }
        let t = Trace {
            rss_pages: field("rss_pages")?,
            fixed_op_nanos: field("fixed_op_nanos")?,
            n_threads: field("n_threads")? as usize,
            ops,
        };
        t.validate()?;
        Ok(t)
    }

    /// Check internal consistency (offsets in range, threads in range).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_threads == 0 {
            return Err("trace needs at least one thread".into());
        }
        for (i, op) in self.ops.iter().enumerate() {
            if op.tid as usize >= self.n_threads {
                return Err(format!("op {i}: tid {} out of range", op.tid));
            }
            for &(offset, _) in &op.accesses {
                if offset >= self.rss_pages {
                    return Err(format!("op {i}: offset {offset} outside RSS"));
                }
            }
        }
        Ok(())
    }

    /// Total accesses recorded.
    pub fn n_accesses(&self) -> usize {
        self.ops.iter().map(|o| o.accesses.len()).sum()
    }
}

/// Replays a [`Trace`] through the [`AccessGen`] interface. Each thread
/// cycles through its own recorded ops (wrapping when exhausted), so the
/// replayed stream is stationary and runs for any duration.
#[derive(Clone, Debug)]
pub struct TraceReplayer {
    trace: Arc<Trace>,
    /// Per-thread indices into `per_thread` op lists.
    cursors: Vec<usize>,
    /// Per-thread op index lists.
    per_thread: Vec<Vec<usize>>,
}

impl TraceReplayer {
    /// Build a replayer over a validated trace.
    pub fn new(trace: Arc<Trace>) -> Result<TraceReplayer, String> {
        trace.validate()?;
        let mut per_thread = vec![Vec::new(); trace.n_threads];
        for (i, op) in trace.ops.iter().enumerate() {
            per_thread[op.tid as usize].push(i);
        }
        if per_thread.iter().any(Vec::is_empty) {
            return Err("every thread needs at least one recorded op".into());
        }
        Ok(TraceReplayer {
            cursors: vec![0; trace.n_threads],
            per_thread,
            trace,
        })
    }
}

impl AccessGen for TraceReplayer {
    fn next_op(&mut self, tid: usize, _rng: &mut SmallRng, out: &mut Vec<PageAccess>) {
        let list = &self.per_thread[tid];
        let op = &self.trace.ops[list[self.cursors[tid] % list.len()]];
        self.cursors[tid] += 1;
        out.extend(
            op.accesses
                .iter()
                .map(|&(offset, write)| PageAccess { offset, write }),
        );
    }

    fn rss_pages(&self) -> u64 {
        self.trace.rss_pages
    }

    fn fixed_op_nanos(&self) -> Nanos {
        Nanos(self.trace.fixed_op_nanos)
    }

    fn snapshot_state(&self) -> vulcan_json::Value {
        let cursors: Vec<u64> = self.cursors.iter().map(|&c| c as u64).collect();
        vulcan_json::snap::obj(vec![("cursors", vulcan_json::snap::u64_array(&cursors))])
    }

    fn restore_state(&mut self, v: &vulcan_json::Value) -> Result<(), String> {
        use vulcan_json::snap;
        let cursors = snap::array_u64(snap::field(v, "cursors")?)?;
        if cursors.len() != self.trace.n_threads {
            return Err("trace replayer cursors do not match thread count".to_string());
        }
        self.cursors = cursors
            .into_iter()
            .map(|c| usize::try_from(c).map_err(|_| format!("cursor {c} out of range")))
            .collect::<Result<_, String>>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{KvConfig, KvStore};
    use crate::microbench::{MicroConfig, Microbench};

    fn record_micro() -> Trace {
        let mut g = Microbench::new(MicroConfig {
            rss_pages: 256,
            wss_pages: 64,
            ..Default::default()
        });
        Trace::record(&mut g, 2, 50, 7)
    }

    #[test]
    fn record_captures_everything() {
        let t = record_micro();
        assert_eq!(t.ops.len(), 100);
        assert_eq!(t.n_accesses(), 100 * 8);
        assert_eq!(t.rss_pages, 256);
        assert_eq!(t.n_threads, 2);
        t.validate().unwrap();
    }

    #[test]
    fn replay_reproduces_the_recording() {
        let t = record_micro();
        let mut replay = TraceReplayer::new(Arc::new(t.clone())).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut buf = Vec::new();
        // Thread 0's first recorded op is ops[0], thread 1's is ops[1].
        replay.next_op(0, &mut rng, &mut buf);
        let got: Vec<(u64, bool)> = buf.iter().map(|a| (a.offset, a.write)).collect();
        assert_eq!(got, t.ops[0].accesses);
        buf.clear();
        replay.next_op(1, &mut rng, &mut buf);
        let got: Vec<(u64, bool)> = buf.iter().map(|a| (a.offset, a.write)).collect();
        assert_eq!(got, t.ops[1].accesses);
    }

    #[test]
    fn replay_wraps_around() {
        let t = record_micro();
        let mut replay = TraceReplayer::new(Arc::new(t.clone())).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut buf = Vec::new();
        // Thread 0 recorded 50 ops; the 51st replayed op wraps to the 1st.
        let mut first = Vec::new();
        for i in 0..51 {
            buf.clear();
            replay.next_op(0, &mut rng, &mut buf);
            if i == 0 {
                first = buf.clone();
            }
        }
        assert_eq!(buf, first, "wrapped to the beginning");
    }

    #[test]
    fn json_roundtrip() {
        let t = record_micro();
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn validation_rejects_garbage() {
        let mut t = record_micro();
        t.ops[0].accesses[0].0 = 99_999;
        assert!(t.validate().is_err(), "out-of-range offset");
        let mut t2 = record_micro();
        t2.ops[3].tid = 9;
        assert!(TraceReplayer::new(Arc::new(t2)).is_err());
    }

    #[test]
    fn kv_trace_records_and_replays() {
        let mut kv = KvStore::new(KvConfig {
            rss_pages: 512,
            ..Default::default()
        });
        let t = Trace::record(&mut kv, 4, 25, 3);
        assert_eq!(t.ops.len(), 100);
        let replay = TraceReplayer::new(Arc::new(t)).unwrap();
        assert_eq!(replay.rss_pages(), 512);
        assert!(replay.fixed_op_nanos().0 > 0, "fixed op time preserved");
    }
}
