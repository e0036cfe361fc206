//! The access-generator abstraction.
//!
//! Workloads produce *operations* — short sequences of page accesses plus
//! a fixed off-memory cost (network, compute). The runtime replays these
//! against the simulated machine. Latency-critical performance is per-op
//! latency; best-effort performance is op throughput.

use rand::rngs::SmallRng;
use vulcan_sim::Nanos;

/// One page access within an operation. `offset` is relative to the
/// workload's region base; the runtime adds the base VPN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageAccess {
    /// Page offset within the workload's RSS region.
    pub offset: u64,
    /// Whether the access writes.
    pub write: bool,
}

impl PageAccess {
    /// A read of `offset`.
    pub fn read(offset: u64) -> Self {
        PageAccess {
            offset,
            write: false,
        }
    }

    /// A write of `offset`.
    pub fn write(offset: u64) -> Self {
        PageAccess {
            offset,
            write: true,
        }
    }
}

/// A chunk of generated accesses for one thread, laid out as flat
/// struct-of-arrays planes: page offsets and write flags live in
/// parallel vectors, with per-op end indices so the runtime can account
/// op latencies and the quantum budget op by op.
///
/// The planes are *generation output only* — the runtime sweeps them in
/// stages (TLB probe, walk/fault, tier latency, heat record) without the
/// generator ever observing simulation state, which is what makes batch
/// generation equivalent to interleaved `next_op` calls.
#[derive(Clone, Debug, Default)]
pub struct AccessPlan {
    /// Page-offset plane, one entry per access, ops back to back.
    pub offsets: Vec<u64>,
    /// Write-flag plane, parallel to `offsets`.
    pub writes: Vec<bool>,
    /// Exclusive end index of each op within the planes.
    pub op_ends: Vec<u32>,
}

impl AccessPlan {
    /// Drop all ops, keeping the allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.writes.clear();
        self.op_ends.clear();
    }

    /// Record one access of the op currently being generated.
    #[inline]
    pub fn push_access(&mut self, offset: u64, write: bool) {
        self.offsets.push(offset);
        self.writes.push(write);
    }

    /// Close the op currently being generated.
    #[inline]
    pub fn end_op(&mut self) {
        self.op_ends
            .push(u32::try_from(self.offsets.len()).expect("batch exceeds u32 accesses"));
    }

    /// Number of complete ops in the plan.
    pub fn ops(&self) -> usize {
        self.op_ends.len()
    }

    /// Total accesses across all ops.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the plan holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The `[start, end)` access-index range of op `i`.
    #[inline]
    pub fn op_range(&self, i: usize) -> (usize, usize) {
        let end = self.op_ends[i] as usize;
        let start = if i == 0 {
            0
        } else {
            self.op_ends[i - 1] as usize
        };
        (start, end)
    }
}

/// A workload's access generator.
pub trait AccessGen: Send {
    /// Append the accesses of thread `tid`'s next operation to `out`
    /// (which the caller clears).
    fn next_op(&mut self, tid: usize, rng: &mut SmallRng, out: &mut Vec<PageAccess>);

    /// The workload's resident set size in pages.
    fn rss_pages(&self) -> u64;

    /// Off-memory time per operation (request parsing, compute, network).
    /// This is what separates a latency-critical service issuing sparse
    /// accesses from a best-effort sweep saturating the memory system.
    fn fixed_op_nanos(&self) -> Nanos;

    /// Append `max_ops` further operations for thread `tid` to `plan`,
    /// returning how many were generated. Must consume generator state
    /// and the RNG exactly as the same number of `next_op` calls would.
    /// The default is exactly those calls, so a generator overrides it
    /// only to fill faster.
    fn fill_batch(
        &mut self,
        tid: usize,
        rng: &mut SmallRng,
        plan: &mut AccessPlan,
        max_ops: usize,
    ) -> usize {
        let mut op = Vec::new();
        for _ in 0..max_ops {
            op.clear();
            self.next_op(tid, rng, &mut op);
            for a in &op {
                plan.push_access(a.offset, a.write);
            }
            plan.end_op();
        }
        max_ops
    }

    /// Serialize the generator's *mutable* state — cursors, phase
    /// counters, op counts — for checkpointing. Configuration is not
    /// included: a restore rebuilds the generator from its
    /// [`WorkloadSpec`](crate::WorkloadSpec) and then replays this state
    /// into it. Stateless generators return an empty object.
    ///
    /// The runtime also takes this snapshot before every
    /// [`fill_batch`](Self::fill_batch) and restores it to rewind ops the
    /// quantum budget did not consume, so it must capture every piece of
    /// state `next_op` advances.
    fn snapshot_state(&self) -> vulcan_json::Value {
        vulcan_json::snap::obj(vec![])
    }

    /// Restore state captured by [`snapshot_state`](Self::snapshot_state)
    /// into a freshly built generator of the same configuration.
    fn restore_state(&mut self, _v: &vulcan_json::Value) -> Result<(), String> {
        Ok(())
    }
}

/// Split a region of `len` pages into `n` contiguous per-thread shards;
/// returns thread `tid`'s `[start, end)` offsets relative to the region.
pub fn shard(len: u64, n: usize, tid: usize) -> (u64, u64) {
    debug_assert!(tid < n);
    let n = n as u64;
    let tid = tid as u64;
    let base = len / n;
    let rem = len % n;
    let start = tid * base + tid.min(rem);
    let extra = if tid < rem { 1 } else { 0 };
    (start, start + base + extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_partition_the_region() {
        for len in [1u64, 7, 100, 1000] {
            for n in [1usize, 3, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for tid in 0..n {
                    let (s, e) = shard(len, n, tid);
                    assert_eq!(s, prev_end, "shards are contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len, "len={len} n={n}");
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn shards_are_balanced() {
        for tid in 0..8 {
            let (s, e) = shard(100, 8, tid);
            assert!((e - s) == 12 || (e - s) == 13);
        }
    }

    #[test]
    fn access_constructors() {
        assert!(!PageAccess::read(5).write);
        assert!(PageAccess::write(5).write);
        assert_eq!(PageAccess::read(5).offset, 5);
    }
}
