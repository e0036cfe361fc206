//! A database buffer-pool workload: phase-alternating table scans and
//! point lookups over a paged relation.
//!
//! Storage engines stress a tiered memory system differently from the
//! Table 2 applications: the same relation is periodically swept end to
//! end (analytic scans, vacuum/compaction passes) and, between sweeps,
//! hammered by skewed point lookups whose hot set *moves* as the
//! workload's key popularity drifts. A hotness ranker that has just
//! watched a scan believes every relation page is warm; a ranker tuned
//! to the previous lookup phase keeps promoting last phase's hot window.
//! The phase shift is what makes this family a good probe of N-tier
//! demotion chains — cold relation pages should sink *past* the slow
//! tier rather than pinning capacity there.
//!
//! The scan phase reads sequentially through each thread's private
//! extent, which is exactly the access shape that rewards transparent
//! huge pages (one TLB entry per 2 MiB extent); pair the spec with
//! [`WorkloadSpec::with_thp`](crate::WorkloadSpec::with_thp) to measure
//! that sensitivity.

use crate::gen::{shard, AccessGen, PageAccess};
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::Rng;
use vulcan_sim::Nanos;

/// Configuration of the buffer-pool workload.
#[derive(Clone, Debug)]
pub struct BufferPoolConfig {
    /// Total resident pages (relation + catalog/metadata).
    pub rss_pages: u64,
    /// Worker threads (scan extents are per-thread; lookups are shared).
    pub n_threads: usize,
    /// Fraction of RSS holding the (shared, always-hot) catalog pages.
    pub meta_fraction: f64,
    /// Operations per phase before a thread flips scan ↔ lookup.
    pub phase_ops: u64,
    /// Sequential relation reads per scan op.
    pub scan_reads: usize,
    /// Skewed relation reads per point-lookup op.
    pub lookup_reads: usize,
    /// Fraction of the relation forming the lookup phase's hot window.
    pub hot_fraction: f64,
    /// Zipf exponent of lookups within the hot window.
    pub lookup_skew: f64,
    /// Pages the hot window slides per completed scan+lookup cycle
    /// (the phase-shifting hot set), as a fraction of the relation.
    pub shift_fraction: f64,
    /// Probability a point lookup dirties the page (update-in-place).
    pub write_prob: f64,
    /// Off-memory time per op (latch/WAL/plan overhead).
    pub fixed_op: Nanos,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        BufferPoolConfig {
            rss_pages: 12_288, // 48 GB scaled
            n_threads: 8,
            meta_fraction: 0.02,
            phase_ops: 512,
            scan_reads: 8,
            lookup_reads: 4,
            hot_fraction: 0.1,
            lookup_skew: 0.99,
            shift_fraction: 0.25,
            write_prob: 0.2,
            fixed_op: Nanos(800),
        }
    }
}

/// The execution phase a thread is currently in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Sequential sweep of the thread's private relation extent.
    Scan,
    /// Skewed point lookups into the shared hot window.
    Lookup,
}

/// Buffer-pool generator. Its per-thread phase bookkeeping (phase
/// flips, hot-window slides) advances once per op, so it fills access
/// planes through the default per-op
/// [`fill_batch`](AccessGen::fill_batch), and the runtime rewinds an
/// unconsumed fill with [`snapshot_state`](AccessGen::snapshot_state) /
/// [`restore_state`](AccessGen::restore_state).
#[derive(Clone, Debug)]
pub struct BufferPool {
    cfg: BufferPoolConfig,
    meta_pages: u64,
    relation_pages: u64,
    hot_window: u64,
    lookup_zipf: Zipf,
    meta_zipf: Zipf,
    /// Per-thread op count within the current phase.
    phase_op: Vec<u64>,
    /// Per-thread current phase.
    phase: Vec<Phase>,
    /// Per-thread sequential cursor within its scan extent.
    scan_cursor: Vec<u64>,
    /// Per-thread completed scan+lookup cycles (slides the hot window).
    cycles: Vec<u64>,
}

impl BufferPool {
    /// Build from config.
    pub fn new(cfg: BufferPoolConfig) -> Self {
        assert!(cfg.n_threads > 0);
        assert!(cfg.rss_pages >= 64, "buffer pool needs a non-trivial RSS");
        assert!(cfg.phase_ops > 0);
        let meta_pages = ((cfg.rss_pages as f64 * cfg.meta_fraction) as u64).max(1);
        let relation_pages = cfg.rss_pages - meta_pages;
        let hot_window = ((relation_pages as f64 * cfg.hot_fraction) as u64).max(1);
        let lookup_zipf = Zipf::new(hot_window, cfg.lookup_skew);
        let meta_zipf = Zipf::new(meta_pages, 0.6);
        BufferPool {
            phase_op: vec![0; cfg.n_threads],
            phase: vec![Phase::Scan; cfg.n_threads],
            scan_cursor: vec![0; cfg.n_threads],
            cycles: vec![0; cfg.n_threads],
            cfg,
            meta_pages,
            relation_pages,
            hot_window,
            lookup_zipf,
            meta_zipf,
        }
    }

    /// Pages in the lookup phase's hot window (for test assertions).
    pub fn hot_window_pages(&self) -> u64 {
        self.hot_window
    }

    /// The hot window's base offset within the relation for thread state
    /// after `cycles` completed phase cycles.
    fn hot_base(&self, cycles: u64) -> u64 {
        let shift = ((self.relation_pages as f64 * self.cfg.shift_fraction) as u64).max(1);
        (cycles * shift) % self.relation_pages
    }

    /// Advance thread `tid`'s phase bookkeeping by one op.
    fn advance_phase(&mut self, tid: usize) {
        self.phase_op[tid] += 1;
        if self.phase_op[tid] < self.cfg.phase_ops {
            return;
        }
        self.phase_op[tid] = 0;
        self.phase[tid] = match self.phase[tid] {
            Phase::Scan => Phase::Lookup,
            Phase::Lookup => {
                self.cycles[tid] += 1;
                Phase::Scan
            }
        };
    }
}

impl AccessGen for BufferPool {
    fn next_op(&mut self, tid: usize, rng: &mut SmallRng, out: &mut Vec<PageAccess>) {
        // Catalog touch: plan/latch metadata, always read-hot.
        out.push(PageAccess::read(self.meta_zipf.sample(rng)));
        match self.phase[tid] {
            Phase::Scan => {
                let (s, e) = shard(self.relation_pages, self.cfg.n_threads, tid);
                let span = (e - s).max(1);
                for _ in 0..self.cfg.scan_reads {
                    let off = self.meta_pages + s + self.scan_cursor[tid] % span;
                    out.push(PageAccess::read(off));
                    self.scan_cursor[tid] += 1;
                }
            }
            Phase::Lookup => {
                let base = self.hot_base(self.cycles[tid]);
                for _ in 0..self.cfg.lookup_reads {
                    let within = self.lookup_zipf.sample(rng);
                    let off = self.meta_pages + (base + within) % self.relation_pages;
                    let write = rng.gen::<f64>() < self.cfg.write_prob;
                    out.push(PageAccess { offset: off, write });
                }
            }
        }
        self.advance_phase(tid);
    }

    fn rss_pages(&self) -> u64 {
        self.cfg.rss_pages
    }

    fn fixed_op_nanos(&self) -> Nanos {
        self.cfg.fixed_op
    }

    fn snapshot_state(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        let phases: Vec<u64> = self
            .phase
            .iter()
            .map(|p| match p {
                Phase::Scan => 0,
                Phase::Lookup => 1,
            })
            .collect();
        snap::obj(vec![
            ("phase_op", snap::u64_array(&self.phase_op)),
            ("phase", snap::u64_array(&phases)),
            ("scan_cursor", snap::u64_array(&self.scan_cursor)),
            ("cycles", snap::u64_array(&self.cycles)),
        ])
    }

    fn restore_state(&mut self, v: &vulcan_json::Value) -> Result<(), String> {
        use vulcan_json::snap;
        let phase_op = snap::array_u64(snap::field(v, "phase_op")?)?;
        let phases = snap::array_u64(snap::field(v, "phase")?)?;
        let scan_cursor = snap::array_u64(snap::field(v, "scan_cursor")?)?;
        let cycles = snap::array_u64(snap::field(v, "cycles")?)?;
        let n = self.cfg.n_threads;
        if phase_op.len() != n || phases.len() != n || scan_cursor.len() != n || cycles.len() != n {
            return Err("buffer-pool state arrays do not match thread count".to_string());
        }
        if phase_op.iter().any(|&c| c >= self.cfg.phase_ops) {
            return Err("buffer-pool phase_op exceeds phase_ops".to_string());
        }
        let mut phase = Vec::with_capacity(n);
        for &p in &phases {
            phase.push(match p {
                0 => Phase::Scan,
                1 => Phase::Lookup,
                other => return Err(format!("unknown buffer-pool phase code {other}")),
            });
        }
        self.phase_op = phase_op;
        self.phase = phase;
        self.scan_cursor = scan_cursor;
        self.cycles = cycles;
        Ok(())
    }
}

impl vulcan_json::Snapshot for BufferPoolConfig {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("rss_pages", snap::u64_value(self.rss_pages)),
            ("n_threads", snap::u64_value(self.n_threads as u64)),
            ("meta_fraction", snap::f64_value(self.meta_fraction)),
            ("phase_ops", snap::u64_value(self.phase_ops)),
            ("scan_reads", snap::u64_value(self.scan_reads as u64)),
            ("lookup_reads", snap::u64_value(self.lookup_reads as u64)),
            ("hot_fraction", snap::f64_value(self.hot_fraction)),
            ("lookup_skew", snap::f64_value(self.lookup_skew)),
            ("shift_fraction", snap::f64_value(self.shift_fraction)),
            ("write_prob", snap::f64_value(self.write_prob)),
            ("fixed_op", snap::u64_value(self.fixed_op.0)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        Ok(BufferPoolConfig {
            rss_pages: snap::field_u64(v, "rss_pages")?,
            n_threads: snap::field_usize(v, "n_threads")?,
            meta_fraction: snap::field_f64(v, "meta_fraction")?,
            phase_ops: snap::field_u64(v, "phase_ops")?,
            scan_reads: snap::field_usize(v, "scan_reads")?,
            lookup_reads: snap::field_usize(v, "lookup_reads")?,
            hot_fraction: snap::field_f64(v, "hot_fraction")?,
            lookup_skew: snap::field_f64(v, "lookup_skew")?,
            shift_fraction: snap::field_f64(v, "shift_fraction")?,
            write_prob: snap::field_f64(v, "write_prob")?,
            fixed_op: Nanos(snap::field_u64(v, "fixed_op")?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run_ops(g: &mut BufferPool, tid: usize, n: usize) -> Vec<PageAccess> {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut all = Vec::new();
        let mut op = Vec::new();
        for _ in 0..n {
            op.clear();
            g.next_op(tid, &mut rng, &mut op);
            assert!(!op.is_empty());
            all.extend_from_slice(&op);
        }
        all
    }

    #[test]
    fn offsets_stay_in_rss() {
        let mut bp = BufferPool::new(BufferPoolConfig::default());
        for a in run_ops(&mut bp, 0, 5_000) {
            assert!(a.offset < bp.rss_pages());
        }
    }

    #[test]
    fn phases_alternate_scan_and_lookup() {
        let cfg = BufferPoolConfig {
            phase_ops: 16,
            ..Default::default()
        };
        let meta = ((cfg.rss_pages as f64 * cfg.meta_fraction) as u64).max(1);
        let mut bp = BufferPool::new(cfg);
        // First 16 ops: pure sequential scan of thread 0's extent.
        let scan = run_ops(&mut bp, 0, 16);
        let (s, _) = shard(bp.relation_pages, 8, 0);
        let seq: Vec<u64> = scan
            .iter()
            .filter(|a| a.offset >= meta)
            .map(|a| a.offset)
            .collect();
        assert_eq!(seq.len(), 16 * 8, "8 scan reads per scan op");
        assert_eq!(seq[0], meta + s, "scan starts at the extent base");
        assert!(
            seq.windows(2).all(|w| w[1] == w[0] + 1),
            "strictly sequential"
        );
        assert!(scan.iter().all(|a| !a.write), "scans never dirty pages");
        // Next 16 ops: skewed lookups confined to the hot window.
        let lookups = run_ops(&mut bp, 0, 16);
        let data: Vec<&PageAccess> = lookups.iter().filter(|a| a.offset >= meta).collect();
        assert_eq!(data.len(), 16 * 4, "4 lookup reads per lookup op");
        for a in &data {
            assert!(a.offset - meta < bp.hot_window_pages(), "inside hot window");
        }
        assert!(data.iter().any(|a| a.write), "some lookups update in place");
    }

    #[test]
    fn hot_window_shifts_between_cycles() {
        let cfg = BufferPoolConfig {
            phase_ops: 8,
            ..Default::default()
        };
        let mut bp = BufferPool::new(cfg);
        let b0 = bp.hot_base(0);
        let b1 = bp.hot_base(1);
        assert_ne!(b0, b1, "each cycle slides the hot window");
        // Drive thread 0 through a full scan+lookup cycle; the next
        // lookup phase must sample from the shifted window.
        run_ops(&mut bp, 0, 16);
        assert_eq!(bp.cycles[0], 1);
        // The slide eventually wraps instead of walking off the relation.
        let far = bp.hot_base(1_000_003);
        assert!(far < bp.relation_pages);
    }

    #[test]
    fn threads_scan_disjoint_extents() {
        let mut bp = BufferPool::new(BufferPoolConfig::default());
        let meta = bp.meta_pages;
        let a0: std::collections::BTreeSet<u64> = run_ops(&mut bp, 0, 64)
            .iter()
            .filter(|a| a.offset >= meta)
            .map(|a| a.offset)
            .collect();
        let a5: std::collections::BTreeSet<u64> = run_ops(&mut bp, 5, 64)
            .iter()
            .filter(|a| a.offset >= meta)
            .map(|a| a.offset)
            .collect();
        assert!(a0.is_disjoint(&a5), "scan extents are private");
    }
}
