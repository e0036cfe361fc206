//! The Nomad-style migration-policy microbenchmark (§5.2).
//!
//! "1) allocating data to specific segments of the tiered memory;
//!  2) running tests with various working set size (WSS) and RSS values;
//!  3) generating memory accesses to the WSS data that mimic real-world
//!     memory access patterns with a Zipfian distribution."
//!
//! Used for Figure 4 (sync vs async copy across read/write ratios) and
//! Figure 8 (migration performance across small/medium/large WSS).

use crate::gen::{AccessGen, AccessPlan, PageAccess};
use crate::zipf::{Zipf, MANTISSA_SCALE};
use rand::rngs::SmallRng;
use rand::Rng;
use vulcan_sim::Nanos;

/// Configuration of the microbenchmark.
#[derive(Clone, Debug)]
pub struct MicroConfig {
    /// Total resident pages.
    pub rss_pages: u64,
    /// Working-set pages (the Zipf-accessed prefix of the region).
    pub wss_pages: u64,
    /// Zipf exponent over the WSS.
    pub skew: f64,
    /// Fraction of accesses that are reads.
    pub read_ratio: f64,
    /// Accesses per operation.
    pub accesses_per_op: usize,
    /// WSS drift: pages the working-set window shifts per 256 operations
    /// (0 = stationary). A drifting WSS keeps promotion pressure alive,
    /// which is how Figure 4 measures copy strategies *during* migration.
    pub wss_drift: u64,
    /// Off-memory time per op (usually zero: pure memory benchmark).
    pub fixed_op: Nanos,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            rss_pages: 8_192,
            wss_pages: 2_048,
            skew: 0.99,
            read_ratio: 0.8,
            accesses_per_op: 8,
            wss_drift: 0,
            fixed_op: Nanos(0),
        }
    }
}

impl MicroConfig {
    /// The three WSS scenarios of Figure 8, relative to the scaled 8 192-
    /// page fast tier: small fits easily, medium is comparable, large
    /// exceeds it.
    pub fn fig8_scenario(which: WssScenario) -> MicroConfig {
        let (wss, rss) = match which {
            WssScenario::Small => (2_048, 16_384),
            WssScenario::Medium => (8_192, 24_576),
            WssScenario::Large => (20_480, 32_768),
        };
        MicroConfig {
            rss_pages: rss,
            wss_pages: wss,
            ..Default::default()
        }
    }
}

/// The WSS scenarios of Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WssScenario {
    /// WSS well below fast-tier capacity.
    Small,
    /// WSS comparable to fast-tier capacity.
    Medium,
    /// WSS exceeding fast-tier capacity.
    Large,
}

impl WssScenario {
    /// All scenarios in presentation order.
    pub const ALL: [WssScenario; 3] = [WssScenario::Small, WssScenario::Medium, WssScenario::Large];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            WssScenario::Small => "small",
            WssScenario::Medium => "medium",
            WssScenario::Large => "large",
        }
    }
}

/// Zipfian reader/writer over a WSS within a larger RSS.
#[derive(Clone, Debug)]
pub struct Microbench {
    cfg: MicroConfig,
    zipf: Zipf,
    ops: u64,
}

impl Microbench {
    /// Build from config.
    pub fn new(cfg: MicroConfig) -> Self {
        assert!(cfg.wss_pages > 0 && cfg.wss_pages <= cfg.rss_pages);
        assert!((0.0..=1.0).contains(&cfg.read_ratio));
        let zipf = Zipf::new(cfg.wss_pages, cfg.skew);
        Microbench { cfg, zipf, ops: 0 }
    }

    /// The configured working-set size in pages.
    pub fn wss_pages(&self) -> u64 {
        self.cfg.wss_pages
    }
}

impl AccessGen for Microbench {
    fn next_op(&mut self, _tid: usize, rng: &mut SmallRng, out: &mut Vec<PageAccess>) {
        let window = (self.ops / 256) * self.cfg.wss_drift;
        self.ops += 1;
        // Reduce the window once per op so the per-access offset needs a
        // compare-and-subtract instead of a 64-bit division: with
        // `rank < wss ≤ rss`, `(base - rank) mod rss` has exactly the two
        // cases below. (A WSS wider than the RSS keeps the modulo path.)
        let rss = self.cfg.rss_pages;
        let base = (window + self.cfg.wss_pages - 1) % rss;
        let wide = self.cfg.wss_pages > rss;
        for _ in 0..self.cfg.accesses_per_op {
            // Fresh pages enter the working set at the *hot* end (rank 0)
            // and cool as the window slides past them — newly trending
            // data must be promoted while it is being hammered, the
            // scenario Figure 4's copy-strategy comparison probes.
            let rank = self.zipf.sample(rng);
            let offset = if wide {
                (window + self.cfg.wss_pages - 1 - rank) % rss
            } else if rank <= base {
                base - rank
            } else {
                base + rss - rank
            };
            let write = rng.gen::<f64>() >= self.cfg.read_ratio;
            out.push(PageAccess { offset, write });
        }
    }

    fn rss_pages(&self) -> u64 {
        self.cfg.rss_pages
    }

    fn fixed_op_nanos(&self) -> Nanos {
        self.cfg.fixed_op
    }

    /// Batched generation: the per-op loop of [`next_op`] with the config
    /// loads hoisted, filling the struct-of-arrays planes directly. The
    /// RNG draw order (Zipf rank, then write decision, per access) is the
    /// contract — it must match a sequence of `next_op` calls exactly.
    ///
    /// Generation is two-phase per block of ops: the interleaved RNG
    /// stream (u, w per access) is buffered first — the only serially
    /// dependent part — then ranks, offsets and write flags resolve from
    /// the buffer. The resolutions are independent across accesses, so
    /// the Zipf CDF scans overlap in flight instead of each waiting on
    /// the RNG state chain; draw order and values are unchanged.
    fn fill_batch(
        &mut self,
        _tid: usize,
        rng: &mut SmallRng,
        plan: &mut AccessPlan,
        max_ops: usize,
    ) -> usize {
        let rss = self.cfg.rss_pages;
        let wss = self.cfg.wss_pages;
        let drift = self.cfg.wss_drift;
        let read_ratio = self.cfg.read_ratio;
        let wide = wss > rss;
        let k = self.cfg.accesses_per_op;
        plan.offsets.reserve(max_ops * k);
        plan.writes.reserve(max_ops * k);
        plan.op_ends.reserve(max_ops);

        /// Draw-buffer capacity in accesses (stack-allocated).
        const BLOCK: usize = 256;
        if k == 0 || k > BLOCK {
            // Degenerate op shapes: keep the straightforward loop.
            for _ in 0..max_ops {
                let window = (self.ops / 256) * drift;
                self.ops += 1;
                let base = (window + wss - 1) % rss;
                for _ in 0..k {
                    let rank = self.zipf.sample(rng);
                    let offset = if wide {
                        (window + wss - 1 - rank) % rss
                    } else if rank <= base {
                        base - rank
                    } else {
                        base + rss - rank
                    };
                    let write = rng.gen::<f64>() >= read_ratio;
                    plan.push_access(offset, write);
                }
                plan.end_op();
            }
            return max_ops;
        }

        let ops_per_block = BLOCK / k; // ≥ 1
                                       // The RNG's f64 draws are `m · 2⁻⁵³` for the 53-bit mantissa
                                       // `m = next_u64() >> 11` (rand-shim Standard mapping), so both
                                       // per-access decisions resolve in pure integer arithmetic:
                                       // `w ≥ read_ratio ⟺ m_w ≥ ceil(read_ratio · 2⁵³)` (power-of-two
                                       // scaling is exact), and the Zipf rank via `Zipf::resolve_m`.
        let write_threshold = (read_ratio * MANTISSA_SCALE).ceil() as u64;
        let mut us = [0u64; BLOCK];
        let mut ws = [0u64; BLOCK];
        // Plane stores go through pre-sized slices rather than `push`:
        // two per-access `Vec` length updates form store-forwarding
        // chains that serialize the resolve loop.
        let start = plan.offsets.len();
        plan.offsets.resize(start + max_ops * k, 0);
        plan.writes.resize(start + max_ops * k, false);
        let offsets_out = &mut plan.offsets[start..];
        let writes_out = &mut plan.writes[start..];
        let mut done = 0usize;
        let mut out = 0usize;
        while done < max_ops {
            let ops_now = ops_per_block.min(max_ops - done);
            let n = ops_now * k;
            // Phase 1: the RNG stream, exactly as `next_op` draws
            // it — u then w, per access. Buffering first means the only
            // serially dependent work (the RNG state chain) runs as a
            // tight loop, and the resolves below are independent.
            for j in 0..n {
                us[j] = rng.gen::<u64>() >> 11;
                ws[j] = rng.gen::<u64>() >> 11;
            }
            // Phase 2: resolve the buffered draws.
            let mut j = 0usize;
            for _ in 0..ops_now {
                let window = (self.ops / 256) * drift;
                self.ops += 1;
                let base = (window + wss - 1) % rss;
                for _ in 0..k {
                    let rank = self.zipf.resolve_m(us[j]);
                    let offset = if wide {
                        (window + wss - 1 - rank) % rss
                    } else if rank <= base {
                        base - rank
                    } else {
                        base + rss - rank
                    };
                    offsets_out[out + j] = offset;
                    writes_out[out + j] = ws[j] >= write_threshold;
                    j += 1;
                }
                plan.op_ends
                    .push(u32::try_from(start + out + j).expect("batch exceeds u32 accesses"));
            }
            out += n;
            done += ops_now;
        }
        max_ops
    }

    fn snapshot_state(&self) -> vulcan_json::Value {
        vulcan_json::snap::obj(vec![("ops", vulcan_json::snap::u64_value(self.ops))])
    }

    fn restore_state(&mut self, v: &vulcan_json::Value) -> Result<(), String> {
        self.ops = vulcan_json::snap::field_u64(v, "ops")?;
        Ok(())
    }
}

impl vulcan_json::Snapshot for MicroConfig {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("rss_pages", snap::u64_value(self.rss_pages)),
            ("wss_pages", snap::u64_value(self.wss_pages)),
            ("skew", snap::f64_value(self.skew)),
            ("read_ratio", snap::f64_value(self.read_ratio)),
            (
                "accesses_per_op",
                snap::u64_value(self.accesses_per_op as u64),
            ),
            ("wss_drift", snap::u64_value(self.wss_drift)),
            ("fixed_op", snap::u64_value(self.fixed_op.0)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        Ok(MicroConfig {
            rss_pages: snap::field_u64(v, "rss_pages")?,
            wss_pages: snap::field_u64(v, "wss_pages")?,
            skew: snap::field_f64(v, "skew")?,
            read_ratio: snap::field_f64(v, "read_ratio")?,
            accesses_per_op: snap::field_usize(v, "accesses_per_op")?,
            wss_drift: snap::field_u64(v, "wss_drift")?,
            fixed_op: Nanos(snap::field_u64(v, "fixed_op")?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn accesses_stay_in_wss() {
        let mb = MicroConfig {
            rss_pages: 100,
            wss_pages: 10,
            ..Default::default()
        };
        let mut g = Microbench::new(mb);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut op = Vec::new();
        for _ in 0..500 {
            op.clear();
            g.next_op(0, &mut rng, &mut op);
            for a in &op {
                assert!(a.offset < 10);
            }
        }
    }

    #[test]
    fn read_ratio_is_respected() {
        for target in [0.0, 0.5, 1.0] {
            let mut g = Microbench::new(MicroConfig {
                read_ratio: target,
                ..Default::default()
            });
            let mut rng = SmallRng::seed_from_u64(9);
            let mut op = Vec::new();
            let mut reads = 0usize;
            let mut total = 0usize;
            for _ in 0..2_000 {
                op.clear();
                g.next_op(0, &mut rng, &mut op);
                reads += op.iter().filter(|a| !a.write).count();
                total += op.len();
            }
            let got = reads as f64 / total as f64;
            assert!((got - target).abs() < 0.03, "target {target} got {got}");
        }
    }

    #[test]
    fn fig8_scenarios_are_ordered() {
        let s = MicroConfig::fig8_scenario(WssScenario::Small);
        let m = MicroConfig::fig8_scenario(WssScenario::Medium);
        let l = MicroConfig::fig8_scenario(WssScenario::Large);
        assert!(s.wss_pages < m.wss_pages && m.wss_pages < l.wss_pages);
        // Small fits the scaled 8 192-page fast tier; large exceeds it.
        assert!(s.wss_pages < 8_192);
        assert!(l.wss_pages > 8_192);
        for c in [s, m, l] {
            assert!(c.wss_pages <= c.rss_pages);
        }
    }

    #[test]
    fn scenario_labels() {
        assert_eq!(WssScenario::ALL.len(), 3);
        assert_eq!(WssScenario::Small.label(), "small");
    }

    #[test]
    fn drift_moves_the_window() {
        let mut g = Microbench::new(MicroConfig {
            rss_pages: 1_000,
            wss_pages: 10,
            wss_drift: 10,
            ..Default::default()
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let mut op = Vec::new();
        let mut early = std::collections::BTreeSet::new();
        let mut late = std::collections::BTreeSet::new();
        for i in 0..2_000 {
            op.clear();
            g.next_op(0, &mut rng, &mut op);
            for a in &op {
                if i < 200 {
                    early.insert(a.offset);
                } else if i >= 1_800 {
                    late.insert(a.offset);
                }
            }
        }
        assert!(early.is_disjoint(&late), "window moved past the old WSS");
    }

    #[test]
    #[should_panic]
    fn wss_larger_than_rss_rejected() {
        Microbench::new(MicroConfig {
            rss_pages: 10,
            wss_pages: 20,
            ..Default::default()
        });
    }
}
