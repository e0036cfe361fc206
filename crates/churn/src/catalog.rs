//! The tenant catalog: a weighted mix of small LC/BE workload templates
//! the churn engine samples arrivals from.
//!
//! Templates reuse the existing `vulcan-workloads` generators at churn
//! scale — datacenter tenancy is hundreds of lifetimes per run, so each
//! tenant is a scaled-down instance (1–2 threads, a few hundred pages)
//! of the Table 2 access signatures rather than a full 8-thread app.
//! Every template preallocates its RSS into the slow tier: an admitted
//! tenant's footprint is physically real from its first quantum, which
//! keeps admission capacity checks and teardown frame-conservation
//! audits meaningful, and leaves promotion work for the policy.

use vulcan_sim::{Nanos, TierKind};
use vulcan_workloads::{
    KvConfig, MicroConfig, PrConfig, SweepConfig, WorkloadClass, WorkloadKind, WorkloadSpec,
};

/// One weighted tenant template.
#[derive(Clone, Debug)]
pub struct TenantTemplate {
    /// Template name; tenant instances are `"{name}-{id}"`.
    pub name: &'static str,
    /// Relative arrival weight (need not sum to 1).
    pub weight: f64,
    /// Ground-truth class of instances.
    pub class: WorkloadClass,
    /// Worker threads per instance.
    pub n_threads: usize,
    kind: fn() -> WorkloadKind,
}

impl TenantTemplate {
    /// Instantiate tenant number `id` from this template, arriving (and
    /// starting) at `start`.
    pub fn instantiate(&self, id: u64, start: Nanos) -> WorkloadSpec {
        WorkloadSpec {
            name: format!("{}-{id:04}", self.name),
            class: self.class,
            n_threads: self.n_threads,
            start,
            kind: (self.kind)(),
            prealloc: Some(TierKind::Slow),
            thp: false,
            stop: None, // departures are engine events, not spec fields
        }
    }

    /// RSS in pages of instances of this template.
    pub fn rss_pages(&self) -> u64 {
        // Template kinds are constant per template, so one throwaway
        // instantiation answers for all instances.
        match (self.kind)() {
            WorkloadKind::Kv(c) => c.rss_pages,
            WorkloadKind::PageRank(c) => c.rss_pages,
            WorkloadKind::Sweep(c) => c.rss_pages,
            WorkloadKind::Micro(c) => c.rss_pages,
            WorkloadKind::BufferPool(c) => c.rss_pages,
            WorkloadKind::Replay(t) => t.rss_pages,
        }
    }
}

/// The weighted template catalog.
#[derive(Clone, Debug)]
pub struct Catalog {
    templates: Vec<TenantTemplate>,
}

impl Catalog {
    /// The default datacenter mix: ~40% latency-critical serving, ~60%
    /// best-effort batch — the co-location ratio the paper's dilemma
    /// (§2.2) needs both sides of.
    pub fn default_mix() -> Catalog {
        Catalog {
            templates: vec![
                TenantTemplate {
                    name: "kv",
                    weight: 3.0,
                    class: WorkloadClass::LatencyCritical,
                    n_threads: 2,
                    kind: || {
                        WorkloadKind::Kv(KvConfig {
                            rss_pages: 384,
                            ..KvConfig::default()
                        })
                    },
                },
                TenantTemplate {
                    name: "cache",
                    weight: 1.0,
                    class: WorkloadClass::LatencyCritical,
                    n_threads: 1,
                    kind: || {
                        WorkloadKind::Micro(MicroConfig {
                            rss_pages: 192,
                            wss_pages: 48,
                            fixed_op: Nanos(2_000), // off-memory request handling
                            ..MicroConfig::default()
                        })
                    },
                },
                TenantTemplate {
                    name: "rank",
                    weight: 2.0,
                    class: WorkloadClass::BestEffort,
                    n_threads: 2,
                    kind: || {
                        WorkloadKind::PageRank(PrConfig {
                            rss_pages: 256,
                            n_threads: 2,
                            ..PrConfig::default()
                        })
                    },
                },
                TenantTemplate {
                    name: "train",
                    weight: 2.0,
                    class: WorkloadClass::BestEffort,
                    n_threads: 2,
                    kind: || {
                        WorkloadKind::Sweep(SweepConfig {
                            rss_pages: 320,
                            n_threads: 2,
                            ..SweepConfig::default()
                        })
                    },
                },
                TenantTemplate {
                    name: "zipf",
                    weight: 2.0,
                    class: WorkloadClass::BestEffort,
                    n_threads: 1,
                    kind: || {
                        WorkloadKind::Micro(MicroConfig {
                            rss_pages: 256,
                            wss_pages: 128,
                            ..MicroConfig::default()
                        })
                    },
                },
            ],
        }
    }

    /// The templates.
    pub fn templates(&self) -> &[TenantTemplate] {
        &self.templates
    }

    /// Pick a template from a uniform draw `u ∈ [0, 1)` by cumulative
    /// weight. Deterministic: same `u`, same template.
    pub fn pick(&self, u: f64) -> &TenantTemplate {
        assert!(!self.templates.is_empty(), "empty catalog");
        let total: f64 = self.templates.iter().map(|t| t.weight).sum();
        let mut target = u * total;
        for t in &self.templates {
            if target < t.weight {
                return t;
            }
            target -= t.weight;
        }
        // u ≈ 1 with accumulated rounding: the last template.
        &self.templates[self.templates.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_has_both_classes_at_churn_scale() {
        let c = Catalog::default_mix();
        assert!(c.templates().len() >= 4);
        let lc = c
            .templates()
            .iter()
            .filter(|t| t.class == WorkloadClass::LatencyCritical)
            .count();
        assert!(lc >= 1 && lc < c.templates().len(), "mixed classes");
        for t in c.templates() {
            assert!(t.rss_pages() <= 512, "{} too big for churn", t.name);
            assert!(t.n_threads <= 2, "{} too wide for churn", t.name);
        }
    }

    #[test]
    fn instances_are_named_prealloc_slow_and_started_on_time() {
        let c = Catalog::default_mix();
        let spec = c.templates()[0].instantiate(17, Nanos::secs(3));
        assert_eq!(spec.name, "kv-0017");
        assert_eq!(spec.prealloc, Some(TierKind::Slow));
        assert_eq!(spec.start, Nanos::secs(3));
        assert_eq!(spec.stop, None);
        assert_eq!(spec.rss_pages(), c.templates()[0].rss_pages());
        // The spec builds a real generator.
        assert_eq!(spec.build().rss_pages(), spec.rss_pages());
    }

    #[test]
    fn pick_is_deterministic_and_covers_the_catalog() {
        let c = Catalog::default_mix();
        assert_eq!(c.pick(0.0).name, c.pick(0.0).name);
        // Sweeping u hits every template.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            seen.insert(c.pick(i as f64 / 1000.0).name);
        }
        assert_eq!(seen.len(), c.templates().len());
        // Weights shape the mix: "kv" (weight 3/10) around 30%.
        let kv = (0..1000)
            .filter(|&i| c.pick(i as f64 / 1000.0).name == "kv")
            .count();
        assert!((250..=350).contains(&kv), "kv picked {kv}/1000");
    }

    #[test]
    fn pick_handles_the_upper_edge() {
        let c = Catalog::default_mix();
        let last = c.templates()[c.templates().len() - 1].name;
        assert_eq!(c.pick(0.999_999_999).name, last);
    }
}
