//! Property-based tests for the heat profiling substrate.
//!
//! The flat epoch-versioned `HeatMap` (dense table + open-addressed
//! spill) must be observationally identical — bitwise, since every
//! arithmetic step happens in the same order — to the plain `HashMap`
//! model it replaced. These tests drive both through adversarial
//! interleavings: keys straddling the dense/spill boundary, spill keys
//! chosen to collide in the probe sequence, churn/decay patterns that
//! trigger spill compaction, and checkpoint round trips in between.

use proptest::prelude::*;
use std::collections::HashMap;
use vulcan_json::Snapshot;
use vulcan_profile::HeatMap;
use vulcan_vm::Vpn;

/// Mirrors `heat::DENSE_LIMIT` (the dense/spill boundary).
const DENSE_LIMIT: u64 = 1 << 21;

/// Mirrors `heat::PRUNE_THRESHOLD`.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// Mirrors `Spill::hash` (SplitMix64 finalizer) so the test can
/// construct keys that genuinely collide in the spill table's initial
/// 64-slot probe space.
fn splitmix64(key: u64) -> usize {
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x as usize
}

/// `count` spill-range keys that all land in probe bucket 0 of a
/// 64-slot table: a maximal-length collision chain.
fn colliding_spill_keys(count: usize) -> Vec<u64> {
    (DENSE_LIMIT..)
        .filter(|&k| splitmix64(k) & 63 == 0)
        .take(count)
        .collect()
}

/// The reference model: exactly the `HashMap` semantics the flat table
/// replaced. Same arithmetic in the same order, so comparisons below
/// are exact (`==`), not approximate.
#[derive(Default)]
struct RefModel {
    map: HashMap<u64, (f64, f64, f64)>, // heat, reads, writes
}

impl RefModel {
    fn record(&mut self, key: u64, is_write: bool, weight: f64) {
        let s = self.map.entry(key).or_default();
        s.0 += weight;
        if is_write {
            s.2 += weight;
        } else {
            s.1 += weight;
        }
    }

    fn decay(&mut self, d: f64) {
        self.map.retain(|_, s| {
            s.0 *= d;
            s.1 *= d;
            s.2 *= d;
            s.0 >= PRUNE_THRESHOLD
        });
    }

    fn get(&self, key: u64) -> (f64, f64, f64) {
        self.map.get(&key).copied().unwrap_or_default()
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Record `weight` accesses to the key-universe index.
    Record {
        idx: usize,
        write: bool,
        weight: f64,
    },
    /// One epoch of decay.
    Decay,
    /// Snapshot the map, restore it, and carry on with the copy.
    Restore,
}

fn arb_op(universe: usize) -> impl Strategy<Value = Op> {
    // Selector-weighted: 6/9 record, 2/9 decay, 1/9 restore.
    (0usize..9, 0..universe, any::<bool>(), 0.01f64..8.0).prop_map(|(sel, idx, write, weight)| {
        match sel {
            0..=5 => Op::Record { idx, write, weight },
            6 | 7 => Op::Decay,
            _ => Op::Restore,
        }
    })
}

/// A key universe straddling every regime: dense slots, ordinary spill
/// keys, and a spill collision chain sharing one probe bucket.
fn key_universe() -> Vec<u64> {
    let mut keys: Vec<u64> = vec![0, 1, 63, 1024, DENSE_LIMIT - 1];
    keys.extend([DENSE_LIMIT, DENSE_LIMIT + 7, u64::MAX - 1]);
    keys.extend(colliding_spill_keys(16));
    keys
}

proptest! {
    /// The flat table matches the `HashMap` reference bitwise after
    /// every operation, for arbitrary record/decay/restore interleavings
    /// over dense, spill and colliding keys. A restored map snapshots
    /// to the very value it was restored from, so the spill table and
    /// its compaction hysteresis survive the round trip.
    #[test]
    fn heat_map_matches_hashmap_reference(
        decay in 0.0f64..=1.0,
        ops in proptest::collection::vec(arb_op(24), 1..200),
    ) {
        let keys = key_universe();
        let mut heat = HeatMap::new(decay);
        let mut reference = RefModel::default();
        for op in ops {
            match op {
                Op::Record { idx, write, weight } => {
                    heat.record(Vpn(keys[idx]), write, weight);
                    reference.record(keys[idx], write, weight);
                }
                Op::Decay => {
                    heat.decay_epoch();
                    reference.decay(decay);
                }
                Op::Restore => {
                    let snapshot = heat.snapshot();
                    heat = HeatMap::restore(&snapshot).unwrap_or_else(|e| panic!("restore: {e}"));
                    prop_assert_eq!(heat.snapshot(), snapshot);
                }
            }
            prop_assert_eq!(heat.len(), reference.map.len());
            for &k in &keys {
                let got = heat.get(Vpn(k));
                let want = reference.get(k);
                prop_assert_eq!((got.heat, got.reads, got.writes), want, "key {:#x}", k);
            }
        }
    }

    /// A long probe chain of colliding spill keys survives growth,
    /// decay-driven compaction and resurrection with exact stats.
    #[test]
    fn colliding_spill_chain_is_exact(
        rounds in 1usize..30,
        weight in 0.5f64..4.0,
    ) {
        let chain = colliding_spill_keys(40);
        let mut heat = HeatMap::new(0.5);
        let mut reference = RefModel::default();
        for r in 0..rounds {
            // Rotate which half of the chain is hot so compaction sees
            // both deaths and resurrections of colliding keys.
            for (i, &k) in chain.iter().enumerate() {
                if (i + r) % 2 == 0 {
                    heat.record(Vpn(k), i % 3 == 0, weight);
                    reference.record(k, i % 3 == 0, weight);
                }
            }
            heat.decay_epoch();
            reference.decay(0.5);
            for &k in &chain {
                let got = heat.get(Vpn(k));
                prop_assert_eq!((got.heat, got.reads, got.writes), reference.get(k));
            }
        }
    }

    /// Spill capacity tracks the live set, not insertion history:
    /// churning through distinct sparse VPNs must not grow the table
    /// beyond a small multiple of the per-round working set.
    #[test]
    fn spill_capacity_bounded_by_live_set(
        rounds in 10usize..60,
        per_round in 1usize..80,
    ) {
        let mut heat = HeatMap::new(0.0); // nothing survives an epoch
        for r in 0..rounds {
            for i in 0..per_round {
                let key = DENSE_LIMIT + (r * per_round + i) as u64;
                heat.record(Vpn(key), false, 1.0);
            }
            heat.decay_epoch();
        }
        // Compaction bounds capacity by the live set (≤ per_round < 80
        // keys → ≤ 128 slots at 70% load) plus the 2× used hysteresis
        // and the 64-slot floor — far below `rounds * per_round` history.
        prop_assert!(
            heat.spill_capacity() <= 512,
            "spill capacity {} grew with history",
            heat.spill_capacity()
        );
    }
}
