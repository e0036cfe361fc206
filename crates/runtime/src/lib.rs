//! # vulcan-runtime — the simulation driver
//!
//! Drives co-located workloads against the simulated tiered-memory
//! machine: per-access TLB/page-table/tier simulation, demand paging,
//! staggered arrivals, FTHR tracking (equations 1–2), CFI accumulation
//! (equation 4), and the [`TieringPolicy`] trait that baselines
//! (`vulcan-policy`) and Vulcan itself (`vulcan-core`) implement.

#![warn(missing_docs)]
// Abnormal conditions on the runtime path must degrade gracefully
// (modeled stalls, typed errors), never panic: unwrap/expect are denied
// outside tests, with narrowly allow-listed invariant sites only
// (ISSUE 5 lint gate).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod access;
pub mod checkpoint;
pub mod policy;
#[cfg(test)]
mod reference;
pub mod runner;
pub mod shard;
pub mod state;

pub use checkpoint::{CheckpointError, CHECKPOINT_FORMAT, CHECKPOINT_VERSION};
pub use policy::{StaticPlacement, TieringPolicy, UniformPartition};
pub use runner::{
    hot_page_ratio, QuantumOutcome, RunResult, SimConfig, SimRunner, SimRunnerBuilder,
    WorkloadQuantum, WorkloadResult,
};
pub use shard::{plan_shards, ExecuteMode, ShardPlan};
pub use state::{
    MigrationCounts, SpawnError, SystemState, WorkloadState, WorkloadStats, FTHR_ALPHA,
};
