//! # vulcan-profile — page-access profiling mechanisms
//!
//! The three profiling families §2.1 surveys — performance-counter
//! sampling (PEBS), page-table scanning, and NUMA hinting faults — plus
//! the PEBS+hint-fault hybrid Vulcan adopts by default (§3.2). All feed a
//! decayed per-page [`HeatMap`] from which policies derive hot sets and
//! read/write intensity.

#![warn(missing_docs)]

pub mod advanced;
pub mod engine;
pub mod heat;
pub mod sampler;

pub use advanced::{ChronoProfiler, TelescopeProfiler};
pub use engine::AnyProfiler;
pub use heat::{HeatMap, PageStats};
pub use sampler::{
    AccessBatch, EpochOutcome, HintFaultProfiler, HybridProfiler, PebsProfiler, Profiler,
    PtScanProfiler, DEFAULT_DECAY,
};
