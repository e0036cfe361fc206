//! # vulcan-sim — tiered-memory hardware substrate
//!
//! The simulated machine underneath the Vulcan reproduction: simulated
//! time, a two-tier memory system (fast local DRAM + slow CXL-like far
//! memory), frame allocation, bandwidth contention, CPU topology, and the
//! calibrated cost model for memory accesses and page migration.
//!
//! The paper evaluates on real hardware (dual-socket Xeon 8378A with a
//! remote NUMA node emulating CXL, §5.1); this crate is the faithful
//! stand-in. Every cost constant is anchored to a number reported in the
//! paper — see [`costs`] for the calibration table.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod costs;
pub mod event;
pub mod faults;
pub mod frame;
pub mod machine;
pub mod tier;
pub mod time;
pub mod topology;

pub use bandwidth::BandwidthTracker;
pub use costs::{AccessCosts, MigrationCosts, SinglePageBreakdown};
pub use event::EventQueue;
pub use faults::{FaultConfig, FaultPlan, FaultSite, FaultStats, N_FAULT_SITES};
pub use frame::{FrameAllocator, FrameId, OutOfFrames};
pub use machine::{Machine, MachineSpec};
pub use tier::{TierKind, TierSpec, HUGE_PAGE_PAGES, MAX_TIERS, PAGES_PER_PAPER_GB, PAGE_SIZE};
pub use time::{Cycles, Nanos, SimClock, CYCLES_PER_NANO};
pub use topology::{CoreId, CoreSet, SimThreadId, Topology};
