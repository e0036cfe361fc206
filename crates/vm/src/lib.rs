//! # vulcan-vm — virtual-memory substrate
//!
//! Page tables, TLBs and TLB shootdowns for the Vulcan reproduction.
//!
//! The centerpiece is [`table::AddressSpace`]: four-level radix page
//! tables supporting the paper's **per-thread page-table replication**
//! (§3.4) — per-thread upper levels over shared last-level tables, with
//! PTE bits 52–58 tracking thread ownership. Ownership feeds
//! [`shootdown`]'s targeted IPI planning, the mechanism behind Vulcan's
//! reduced TLB-coherence cost.

#![warn(missing_docs)]

pub mod addr;
pub mod process;
pub mod pte;
pub mod shootdown;
pub mod table;
pub mod tlb;

pub use addr::{Vpn, VpnRange, FANOUT, LEVELS, LEVEL_BITS};
pub use process::Process;
pub use pte::{merge_owner, LocalTid, PageOwner, Pte, MAX_LOCAL_TID, SHARED_TID};
pub use shootdown::{ShootdownMode, ShootdownOutcome, ShootdownPlan, ShootdownScope, ThreadCores};
pub use table::{AddressSpace, TouchOutcome};
pub use tlb::{Asid, Tlb, TlbArray};
