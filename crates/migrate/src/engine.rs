//! Migration engines: synchronous and asynchronous (transactional).
//!
//! * [`migrate_sync`] blocks the caller for the full five-phase mechanism
//!   — the behaviour of TPP's promotion path (§2.1). The returned phase
//!   costs are charged to the accessing threads by the runtime.
//! * [`AsyncMigrator`] implements transactional asynchronous migration in
//!   the style of Nomad (§2.1): the copy proceeds in the background while
//!   the application keeps accessing the source page; if the page is
//!   dirtied during the copy window the transaction retries, and after
//!   `max_async_retries` failures it aborts (Observation #4's
//!   write-intensive pathology).

use crate::error::MigrateError;
use crate::phases::{batch_phases_without_shootdown, PhaseCycles, PrepStrategy};
use crate::shadow::ShadowRegistry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use vulcan_sim::{Cycles, FaultSite, FrameId, Machine, Nanos, TierKind};
use vulcan_vm::{shootdown, Process, ShootdownMode, ShootdownScope, ThreadCores, TlbArray, Vpn};

/// Configuration of the migration mechanism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MechanismConfig {
    /// Preparation strategy (global drain vs per-workload).
    pub prep: PrepStrategy,
    /// Shootdown target selection (process-wide vs ownership-targeted).
    pub scope: ShootdownScope,
    /// Shootdown cost regime.
    pub sd_mode: ShootdownMode,
    /// Retain slow-tier shadows of promoted pages (Nomad-style).
    pub shadowing: bool,
    /// Dirty-retry budget for asynchronous transactions.
    pub max_async_retries: u32,
}

impl MechanismConfig {
    /// The Linux/TPP baseline mechanism: global preparation, process-wide
    /// shootdowns, no shadowing.
    pub fn linux_baseline() -> Self {
        MechanismConfig {
            prep: PrepStrategy::BaselineGlobal,
            scope: ShootdownScope::ProcessWide,
            sd_mode: ShootdownMode::Batched,
            shadowing: false,
            max_async_retries: 3,
        }
    }

    /// Vulcan's mechanism: per-workload preparation, ownership-targeted
    /// shootdowns, shadowing enabled (§3.2, §3.4, §3.5).
    pub fn vulcan() -> Self {
        MechanismConfig {
            prep: PrepStrategy::Optimized,
            scope: ShootdownScope::Targeted,
            sd_mode: ShootdownMode::Batched,
            shadowing: true,
            max_async_retries: 3,
        }
    }
}

/// Result of a synchronous batch migration.
#[derive(Clone, Debug, Default)]
pub struct SyncOutcome {
    /// Pages successfully moved to the destination tier.
    pub moved: Vec<Vpn>,
    /// Pages skipped up front (unmapped or already in the destination).
    pub skipped: Vec<Vpn>,
    /// Pages that failed mid-batch with a typed error; their mappings
    /// were restored (unless the error says otherwise) and no frame
    /// leaked. Transient failures are requeue candidates.
    pub failed: Vec<(Vpn, MigrateError)>,
    /// Demotions served by a shadow remap (no copy performed).
    pub remap_only: u64,
    /// Ack-timeout retries the batch shootdown performed (fault
    /// injection; 0 on a clean run).
    pub sd_retries: u32,
    /// Whether the shootdown exhausted its retry budget and escalated
    /// to a final full re-broadcast.
    pub sd_escalated: bool,
    /// Cycle cost by phase, charged to the caller.
    pub phases: PhaseCycles,
}

impl SyncOutcome {
    /// Total cycles of the batch.
    pub fn total_cycles(&self) -> Cycles {
        self.phases.total()
    }

    /// Pages that failed transiently and are worth requeueing.
    pub fn transient_failures(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.failed
            .iter()
            .filter(|(_, e)| e.is_transient())
            .map(|&(v, _)| v)
    }
}

/// Synchronously migrate `pages` of `process` to `dest`.
///
/// Huge-page-backed pages are split before migration (§3.5: Vulcan splits
/// THPs into base pages on promotion, following Memtis).
pub fn migrate_sync(
    process: &mut Process,
    machine: &mut Machine,
    tlbs: &mut TlbArray,
    shadows: &mut ShadowRegistry,
    pages: &[Vpn],
    dest: TierKind,
    cfg: &MechanismConfig,
) -> SyncOutcome {
    let mut out = SyncOutcome::default();

    let mut seen = HashSet::new();
    let eligible: Vec<Vpn> = pages
        .iter()
        .copied()
        .filter(|&vpn| {
            if !seen.insert(vpn.0) {
                return false; // duplicate within the batch
            }
            let pte = process.space.pte(vpn);
            let ok = pte.present() && pte.tier() != Some(dest);
            if !ok {
                out.skipped.push(vpn);
            }
            ok
        })
        .collect();
    if eligible.is_empty() {
        return out;
    }

    split_and_flush_huge(process, machine, tlbs, &eligible);

    // Shootdown must be planned before unmapping: targeting reads the
    // ownership bits of the live PTEs.
    let plan = shootdown::plan(process, &machine.topology, &eligible, cfg.scope);
    let costs = machine.spec().migration_costs.clone();
    let sd = shootdown::execute_faulty(
        &plan,
        process,
        tlbs,
        &costs,
        cfg.sd_mode,
        &mut machine.faults,
    );
    let sd_cost = sd.cycles;
    out.sd_retries = sd.retries;
    out.sd_escalated = sd.escalated;

    let mut copied = 0u64;
    for &vpn in &eligible {
        // Eligibility was checked above, but it can be invalidated
        // between check and unmap (e.g. a racing teardown): degrade to a
        // typed error instead of panicking.
        let Some(old) = process.space.unmap(vpn) else {
            out.failed.push((vpn, MigrateError::Unmapped(vpn)));
            continue;
        };
        let Some(old_frame) = old.frame() else {
            process.space.set_pte(vpn, old);
            out.failed.push((vpn, MigrateError::NoFrame(vpn)));
            continue;
        };

        // Shadow fast path: demoting a clean page whose shadow lives in
        // exactly the destination tier is a pure remap. (On a two-tier
        // chain every shadow is a slow frame, so this degenerates to the
        // classic `dest == Slow` gate.)
        if cfg.shadowing && !old.dirty() && shadows.get(vpn).map(|f| f.tier) == Some(dest) {
            if let Some(shadow_frame) = shadows.take(vpn) {
                machine.free(old_frame);
                process.space.set_pte(vpn, old.with_frame(shadow_frame));
                out.remap_only += 1;
                out.moved.push(vpn);
                continue;
            }
        }

        let Ok(new_frame) = machine.alloc(dest) else {
            // Destination full (genuine or injected): restore the
            // original mapping and report a transient error.
            process.space.set_pte(vpn, old);
            if machine.last_alloc_injected() {
                machine.faults.note_recovery(FaultSite::alloc_for(dest));
            }
            out.failed.push((vpn, MigrateError::DestFull { vpn, dest }));
            continue;
        };

        if machine.faults.copy_fails() {
            // The copy itself failed: release the destination frame,
            // restore the source mapping — never leak a frame.
            machine.free(new_frame);
            process.space.set_pte(vpn, old);
            machine.faults.note_recovery(FaultSite::CopyFail);
            out.failed.push((vpn, MigrateError::CopyFailed(vpn)));
            continue;
        }

        machine.record_page_copy(old_frame.tier, dest);
        copied += 1;

        if cfg.shadowing && dest.index() < old_frame.tier.index() {
            // Promotion up the chain: keep the lower-tier frame as a
            // shadow of the promoted page.
            if let Some(stale) = shadows.retain(vpn, old_frame) {
                machine.free(stale);
            }
        } else {
            if cfg.shadowing {
                // Demotion with copy: any retained shadow is now stale.
                if let Some(stale) = shadows.invalidate(vpn) {
                    machine.free(stale);
                }
            }
            machine.free(old_frame);
        }

        // Content is in sync after the copy: clear the dirty bit so the
        // shadow stays valid until the next write.
        process
            .space
            .set_pte(vpn, old.with_frame(new_frame).clear_dirty());
        out.moved.push(vpn);
    }

    let mut phases =
        batch_phases_without_shootdown(&costs, cfg.prep, machine.topology.n_cores(), copied);
    // Unmap/remap were attempted for every eligible page (restores included).
    phases.unmap = Cycles(costs.unmap.0 * eligible.len() as u64);
    phases.remap = Cycles(costs.remap.0 * eligible.len() as u64);
    phases.shootdown = sd_cost;
    if copied == 0 {
        phases.copy = Cycles::ZERO;
    }
    out.phases = phases;
    out
}

/// Split any THP regions covering `pages` and drop their 2 MiB TLB
/// entries on every core running the process (a real THP split must
/// flush the PMD-level translation before base-page PTEs become
/// authoritative).
fn split_and_flush_huge(
    process: &mut Process,
    machine: &Machine,
    tlbs: &mut TlbArray,
    pages: &[Vpn],
) {
    let mut cores = None;
    for &vpn in pages {
        if process.space.split_huge(vpn) {
            let cores = cores.get_or_insert_with(|| ThreadCores::new(process, &machine.topology));
            tlbs.invalidate_huge_on(cores.all().iter(), process.asid, vpn);
        }
    }
}

/// Statistics accumulated by an [`AsyncMigrator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Transactions started.
    pub started: u64,
    /// Transactions committed (page moved).
    pub committed: u64,
    /// Dirty retries performed.
    pub retried: u64,
    /// Transactions aborted after exhausting retries.
    pub aborted: u64,
    /// Transactions that never started because the initial page copy
    /// failed (injected fault); the destination frame was released.
    pub copy_faulted: u64,
}

#[derive(Clone, Copy, Debug)]
struct Txn {
    vpn: Vpn,
    dest: TierKind,
    dest_frame: FrameId,
    completes: Nanos,
    retries: u32,
}

/// Result of one [`AsyncMigrator::poll`].
#[derive(Clone, Debug, Default)]
pub struct AsyncPoll {
    /// Pages whose transactions committed.
    pub committed: Vec<Vpn>,
    /// Pages whose transactions aborted.
    pub aborted: Vec<Vpn>,
    /// Background cycles consumed by commits (charged to the migration
    /// thread, not the application — the point of async migration).
    pub background: Cycles,
}

/// Transactional asynchronous migrator (Nomad-style, §2.1).
///
/// The dirty check is statistical. The simulation quantum (milliseconds)
/// is far coarser than a real copy window (microseconds): reading the
/// PTE dirty bit literally would either retry every warm page forever
/// (poll after execution) or never observe a write at all (poll before
/// execution). Instead, each completing transaction is considered
/// dirtied with the probability that a write landed **inside its copy
/// window**, which the caller estimates from the page's observed write
/// rate (`dirty_prob` in [`poll`](Self::poll)).
#[derive(Clone, Debug)]
pub struct AsyncMigrator {
    /// In-flight transactions in start order; `poll` walks them front
    /// to back, so the order is behavioral and serialized.
    inflight: Vec<Txn>,
    /// The VPNs of `inflight`, for O(1) membership. Derived state: never
    /// serialized, rebuilt by restore.
    inflight_vpns: HashSet<u64>,
    rng: SmallRng,
    /// Lifetime statistics.
    pub stats: AsyncStats,
}

impl Default for AsyncMigrator {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncMigrator {
    /// A migrator with no in-flight transactions.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// A migrator with a specific RNG seed (trial variation).
    pub fn with_seed(seed: u64) -> Self {
        AsyncMigrator {
            inflight: Vec::new(),
            inflight_vpns: HashSet::new(),
            rng: SmallRng::seed_from_u64(seed),
            stats: AsyncStats::default(),
        }
    }

    /// Number of in-flight transactions.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Whether `vpn` has an in-flight transaction, in O(1).
    pub fn is_inflight(&self, vpn: Vpn) -> bool {
        self.inflight_vpns.contains(&vpn.0)
    }

    /// Begin transactions moving `pages` to `dest`. The copy runs in the
    /// background; the application continues to access the source frame.
    /// Returns the number of transactions actually started.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        process: &mut Process,
        machine: &mut Machine,
        tlbs: &mut TlbArray,
        pages: &[Vpn],
        dest: TierKind,
        now: Nanos,
    ) -> usize {
        let copy_time = machine.spec().migration_costs.copy_single.to_nanos();
        let mut started = 0;
        for &vpn in pages {
            let pte = process.space.pte(vpn);
            if !pte.present() || pte.tier() == Some(dest) || self.is_inflight(vpn) {
                continue;
            }
            // `pte.present()` was checked above, so a missing tier means
            // a corrupt PTE; skip the page rather than panic.
            let Some(src_tier) = pte.tier() else {
                continue;
            };
            let Ok(dest_frame) = machine.alloc(dest) else {
                if machine.last_alloc_injected() {
                    // Injected exhaustion: absorb the fault and move on
                    // to the next page — real capacity may remain.
                    machine.faults.note_recovery(FaultSite::alloc_for(dest));
                    continue;
                }
                break; // destination full; later pages will not fit either
            };
            if machine.faults.copy_fails() {
                // Initial copy failed: release the reservation; the page
                // stays put and can be retried on a later quantum.
                machine.free(dest_frame);
                machine.faults.note_recovery(FaultSite::CopyFail);
                self.stats.copy_faulted += 1;
                continue;
            }
            split_and_flush_huge(process, machine, tlbs, &[vpn]);
            // Snapshot: clear D so a write during the window is detectable.
            process.space.set_pte(vpn, pte.clear_dirty());
            machine.record_page_copy(src_tier, dest);
            self.inflight_vpns.insert(vpn.0);
            self.inflight.push(Txn {
                vpn,
                dest,
                dest_frame,
                completes: now + copy_time,
                retries: 0,
            });
            started += 1;
        }
        self.stats.started += started as u64;
        started
    }

    /// Drive transactions whose copy window has elapsed at `now`:
    /// commit clean pages, retry dirty ones, abort beyond the budget.
    ///
    /// `dirty_prob(vpn)` is the probability that the page was written
    /// within one copy window (see the type-level docs); pass `|_| 1.0`
    /// to force retries, `|_| 0.0` for always-clean commits.
    #[allow(clippy::too_many_arguments)]
    pub fn poll(
        &mut self,
        process: &mut Process,
        machine: &mut Machine,
        tlbs: &mut TlbArray,
        shadows: &mut ShadowRegistry,
        now: Nanos,
        cfg: &MechanismConfig,
        dirty_prob: &mut dyn FnMut(Vpn) -> f64,
    ) -> AsyncPoll {
        let mut out = AsyncPoll::default();
        let costs = machine.spec().migration_costs.clone();
        let copy_time = costs.copy_single.to_nanos();
        // The thread→core table for commit shootdowns, built at the first
        // commit: nothing in a poll moves a thread.
        let mut cores = None;

        let mut remaining = Vec::with_capacity(self.inflight.len());
        for mut txn in std::mem::take(&mut self.inflight) {
            if txn.completes > now {
                remaining.push(txn);
                continue;
            }
            // Every arm below but the retry ends the transaction; the
            // retry puts the VPN straight back.
            self.inflight_vpns.remove(&txn.vpn.0);
            let pte = process.space.pte(txn.vpn);
            if !pte.present() || pte.tier() == Some(txn.dest) {
                // Raced with another migration: drop the transaction.
                machine.free(txn.dest_frame);
                self.stats.aborted += 1;
                out.aborted.push(txn.vpn);
                continue;
            }
            if self.rng.gen::<f64>() < dirty_prob(txn.vpn) {
                // Page written during the copy window: retry or abort.
                if txn.retries >= cfg.max_async_retries {
                    machine.free(txn.dest_frame);
                    self.stats.aborted += 1;
                    out.aborted.push(txn.vpn);
                    continue;
                }
                txn.retries += 1;
                txn.completes = now + copy_time;
                self.stats.retried += 1;
                process.space.set_pte(txn.vpn, pte.clear_dirty());
                if let Some(src_tier) = pte.tier() {
                    machine.record_page_copy(src_tier, txn.dest);
                }
                self.inflight_vpns.insert(txn.vpn.0);
                remaining.push(txn);
                continue;
            }

            // Commit: short unmap → targeted shootdown → remap window.
            let cores = cores.get_or_insert_with(|| ThreadCores::new(process, &machine.topology));
            let plan = cores.plan(process, std::slice::from_ref(&txn.vpn), cfg.scope);
            let sd_out = shootdown::execute_faulty(
                &plan,
                process,
                tlbs,
                &costs,
                cfg.sd_mode,
                &mut machine.faults,
            );
            let sd = sd_out.cycles;
            // Presence was checked above, but treat a lost mapping or
            // frame as a raced abort rather than panicking.
            let Some(old) = process.space.unmap(txn.vpn) else {
                machine.free(txn.dest_frame);
                self.stats.aborted += 1;
                out.aborted.push(txn.vpn);
                out.background += sd;
                continue;
            };
            let Some(old_frame) = old.frame() else {
                process.space.set_pte(txn.vpn, old);
                machine.free(txn.dest_frame);
                self.stats.aborted += 1;
                out.aborted.push(txn.vpn);
                out.background += sd;
                continue;
            };
            if cfg.shadowing && txn.dest.index() < old_frame.tier.index() {
                if let Some(stale) = shadows.retain(txn.vpn, old_frame) {
                    machine.free(stale);
                }
            } else {
                machine.free(old_frame);
            }
            process
                .space
                .set_pte(txn.vpn, old.with_frame(txn.dest_frame).clear_dirty());
            out.background += sd + costs.unmap + costs.remap;
            self.stats.committed += 1;
            out.committed.push(txn.vpn);
        }
        self.inflight = remaining;
        out
    }

    /// Abort every in-flight transaction (workload teardown), freeing the
    /// reserved destination frames.
    pub fn abort_all(&mut self, machine: &mut Machine) {
        self.inflight_vpns.clear();
        for txn in self.inflight.drain(..) {
            machine.free(txn.dest_frame);
            self.stats.aborted += 1;
        }
    }
}

fn tier_name(t: TierKind) -> &'static str {
    t.name()
}

fn tier_from_name(name: &str) -> Result<TierKind, String> {
    TierKind::ALL
        .iter()
        .copied()
        .find(|t| t.name() == name)
        .ok_or_else(|| format!("unknown tier \"{name}\""))
}

impl vulcan_json::Snapshot for MechanismConfig {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let prep = match self.prep {
            PrepStrategy::BaselineGlobal => "baseline_global",
            PrepStrategy::Optimized => "optimized",
        };
        let scope = match self.scope {
            ShootdownScope::ProcessWide => "process_wide",
            ShootdownScope::Targeted => "targeted",
        };
        let sd_mode = match self.sd_mode {
            ShootdownMode::Cold => "cold",
            ShootdownMode::Batched => "batched",
        };
        snap::obj(vec![
            ("prep", Value::Str(prep.to_string())),
            ("scope", Value::Str(scope.to_string())),
            ("sd_mode", Value::Str(sd_mode.to_string())),
            ("shadowing", Value::Bool(self.shadowing)),
            (
                "max_async_retries",
                snap::u64_value(self.max_async_retries as u64),
            ),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let prep = match snap::field_str(v, "prep")? {
            "baseline_global" => PrepStrategy::BaselineGlobal,
            "optimized" => PrepStrategy::Optimized,
            other => return Err(format!("unknown prep strategy \"{other}\"")),
        };
        let scope = match snap::field_str(v, "scope")? {
            "process_wide" => ShootdownScope::ProcessWide,
            "targeted" => ShootdownScope::Targeted,
            other => return Err(format!("unknown shootdown scope \"{other}\"")),
        };
        let sd_mode = match snap::field_str(v, "sd_mode")? {
            "cold" => ShootdownMode::Cold,
            "batched" => ShootdownMode::Batched,
            other => return Err(format!("unknown shootdown mode \"{other}\"")),
        };
        let retries = snap::field_u64(v, "max_async_retries")?;
        Ok(MechanismConfig {
            prep,
            scope,
            sd_mode,
            shadowing: snap::field_bool(v, "shadowing")?,
            max_async_retries: u32::try_from(retries)
                .map_err(|_| format!("max_async_retries {retries} out of range"))?,
        })
    }
}

impl vulcan_json::Snapshot for AsyncMigrator {
    /// In-flight transactions are serialized as parallel arrays in queue
    /// order (poll iterates `inflight` front to back, so order is
    /// behavioral), together with the dirty-check RNG state — `poll`
    /// draws one `f64` per due transaction, so the stream position must
    /// survive a checkpoint for the retry/abort sequence to replay
    /// identically.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Value};
        let vpns: Vec<u64> = self.inflight.iter().map(|t| t.vpn.0).collect();
        let dests: Vec<Value> = self
            .inflight
            .iter()
            .map(|t| Value::Str(tier_name(t.dest).to_string()))
            .collect();
        let frame_tiers: Vec<Value> = self
            .inflight
            .iter()
            .map(|t| Value::Str(tier_name(t.dest_frame.tier).to_string()))
            .collect();
        let frame_indices: Vec<u64> = self
            .inflight
            .iter()
            .map(|t| t.dest_frame.index as u64)
            .collect();
        let completes: Vec<u64> = self.inflight.iter().map(|t| t.completes.0).collect();
        let retries: Vec<u64> = self.inflight.iter().map(|t| t.retries as u64).collect();
        snap::obj(vec![
            ("vpns", snap::u64_array(&vpns)),
            ("dests", Value::Array(dests)),
            ("frame_tiers", Value::Array(frame_tiers)),
            ("frame_indices", snap::u64_array(&frame_indices)),
            ("completes", snap::u64_array(&completes)),
            ("retries", snap::u64_array(&retries)),
            ("rng", snap::u64_array(&self.rng.state())),
            ("started", snap::u64_value(self.stats.started)),
            ("committed", snap::u64_value(self.stats.committed)),
            ("retried", snap::u64_value(self.stats.retried)),
            ("aborted", snap::u64_value(self.stats.aborted)),
            ("copy_faulted", snap::u64_value(self.stats.copy_faulted)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let vpns = snap::array_u64(snap::field(v, "vpns")?)?;
        let dests = snap::field_array(v, "dests")?;
        let frame_tiers = snap::field_array(v, "frame_tiers")?;
        let frame_indices = snap::array_u64(snap::field(v, "frame_indices")?)?;
        let completes = snap::array_u64(snap::field(v, "completes")?)?;
        let retries = snap::array_u64(snap::field(v, "retries")?)?;
        let n = vpns.len();
        if dests.len() != n
            || frame_tiers.len() != n
            || frame_indices.len() != n
            || completes.len() != n
            || retries.len() != n
        {
            return Err("async migrator txn arrays have mismatched lengths".to_string());
        }
        let mut inflight = Vec::with_capacity(n);
        let mut inflight_vpns = HashSet::with_capacity(n);
        for i in 0..n {
            if !inflight_vpns.insert(vpns[i]) {
                return Err(format!("VPN {:#x} is in flight twice", vpns[i]));
            }
            let dest = match &dests[i] {
                vulcan_json::Value::Str(s) => tier_from_name(s)?,
                _ => return Err("txn dest is not a string".to_string()),
            };
            let frame_tier = match &frame_tiers[i] {
                vulcan_json::Value::Str(s) => tier_from_name(s)?,
                _ => return Err("txn frame tier is not a string".to_string()),
            };
            inflight.push(Txn {
                vpn: Vpn(vpns[i]),
                dest,
                dest_frame: FrameId {
                    tier: frame_tier,
                    index: u32::try_from(frame_indices[i])
                        .map_err(|_| format!("frame index {} out of range", frame_indices[i]))?,
                },
                completes: Nanos(completes[i]),
                retries: u32::try_from(retries[i])
                    .map_err(|_| format!("txn retries {} out of range", retries[i]))?,
            });
        }
        let rng_state = snap::array_u64(snap::field(v, "rng")?)?;
        let rng_state: [u64; 4] = rng_state
            .try_into()
            .map_err(|_| "rng state is not 4 words".to_string())?;
        Ok(AsyncMigrator {
            inflight,
            inflight_vpns,
            rng: SmallRng::from_state(rng_state),
            stats: AsyncStats {
                started: snap::field_u64(v, "started")?,
                committed: snap::field_u64(v, "committed")?,
                retried: snap::field_u64(v, "retried")?,
                aborted: snap::field_u64(v, "aborted")?,
                copy_faulted: snap::field_u64(v, "copy_faulted")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_sim::{CoreId, MachineSpec, SimThreadId};
    use vulcan_vm::{Asid, LocalTid};

    fn setup(fast: u64, slow: u64) -> (Process, Machine, TlbArray, ShadowRegistry) {
        let mut machine = Machine::new(MachineSpec::small(fast, slow, 8));
        let mut process = Process::new(Asid(1), true);
        for i in 0..4u32 {
            process.spawn_thread(SimThreadId(i));
            machine.topology.pin(SimThreadId(i), CoreId(i as u16));
        }
        let tlbs = TlbArray::new(8);
        (process, machine, tlbs, ShadowRegistry::new())
    }

    /// Map `n` pages in the slow tier, touched by thread 0.
    fn map_slow(process: &mut Process, machine: &mut Machine, n: u64) -> Vec<Vpn> {
        (0..n)
            .map(|i| {
                let vpn = Vpn(i);
                let f = machine.alloc(TierKind::Slow).unwrap();
                process.space.map(vpn, f, LocalTid(0));
                process.space.touch(vpn, LocalTid(0), false).unwrap();
                vpn
            })
            .collect()
    }

    #[test]
    fn sync_promotion_moves_pages() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 4);
        let cfg = MechanismConfig::vulcan();
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert_eq!(out.moved.len(), 4);
        assert!(out.skipped.is_empty());
        for &vpn in &pages {
            assert_eq!(p.space.pte(vpn).tier(), Some(TierKind::Fast));
        }
        assert!(out.total_cycles() > Cycles::ZERO);
        // Shadows retained for all promoted pages.
        assert_eq!(s.len(), 4);
        // Slow frames not freed (held as shadows).
        assert_eq!(m.free_pages(TierKind::Slow), 12);
    }

    #[test]
    fn sync_without_shadowing_frees_source() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 4);
        let cfg = MechanismConfig::linux_baseline();
        migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert_eq!(m.free_pages(TierKind::Slow), 16);
        assert!(s.is_empty());
    }

    #[test]
    fn sync_skips_pages_already_in_dest_or_unmapped() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 1);
        let cfg = MechanismConfig::vulcan();
        let all = vec![pages[0], Vpn(999)];
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &all, TierKind::Fast, &cfg);
        assert_eq!(out.moved, vec![pages[0]]);
        assert_eq!(out.skipped, vec![Vpn(999)]);
        // Second promotion of the same page is a no-op.
        let out2 = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert!(out2.moved.is_empty());
        assert_eq!(out2.phases.total(), Cycles::ZERO);
    }

    #[test]
    fn sync_restores_mapping_when_dest_full() {
        let (mut p, mut m, mut t, mut s) = setup(2, 16);
        let pages = map_slow(&mut p, &mut m, 4);
        let cfg = MechanismConfig::vulcan();
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert_eq!(out.moved.len(), 2);
        assert_eq!(out.failed.len(), 2);
        for &(vpn, err) in &out.failed {
            assert_eq!(p.space.pte(vpn).tier(), Some(TierKind::Slow), "restored");
            assert_eq!(
                err,
                MigrateError::DestFull {
                    vpn,
                    dest: TierKind::Fast
                }
            );
            assert!(err.is_transient(), "worth requeueing");
        }
        assert_eq!(out.transient_failures().count(), 2);
    }

    /// Regression (ISSUE 5): injected destination-alloc exhaustion used
    /// to be indistinguishable from genuine capacity pressure and the
    /// engine's unwrap-style paths panicked downstream; now it degrades
    /// to a typed transient error with the mapping restored and zero
    /// frames leaked.
    #[test]
    fn sync_injected_alloc_fault_degrades_without_leaking() {
        use vulcan_sim::{FaultConfig, FaultPlan, FaultSite};
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 4);
        m.faults = FaultPlan::new(11, FaultConfig::single(FaultSite::AllocFast, 1.0));
        let fast_before = m.free_pages(TierKind::Fast);
        let slow_before = m.free_pages(TierKind::Slow);
        let cfg = MechanismConfig::vulcan();
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert!(out.moved.is_empty());
        assert_eq!(out.failed.len(), 4, "every promotion failed transiently");
        for &vpn in &pages {
            assert_eq!(p.space.pte(vpn).tier(), Some(TierKind::Slow), "restored");
        }
        assert_eq!(m.free_pages(TierKind::Fast), fast_before, "no fast leak");
        assert_eq!(m.free_pages(TierKind::Slow), slow_before, "no slow leak");
        assert_eq!(
            m.faults.stats().recovered[FaultSite::AllocFast.index()],
            4,
            "recoveries attributed"
        );
    }

    /// Regression (ISSUE 5): a failing page copy mid-batch must release
    /// the already-allocated destination frame and restore the source
    /// mapping — the pre-fix engine had no failure path between alloc
    /// and remap.
    #[test]
    fn sync_copy_fault_restores_mapping_and_frees_dest() {
        use vulcan_sim::{FaultConfig, FaultPlan, FaultSite};
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 4);
        m.faults = FaultPlan::new(11, FaultConfig::single(FaultSite::CopyFail, 1.0));
        let cfg = MechanismConfig::vulcan();
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert!(out.moved.is_empty());
        assert_eq!(out.failed.len(), 4);
        for &(vpn, err) in &out.failed {
            assert_eq!(err, MigrateError::CopyFailed(vpn));
            assert_eq!(p.space.pte(vpn).tier(), Some(TierKind::Slow));
        }
        assert_eq!(m.free_pages(TierKind::Fast), 16, "dest frames released");
        assert_eq!(out.phases.copy, Cycles::ZERO, "no successful copy charged");
    }

    /// Injected ack timeouts surface through the sync outcome so the
    /// runtime can feed retry histograms.
    #[test]
    fn sync_shootdown_timeouts_reported_and_charged() {
        use vulcan_sim::{FaultConfig, FaultPlan, FaultSite};
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 2);
        let cfg = MechanismConfig::vulcan();
        let clean = {
            let (mut p2, mut m2, mut t2, mut s2) = setup(16, 16);
            let pages2 = map_slow(&mut p2, &mut m2, 2);
            migrate_sync(
                &mut p2,
                &mut m2,
                &mut t2,
                &mut s2,
                &pages2,
                TierKind::Fast,
                &cfg,
            )
        };
        m.faults = FaultPlan::new(5, FaultConfig::single(FaultSite::ShootdownTimeout, 1.0));
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        assert_eq!(out.moved.len(), 2, "migration still succeeds");
        assert_eq!(out.sd_retries, m.faults.config().max_shootdown_retries);
        assert!(out.sd_escalated);
        assert!(
            out.phases.shootdown > clean.phases.shootdown,
            "retries + backoff charged to the cost model"
        );
    }

    /// Async transactions under injected copy faults release their
    /// reserved frames and never start a doomed transaction.
    #[test]
    fn async_copy_fault_releases_reservation() {
        use vulcan_sim::{FaultConfig, FaultPlan, FaultSite};
        let (mut p, mut m, mut t, _s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 3);
        m.faults = FaultPlan::new(2, FaultConfig::single(FaultSite::CopyFail, 1.0));
        let mut am = AsyncMigrator::new();
        let started = am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
        assert_eq!(started, 0);
        assert_eq!(am.stats.copy_faulted, 3);
        assert_eq!(m.free_pages(TierKind::Fast), 16, "reservations released");
        for &vpn in &pages {
            assert_eq!(p.space.pte(vpn).tier(), Some(TierKind::Slow));
        }
    }

    #[test]
    fn clean_demotion_uses_shadow_remap() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 2);
        let cfg = MechanismConfig::vulcan();
        migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        let slow_free_before = m.free_pages(TierKind::Slow);
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Slow, &cfg);
        assert_eq!(out.remap_only, 2, "clean pages remap to shadows");
        assert_eq!(out.phases.copy, Cycles::ZERO);
        // No new slow frames consumed: the shadows were reused.
        assert_eq!(m.free_pages(TierKind::Slow), slow_free_before);
        assert_eq!(m.free_pages(TierKind::Fast), 16);
    }

    #[test]
    fn dirty_demotion_copies() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 1);
        let cfg = MechanismConfig::vulcan();
        migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Fast, &cfg);
        // Write the promoted page: shadow is stale.
        p.space.touch(pages[0], LocalTid(0), true).unwrap();
        let out = migrate_sync(&mut p, &mut m, &mut t, &mut s, &pages, TierKind::Slow, &cfg);
        assert_eq!(out.remap_only, 0);
        assert_eq!(out.moved.len(), 1);
        assert!(out.phases.copy > Cycles::ZERO);
        assert_eq!(p.space.pte(pages[0]).tier(), Some(TierKind::Slow));
        // The stale shadow was released: all slow frames accounted for.
        assert_eq!(m.free_pages(TierKind::Slow), 15);
    }

    #[test]
    fn vulcan_mechanism_is_cheaper_than_baseline() {
        let cfg_v = MechanismConfig::vulcan();
        let cfg_b = MechanismConfig::linux_baseline();
        let (mut p1, mut m1, mut t1, mut s1) = setup(64, 64);
        let pages1 = map_slow(&mut p1, &mut m1, 16);
        let v = migrate_sync(
            &mut p1,
            &mut m1,
            &mut t1,
            &mut s1,
            &pages1,
            TierKind::Fast,
            &cfg_v,
        );
        let (mut p2, mut m2, mut t2, mut s2) = setup(64, 64);
        let pages2 = map_slow(&mut p2, &mut m2, 16);
        let b = migrate_sync(
            &mut p2,
            &mut m2,
            &mut t2,
            &mut s2,
            &pages2,
            TierKind::Fast,
            &cfg_b,
        );
        // On this 8-core test machine the preparation gap is modest; the
        // 32-core benches show the full 3-4x of Figure 7.
        assert!(
            v.total_cycles().0 * 13 < b.total_cycles().0 * 10,
            "vulcan {} vs baseline {}",
            v.total_cycles(),
            b.total_cycles()
        );
    }

    #[test]
    fn async_commit_moves_clean_page() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 1);
        let cfg = MechanismConfig::vulcan();
        let mut am = AsyncMigrator::new();
        let started = am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
        assert_eq!(started, 1);
        assert!(am.is_inflight(pages[0]));
        // Source still mapped in slow tier during the copy.
        assert_eq!(p.space.pte(pages[0]).tier(), Some(TierKind::Slow));
        // Not yet due.
        let early = am.poll(&mut p, &mut m, &mut t, &mut s, Nanos(1), &cfg, &mut |_| 0.0);
        assert!(early.committed.is_empty());
        let done = am.poll(
            &mut p,
            &mut m,
            &mut t,
            &mut s,
            Nanos::millis(1),
            &cfg,
            &mut |_| 0.0,
        );
        assert_eq!(done.committed, pages);
        assert_eq!(p.space.pte(pages[0]).tier(), Some(TierKind::Fast));
        assert_eq!(am.stats.committed, 1);
        assert!(done.background > Cycles::ZERO);
    }

    #[test]
    fn async_dirty_page_retries_then_aborts() {
        let (mut p, mut m, mut t, mut s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 1);
        let cfg = MechanismConfig {
            max_async_retries: 2,
            ..MechanismConfig::vulcan()
        };
        let mut am = AsyncMigrator::new();
        am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
        let mut now = Nanos(0);
        for round in 0..3 {
            // The workload writes the page during every copy window.
            p.space.touch(pages[0], LocalTid(0), true).unwrap();
            now += Nanos::millis(1);
            let poll = am.poll(&mut p, &mut m, &mut t, &mut s, now, &cfg, &mut |_| 1.0);
            if round < 2 {
                assert!(poll.aborted.is_empty(), "round {round} should retry");
            } else {
                assert_eq!(poll.aborted, pages, "retries exhausted");
            }
        }
        assert_eq!(am.stats.retried, 2);
        assert_eq!(am.stats.aborted, 1);
        // Page stayed in the slow tier; the reserved fast frame was freed.
        assert_eq!(p.space.pte(pages[0]).tier(), Some(TierKind::Slow));
        assert_eq!(m.free_pages(TierKind::Fast), 16);
    }

    #[test]
    fn async_does_not_double_start() {
        let (mut p, mut m, mut t, _s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 1);
        let mut am = AsyncMigrator::new();
        assert_eq!(
            am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0)),
            1
        );
        assert_eq!(
            am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0)),
            0
        );
        assert_eq!(am.inflight(), 1);
    }

    #[test]
    fn async_abort_all_releases_frames() {
        let (mut p, mut m, mut t, _s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 3);
        let mut am = AsyncMigrator::new();
        am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
        assert_eq!(m.free_pages(TierKind::Fast), 13);
        am.abort_all(&mut m);
        assert_eq!(m.free_pages(TierKind::Fast), 16);
        assert_eq!(am.inflight(), 0);
    }

    #[test]
    fn async_start_stops_when_dest_full() {
        let (mut p, mut m, mut t, _s) = setup(2, 16);
        let pages = map_slow(&mut p, &mut m, 4);
        let mut am = AsyncMigrator::new();
        assert_eq!(
            am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0)),
            2
        );
    }

    #[test]
    fn mechanism_config_roundtrips_presets_and_overrides() {
        use vulcan_json::Snapshot;
        for cfg in [
            MechanismConfig::linux_baseline(),
            MechanismConfig::vulcan(),
            MechanismConfig {
                sd_mode: ShootdownMode::Cold,
                max_async_retries: 9,
                ..MechanismConfig::vulcan()
            },
        ] {
            let back = MechanismConfig::restore(&cfg.snapshot()).expect("restore");
            assert_eq!(back, cfg);
        }
    }

    /// A restored migrator must replay the exact dirty-check stream:
    /// `poll` draws one RNG value per due transaction, so losing the RNG
    /// position (or reordering the in-flight queue) silently changes
    /// which pages retry, which abort, and when — the hidden-state class
    /// the checkpoint round-trip oracle exists to catch.
    #[test]
    fn async_snapshot_roundtrip_replays_the_dirty_check_stream() {
        use vulcan_json::Snapshot;
        type RoundLog = Vec<(Vec<Vpn>, Vec<Vpn>)>;
        let run = |restore_at: Option<usize>| -> (RoundLog, AsyncStats) {
            let (mut p, mut m, mut t, mut s) = setup(16, 16);
            let pages = map_slow(&mut p, &mut m, 6);
            let cfg = MechanismConfig {
                max_async_retries: 2,
                ..MechanismConfig::vulcan()
            };
            let mut am = AsyncMigrator::with_seed(42);
            am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
            let mut log = Vec::new();
            let mut now = Nanos(0);
            for round in 0..6 {
                now += Nanos::millis(1);
                // 50% dirty windows: every due transaction consumes one
                // RNG draw, and retries keep transactions in flight.
                let poll = am.poll(&mut p, &mut m, &mut t, &mut s, now, &cfg, &mut |_| 0.5);
                log.push((poll.committed.clone(), poll.aborted.clone()));
                if restore_at == Some(round) {
                    let snap_v = am.snapshot();
                    let back = AsyncMigrator::restore(&snap_v).expect("restore");
                    assert_eq!(back.snapshot(), snap_v, "snapshot(restore(c)) == c");
                    am = back;
                }
            }
            (log, am.stats)
        };
        let (straight_log, straight_stats) = run(None);
        assert!(
            straight_stats.committed > 0 && straight_stats.retried > 0,
            "scenario must exercise both commits and retries: {straight_stats:?}"
        );
        for at in 0..3 {
            let (log, stats) = run(Some(at));
            assert_eq!(log, straight_log, "restore at round {at} diverged");
            assert_eq!(stats, straight_stats, "restore at round {at} stats");
        }
    }

    #[test]
    fn async_restore_rejects_a_vpn_in_flight_twice() {
        use vulcan_json::Snapshot;
        let (mut p, mut m, mut t, _s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 2);
        let mut am = AsyncMigrator::new();
        am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
        let mut snap_v = am.snapshot();
        let vulcan_json::Value::Object(o) = &mut snap_v else {
            panic!("snapshot is not an object")
        };
        o.insert("vpns", vulcan_json::snap::u64_array(&[1, 1]));
        match AsyncMigrator::restore(&snap_v) {
            Ok(_) => panic!("a VPN in flight twice must be rejected"),
            Err(e) => assert!(
                e.contains("VPN 0x1 is in flight twice"),
                "unexpected error: {e}"
            ),
        }
    }

    /// The linear-scan migrator this module replaced, kept as the
    /// reference: `start` with membership by scanning `inflight`, and
    /// `poll` planning each commit's shootdown from scratch. It drives
    /// an `AsyncMigrator`'s queue, RNG and stats but never reads or
    /// writes the derived VPN set.
    mod linear {
        use super::super::*;

        pub fn start(
            am: &mut AsyncMigrator,
            process: &mut Process,
            machine: &mut Machine,
            tlbs: &mut TlbArray,
            pages: &[Vpn],
            dest: TierKind,
            now: Nanos,
        ) -> usize {
            let copy_time = machine.spec().migration_costs.copy_single.to_nanos();
            let mut started = 0;
            for &vpn in pages {
                let pte = process.space.pte(vpn);
                if !pte.present()
                    || pte.tier() == Some(dest)
                    || am.inflight.iter().any(|t| t.vpn == vpn)
                {
                    continue;
                }
                let Some(src_tier) = pte.tier() else {
                    continue;
                };
                let Ok(dest_frame) = machine.alloc(dest) else {
                    if machine.last_alloc_injected() {
                        machine.faults.note_recovery(FaultSite::alloc_for(dest));
                        continue;
                    }
                    break;
                };
                if machine.faults.copy_fails() {
                    machine.free(dest_frame);
                    machine.faults.note_recovery(FaultSite::CopyFail);
                    am.stats.copy_faulted += 1;
                    continue;
                }
                split_and_flush_huge(process, machine, tlbs, &[vpn]);
                process.space.set_pte(vpn, pte.clear_dirty());
                machine.record_page_copy(src_tier, dest);
                am.inflight.push(Txn {
                    vpn,
                    dest,
                    dest_frame,
                    completes: now + copy_time,
                    retries: 0,
                });
                started += 1;
            }
            am.stats.started += started as u64;
            started
        }

        #[allow(clippy::too_many_arguments)]
        pub fn poll(
            am: &mut AsyncMigrator,
            process: &mut Process,
            machine: &mut Machine,
            tlbs: &mut TlbArray,
            shadows: &mut ShadowRegistry,
            now: Nanos,
            cfg: &MechanismConfig,
            dirty_prob: &mut dyn FnMut(Vpn) -> f64,
        ) -> AsyncPoll {
            let mut out = AsyncPoll::default();
            let costs = machine.spec().migration_costs.clone();
            let copy_time = costs.copy_single.to_nanos();
            let mut remaining = Vec::with_capacity(am.inflight.len());
            for mut txn in std::mem::take(&mut am.inflight) {
                if txn.completes > now {
                    remaining.push(txn);
                    continue;
                }
                let pte = process.space.pte(txn.vpn);
                if !pte.present() || pte.tier() == Some(txn.dest) {
                    machine.free(txn.dest_frame);
                    am.stats.aborted += 1;
                    out.aborted.push(txn.vpn);
                    continue;
                }
                if am.rng.gen::<f64>() < dirty_prob(txn.vpn) {
                    if txn.retries >= cfg.max_async_retries {
                        machine.free(txn.dest_frame);
                        am.stats.aborted += 1;
                        out.aborted.push(txn.vpn);
                        continue;
                    }
                    txn.retries += 1;
                    txn.completes = now + copy_time;
                    am.stats.retried += 1;
                    process.space.set_pte(txn.vpn, pte.clear_dirty());
                    if let Some(src_tier) = pte.tier() {
                        machine.record_page_copy(src_tier, txn.dest);
                    }
                    remaining.push(txn);
                    continue;
                }
                let page = [txn.vpn];
                let plan = shootdown::plan(process, &machine.topology, &page, cfg.scope);
                let sd = shootdown::execute_faulty(
                    &plan,
                    process,
                    tlbs,
                    &costs,
                    cfg.sd_mode,
                    &mut machine.faults,
                )
                .cycles;
                let Some(old) = process.space.unmap(txn.vpn) else {
                    machine.free(txn.dest_frame);
                    am.stats.aborted += 1;
                    out.aborted.push(txn.vpn);
                    out.background += sd;
                    continue;
                };
                let Some(old_frame) = old.frame() else {
                    process.space.set_pte(txn.vpn, old);
                    machine.free(txn.dest_frame);
                    am.stats.aborted += 1;
                    out.aborted.push(txn.vpn);
                    out.background += sd;
                    continue;
                };
                if cfg.shadowing && txn.dest.index() < old_frame.tier.index() {
                    if let Some(stale) = shadows.retain(txn.vpn, old_frame) {
                        machine.free(stale);
                    }
                } else {
                    machine.free(old_frame);
                }
                process
                    .space
                    .set_pte(txn.vpn, old.with_frame(txn.dest_frame).clear_dirty());
                out.background += sd + costs.unmap + costs.remap;
                am.stats.committed += 1;
                out.committed.push(txn.vpn);
            }
            am.inflight = remaining;
            out
        }
    }

    proptest::proptest! {
        /// The indexed migrator and the linear-scan reference, driven by
        /// the same random `start`/`poll` sequence (batches with repeated
        /// VPNs, shared pages, a destination that fills up, dirty
        /// retries, both shootdown scopes), agree on every return value,
        /// the in-flight order, the stats and the snapshot, and leave
        /// identical page tables and frame pools.
        #[test]
        fn indexed_migrator_matches_the_linear_scan_reference(
            targeted in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0u64..12, 0..8), 0u8..4),
                1..40,
            ),
        ) {
            use proptest::prelude::*;
            use vulcan_json::Snapshot;
            let cfg = MechanismConfig {
                max_async_retries: 1,
                scope: if targeted { ShootdownScope::Targeted } else { ShootdownScope::ProcessWide },
                ..MechanismConfig::vulcan()
            };
            let world = || {
                let (mut p, mut m, t, s) = setup(6, 16);
                let pages = map_slow(&mut p, &mut m, 12);
                for &v in pages.iter().step_by(3) {
                    p.space.touch(v, LocalTid(2), false).unwrap(); // shared
                }
                (p, m, t, s)
            };
            let (mut p1, mut m1, mut t1, mut s1) = world();
            let (mut p2, mut m2, mut t2, mut s2) = world();
            let mut indexed = AsyncMigrator::with_seed(7);
            let mut reference = AsyncMigrator::with_seed(7);
            let mut now = Nanos(0);
            // Writes in the copy window: pages 0, 4, 8 always, 2, 6, 10
            // half the time, the rest never.
            let mut dirty = |v: Vpn| [1.0, 0.0, 0.5, 0.0][v.0 as usize % 4];
            for (step, (op, batch, dest)) in ops.iter().enumerate() {
                let pages: Vec<Vpn> = batch.iter().map(|&v| Vpn(v)).collect();
                if *op == 0 {
                    let dest = if *dest == 0 { TierKind::Slow } else { TierKind::Fast };
                    let a = indexed.start(&mut p1, &mut m1, &mut t1, &pages, dest, now);
                    let b = linear::start(&mut reference, &mut p2, &mut m2, &mut t2, &pages, dest, now);
                    prop_assert_eq!(a, b, "start at step {}", step);
                } else {
                    now += Nanos(u64::from(*dest) * 400);
                    let a = indexed.poll(&mut p1, &mut m1, &mut t1, &mut s1, now, &cfg, &mut dirty);
                    let b = linear::poll(&mut reference, &mut p2, &mut m2, &mut t2, &mut s2, now, &cfg, &mut dirty);
                    prop_assert_eq!(&a.committed, &b.committed, "step {}", step);
                    prop_assert_eq!(&a.aborted, &b.aborted, "step {}", step);
                    prop_assert_eq!(a.background, b.background, "step {}", step);
                }
                prop_assert_eq!(indexed.stats, reference.stats, "step {}", step);
                prop_assert_eq!(indexed.snapshot(), reference.snapshot(), "step {}", step);
                for v in 0..12 {
                    let scanned = reference.inflight.iter().any(|t| t.vpn == Vpn(v));
                    prop_assert_eq!(indexed.is_inflight(Vpn(v)), scanned, "vpn {} at step {}", v, step);
                }
                prop_assert_eq!(p1.snapshot(), p2.snapshot(), "step {}", step);
                for tier in [TierKind::Fast, TierKind::Slow] {
                    prop_assert_eq!(m1.free_pages(tier), m2.free_pages(tier));
                }
            }
            let back = AsyncMigrator::restore(&indexed.snapshot()).expect("restore");
            for v in 0..12 {
                prop_assert_eq!(back.is_inflight(Vpn(v)), indexed.is_inflight(Vpn(v)));
            }
        }
    }

    #[test]
    fn async_restore_rejects_mismatched_txn_arrays() {
        use vulcan_json::Snapshot;
        let (mut p, mut m, mut t, _s) = setup(16, 16);
        let pages = map_slow(&mut p, &mut m, 2);
        let mut am = AsyncMigrator::new();
        am.start(&mut p, &mut m, &mut t, &pages, TierKind::Fast, Nanos(0));
        let mut snap_v = am.snapshot();
        if let vulcan_json::Value::Object(o) = &mut snap_v {
            o.insert("retries", vulcan_json::snap::u64_array(&[0]));
        } else {
            panic!("snapshot is not an object");
        }
        match AsyncMigrator::restore(&snap_v) {
            Ok(_) => panic!("corrupt snapshot must be rejected"),
            Err(e) => assert!(e.contains("mismatched lengths"), "unexpected error: {e}"),
        }
    }
}
