//! Enum-dispatch profiler engine for the per-access hot path.
//!
//! `Box<dyn Profiler>` would cost a virtual call per simulated access —
//! by far the most frequent call in the simulator. [`AnyProfiler`] avoids
//! it: the runtime stores the concrete profiler in an enum over the
//! closed set of profilers this crate implements, and the access path
//! dispatches through a `match`, which the compiler inlines into the
//! access loop.

use crate::advanced::{ChronoProfiler, TelescopeProfiler};
use crate::heat::HeatMap;
use crate::sampler::{
    AccessBatch, EpochOutcome, HintFaultProfiler, HybridProfiler, PebsProfiler, Profiler,
    PtScanProfiler,
};
use vulcan_vm::{AddressSpace, Vpn};

/// A profiler held by value, dispatched by `match` on the access path.
///
/// Every concrete profiler in this crate has a variant. `From` converts
/// each concrete profiler, boxed or not, so factory closures return
/// either via `.into()`.
pub enum AnyProfiler {
    /// PEBS-style event sampling ([`PebsProfiler`]).
    Pebs(PebsProfiler),
    /// Full page-table scanning ([`PtScanProfiler`]).
    PtScan(PtScanProfiler),
    /// NUMA hinting faults ([`HintFaultProfiler`]).
    HintFault(HintFaultProfiler),
    /// Vulcan's PEBS + hint-fault hybrid ([`HybridProfiler`]).
    Hybrid(HybridProfiler),
    /// Idle-time (timer) profiling ([`ChronoProfiler`]).
    Chrono(ChronoProfiler),
    /// Hierarchical page-table profiling ([`TelescopeProfiler`]).
    Telescope(TelescopeProfiler),
}

/// Statically dispatch a method over every variant.
macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyProfiler::Pebs($p) => $body,
            AnyProfiler::PtScan($p) => $body,
            AnyProfiler::HintFault($p) => $body,
            AnyProfiler::Hybrid($p) => $body,
            AnyProfiler::Chrono($p) => $body,
            AnyProfiler::Telescope($p) => $body,
        }
    };
}

/// Shared-reference version of [`dispatch!`].
macro_rules! dispatch_ref {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyProfiler::Pebs($p) => $body,
            AnyProfiler::PtScan($p) => $body,
            AnyProfiler::HintFault($p) => $body,
            AnyProfiler::Hybrid($p) => $body,
            AnyProfiler::Chrono($p) => $body,
            AnyProfiler::Telescope($p) => $body,
        }
    };
}

impl AnyProfiler {
    /// Observe one demand access (hot path — inlined enum dispatch).
    #[inline]
    pub fn on_access(&mut self, vpn: Vpn, is_write: bool) {
        dispatch!(self, p => p.on_access(vpn, is_write))
    }

    /// Observe a hinting fault taken on a poisoned PTE.
    #[inline]
    pub fn on_hint_fault(&mut self, vpn: Vpn, is_write: bool) {
        dispatch!(self, p => p.on_hint_fault(vpn, is_write))
    }

    /// Observe one quantum chunk's access plane (the batch boundary —
    /// enum dispatch runs once per plane, not once per access).
    ///
    /// Under the `oracle` feature every batch runs in lockstep with a
    /// scalar replay of the same plane on a clone of the profiler, and
    /// the touched heat entries are compared bitwise.
    #[inline]
    pub fn on_access_batch(&mut self, batch: &AccessBatch) {
        #[cfg(not(feature = "oracle"))]
        dispatch!(self, p => p.on_access_batch(batch));
        #[cfg(feature = "oracle")]
        match self {
            AnyProfiler::Pebs(p) => lockstep_batch(p, batch),
            AnyProfiler::PtScan(p) => lockstep_batch(p, batch),
            AnyProfiler::HintFault(p) => lockstep_batch(p, batch),
            AnyProfiler::Hybrid(p) => lockstep_batch(p, batch),
            AnyProfiler::Chrono(p) => lockstep_batch(p, batch),
            AnyProfiler::Telescope(p) => lockstep_batch(p, batch),
        }
    }

    /// Per-epoch maintenance (scanning, poisoning, decay).
    pub fn epoch(&mut self, space: &mut AddressSpace) -> EpochOutcome {
        dispatch!(self, p => p.epoch(space))
    }

    /// The accumulated heat map.
    #[inline]
    pub fn heat(&self) -> &HeatMap {
        dispatch_ref!(self, p => p.heat())
    }

    /// Mutable access to the heat map (the runtime pre-sizes it with
    /// [`HeatMap::reserve`]).
    #[inline]
    pub fn heat_mut(&mut self) -> &mut HeatMap {
        dispatch!(self, p => p.heat_mut())
    }

    /// Serialize this profiler for a checkpoint: `{kind, state}` with
    /// the concrete variant's full internal state.
    pub fn checkpoint_state(&self) -> vulcan_json::Value {
        use vulcan_json::{snap, Snapshot, Value};
        let (kind, state) = match self {
            AnyProfiler::Pebs(p) => ("pebs", p.snapshot()),
            AnyProfiler::PtScan(p) => ("ptscan", p.snapshot()),
            AnyProfiler::HintFault(p) => ("hintfault", p.snapshot()),
            AnyProfiler::Hybrid(p) => ("hybrid", p.snapshot()),
            AnyProfiler::Chrono(p) => ("chrono", p.snapshot()),
            AnyProfiler::Telescope(p) => ("telescope", p.snapshot()),
        };
        snap::obj(vec![
            ("kind", Value::Str(kind.to_string())),
            ("state", state),
        ])
    }

    /// Rebuild a profiler from [`checkpoint_state`](Self::checkpoint_state)
    /// output.
    pub fn from_checkpoint(v: &vulcan_json::Value) -> Result<AnyProfiler, String> {
        use crate::sampler::{HintFaultProfiler, HybridProfiler, PebsProfiler, PtScanProfiler};
        use vulcan_json::{snap, Snapshot};
        let kind = snap::field_str(v, "kind")?;
        let state = snap::field(v, "state")?;
        Ok(match kind {
            "pebs" => AnyProfiler::Pebs(PebsProfiler::restore(state)?),
            "ptscan" => AnyProfiler::PtScan(PtScanProfiler::restore(state)?),
            "hintfault" => AnyProfiler::HintFault(HintFaultProfiler::restore(state)?),
            "hybrid" => AnyProfiler::Hybrid(HybridProfiler::restore(state)?),
            "chrono" => AnyProfiler::Chrono(ChronoProfiler::restore(state)?),
            "telescope" => AnyProfiler::Telescope(TelescopeProfiler::restore(state)?),
            other => return Err(format!("unknown profiler kind \"{other}\"")),
        })
    }
}

/// Run `batch` through the specialized `on_access_batch` while a clone
/// replays it access-by-access through the scalar `on_access` /
/// `on_hint_fault` path, then diff every heat entry the plane touched —
/// the batched sweep's byte-identity contract, checked per chunk.
#[cfg(feature = "oracle")]
fn lockstep_batch<P: Profiler + Clone>(p: &mut P, batch: &AccessBatch) {
    use vulcan_oracle::{check, Structure};
    let mut reference = p.clone();
    batch.replay_scalar(&mut reference);
    p.on_access_batch(batch);
    for (i, &off) in batch.offsets.iter().enumerate() {
        let got = p.heat().get(Vpn(off));
        let want = reference.heat().get(Vpn(off));
        check(
            Structure::Batch,
            got.heat.to_bits() == want.heat.to_bits()
                && got.reads.to_bits() == want.reads.to_bits()
                && got.writes.to_bits() == want.writes.to_bits(),
            Some(off),
            || format!("plane index {i}: batched {got:?} vs scalar {want:?}"),
        );
    }
    check(
        Structure::Batch,
        p.heat().len() == reference.heat().len(),
        None,
        || {
            format!(
                "tracked pages: batched {} vs scalar {}",
                p.heat().len(),
                reference.heat().len()
            )
        },
    );
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for AnyProfiler {
            fn from(p: $ty) -> AnyProfiler {
                AnyProfiler::$variant(p)
            }
        }
        impl From<Box<$ty>> for AnyProfiler {
            fn from(p: Box<$ty>) -> AnyProfiler {
                AnyProfiler::$variant(*p)
            }
        }
    };
}

impl_from!(Pebs, PebsProfiler);
impl_from!(PtScan, PtScanProfiler);
impl_from!(HintFault, HintFaultProfiler);
impl_from!(Hybrid, HybridProfiler);
impl_from!(Chrono, ChronoProfiler);
impl_from!(Telescope, TelescopeProfiler);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_concrete_profilers_unbox_to_fast_variants() {
        let p: AnyProfiler = Box::new(PebsProfiler::new(4)).into();
        assert!(matches!(p, AnyProfiler::Pebs(_)));
        let p: AnyProfiler = Box::new(PtScanProfiler::new()).into();
        assert!(matches!(p, AnyProfiler::PtScan(_)));
        let p: AnyProfiler = Box::new(HintFaultProfiler::new(0.1)).into();
        assert!(matches!(p, AnyProfiler::HintFault(_)));
        let p: AnyProfiler = Box::new(ChronoProfiler::new(8)).into();
        assert!(matches!(p, AnyProfiler::Chrono(_)));
        let p: AnyProfiler = Box::new(TelescopeProfiler::new()).into();
        assert!(matches!(p, AnyProfiler::Telescope(_)));
    }

    #[test]
    fn checkpoint_roundtrips_every_concrete_variant() {
        let variants: Vec<AnyProfiler> = vec![
            PebsProfiler::new(8).into(),
            PtScanProfiler::new().into(),
            HintFaultProfiler::new(0.1).into(),
            HybridProfiler::vulcan_default().into(),
            ChronoProfiler::new(4).into(),
            TelescopeProfiler::new().into(),
        ];
        for mut p in variants {
            for i in 0..100u64 {
                p.on_access(Vpn(i % 16), i % 4 == 0);
            }
            let state = p.checkpoint_state();
            let back = match AnyProfiler::from_checkpoint(&state) {
                Ok(b) => b,
                Err(e) => panic!("restore: {e}"),
            };
            assert_eq!(back.checkpoint_state(), state, "idempotent roundtrip");
        }
    }

    /// A checkpoint naming a profiler kind outside the closed set fails
    /// with a typed error.
    #[test]
    fn custom_profiler_checkpoint_is_a_typed_error() {
        let bogus = AnyProfiler::from_checkpoint(&vulcan_json::snap::obj(vec![
            ("kind", vulcan_json::Value::Str("martian".into())),
            ("state", vulcan_json::Value::Null),
        ]));
        match bogus {
            Err(e) => assert!(e.contains("unknown profiler kind"), "{e}"),
            Ok(_) => panic!("bogus kind must not restore"),
        }
    }
}
