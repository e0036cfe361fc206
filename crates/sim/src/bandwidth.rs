//! Bandwidth accounting and contention-induced latency inflation.
//!
//! §3.6 notes that co-located workloads "compete for limited system
//! resources (e.g., memory bandwidth)" and that under contention the fast
//! tier's latency advantage can shrink (the Colloid observation). We model
//! this with per-tier, per-quantum byte accounting: the utilization of the
//! previous quantum inflates access latency in the current one following a
//! queueing-style `1/(1-ρ)` curve, capped to keep the simulation stable.

use crate::tier::{TierKind, MAX_TIERS};
use crate::time::Nanos;

/// Maximum latency inflation under saturation. Beyond ~4x the real system
/// would be fully queue-bound; the cap keeps feedback loops stable.
pub const MAX_INFLATION: f64 = 4.0;

/// Tracks bytes moved per tier within a quantum and derives contention.
#[derive(Clone, Debug)]
pub struct BandwidthTracker {
    /// Peak bandwidth per tier (bytes/ns), indexed by `TierKind::index()`.
    /// Tiers absent from the machine's chain carry a placeholder peak of
    /// 1.0; they never see bytes, so their utilization is exactly 0 and
    /// their inflation exactly 1.0.
    peak: [f64; MAX_TIERS],
    /// Bytes transferred in the current quantum.
    bytes: [u64; MAX_TIERS],
    /// Latency inflation factor derived from the *previous* quantum.
    inflation: [f64; MAX_TIERS],
}

impl BandwidthTracker {
    /// Create a tracker from the chain's per-tier peak bandwidths
    /// (bytes/ns), fastest first. Tiers beyond `chain_peaks.len()` are
    /// absent and get the placeholder peak.
    pub fn new(chain_peaks: &[f64]) -> Self {
        assert!(
            !chain_peaks.is_empty() && chain_peaks.len() <= MAX_TIERS,
            "chain of {} tiers",
            chain_peaks.len()
        );
        let mut peak = [1.0; MAX_TIERS];
        for (slot, &p) in peak.iter_mut().zip(chain_peaks) {
            assert!(p > 0.0, "tier peak bandwidth must be positive");
            *slot = p;
        }
        BandwidthTracker {
            peak,
            bytes: [0; MAX_TIERS],
            inflation: [1.0; MAX_TIERS],
        }
    }

    /// Swap the per-tier peak bandwidths (what-if forks: 2× CXL, thinned
    /// NVM) while keeping the in-quantum byte counters and the inflation
    /// factors — the fork continues the run, it does not restart it.
    /// Same validation as [`new`](BandwidthTracker::new).
    pub fn set_peaks(&mut self, chain_peaks: &[f64]) {
        assert!(
            !chain_peaks.is_empty() && chain_peaks.len() <= MAX_TIERS,
            "chain of {} tiers",
            chain_peaks.len()
        );
        let mut peak = [1.0; MAX_TIERS];
        for (slot, &p) in peak.iter_mut().zip(chain_peaks) {
            assert!(p > 0.0, "tier peak bandwidth must be positive");
            *slot = p;
        }
        self.peak = peak;
    }

    /// Record `bytes` moved to/from `tier` (demand accesses and migration
    /// copies both count — migration traffic steals workload bandwidth).
    pub fn record(&mut self, tier: TierKind, bytes: u64) {
        self.bytes[tier.index()] += bytes;
    }

    /// Bytes recorded against `tier` so far this quantum.
    pub fn bytes_this_quantum(&self, tier: TierKind) -> u64 {
        self.bytes[tier.index()]
    }

    /// Utilization `ρ` of `tier` if the current quantum lasted `quantum`.
    pub fn utilization(&self, tier: TierKind, quantum: Nanos) -> f64 {
        if quantum.0 == 0 {
            return 0.0;
        }
        let offered = self.bytes[tier.index()] as f64 / quantum.0 as f64;
        offered / self.peak[tier.index()]
    }

    /// Close the quantum: derive next-quantum inflation from utilization
    /// and reset byte counters. Absent tiers see zero bytes, so their
    /// factor stays exactly 1.0 — the loop can safely cover `ALL`.
    pub fn end_quantum(&mut self, quantum: Nanos) {
        for tier in TierKind::ALL {
            let rho = self.utilization(tier, quantum).min(0.999);
            // M/M/1-style queueing delay growth, clamped.
            let f = (1.0 / (1.0 - rho)).min(MAX_INFLATION);
            self.inflation[tier.index()] = f.max(1.0);
            self.bytes[tier.index()] = 0;
        }
    }

    /// Current latency inflation factor for `tier` (≥ 1).
    pub fn inflation(&self, tier: TierKind) -> f64 {
        self.inflation[tier.index()]
    }

    /// Apply the inflation factor to an unloaded latency.
    pub fn inflate(&self, tier: TierKind, unloaded: Nanos) -> Nanos {
        Nanos((unloaded.0 as f64 * self.inflation(tier)).round() as u64)
    }
}

impl vulcan_json::Snapshot for BandwidthTracker {
    /// Inflation factors derive from the *previous* quantum, so they are
    /// live state across a quantum boundary (ISSUE 10 satellite: the
    /// cached loaded latencies in [`crate::Machine`] depend on them).
    /// Peaks are spec-derived but tiny, so they travel too; bytes are
    /// zero at a boundary yet serialized for mid-quantum generality.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        snap::obj(vec![
            ("peak", snap::f64_array(&self.peak)),
            ("bytes", snap::u64_array(&self.bytes)),
            ("inflation", snap::f64_array(&self.inflation)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        fn arr<T: Copy, const N: usize>(xs: Vec<T>, key: &str) -> Result<[T; N], String> {
            <[T; N]>::try_from(xs.as_slice())
                .map_err(|_| format!("\"{key}\" needs {N} entries, got {}", xs.len()))
        }
        Ok(BandwidthTracker {
            peak: arr(snap::array_f64(snap::field(v, "peak")?)?, "peak")?,
            bytes: arr(snap::array_u64(snap::field(v, "bytes")?)?, "bytes")?,
            inflation: arr(snap::array_f64(snap::field(v, "inflation")?)?, "inflation")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_tier_has_no_inflation() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0]);
        bw.end_quantum(Nanos::millis(1));
        assert_eq!(bw.inflation(TierKind::Fast), 1.0);
        assert_eq!(bw.inflation(TierKind::Slow), 1.0);
        assert_eq!(bw.inflation(TierKind::Nvm), 1.0);
    }

    #[test]
    fn utilization_computation() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0]);
        // 25 bytes/ns * 1000 ns = 25_000 bytes saturates the slow tier.
        bw.record(TierKind::Slow, 12_500);
        let rho = bw.utilization(TierKind::Slow, Nanos(1000));
        assert!((rho - 0.5).abs() < 1e-9, "rho={rho}");
    }

    #[test]
    fn saturation_inflates_and_caps() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0]);
        bw.record(TierKind::Slow, 10 * 25_000); // 10x oversubscribed
        bw.end_quantum(Nanos(1000));
        assert_eq!(bw.inflation(TierKind::Slow), MAX_INFLATION);
        // Fast tier untouched.
        assert_eq!(bw.inflation(TierKind::Fast), 1.0);
    }

    #[test]
    fn half_load_doubles_latency() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0]);
        bw.record(TierKind::Slow, 12_500);
        bw.end_quantum(Nanos(1000));
        let inflated = bw.inflate(TierKind::Slow, Nanos(162));
        assert_eq!(inflated, Nanos(324));
    }

    #[test]
    fn third_tier_tracks_its_own_contention() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0, 8.0]);
        bw.record(TierKind::Nvm, 4_000); // ρ = 0.5 at 8 bytes/ns × 1000 ns
        bw.end_quantum(Nanos(1000));
        assert_eq!(bw.inflate(TierKind::Nvm, Nanos(350)), Nanos(700));
        assert_eq!(bw.inflation(TierKind::Slow), 1.0);
    }

    #[test]
    fn counters_reset_each_quantum() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0]);
        bw.record(TierKind::Fast, 1_000);
        bw.end_quantum(Nanos(1000));
        assert_eq!(bw.bytes_this_quantum(TierKind::Fast), 0);
    }

    #[test]
    fn migration_traffic_counts() {
        let mut bw = BandwidthTracker::new(&[205.0, 25.0]);
        bw.record(TierKind::Slow, 4096); // a page copy read
        assert_eq!(bw.bytes_this_quantum(TierKind::Slow), 4096);
    }
}
