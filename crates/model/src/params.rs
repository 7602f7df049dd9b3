//! Thresholds and hardware constants used by the taxonomy metrics
//! (§V-A of the paper).

use ggs_sim::SystemParams;

/// Parameters of the metric computation and classification.
///
/// Defaults follow the paper: thread blocks of 256 threads, 32-thread
/// warps, 15 SMs, 32 KB L1 / 4 MB L2; volume thresholds 1.5×L1 (low) and
/// L2/|SM| (high); reuse thresholds 0.15/0.40; imbalance thresholds
/// 0.05/0.25; k-means centroid-gap threshold 10.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricParams {
    /// Threads per thread block (|TB| in Equations 2–5).
    pub tb_size: u32,
    /// Threads per warp (imbalance clusters per-warp max degrees).
    pub warp_size: u32,
    /// Number of GPU cores (|SM| in Equation 1).
    pub num_sms: u32,
    /// Bytes per graph element (vertices and edges are 4-byte words).
    pub bytes_per_element: f64,
    /// Per-core L1 capacity in KB.
    pub l1_kb: f64,
    /// Shared L2 capacity in KB.
    pub l2_kb: f64,
    /// Volume is *low* below `vol_low_factor × l1_kb`.
    pub vol_low_factor: f64,
    /// Reuse is *low* below this.
    pub reuse_low: f64,
    /// Reuse is *high* above this.
    pub reuse_high: f64,
    /// Imbalance is *low* below this.
    pub imb_low: f64,
    /// Imbalance is *high* above this.
    pub imb_high: f64,
    /// A thread block is imbalanced when its two k-means centroids of
    /// per-warp max degree differ by more than this.
    pub kmeans_gap: f64,
}

impl Default for MetricParams {
    fn default() -> Self {
        Self {
            tb_size: 256,
            warp_size: 32,
            num_sms: 15,
            bytes_per_element: 4.0,
            l1_kb: 32.0,
            l2_kb: 4096.0,
            vol_low_factor: 1.5,
            reuse_low: 0.15,
            reuse_high: 0.40,
            imb_low: 0.05,
            imb_high: 0.25,
            kmeans_gap: 10.0,
        }
    }
}

impl MetricParams {
    /// Derives metric parameters from simulator [`SystemParams`] so the
    /// classifier and the simulated hardware always agree on geometry.
    pub fn from_system(params: &SystemParams) -> Self {
        Self {
            tb_size: params.tb_size,
            warp_size: params.warp_size,
            num_sms: params.num_sms,
            l1_kb: params.l1_kb(),
            l2_kb: params.l2_kb(),
            ..Self::default()
        }
    }

    /// Returns the parameters with L1/L2 capacities multiplied by
    /// `factor` (pair this with `SystemParams::scaled_caches` and graph
    /// `scale` so that volume classes survive scale reduction).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled_caches(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        self.l1_kb *= factor;
        self.l2_kb *= factor;
        self
    }

    /// The volume value (KB) below which volume is classified low.
    pub fn volume_low_kb(&self) -> f64 {
        self.vol_low_factor * self.l1_kb
    }

    /// The volume value (KB) above which volume is classified high.
    pub fn volume_high_kb(&self) -> f64 {
        self.l2_kb / self.num_sms as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = MetricParams::default();
        assert_eq!(p.volume_low_kb(), 48.0);
        assert!((p.volume_high_kb() - 273.066).abs() < 0.01);
        assert_eq!(p.reuse_low, 0.15);
        assert_eq!(p.imb_high, 0.25);
        assert_eq!(p.kmeans_gap, 10.0);
    }

    #[test]
    fn from_system_copies_geometry() {
        let sys = SystemParams::default().scaled_caches(0.5).unwrap();
        let p = MetricParams::from_system(&sys);
        assert_eq!(p.l1_kb, 16.0);
        assert_eq!(p.l2_kb, 2048.0);
        assert_eq!(p.num_sms, 15);
    }

    #[test]
    fn scaled_caches_scales_thresholds() {
        let p = MetricParams::default().scaled_caches(0.125);
        assert_eq!(p.volume_low_kb(), 6.0);
        assert!((p.volume_high_kb() - 34.133).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_scale() {
        let _ = MetricParams::default().scaled_caches(-1.0);
    }
}
