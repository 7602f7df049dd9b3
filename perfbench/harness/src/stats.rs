//! Order statistics for reported timings.
//!
//! Every timing is reported as a median plus the highest percentile
//! that still has at least ten samples beyond it, so a tail figure never
//! rests on a handful of observations.

/// Candidate percentiles in per-mille, highest first. Integer per-mille
/// keeps the "ten samples beyond" test exact (`0.1 * 100` is not 10 in
/// binary floating point).
const CANDIDATES_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// The highest candidate percentile (in percent) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when not even the
/// median does (fewer than 20 samples).
pub fn highest_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    CANDIDATES_PERMILLE
        .iter()
        .find(|&&p| n * (1000 - p) >= MIN_BEYOND * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// The percentile a `*_p90` metric reports for `n` samples: 90 once
/// there are at least 100 samples, otherwise the highest percentile the
/// rule allows (75 from 40 samples, 50 from 20), and the median below
/// that.
pub fn tail_percentile(n: usize) -> f64 {
    highest_percentile(n).map_or(50.0, |p| p.min(90.0))
}

/// Nearest-rank percentile of `samples` (unsorted); 0 for no samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
