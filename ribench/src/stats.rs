//! Summary statistics shared by every workload: nearest-rank
//! percentiles, the tail-percentile rule, medians and geometric means.

/// The tail percentiles a latency distribution may report, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported: a tail percentile backed by fewer is a single outlier.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`);
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of
/// `n` samples strictly above its rank, or `None` when even the median
/// has too few samples beyond it.
pub fn highest_reportable(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&q| n > 0 && n - rank(n, q) >= MIN_BEYOND)
}

/// Sort a sample vector ascending (NaN-free input assumed).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median by nearest rank (the lower middle for even counts).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(highest_reportable(1000), Some(0.99));
        // 999 samples leave only 9 beyond rank 990, so p95 is the limit.
        assert_eq!(highest_reportable(999), Some(0.95));
        assert_eq!(highest_reportable(10_000), Some(0.999));
        assert_eq!(highest_reportable(200), Some(0.95));
        assert_eq!(highest_reportable(100), Some(0.9));
        assert_eq!(highest_reportable(20), Some(0.5));
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(0), None);
    }

    #[test]
    fn geomean_of_known_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }
}
