//! Summary statistics over measured samples.

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; `None` when empty.
/// The value returned is always one of the samples, so a percentile never
/// reports a latency no job had.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Jain's fairness index of per-tenant service `served[i] / weight[i]`:
/// 1 when every tenant got service in proportion to its weight, 1/n when
/// one tenant got all of it. 0 when nothing was served.
pub fn jain_index(served: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(served.len(), weights.len(), "one weight per tenant");
    let x: Vec<f64> = served.iter().zip(weights).map(|(s, w)| s / w).collect();
    let sum: f64 = x.iter().sum();
    let sum_sq: f64 = x.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    sum * sum / (x.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        // 100 samples: p90 leaves exactly ten samples above it.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), Some(90.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0], &[1.0; 4]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[8.0, 0.0, 0.0, 0.0], &[1.0; 4]) - 0.25).abs() < 1e-12);
        // Service in proportion to weight is perfectly fair.
        assert!((jain_index(&[2.0, 4.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        // (1 + 3)^2 / (2 * (1 + 9)) = 0.8
        assert!((jain_index(&[1.0, 3.0], &[1.0, 1.0]) - 0.8).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
