//! Order statistics the benchmark reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `pct`th one.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// A percentile is reportable when at least ten samples lie beyond it
/// (≥1000 samples for a p99, ≥200 for a p95).
pub fn supported(n: usize, pct: f64) -> bool {
    samples_beyond(n, pct) >= 10
}

/// Sort in place and return the nearest-rank percentile.
pub fn percentile_of(samples: &mut [f64], pct: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, pct)
}

/// Median by nearest rank; 0 for an empty sample (a metric that does
/// not apply to the workload).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_of(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Nearest rank never interpolates: the answer is a sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 51.0), 3.0);
    }

    #[test]
    fn the_ten_samples_beyond_floor() {
        // p99 needs 1000 samples, p95 needs 200.
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(!supported(199, 95.0));
        assert!(supported(200, 95.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn median_sorts_and_tolerates_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
