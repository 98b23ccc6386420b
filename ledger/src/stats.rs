//! Order statistics over wall-clock samples.

/// A sample's summary: median, quartiles and count (what every wall
/// metric is reported with).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. With 4 000 samples
/// `p = 0.99` leaves 40 beyond it. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the two middle samples when
/// the count is even). Empty input gives 0.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = sorted(samples);
    Summary {
        median: median(&sorted),
        q1: percentile(&sorted, 0.25),
        q3: percentile(&sorted, 0.75),
        n: sorted.len(),
    }
}

impl Summary {
    /// Inter-quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 4 000 samples: p99 leaves exactly 40 beyond it.
        let many: Vec<f64> = (0..4000).map(f64::from).collect();
        let p99 = percentile(&many, 0.99);
        assert_eq!(many.iter().filter(|&&s| s > p99).count(), 40);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.5, 1.0, 3.0, 4));
        assert_eq!(s.spread(), 0.8);
    }
}
