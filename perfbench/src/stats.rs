//! Order statistics for the benchmark's reports.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, so a tail figure
//! is never read off a handful of points.

use serde::Serialize;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples. The
/// tolerance keeps decimal percentiles such as 99.9 from rounding up a
/// rank through binary floating-point error.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether percentile `p` of `n` samples leaves at least
/// [`TAIL_SAMPLES`] samples strictly beyond its rank.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n >= rank(n, p) + TAIL_SAMPLES
}

/// The highest of `candidates` (ascending) that [`tail_supported`] allows
/// for `n` samples, or `None` when even the lowest leaves too few.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| tail_supported(n, p))
}

/// Median of ascending `sorted` (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Repeat count, min, quartiles and max of a set of samples.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1: percentile(&s, 25.0),
            median: median(&s),
            q3: percentile(&s, 75.0),
            max: s[s.len() - 1],
        })
    }
}

/// Sorts a sample vector in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&ramp(4)), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));
        // p99 needs 1000 samples.
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        // The highest supported of the usual ladder.
        let ladder = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(120, &ladder), Some(90.0));
        assert_eq!(highest_supported(5_000, &ladder), Some(99.0));
        assert_eq!(highest_supported(10_000, &ladder), Some(99.9));
        assert_eq!(highest_supported(15, &ladder), None);
        // Every sample count the rule accepts really leaves ten beyond.
        for n in 1..2_000 {
            if let Some(p) = highest_supported(n, &ladder) {
                let s = ramp(n);
                let v = percentile(&s, p);
                assert!(
                    s.iter().filter(|&&x| x > v).count() >= TAIL_SAMPLES,
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn summary_orders_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert!(Summary::of(&[]).is_none());
    }
}
