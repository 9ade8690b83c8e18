//! Sample statistics: percentiles with a sample-count rule, and span-union
//! coverage of a time window.

/// Samples a percentile needs beyond it before it is reported as
/// supported: a p90 over 50 samples rests on 5 values and is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A percentile of a sample set, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond
/// quantile `q` (and, for the median-or-lower side, below it).
pub fn tail_supported(n: usize, q: f64) -> bool {
    let beyond = (n as f64) * (1.0 - q).min(q);
    beyond + 1e-9 >= MIN_TAIL_SAMPLES as f64
}

/// Quantile `q` in [0, 1] of `samples` by linear interpolation between
/// closest ranks (the `statistics.quantiles(method="inclusive")` rule).
/// An empty set reads 0 with `n = 0`.
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct { value: 0.0, n: 0 };
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = s[lo] + (s[hi] - s[lo]) * (pos - lo as f64);
    Pct { value, n }
}

/// Median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Length of the part of `window = (start, end)` covered by the union of
/// `intervals` (each `(start, end)`, any order, overlaps allowed).
pub fn covered(window: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let (w0, w1) = window;
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(w0), b.min(w1)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((c0, c1)) if a <= c1 => Some((c0, c1.max(b))),
            Some((c0, c1)) => {
                total += c1 - c0;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((c0, c1)) = cur {
        total += c1 - c0;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0).value, 1.0);
        assert_eq!(percentile(&s, 1.0).value, 4.0);
        assert_eq!(percentile(&s, 0.5).value, 2.5);
        // (n-1)·q = 3·0.9 = 2.7 → 3 + 0.7·(4-3)
        assert!((percentile(&s, 0.9).value - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(percentile(&[], 0.5).n, 0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(200, 0.95));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn coverage_is_the_union_clipped_to_the_window() {
        // Overlapping spans count once; gaps stay uncovered.
        let spans = [(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered((0, 100), &spans), 30);
        // Clipping at both window edges.
        assert_eq!(covered((12, 45), &spans), 18 + 5);
        // Nested and disjoint-outside spans.
        assert_eq!(covered((0, 100), &[(0, 100), (10, 20), (200, 300)]), 100);
        assert_eq!(covered((0, 10), &[]), 0);
        // Touching spans merge without double counting.
        assert_eq!(covered((0, 10), &[(0, 5), (5, 10)]), 10);
    }
}
