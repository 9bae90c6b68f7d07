//! The driver's own arithmetic: percentiles, quartiles, counter deltas.

/// Nearest-rank percentile of an ascending slice, with how many samples lie
/// beyond it. A tail percentile is only trustworthy with at least ten
/// samples beyond it (`reportable`); p99 needs 1 000 samples for that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub beyond: usize,
}

impl Percentile {
    pub fn reportable(&self) -> bool {
        self.beyond >= 10
    }
}

/// # Panics
///
/// Panics on an empty slice: every window measures at least one op.
pub fn percentile(sorted: &[u64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    Percentile {
        value: sorted[idx] as f64,
        beyond: sorted.len() - 1 - idx,
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), which is what the acceptance driver computes.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Growth of a monotone counter over a window. A counter that was reset
/// underneath the window reads as no growth, never as a huge wrap.
pub fn delta(after: u64, before: u64) -> u64 {
    after.saturating_sub(before)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        let p99 = percentile(&sorted, 99.0);
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.reportable());
        let p99 = percentile(&sorted[..999], 99.0);
        assert_eq!((p99.value, p99.beyond), (990.0, 9));
        assert!(!p99.reportable(), "nine samples beyond is one too few");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[7], 50.0).value, 7.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0).value, 2.0);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50.0).value, 3.0);
        let p100 = percentile(&[1, 2, 3], 100.0);
        assert_eq!((p100.value, p100.beyond), (3.0, 0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 40, 20], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deltas_of_monotone_counters_never_wrap() {
        assert_eq!(delta(150, 100), 50);
        assert_eq!(delta(100, 100), 0);
        assert_eq!(
            delta(3, 100),
            0,
            "a counter reset mid-window reads as no growth"
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
