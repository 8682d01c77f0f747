//! Order statistics: the percentile, median-of-slices and quartile-spread
//! arithmetic every reported number goes through.

/// Sorts ascending (latencies and rates are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank:
/// the smallest value with at least `p` % of the sample at or below it.
/// Empty input reads 0, so a kind a workload never issues reports 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile_sorted(&v, p)
}

/// Median with the usual midpoint for even counts; 0 for no data.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What a sliced measurement reports: the median of the per-slice values,
/// with the extremes beside it. One preemption burst lands in one slice
/// and moves `max`, not `median`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn sliced(per_slice: &[f64]) -> Sliced {
    Sliced {
        median: median(per_slice),
        min: per_slice.iter().copied().fold(f64::INFINITY, f64::min),
        max: per_slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// First and third quartile, the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses — the driver measures spread
/// with it, so `compare` does too.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when there are
/// too few values, or the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Unsorted input, small sample: p99 of 10 values is the maximum.
        assert_eq!(
            percentile(&[5.0, 1.0, 9.0, 3.0, 2.0, 8.0, 7.0, 6.0, 4.0, 10.0], 99.0),
            10.0
        );
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_slices_ignores_one_burst() {
        let s = sliced(&[10.0, 11.0, 10.5, 300.0, 10.2]);
        assert_eq!(s.median, 10.5);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 300.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
