//! Order statistics for the harness: medians, quartiles and the tail
//! percentile a sample count can support.

/// Median of `values`: the middle quartile.
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, q2, q3)` by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses: quantile `k/4` sits at rank
/// `k (n + 1) / 4` (1-based), interpolated linearly and clamped to the
/// sample range. A single sample is its own three quartiles.
///
/// # Panics
/// If `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        let rank = k * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
/// If `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles the harness is willing to quote, ascending.
const TAIL_LADDER: [usize; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of [`TAIL_LADDER`] that still leaves at least
/// ten samples beyond it; 50 when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n * (100 - p) >= 10 * 100)
        .unwrap_or(TAIL_LADDER[0]) as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("harness samples are finite"));
    v
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]; the harness
        // clamps to the sample range instead of extrapolating.
        assert_eq!(quartiles(&[1.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([2,4,4,5,7,9,11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[11.0, 2.0, 9.0, 4.0, 7.0, 4.0, 5.0]),
            (4.0, 5.0, 9.0)
        );
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(120), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(600), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }
}
