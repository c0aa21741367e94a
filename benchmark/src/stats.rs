//! Order statistics over exact samples (no histogram buckets).

/// The `q`-quantile of a sorted slice by linear interpolation between
/// the two nearest ranks; 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// A tail percentile that says what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (0.99, or lower: see [`tail`]).
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The wanted tail percentile if at least ten samples lie beyond it,
/// else the highest of 0.95, 0.9, 0.75, 0.5 that has ten beyond it, else
/// the median. "Beyond" counts the samples above the percentile's rank,
/// so p99 needs 1000 samples, p95 200, p90 100.
pub fn tail(sorted: &[f64], wanted: f64) -> Tail {
    let n = sorted.len();
    let percentile = [wanted, 0.95, 0.9, 0.75]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5);
    Tail {
        percentile,
        value: quantile_sorted(sorted, percentile),
        samples: n,
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `compare` sees the spread the acceptance rule sees.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(quantile_sorted(&ramp(5), 0.5), 3.0);
        assert_eq!(quantile_sorted(&ramp(4), 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail(&ramp(1000), 0.99).percentile, 0.99);
        assert_eq!(tail(&ramp(1000), 0.99).samples, 1000);
        assert_eq!(tail(&ramp(999), 0.99).percentile, 0.95);
        assert_eq!(tail(&ramp(200), 0.99).percentile, 0.95);
        assert_eq!(tail(&ramp(199), 0.99).percentile, 0.9);
        assert_eq!(tail(&ramp(100), 0.99).percentile, 0.9);
        assert_eq!(tail(&ramp(99), 0.99).percentile, 0.75);
        assert_eq!(tail(&ramp(40), 0.99).percentile, 0.75);
        assert_eq!(tail(&ramp(39), 0.99).percentile, 0.5);
        assert_eq!(tail(&ramp(8), 0.99).percentile, 0.5);
        assert_eq!(tail(&[], 0.99).value, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
