//! Order statistics for the reported metrics.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least `min_beyond` samples strictly above its rank, its value,
/// and how many samples lie beyond it. With too few samples for any such
/// percentile the maximum is reported as percentile 100 with none beyond.
pub fn tail(values: &[f64], min_beyond: usize) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail::default();
    }
    if n <= min_beyond {
        return Tail {
            percentile: 100,
            value: v[n - 1],
            beyond: 0,
            samples: n,
        };
    }
    // Nearest-rank percentile p sits at index ceil(p·n/100) − 1; the
    // samples beyond it are the n − 1 − index above that index.
    let mut best = Tail {
        percentile: 0,
        value: v[0],
        beyond: n - 1,
        samples: n,
    };
    for p in 1..=99usize {
        let index = (p * n).div_ceil(100).max(1) - 1;
        let beyond = n - 1 - index;
        if beyond < min_beyond {
            break;
        }
        best = Tail {
            percentile: p,
            value: v[index],
            beyond,
            samples: n,
        };
    }
    best
}

/// See [`tail`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: usize,
    /// Its value.
    pub value: f64,
    /// Samples above it.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Geometric mean of positive ratios; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10);
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        let small: Vec<f64> = (1..=5).map(f64::from).collect();
        let t = tail(&small, 10);
        assert_eq!((t.percentile, t.value, t.beyond), (100, 5.0, 0));
    }

    #[test]
    fn geomean_of_equal_ratios_is_the_ratio() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
