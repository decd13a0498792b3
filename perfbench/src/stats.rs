//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile of a sample that still has at least ten
/// samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples beyond the reported tail value.
const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it. With too few samples for that, the maximum is reported at
/// percentile 100 so that the record shows the tail is unresolved.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            n,
        };
    }
    let k = n - 1 - TAIL_BEYOND;
    Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[2.0, 5.0, 1.0]);
        assert_eq!((t.value, t.percentile, t.n), (5.0, 100.0, 3));
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }
}
