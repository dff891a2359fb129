//! The harness arithmetic: percentiles, the best-tenth rule and quartile
//! spread.  Pure functions, unit-tested, no clocks.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `p` that still has at least ten
/// samples beyond it — a tail value resting on fewer is one outlier's
/// opinion.  Falls back to the median when even that is unsupported.
pub fn supported_percentile(samples: usize, p: f64) -> f64 {
    if samples < 20 {
        return 0.5;
    }
    p.min(1.0 - 10.0 / samples as f64)
}

/// [`percentile`] at the [`supported_percentile`] for `p`; returns the
/// value and the percentile actually used.
pub fn tail_percentile(sorted: &[u64], p: f64) -> (u64, f64) {
    let used = supported_percentile(sorted.len(), p);
    (percentile(sorted, used), used)
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The value at the edge of a run's best tenth: the `k`-th best of its
/// `n` segments, `k = max(2, ⌈n / 10⌉)` (the 4th of 40, the 2nd of 10).
///
/// Interference on a shared host only ever slows a segment — and on
/// the host this was built on it does so in phases seconds long — so
/// the good end of the distribution is the steady one: the run is read
/// where it was least disturbed.  Not the single best, which may be a
/// lucky outlier; the tenth needs only a second of a ten-second run to
/// have been quiet.  With one value there is no choice: it is returned
/// as is.
pub fn best_tenth(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best tenth of no segments");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if better == Better::Higher {
        v.reverse();
    }
    let k = v.len().div_ceil(10).max(2);
    v[k.min(v.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread computed here is the spread the
/// acceptance check computes.  Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range as a share of the median; `0` for fewer than two
/// values or a zero median.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.9), 90);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1000 samples support p99 exactly (10 beyond), not p99.9.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert!((supported_percentile(1000, 0.999) - 0.99).abs() < 1e-12);
        // 100 samples support p90 at most.
        assert!((supported_percentile(100, 0.99) - 0.9).abs() < 1e-12);
        // Too few for any tail: the median.
        assert_eq!(supported_percentile(19, 0.9), 0.5);
        let s: Vec<u64> = (1..=100).collect();
        let (v, used) = tail_percentile(&s, 0.999);
        assert_eq!(v, 90);
        assert!((used - 0.9).abs() < 1e-12);
        // Exactly ten samples lie beyond the value reported.
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn best_tenth_drops_the_lucky_outlier_and_the_slow_phases() {
        // Up to 20 segments: the second best.
        let gbps = [2.0, 2.6, 9.9, 2.5, 1.1];
        assert_eq!(best_tenth(&gbps, Better::Higher), 2.6);
        let lat = [30.0, 12.0, 11.0, 55.0];
        assert_eq!(best_tenth(&lat, Better::Lower), 12.0);
        assert_eq!(best_tenth(&[4.0], Better::Lower), 4.0);
        // Forty segments, thirty of them in a slow phase: the 4th best
        // is still a quiet one.
        let mut run: Vec<f64> = vec![1.5; 30];
        run.extend([2.2, 2.21, 2.19, 2.2, 2.18, 2.2, 2.21, 2.2, 2.19, 3.0]);
        assert_eq!(best_tenth(&run, Better::Higher), 2.2);
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(best_tenth(&forty, Better::Higher), 37.0);
        assert_eq!(best_tenth(&forty, Better::Lower), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
