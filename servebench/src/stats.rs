//! Order statistics and the acceptance rules the benchmark reports by:
//! medians, Python-compatible quartiles, the spread of a metric across
//! runs, the bound comparison between two sets of runs, and the tail
//! percentile rule for latency SLOs.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, failure fractions, memory).
    Lower,
    /// Larger is better (throughput, goodput).
    Higher,
}

impl Better {
    /// Parse the `better` field of a `BENCHMARK.json` metric.
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Spread of a metric across runs: the interquartile distance as a
/// share of the median. `None` when there are fewer than two values or
/// the median is zero.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better). `None` when `first` is zero.
#[must_use]
pub fn worse_by(first: f64, second: f64, better: Better) -> Option<f64> {
    if first == 0.0 {
        return None;
    }
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    Some(delta / first.abs())
}

/// The bound comparison: `true` when `second` is worse than `first` by
/// more than `bound` (a share of `first`). A zero `first` only passes an
/// unchanged `second`.
#[must_use]
pub fn exceeds_bound(first: f64, second: f64, better: Better, bound: f64) -> bool {
    match worse_by(first, second, better) {
        Some(w) => w > bound,
        None => second != first,
    }
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// The tail percentile rule: the highest percentile at or below `wanted`
/// that still has at least [`MIN_TAIL_SAMPLES`] of `samples` beyond it
/// under nearest-rank, in steps of a tenth of a percent. `None` when
/// `samples` is too small for any percentile to qualify.
#[must_use]
pub fn tail_percentile(samples: u64, wanted: f64) -> Option<f64> {
    // Integer tenths of a percent keep the nearest-rank arithmetic exact.
    let top = (wanted * 10.0).round().clamp(0.0, 1000.0) as u64;
    (1..=top)
        .rev()
        .find(|&tenths| samples - nearest_rank(samples, tenths) >= MIN_TAIL_SAMPLES)
        .map(|tenths| tenths as f64 / 10.0)
}

/// Nearest-rank position (1-based) of the percentile `tenths / 10` in
/// `samples` sorted values: `ceil(tenths × samples / 1000)`.
#[must_use]
pub fn nearest_rank(samples: u64, tenths: u64) -> u64 {
    (tenths * samples).div_ceil(1000).min(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0; 10]), Some(0.0));
        assert_eq!(spread(&[0.0; 4]), None);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 10 → 11 is 10% worse.
        assert!((worse_by(10.0, 11.0, Better::Lower).unwrap() - 0.1).abs() < 1e-12);
        assert!(!exceeds_bound(10.0, 11.0, Better::Lower, 0.1));
        assert!(exceeds_bound(10.0, 11.5, Better::Lower, 0.1));
        // Getting faster never exceeds a bound.
        assert!(!exceeds_bound(10.0, 5.0, Better::Lower, 0.0));
        // Higher is better: 100 → 80 is 20% worse.
        assert!(exceeds_bound(100.0, 80.0, Better::Higher, 0.1));
        assert!(!exceeds_bound(100.0, 95.0, Better::Higher, 0.1));
        assert!(!exceeds_bound(100.0, 150.0, Better::Higher, 0.0));
        // A zero baseline admits only itself.
        assert!(!exceeds_bound(0.0, 0.0, Better::Lower, 0.1));
        assert!(exceeds_bound(0.0, 0.1, Better::Lower, 0.1));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Plenty of samples: the wanted percentile itself.
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(1_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(1_000, 50.0), Some(50.0));
        // 999 samples: p99 leaves only 9 beyond; p98.9 leaves 10.
        assert_eq!(tail_percentile(999, 99.0), Some(98.9));
        // 200 samples: the highest qualifying percentile is p95.
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        // Every returned percentile really has ≥ 10 samples beyond it,
        // and the next tenth up does not (unless it is the wanted one).
        for n in 11..3_000u64 {
            let p = tail_percentile(n, 99.0).unwrap();
            let tenths = (p * 10.0).round() as u64;
            assert!(
                n - nearest_rank(n, tenths) >= MIN_TAIL_SAMPLES,
                "n={n} p={p}"
            );
            if tenths < 990 {
                assert!(
                    n - nearest_rank(n, tenths + 1) < MIN_TAIL_SAMPLES,
                    "n={n} p={p} is not the highest qualifying percentile"
                );
            }
        }
        // Too few samples for any tail.
        assert_eq!(tail_percentile(10, 99.0), None);
        assert_eq!(tail_percentile(0, 50.0), None);
    }
}
