//! Order statistics over small sample sets.

/// Sorts in place; NaN never occurs in a measured time, so total order is
/// assumed.
fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest value; 0 when empty. What the runner reports of a host time
/// over a run's repetitions: every repetition does the same work, and what
/// the shared host does to it — a busy sibling thread, a stolen cache — only
/// ever adds time, in bursts shorter than a repetition as well as in phases
/// of minutes. Over ten runs the smallest of a run's repetitions spreads a
/// third to a half of what their median does (README, "How one run
/// measures").
pub fn least(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::INFINITY, f64::min);
    if m.is_finite() {
        m
    } else {
        0.0
    }
}

/// The `q`-quantile by linear interpolation between closest ranks
/// (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    percentile_sorted(&v, q)
}

fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `(p50, p99)` of `xs`, sorting once.
pub fn p50_p99(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    sort(&mut v);
    (percentile_sorted(&v, 0.50), percentile_sorted(&v, 0.99))
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(xs, n=4)` (exclusive method) — the spread
/// the driver computes over ten runs. Needs at least two samples.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    // Python clamps the rank and computes the weight from the clamped rank,
    // so tiny samples extrapolate; reproduced as is.
    let quart = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let m = median(&v);
    if m == 0.0 {
        return 0.0;
    }
    (quart(3) - quart(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn least_of_some_and_none() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 51.0);
        assert_eq!(percentile(&xs, 0.99), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 2.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(p50_p99(&xs), (51.0, 100.0));
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
