//! Order statistics for run-to-run spread.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread printed here is the
//! spread any reader recomputes from the same values in Python.

/// Median of `values` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// returns them (`[q1, q2, q3]`, keeping q1 and q3). A single value is
/// its own quartiles; `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            // Python: j = i*(m+1) // n, clamped into 1..=m-1;
            // delta = i*(m+1) - j*n (may fall outside 0..n, which
            // extrapolates); (data[j-1]*(n-delta) + data[j]*delta) / n.
            let cut = |i: i64| {
                let (n, m) = (4i64, m as i64);
                let j = (i * (m + 1) / n).clamp(1, m - 1);
                let delta = (i * (m + 1) - j * n) as f64;
                let j = j as usize;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark's bounds are judged against. `None` when the median is 0.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data for tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).expect("non-zero median");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
