//! Order statistics over host timings.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Each op's median over the passes (`samples[op][pass]`).  Quantiles
/// of these are steady where quantiles of the raw samples are not:
/// between two op types of different cost the raw quantile is an
/// extreme order statistic of one of them, the op-median quantile
/// interpolates between two medians.
#[must_use]
pub fn op_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| median(s)).collect()
}

/// Least-squares slope of `y` over `x` (0 for fewer than two points).
#[must_use]
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn slope_of_a_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        assert!((slope(&x, &y) - 2.0).abs() < 1e-12);
    }
}
