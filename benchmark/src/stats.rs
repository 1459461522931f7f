//! Order statistics over per-job samples.
//!
//! Host interference on a shared VM is one-sided (a job is only ever
//! slowed down) and bursty, so the lower decile of per-job wall time
//! repeats across runs where the mean and the median do not; see the
//! estimator table in `README.md`.

/// `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics. Panics on an empty slice: every caller has already
/// enforced its minimum sample count.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Lower decile: the gated estimator of every timing metric.
pub fn p10(samples: &[f64]) -> f64 {
    quantile(samples, 0.10)
}

pub fn p50(samples: &[f64]) -> f64 {
    quantile(samples, 0.50)
}

/// The 99th percentile, or the highest percentile that still has ten
/// samples beyond it when there are fewer than a thousand.
pub fn p_high(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    quantile(samples, (1.0 - 10.0 / n).clamp(0.5, 0.99))
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(p10(&v), 2.0);
        assert_eq!(p50(&v), 6.0);
        assert_eq!(quantile(&v, 0.25), 3.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p_high_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples: the 90th percentile has ten beyond it.
        assert!((p_high(&v) - 89.1).abs() < 1e-9);
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        assert!((p_high(&big) - 0.99 * 1999.0).abs() < 1e-9);
    }
}
