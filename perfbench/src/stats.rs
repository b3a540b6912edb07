//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The percentile reported under a `p95` name for a sample of `count`:
/// 95 when at least ten samples lie beyond it (200 or more), else 90.
#[must_use]
pub fn tail_percentile(count: usize) -> u32 {
    if count >= 200 {
        95
    } else {
        90
    }
}

/// The supported tail of `values` (see [`tail_percentile`]).
#[must_use]
pub fn tail(values: &[f64]) -> f64 {
    quantile(values, f64::from(tail_percentile(values.len())) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p95_from_200_samples_else_p90() {
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(42), 90);
    }
}
