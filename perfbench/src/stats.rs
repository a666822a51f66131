//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted copy;
/// `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median (upper middle for even counts), or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Mean, or 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Relative standard deviation in percent (sample stdev over mean), or 0
/// for fewer than two values.
pub fn rsd_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    if m == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt() / m.abs() * 100.0
}

/// Fewest steal-free windows a run needs before it reports their median.
pub const MIN_CLEAN: usize = 5;

/// The figure a run reports from per-window values `(value, clean)`: the
/// median over the windows the hypervisor stole no CPU time from, when
/// there are at least [`MIN_CLEAN`]; otherwise the `fallback` quantile
/// over all windows (0.25 for times, 0.75 for rates — stolen time only
/// ever slows a window down). Returns the figure, the RSD of the values
/// behind it and the clean-window count.
pub fn window_figure(windows: &[(f64, bool)], fallback: f64) -> (f64, f64, usize) {
    let clean: Vec<f64> = windows.iter().filter(|w| w.1).map(|w| w.0).collect();
    if clean.len() >= MIN_CLEAN {
        (median(&clean), rsd_pct(&clean), clean.len())
    } else {
        let all: Vec<f64> = windows.iter().map(|w| w.0).collect();
        (
            quantile(&all, fallback).unwrap_or(0.0),
            rsd_pct(&all),
            clean.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn window_figure_prefers_clean_windows() {
        let clean: Vec<(f64, bool)> = (0..5).map(|i| (f64::from(i), true)).collect();
        let stolen = [(100.0, false); 20];
        let all: Vec<(f64, bool)> = clean.iter().chain(&stolen).copied().collect();
        assert_eq!(
            window_figure(&all, 0.25),
            (2.0, rsd_pct(&[0.0, 1.0, 2.0, 3.0, 4.0]), 5)
        );
        let (few, _, n) = window_figure(&all[3..], 0.25);
        assert_eq!((few, n), (100.0, 2));
    }
}
