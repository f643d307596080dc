//! Order statistics for latency samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it would describe a handful of outliers, not a
/// tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Quantile `q` of `sorted` (ascending, non-empty) by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Samples per window of [`p99`]: exactly [`MIN_BEYOND`] of them lie
/// beyond the window's 99th percentile.
pub const P99_WINDOW: usize = 100 * MIN_BEYOND;

/// The 99th percentile of `samples` (in the order they were taken): the
/// median, over consecutive windows of [`P99_WINDOW`] samples, of each
/// window's p99. A burst of load from outside the program moves the
/// p99 of the windows it falls in, not their median. `None` when there
/// is no full window, so no p99 is reported from fewer samples than
/// leave [`MIN_BEYOND`] beyond it.
pub fn p99(samples: &[f64]) -> Option<f64> {
    let mut per_window: Vec<f64> = samples
        .chunks_exact(P99_WINDOW)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            quantile(&w, 0.99)
        })
        .collect();
    median(&mut per_window)
}

/// Median of unsorted values (sorts in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(p99(&ramp(999)), None, "999 samples leave 9 beyond the p99");
        let one = ramp(1000);
        assert_eq!(p99(&one), Some(990.0));
        let beyond = one.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, MIN_BEYOND, "1000 samples leave exactly 10 beyond");
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn p99_is_the_median_window_and_ignores_a_burst() {
        // Three windows; a burst of slow samples lands in the middle one.
        let mut samples = ramp(1000);
        samples.extend((1..=1000).map(|i| if i > 950 { 1e6 } else { i as f64 }));
        samples.extend(ramp(1000).iter().map(|v| v + 5.0));
        assert_eq!(p99(&samples), Some(995.0));
        // A trailing partial window is left out.
        samples.extend([1e9; 999]);
        assert_eq!(p99(&samples), Some(995.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
