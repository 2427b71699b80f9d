//! Order statistics and process measurements shared by every workload.

/// The median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples above it, but never below the median, as
/// `(value, percentile, sample count)`.
///
/// Ten samples above it keep the tail from resting on one or two outliers.
/// With fewer than 21 samples no percentile above the median qualifies,
/// and the tail is the median.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    // rank n-11 (0-based) leaves exactly ten samples above it
    let rank = n.saturating_sub(11);
    if rank <= (n - 1) / 2 {
        return (median(xs), 50.0, n);
    }
    (s[rank], 100.0 * (rank + 1) as f64 / n as f64, n)
}

/// Index of the sample closest to the median (the lower one on a tie).
pub fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(idx.len() - 1) / 2]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[2.0, 5.0, 1.0]), (2.0, 50.0, 3));
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), (10.5, 50.0, 20));
        let (v, _, _) = tail(&(1..=21).map(f64::from).collect::<Vec<_>>());
        assert_eq!(v, 11.0);
    }

    #[test]
    fn median_index_picks_the_middle_sample() {
        assert_eq!(median_index(&[9.0, 1.0, 5.0]), 2);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
    }
}
