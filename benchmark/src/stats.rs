//! Order statistics over timing samples, and `/proc/self/status` parsing.

/// Linear-interpolated quantile of an ascending-sorted slice, `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the quartiles around it and the sample count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The tail a sample supports: the highest percentile that still has at
/// least ten samples beyond it, capped at p90 and never below the median.
/// Returns `(percentile in [50, 90], value)`. With fewer than 22 samples
/// the tail is the median itself; from 100 samples on it is p90.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    // Index of the highest sample with ten samples above it.
    let by_count = n.saturating_sub(11) as f64 / (n - 1).max(1) as f64;
    let q = by_count.clamp(0.5, 0.9);
    (q * 100.0, quantile_sorted(&v, q))
}

/// A `kB` field of `/proc/self/status` text (`VmHWM`, `VmRSS`), in bytes.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// `field` of this process's `/proc/self/status`, in bytes (0 off Linux).
pub fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, field))
        .unwrap_or(0)
}

/// Restart the kernel's peak-RSS watermark (`VmHWM`) at the current resident
/// size, so that the peak read after a timed loop is the loop's and not the
/// verification pass's. Where `/proc/self/clear_refs` cannot be written the
/// peak stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(summarize(&[]).median, 0.0);
        assert_eq!(summarize(&[7.0]).q3, 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // Too few samples for any tail: the median stands in.
        assert_eq!(supported_tail(&ramp(12)), (50.0, 5.5));
        assert_eq!(supported_tail(&ramp(21)).0, 50.0);
        // 41 samples: index 30 has exactly ten samples above it -> p75.
        assert_eq!(supported_tail(&ramp(41)), (75.0, 30.0));
        // From 101 samples on the cap is p90.
        assert_eq!(supported_tail(&ramp(101)), (90.0, 90.0));
        assert_eq!(supported_tail(&ramp(1001)), (90.0, 900.0));
        assert_eq!(supported_tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn status_fields_parse_to_bytes() {
        let status = "Name:\tscope-e2e\nVmHWM:\t  123456 kB\nVmRSS:\t    2048 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123456 * 1024));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(2048 * 1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM: lots", "VmHWM"), None);
    }
}
