//! Small, dependency-free helpers the benchmark reports with:
//! percentiles with a resolvability rule, ratios that carry their base,
//! metric-name validation, the `VmHWM` parser, and a content digest.

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile for it to count as resolved.
pub const BEYOND_MIN: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`, or `None`
/// when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether the nearest-rank `p` percentile of `n` samples leaves at
/// least [`BEYOND_MIN`] samples beyond it (so p95 needs ≥ 200 samples).
pub fn percentile_resolved(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n > 0 && n.saturating_sub(rank.max(1)) >= BEYOND_MIN
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// A ratio together with the base it was taken against, so a printed
/// share can always be traced back to its denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The numerator.
    pub part: f64,
    /// The denominator (the base).
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Self {
        Ratio { part, base }
    }

    /// The ratio in percent; 0 when the base is zero (nothing to share).
    pub fn pct(self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            100.0 * self.part / self.base
        }
    }
}

/// Whether `name` is a valid metric name: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set size in kibibytes from the text of
/// `/proc/self/status` (its `VmHWM:` line).
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// FNV-1a 64-bit digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!percentile_resolved(199, 95.0));
        assert!(percentile_resolved(200, 95.0));
        assert!(percentile_resolved(20, 50.0));
        assert!(!percentile_resolved(19, 50.0));
        assert!(!percentile_resolved(0, 50.0));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(1.0, 4.0);
        assert_eq!(r.base, 4.0);
        assert_eq!(r.pct(), 25.0);
        assert_eq!(Ratio::new(3.0, 0.0).pct(), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "ckpt.write_ms_mean",
            "iter_ms_p95",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn vmhwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(123_456));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
