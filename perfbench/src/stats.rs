//! Sample statistics, process memory and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Panics unless at
/// least ten samples lie beyond the reported rank, so no tail figure is ever
/// printed from too few samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    assert!(
        rank >= 1 && sorted.len() - rank >= 10,
        "p{p} of {} samples leaves fewer than ten beyond it",
        sorted.len()
    );
    sorted[rank - 1]
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kib / 1024.0
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mib("VmRSS:")
}

/// Prefix of the lines a child process reports its metrics on.
const METRIC_LINE: &str = "@metric ";
/// Prefix of the line a child process reports its operation counts on.
const COUNT_LINE: &str = "@ops ";

/// What one benchmark process reports: every metric by name with its unit,
/// and the operations it attempted and saw fail (fit errors, failed
/// correctness checks, error or busy responses).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, (value, unit.to_string()));
    }

    /// Count one attempted operation; `ok == false` also counts it failed
    /// and prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Merge a child's report, prefixing its metric names.
    pub fn absorb(&mut self, prefix: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, (value, unit)) in other.metrics {
            self.metrics
                .insert(format!("{prefix}{name}"), (value, unit));
        }
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(out, "  {name:<46} {value:>14.6} {unit}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<46} {frac:>14.6} ({} of {} operations)",
            "failed_frac", self.failed, self.attempted
        );
        out
    }

    /// The machine-readable lines a child process hands its parent.
    pub fn child_lines(&self) -> String {
        let mut out = format!("{COUNT_LINE}{} {}\n", self.attempted, self.failed);
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(out, "{METRIC_LINE}{name} {value:?} {unit}");
        }
        out
    }

    /// Read back [`Report::child_lines`] from a child's standard output.
    pub fn from_child_lines(stdout: &str) -> Option<Report> {
        let mut report = Report::default();
        let mut counted = false;
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix(COUNT_LINE) {
                let (attempted, failed) = rest.split_once(' ')?;
                report.attempted = attempted.parse().ok()?;
                report.failed = failed.parse().ok()?;
                counted = true;
            } else if let Some(rest) = line.strip_prefix(METRIC_LINE) {
                let mut fields = rest.split(' ');
                let (name, value, unit) = (fields.next()?, fields.next()?, fields.next()?);
                report.put(name, value.parse().ok()?, unit);
            }
        }
        counted.then_some(report)
    }

    /// The single-line JSON result; metric values keep every digit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), 90.0);
    }

    #[test]
    #[should_panic(expected = "fewer than ten")]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        percentile(&samples, 95.0);
    }

    #[test]
    fn child_lines_round_trip() {
        let mut report = Report::default();
        report.put("a.b_s", 0.1 + 0.2, "s");
        report.put("c", 3.0, "count");
        report.check(true, String::new);
        report.check(false, || "expected".into());
        let parsed = Report::from_child_lines(&report.child_lines()).expect("parse");
        assert_eq!(parsed.json(), report.json());
    }
}
