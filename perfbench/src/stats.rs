//! Order statistics, the result line and the run header.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// Median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) and how many samples lie
/// strictly beyond it.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of nothing");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Named metrics with units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`; a name may be set once.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let old = self.0.insert(name.to_string(), (value, unit));
        assert!(old.is_none(), "metric {name} set twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Moves every metric of `other` into `self`.
    pub fn extend(&mut self, other: Metrics) {
        for (name, (value, unit)) in other.0 {
            self.set(&name, value, unit);
        }
    }

    /// Human-readable lines, one metric each.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.0 {
            let _ = writeln!(out, "  {name:<28} {value:>16.6} {unit}");
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values are printed with every digit (shortest round-trip form).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            let value = serde_json::fmt_float(*value)
                .unwrap_or_else(|_| panic!("metric {name} is not finite"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run header: revision, processor count, compiler and build profile.
pub fn header() -> String {
    // Only inside a git checkout: git would otherwise search the parent
    // directories for one.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("rev={rev} nproc={nproc} rustc=\"{rustc}\" profile={profile}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_1010_samples_leaves_ten_beyond() {
        let xs: Vec<f64> = (0..1010).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), (999.0, 10));
        assert_eq!(percentile(&xs, 0.5).0, 504.0);
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.set("b", 0.1 + 0.2, "s");
        m.set("a", 3.0, "count");
        let line = m.result_line(true, 4, 0);
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(line.contains("0.30000000000000004"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(v.as_object().is_some());
    }
}
