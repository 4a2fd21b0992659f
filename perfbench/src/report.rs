//! The metrics a run reports, and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and how many of its checks failed.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Checked outputs: products, served responses, equivalence checks.
    pub attempted: u64,
    /// Checked outputs that were wrong or errored.
    pub failed: u64,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an illegal or repeated name or a non-finite value —
    /// both are bugs in the benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "illegal metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts one checked output, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Metric names: a letter or digit first, then at most 63 letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("core.precompute.p50_us.w2048"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.put("ops_per_s", 412.5, "1/s");
        r.put("served_frac", 1.0, "frac");
        r.check(true);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 412.5, \"unit\": \"1/s\"}, \
             \"served_frac\": {\"value\": 1.0, \"unit\": \"frac\"}}}"
        );
    }
}
