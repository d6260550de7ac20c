//! What one run reports: named metrics, verified-operation counts, and
//! the final JSON line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, e.g. `s`, `1/s`, `count`, `ratio`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name` in `unit`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self { name: name.into(), unit, value }
    }
}

/// Whether `name` is a valid metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Verified-operation bookkeeping: every output check is one attempted
/// operation; a check that does not hold is one failed operation, and
/// its description is kept for the run's error output.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check of `what`; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Descriptions of the failed checks, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `failed ÷ attempted` (0 before any check).
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// The final line of a run: `{"correct", "attempted", "failed", "metrics"}`.
///
/// # Panics
///
/// Panics on an invalid or repeated metric name, or a non-finite value —
/// both are bugs in the benchmark itself.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed() == 0,
        checks.attempted().max(1),
        checks.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {:?} reported twice",
            m.name
        );
        assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` on f64 prints the shortest repr that round-trips: every
        // digit of the measured value, and always a valid JSON number.
        write!(out, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "exec.normal.conv1_s", "a", "9x", "cache.hit_ratio", "x-y"] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "a\"b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn failure_counting() {
        let mut c = Checks::default();
        assert_eq!(c.failure_rate(), 0.0);
        assert!(c.check(true, || unreachable!("passing checks build no message")));
        assert!(!c.check(false, || "second".into()));
        c.check(true, String::new);
        c.check(false, || "fourth".into());
        assert_eq!((c.attempted(), c.failed()), (4, 2));
        assert_eq!(c.failures(), ["second", "fourth"]);
        assert_eq!(c.failure_rate(), 0.5);
    }

    #[test]
    fn result_line_shape() {
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = result_line(
            &c,
            &[Metric::new("setup_s", "s", 0.8127), Metric::new("ops_per_s", "1/s", 3.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
        c.check(false, || "bad".into());
        assert!(result_line(&c, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_a_bug() {
        let m = Metric::new("x", "s", 1.0);
        result_line(&Checks::default(), &[m.clone(), m]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_a_bug() {
        result_line(&Checks::default(), &[Metric::new("a b", "s", 1.0)]);
    }
}
