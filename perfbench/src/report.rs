//! Metric records, the metric-name grammar, host facts and the one-line
//! JSON result the benchmark ends with.

use std::fmt::Write as _;
use std::path::Path;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric record.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// output order. Each workload measures them on its own user path; the
/// README defines each one per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("step_cpu_ms", "ms"),
    ("ok_frac", "frac"),
    ("rss_mb", "MiB"),
    ("regret", "ratio"),
];

/// Pairs each `(name, unit)` of a workload's metric list with its
/// value, in order.
///
/// # Panics
///
/// Panics when the counts differ (a bug in the workload).
pub fn zip_metrics(spec: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(spec.len(), values.len(), "one value per metric");
    spec.iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric::new(name, unit, value))
        .collect()
}

/// Names start with a letter or digit and hold at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units hold 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One output check: what was compared and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name of the check.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared (printed either way).
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics this run emits.
    pub metrics: Vec<Metric>,
    /// Measured figures printed beside the metrics but left out of the
    /// result line: too noisy on a shared host to carry a bound.
    pub info: Vec<Metric>,
    /// The output checks this run made.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; `correct` is already false.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Facts about the host that every result depends on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Available cores (also the client's thread and connection cap).
    pub cores: usize,
    /// Filesystem type holding the journal directories.
    pub journal_fs: String,
    /// Build profile of the benchmark and the binaries it drives.
    pub profile: &'static str,
}

impl HostFacts {
    /// Gathers the facts for journals kept under `journal_root`.
    pub fn gather(journal_root: &Path) -> Self {
        HostFacts {
            cores: crate::nproc(),
            journal_fs: filesystem_of(journal_root).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// One JSON line for the log.
    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"journal_fs\": \"{}\", \"profile\": \"{}\"}}",
            self.cores, self.journal_fs, self.profile
        )
    }
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mounts` (longest matching mount point wins).
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount_point = fields.next()?.replace("\\040", " ");
            let fs = fields.next()?;
            path.starts_with(&mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_dotted_names_and_rejects_the_rest() {
        assert!(valid_name("step_p99_ms"));
        assert!(valid_name("gp.hyperopt_us.p50"));
        assert!(valid_name("9lives-a.b_c"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("a unit"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 0.5),
                Metric::new("x", "ms", 1.25),
            ],
            info: vec![Metric::new("y", "ms", 2.0)],
            checks: Vec::new(),
        };
        o.check("c", true, "fine");
        let v = mlconf_serve::json::parse(&o.result_line()).expect("valid JSON");
        let mlconf_serve::json::Json::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let x = v.get("metrics").and_then(|m| m.get("x")).expect("metric x");
        assert_eq!(x.get("value").and_then(|n| n.as_f64()), Some(1.25));
        assert_eq!(x.get("unit").and_then(|n| n.as_str()), Some("ms"));
        assert!(
            v.get("metrics").and_then(|m| m.get("y")).is_none(),
            "info leaked"
        );
        o.check("d", false, "broken");
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
