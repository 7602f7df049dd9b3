//! The result line every run prints last:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.

use std::collections::BTreeMap;

use ggs_core::json::{self, Value};

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured, at full precision.
    pub value: f64,
    /// Unit label (`s`, `ms`, `MB`, `count`, ...).
    pub unit: String,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Whether every check passed.
    pub correct: bool,
    /// Cells checked.
    pub attempted: u64,
    /// Cells that failed, timed out, or missed their digest.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl RunResult {
    /// Records `name` = `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
            },
        );
    }

    /// The single-line JSON form. Fails on an invalid metric name or a
    /// non-finite value, which JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for (name, m) in &self.metrics {
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            metrics.insert(
                name.clone(),
                Value::Object(BTreeMap::from([
                    ("value".to_owned(), Value::Number(m.value)),
                    ("unit".to_owned(), Value::String(m.unit.clone())),
                ])),
            );
        }
        Ok(Value::Object(BTreeMap::from([
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::Number(self.attempted as f64)),
            ("failed".to_owned(), Value::Number(self.failed as f64)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]))
        .to_string_compact())
    }

    /// Parses the form [`RunResult::to_json`] writes.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer {key:?}"))
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing boolean \"correct\"".to_owned()),
        };
        let Some(Value::Object(raw)) = v.get("metrics") else {
            return Err("missing object \"metrics\"".to_owned());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in raw {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric {name} has no unit"))?;
            metrics.insert(
                name.clone(),
                Metric {
                    value,
                    unit: unit.to_owned(),
                },
            );
        }
        Ok(Self {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}
