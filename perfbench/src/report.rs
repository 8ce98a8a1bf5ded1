//! The run's result: named metrics with units, the correctness verdict, and
//! the one-line JSON summary printed last on standard output.

use crate::spans::{self, Span};
use crate::stats::{median, tail, Tail};
use grasp_core::json::Json;
use std::collections::BTreeMap;

/// Whether a number is host time (what the simulator takes) or simulated
/// (what the modelled hardware would take), or an exact count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on the host; varies run to run.
    Host,
    /// Produced by the simulation model; exact for a given input.
    Sim,
    /// An exact count of work done.
    Count,
}

/// Samples as a JSON array, for the result file.
pub fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| number(v)).collect())
}

/// A metric value as JSON; a non-finite value (a metric that could not be
/// computed, which also fails the run) becomes `null`.
fn number(value: f64) -> Json {
    if value.is_finite() {
        Json::Number(value)
    } else {
        Json::Null
    }
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Host, simulated or exact count.
    pub kind: Kind,
    /// How the value was summarised (e.g. `median of 7`).
    pub note: String,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Operations attempted (cells for library runs, requests for the
    /// service).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every correctness check that failed, in words.
    pub failures: Vec<String>,
    /// Extra diagnostics written to the result file (not to the summary).
    pub details: BTreeMap<String, Json>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

impl Report {
    /// Adds a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        kind: Kind,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            kind,
            note: note.into(),
        });
    }

    /// Reports latency samples as their median and their tail (see
    /// [`crate::stats::tail`]). Samples come in groups, one per repetition of
    /// the workload's sequence: the tail is taken within each group and the
    /// median over groups is reported, so a stall during one repetition moves
    /// the tail of that repetition only.
    pub fn push_latency(&mut self, prefix: &str, groups: &[Vec<f64>]) {
        let pooled: Vec<f64> = groups.iter().flatten().copied().collect();
        let tails: Vec<Tail> = groups.iter().map(|g| tail(g)).collect();
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        self.push(
            format!("{prefix}_p50_s"),
            median(&pooled),
            "s",
            Kind::Host,
            format!("median of {}", pooled.len()),
        );
        let first = tails.first().copied().unwrap_or(Tail {
            percentile: f64::NAN,
            value: f64::NAN,
            samples: 0,
        });
        let note = if groups.len() == 1 {
            format!("p{:.2} of {} samples", first.percentile, first.samples)
        } else {
            format!(
                "median over {} repetitions of each one's p{:.2} of {} samples",
                groups.len(),
                first.percentile,
                first.samples
            )
        };
        self.push(
            format!("{prefix}_tail_s"),
            median(&values),
            "s",
            Kind::Host,
            note,
        );
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a diagnostic for the result file.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.insert(key.to_owned(), value);
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable table: one line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<44} {:>16.6} {:<6} {:<5} {}\n",
                m.name,
                m.value,
                m.unit,
                m.kind.label(),
                m.note
            ));
        }
        out
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object([("value", number(m.value)), ("unit", Json::string(m.unit))]),
                )
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::integer(self.attempted.max(1))),
            ("failed", Json::integer(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// The full record written to the result file: summary, every metric
    /// with its kind and note, failures and diagnostics.
    pub fn full(&self, meta: Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::object([
                    ("name", Json::string(m.name.clone())),
                    ("value", number(m.value)),
                    ("unit", Json::string(m.unit)),
                    ("kind", Json::string(m.kind.label())),
                    ("note", Json::string(m.note.clone())),
                ])
            })
            .collect();
        Json::object([
            ("summary", self.summary()),
            ("meta", meta),
            ("metrics", Json::Array(metrics)),
            (
                "failures",
                Json::Array(self.failures.iter().cloned().map(Json::String).collect()),
            ),
            ("details", Json::Object(self.details.clone())),
            ("spans", spans::to_json(&self.spans)),
        ])
    }
}
