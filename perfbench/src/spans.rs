//! In-memory spans around calls into the system's layers.
//!
//! A span is a name, a start, an end and the span that caused it. The
//! benchmark opens one around each public call it makes (a campaign run, a
//! recording, a store publish, a request) and records each observer
//! callback or service frame as a child event. Spans stay in memory and are
//! written out once, when the run ends; [`self_times`] attributes each
//! span's duration minus the part its children cover to the span's layer.

use grasp_core::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span (index into the tracer's log).
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.trace_store.publish`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` for an instant event).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

/// Collects spans when enabled; a disabled tracer records nothing and its
/// calls cost one branch, so untraced runs time the system alone.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its id (`None` when
    /// disabled).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span log not poisoned");
        spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span now; its id is reserved immediately so children can
    /// name it as their parent while it is still running. Close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::open`] at the current instant.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            let mut spans = self.spans.lock().expect("span log not poisoned");
            spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// elapsed seconds (measured whether or not the tracer records).
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let start = Instant::now();
        let value = f(id);
        let elapsed = start.elapsed().as_secs_f64();
        self.close(id);
        (value, elapsed)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log not poisoned").clone()
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// measure of the union of its children's intervals (clipped to the span),
/// summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = union_within(kids, span.start_ns, span.end_ns);
        let own = span.end_ns.saturating_sub(span.start_ns) - covered;
        *totals.entry(span.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
    }
    totals
}

/// Measure of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The span log as JSON: `[{"name","start_ns","end_ns","parent"}, ...]`,
/// with a span's index in the array as its id.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|span| {
                Json::object([
                    ("name", Json::string(span.name.clone())),
                    ("start_ns", Json::integer(span.start_ns)),
                    ("end_ns", Json::integer(span.end_ns)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::integer(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("campaign", 0, 100, None),
            // Two overlapping children (20..60 ∪ 40..70 = 50 ns) plus one
            // running past the parent's end (clipped to 90..100).
            span("cell", 20, 60, Some(0)),
            span("cell", 40, 70, Some(0)),
            span("cell", 90, 130, Some(0)),
            // A grandchild counts against its own parent only.
            span("frame", 25, 35, Some(1)),
        ];
        let totals = self_times(&spans);
        let close = |name: &str, ns: f64| (totals[name] - ns * 1e-9).abs() < 1e-15;
        assert!(close("campaign", 40.0), "{totals:?}");
        // cells: (40 - 10) + 30 + 40
        assert!(close("cell", 100.0), "{totals:?}");
        assert!(close("frame", 10.0), "{totals:?}");
    }

    #[test]
    fn instant_events_cost_their_parent_nothing() {
        let spans = vec![span("run", 0, 50, None), span("cell", 30, 30, Some(0))];
        let totals = self_times(&spans);
        assert!((totals["run"] - 50e-9).abs() < 1e-15);
        assert_eq!(totals["cell"], 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let tracer = Tracer::new(false);
        let (value, seconds) = tracer.time("x", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let tracer = Tracer::new(true);
        tracer.time("outer", None, |outer| {
            tracer.time("inner", outer, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
