//! Spans recorded by the benchmark around its calls into the
//! simulator: kept in memory, written out once at the end.

use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Tracer`]; `ROOT` is "no parent".
pub type SpanId = usize;
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time a layer reports about itself without a span per call (the
/// simulator's own per-phase profile): a named total under a parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: String,
    pub parent_name: &'static str,
    pub count: u64,
    pub total_s: f64,
}

/// All spans of one benchmark process. They share one `run_id`.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub aggregates: Vec<Aggregate>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn end(&mut self, span: SpanId) -> f64 {
        let now = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = now;
        s.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.begin(name, parent);
        let value = f();
        let secs = self.end(span);
        (value, secs)
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// A span's self time: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent] = own[s.parent].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// The trace file: every span with duration and self time, then the
    /// aggregates.
    pub fn to_json(&self, workload: &str, run_id: &str) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Int(id as i64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        if s.parent == ROOT {
                            Json::Null
                        } else {
                            Json::Int(s.parent as i64)
                        },
                    ),
                    ("run_id", Json::str(run_id)),
                    ("duration_ns", Json::Int(s.duration_ns() as i64)),
                    ("self_ns", Json::Int(own[id] as i64)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Json::obj([
                    ("name", Json::str(a.name.clone())),
                    ("parent_name", Json::str(a.parent_name)),
                    ("run_id", Json::str(run_id)),
                    ("count", Json::Int(a.count as i64)),
                    ("total_s", Json::Num(a.total_s)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("run_id", Json::str(run_id)),
            (
                "clock",
                Json::str("host monotonic, ns since the tracer was created"),
            ),
            ("spans", Json::Arr(spans)),
            ("aggregates", Json::Arr(aggregates)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("rep", 0, 1000, ROOT),
            span("build", 0, 200, 0),
            span("step", 200, 500, 0),
            span("step", 500, 900, 0),
            span("inner", 250, 300, 2),
        ];
        // rep: 1000 - (200 + 300 + 400); the grandchild is charged to
        // its own parent only.
        assert_eq!(t.self_ns(), vec![100, 200, 250, 400, 50]);
        let steps = t.durations_s("step");
        assert_eq!(steps.len(), 2);
        assert!((steps[0] - 300e-9).abs() < 1e-15 && (steps[1] - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn begin_and_end_nest() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", ROOT);
        let (v, secs) = t.time("inner", outer, || 7);
        t.end(outer);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.spans[1].parent, outer);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let text = t.to_json("w", "r").encode();
        assert!(text.contains(r#""parent": null"#) && text.contains(r#""self_ns""#));
    }
}
