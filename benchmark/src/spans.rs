//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around calls into each crate's public
//! functions (spans inside the crates are a later change). A span carries
//! name, start, end, the span that caused it and a job id; everything
//! stays in memory until the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    pub fn new(job: u32) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Seconds a closed span lasted.
    pub fn duration_s(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before export");
        self.spans
    }
}

/// Runs `f` inside a span. The tracer is borrowed only to open and to
/// close the span, so `f` may record spans of its own (a timing sink does).
pub fn in_span<T>(tracer: &RefCell<Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    let id = tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit(id);
    out
}

/// Self time of every span: duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Calls, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = out.entry(span.name.clone()).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Total seconds of all spans named `name`.
pub fn total_s(totals: &BTreeMap<String, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9)
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("job", Value::Num(f64::from(s.job))),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(v: &Value) -> Vec<Span> {
    let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64);
    v.as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_ns: num(s, "start_ns")? as u64,
                end_ns: num(s, "end_ns")? as u64,
                parent: num(s, "parent").map(|p| p as usize),
                job: num(s, "job")? as u32,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_of_nested_adjacent_and_zero_length_spans() {
        let spans = vec![
            span("job", 0, 100, None),
            span("forward", 10, 60, Some(0)),
            // Two adjacent children that share an endpoint.
            span("sink", 20, 30, Some(1)),
            span("sink", 30, 45, Some(1)),
            // A zero-length child changes nothing.
            span("seal", 60, 60, Some(0)),
            span("reverse", 60, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 25, 10, 15, 0, 35]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["sink"],
            NameTotal {
                calls: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(totals["forward"].self_ns, 25);
        // Self times partition the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(total_s(&totals, "reverse"), 35e-9);
        assert_eq!(total_s(&totals, "absent"), 0.0);
    }

    #[test]
    fn tracer_links_parents_and_round_trips_through_json() {
        let t = RefCell::new(Tracer::new(7));
        in_span(&t, "job", || {
            in_span(&t, "a", || ());
            in_span(&t, "b", || in_span(&t, "c", || ()));
        });
        let spans = t.into_inner().into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(spans_from_json(&spans_to_json(&spans)), spans);
    }
}
