//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer, recorded from the benchmark's
//! own code: its name, the sweep cell it belongs to (if any), its
//! parent span and host-time bounds. Spans are kept in memory while the
//! workload runs and written out once at the end, so recording costs one
//! `Instant::now` pair and a vector push per call.

use numa_metrics::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared between the benchmark thread and the farm
/// worker.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        // Relaxed: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        let span = Span {
            id,
            parent,
            name,
            cell,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one parent never overlap here, because
/// the farm runs one cell at a time).
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s,
                s.dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (s, ns) in self_times(spans) {
        *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    by_name
}

/// The spans as one JSON array (ids, parents, cells, bounds in ns and
/// self time), for the dump written at the end of a traced run.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        self_times(spans)
            .into_iter()
            .map(|(s, self_ns)| {
                Json::obj()
                    .field("id", s.id)
                    .field("parent", s.parent)
                    .field("name", s.name)
                    .field("cell", s.cell)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("self_ns", self_ns)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "lab.farm", 10, 90),
            span(2, Some(1), "apps.run", 20, 50),
            span(3, Some(1), "apps.run", 50, 80),
        ];
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["rep"], 20e-9);
        assert_eq!(by_name["lab.farm"], 20e-9);
        assert_eq!(by_name["apps.run"], 60e-9);
    }

    #[test]
    fn tracer_records_parents_and_nesting() {
        let t = Tracer::new();
        let v = t.span("outer", None, None, |outer| {
            t.span("inner", Some(3), Some(outer), |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.cell, Some(3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
