//! Benchmark-side spans: one record per call into a layer's public
//! functions (name, start, end, parent, workload), kept in memory and
//! written out when the run ends. Nothing inside the simulator is
//! instrumented — a span brackets the call from outside.
//!
//! The recorder is shared by reference between the load-generating threads
//! (campaign workers, daemon clients), so parents are passed explicitly
//! instead of living on a per-thread stack.

use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Disabled, [`Tracer::span`] costs one relaxed
/// load and records nothing, which is how the end-to-end run is measured.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; dropping it closes and records the span.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<(u32, Option<u32>, String, u64)>,
}

impl SpanGuard<'_> {
    /// Id to hand to child spans (`None` while tracing is off).
    pub fn id(&self) -> Option<u32> {
        self.open.as_ref().map(|o| o.0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let end_ns = self.tracer.now_ns();
            // A poisoned lock means a load thread panicked mid-push; the
            // vector is still a valid list of finished spans.
            let mut spans = match self.tracer.spans.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        // Relaxed: the flag publishes no other data; it is flipped only
        // between passes, on the thread that then starts the workers.
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`. Recorded when the guard drops.
    pub fn span(&self, name: &str, parent: Option<u32>) -> SpanGuard<'_> {
        let open = self.is_on().then(|| {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            (id, parent, name.to_string(), self.now_ns())
        });
        SpanGuard { tracer: self, open }
    }

    /// All finished spans, ordered by start time.
    pub fn finished(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Durations (milliseconds) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Self time of `span`: its duration minus the part of its interval that its
/// direct children cover. Children on parallel threads may overlap each
/// other, so the covered part is the length of the *union* of the child
/// intervals clipped to the parent.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = span.start_ns;
    for (start, end) in kids {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    span.duration_ns() - covered
}

/// Per-name totals for the human-readable report: (name, count, total ms,
/// self ms), in first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for s in spans {
        let total = s.duration_ns() as f64 / 1e6;
        let own = self_time_ns(s, spans) as f64 / 1e6;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own;
            }
            None => rows.push((s.name.clone(), 1, total, own)),
        }
    }
    rows
}

/// The trace file: every span of one workload run.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".into(), Value::U64(s.id.into())),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                ),
                ("name".into(), Value::Str(s.name.clone())),
                ("workload".into(), Value::Str(workload.into())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("self_ns".into(), Value::U64(self_time_ns(s, spans))),
            ])
        })
        .collect();
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        let all = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            // A grandchild does not count against the root.
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 20 - 40);
        assert_eq!(self_time_ns(&all[2], &all), 40 - 10);
        assert_eq!(self_time_ns(&all[3], &all), 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let all = vec![
            span(0, None, 100, 200),
            // Two worker threads overlap between 120 and 150.
            span(1, Some(0), 110, 150),
            span(2, Some(0), 120, 170),
            // A child that outlives its parent is clipped to it.
            span(3, Some(0), 190, 250),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 60 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nests_when_on() {
        let t = Tracer::new(false);
        {
            let g = t.span("off", None);
            assert_eq!(g.id(), None);
        }
        assert!(t.finished().is_empty());
        t.set_on(true);
        {
            let outer = t.span("outer", None);
            let inner = t.span("inner", outer.id());
            assert!(inner.id().is_some());
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(durations_ms(&spans, "inner").len(), 1);
    }
}
