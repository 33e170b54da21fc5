//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a workspace crate is wrapped in a
//! span: layer, name, unit id, parent, start and end (host nanoseconds
//! since the recorder was created). Spans are kept in memory and written
//! out once, when the run ends. With tracing off, [`Tracer::span`] is a
//! single branch around the call.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The crate the call goes into (`fabric`, `core`, ...), or `bench`
    /// for the benchmark's own set-up and unit spans.
    pub layer: &'static str,
    /// The call, e.g. `RoutingEngine::route`.
    pub name: &'static str,
    /// The unit (or set-up repetition) this span belongs to.
    pub unit: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs the calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost open span on this thread: hand it to work that runs
    /// on other threads so their spans nest under it.
    pub fn current(&self) -> Option<usize> {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span nested under this thread's open span.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        self.span_under(self.current(), layer, name, unit, f)
    }

    /// Runs `f` inside a span nested under `parent`.
    pub fn span_under<T>(
        &self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span list poisoned by a panicking unit");
            spans.push(Span {
                layer,
                name,
                unit,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let outer = CURRENT.with(|current| current.replace(Some(id)));
        let out = f();
        CURRENT.with(|current| current.set(outer));
        let end = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking unit");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking unit")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children on several threads may overlap
/// each other, so the covered part is the union of their intervals.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.ns().saturating_sub(covered)
        })
        .collect()
}

/// The spans as JSON Lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"layer\": \"{}\", \"name\": \"{}\", \"unit\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            span.layer, span.name, span.unit, span.start_ns, span.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "bench",
            name: "x",
            unit: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            span(Some(0), 90, 120),
        ];
        // Children cover 10..60 and 90..100 of the parent: 60 ns.
        assert_eq!(self_ns(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_call() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("core", "f", 0, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let tracer = Tracer::new(true);
        tracer.span("bench", "unit", 3, || {
            tracer.span("core", "route", 3, || ())
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
