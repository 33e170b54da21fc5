//! The flight recorder: [`TraceProbe`] and its event model.
//!
//! [`crate::StageProbe`] answers *how many* requests blocked per stage;
//! the paper's hardest questions — why a hot spot saturates (Section 5),
//! how long a request languishes in a resubmission queue (Section 4),
//! which wires a fault forces traffic around — need *per-event* detail:
//! the actual path, block site, and wait time of individual requests.
//! A [`TraceProbe`] implements the same monomorphized [`Probe`] trait
//! the engines already thread through their hot loops, recording one
//! [`TraceEvent`] per inject / hop / block / fault-drop / resubmit /
//! deliver into a **pre-sized ring** with an explicit drop counter when
//! full, so the hot loops stay allocation-free in steady state and
//! outcomes stay bit-identical with the probe on (both
//! property-asserted, like `StageProbe`).
//!
//! Timestamps are **simulated cycles**, never wall clocks: the probe
//! counts [`Probe::cycle_end`] calls, so a trace is as deterministic as
//! the run it records. A [`TraceFilter`] restricts recording to one
//! source, one tag, and/or a cycle window, so million-port runs can
//! trace a handful of flagged packets instead of everything.
//!
//! `edn_sweep --trace` drains a `TraceProbe` into the `*.trace.jsonl`
//! sidecar; the `edn_trace` binary reconstructs lifecycles, utilization,
//! latency percentiles, and Chrome trace-event exports from it.
//!
//! # Examples
//!
//! ```
//! use edn_core::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine};
//! use edn_core::{TraceEventKind, TraceFilter, TraceProbe};
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let params = EdnParams::new(16, 4, 4, 2)?;
//! let mut engine = RoutingEngine::from_params(params);
//! let mut probe = TraceProbe::new(1024, TraceFilter::default());
//! let requests: Vec<RouteRequest> = (0..params.inputs())
//!     .map(|s| RouteRequest::new(s, (s * 7 + 3) % params.outputs()))
//!     .collect();
//! engine.route_with(&requests, None, &mut PriorityArbiter::new(), &mut probe);
//! assert_eq!(probe.dropped(), 0);
//! let injects = probe
//!     .events()
//!     .iter()
//!     .filter(|e| e.kind == TraceEventKind::Inject)
//!     .count();
//! assert_eq!(injects as u64, params.inputs());
//! # Ok(())
//! # }
//! ```

use crate::telemetry::Probe;
use std::fmt;

/// What happened to a request at one point of its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// The request entered the fabric this cycle (`value` unused).
    Inject,
    /// The request was granted a stage exit wire (`value` = wire id).
    Hop,
    /// The request lost arbitration (`value` = its bucket's total loser
    /// count this pass, crowding at the block site).
    Block,
    /// The request died because faults disabled wires its contention
    /// level would otherwise have won (`value` unused).
    FaultDrop,
    /// The request re-entered a session's submission queue (`value`
    /// unused).
    Resubmit,
    /// The request reached its output (`value` = output port).
    Deliver,
}

impl TraceEventKind {
    /// Every kind, in lifecycle order — the sidecar validators' and
    /// analyzers' whitelist.
    pub const ALL: [TraceEventKind; 6] = [
        TraceEventKind::Inject,
        TraceEventKind::Hop,
        TraceEventKind::Block,
        TraceEventKind::FaultDrop,
        TraceEventKind::Resubmit,
        TraceEventKind::Deliver,
    ];

    /// The stable wire name used in trace sidecars (`"inject"`, `"hop"`,
    /// ...).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Inject => "inject",
            TraceEventKind::Hop => "hop",
            TraceEventKind::Block => "block",
            TraceEventKind::FaultDrop => "fault_drop",
            TraceEventKind::Resubmit => "resubmit",
            TraceEventKind::Deliver => "deliver",
        }
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event happened in (0-based; the probe's own
    /// [`Probe::cycle_end`] count, never a wall clock).
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// The request's source port.
    pub source: u64,
    /// The request's destination tag (as submitted this cycle).
    pub tag: u64,
    /// The stage the event happened at: hyperbars `1..=l`, crossbar
    /// `l + 1`, `0` for stage-less events (inject/resubmit/deliver).
    pub stage: u32,
    /// Kind-specific payload: wire id for [`TraceEventKind::Hop`],
    /// bucket loser count for [`TraceEventKind::Block`], output port for
    /// [`TraceEventKind::Deliver`], `0` otherwise.
    pub value: u64,
}

/// Which events a [`TraceProbe`] records. Fields are conjunctive: an
/// event must match every set field. `Default` records everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Record only this source port.
    pub source: Option<u64>,
    /// Record only this destination tag.
    pub tag: Option<u64>,
    /// Record only cycles in `start..end` (half-open).
    pub cycles: Option<(u64, u64)>,
}

impl TraceFilter {
    /// Parses the `--trace` filter grammar: a comma-separated list of
    /// `source=N`, `tag=N`, and `cycles=A..B` clauses (each at most
    /// once), e.g. `source=3,tag=17,cycles=10..20`. The empty string is
    /// the match-everything filter.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed clause.
    pub fn parse(text: &str) -> Result<TraceFilter, String> {
        let mut filter = TraceFilter::default();
        for clause in text.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("filter clause `{clause}` is not key=value"))?;
            match key {
                "source" => {
                    let parsed = value
                        .parse()
                        .map_err(|_| format!("source `{value}` is not a non-negative integer"))?;
                    if filter.source.replace(parsed).is_some() {
                        return Err("source given twice".to_string());
                    }
                }
                "tag" => {
                    let parsed = value
                        .parse()
                        .map_err(|_| format!("tag `{value}` is not a non-negative integer"))?;
                    if filter.tag.replace(parsed).is_some() {
                        return Err("tag given twice".to_string());
                    }
                }
                "cycles" => {
                    let (start, end) = value
                        .split_once("..")
                        .ok_or_else(|| format!("cycles `{value}` is not A..B"))?;
                    let start: u64 = start
                        .parse()
                        .map_err(|_| format!("cycle start `{start}` is not an integer"))?;
                    let end: u64 = end
                        .parse()
                        .map_err(|_| format!("cycle end `{end}` is not an integer"))?;
                    if end <= start {
                        return Err(format!("cycle window {start}..{end} is empty"));
                    }
                    if filter.cycles.replace((start, end)).is_some() {
                        return Err("cycles given twice".to_string());
                    }
                }
                other => {
                    return Err(format!(
                        "unknown filter key `{other}` (expected source, tag, or cycles)"
                    ))
                }
            }
        }
        Ok(filter)
    }

    /// `true` when an event at `cycle` for request `(source, tag)`
    /// passes the filter.
    #[inline(always)]
    pub fn matches(&self, cycle: u64, source: u64, tag: u64) -> bool {
        if let Some(want) = self.source {
            if source != want {
                return false;
            }
        }
        if let Some(want) = self.tag {
            if tag != want {
                return false;
            }
        }
        if let Some((start, end)) = self.cycles {
            if cycle < start || cycle >= end {
                return false;
            }
        }
        true
    }

    /// Renders the filter back in the [`TraceFilter::parse`] grammar
    /// (empty string for the match-everything filter).
    pub fn render(&self) -> String {
        let mut clauses = Vec::new();
        if let Some(source) = self.source {
            clauses.push(format!("source={source}"));
        }
        if let Some(tag) = self.tag {
            clauses.push(format!("tag={tag}"));
        }
        if let Some((start, end)) = self.cycles {
            clauses.push(format!("cycles={start}..{end}"));
        }
        clauses.join(",")
    }
}

/// The flight recorder: a [`Probe`] recording per-request events into a
/// pre-sized ring buffer, timestamped in simulated cycles.
///
/// The buffer never grows: once `capacity` events are held, further
/// matching events are counted in [`TraceProbe::dropped`] instead of
/// recorded, so steady-state recording is allocation-free (covered by
/// the same counting-allocator tests as the engines). Reuse one probe
/// across runs with [`TraceProbe::clear`], exactly like an engine.
#[derive(Debug, Clone)]
pub struct TraceProbe {
    filter: TraceFilter,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    cycle: u64,
}

// edn-lint: hot-path
impl TraceProbe {
    /// A recorder holding at most `capacity` events, recording only
    /// events matching `filter`.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity — a recorder that can hold nothing only
    /// ever counts drops, which is never what a caller wants.
    pub fn new(capacity: usize, filter: TraceFilter) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceProbe {
            filter,
            // edn-lint: allow(hot-path-alloc) -- one-time construction,
            // the ring never grows afterwards
            events: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            cycle: 0,
        }
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Matching events that did not fit in the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Simulated cycles observed so far (the next event's timestamp).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The ring's capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The filter this recorder applies.
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Empties the ring and zeroes the drop counter and cycle clock
    /// without touching the allocation.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.cycle = 0;
    }

    #[inline(always)]
    fn record(&mut self, kind: TraceEventKind, source: u64, tag: u64, stage: u32, value: u64) {
        if !self.filter.matches(self.cycle, source, tag) {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                cycle: self.cycle,
                kind,
                source,
                tag,
                stage,
                value,
            });
        } else {
            self.dropped += 1;
        }
    }
}

// edn-lint: hot-path
impl Probe for TraceProbe {
    const ENABLED: bool = true;

    #[inline]
    fn cycle_end(&mut self, delivered: usize) {
        let _ = delivered;
        self.cycle += 1;
    }

    #[inline]
    fn event_inject(&mut self, source: u64, tag: u64) {
        self.record(TraceEventKind::Inject, source, tag, 0, 0);
    }

    #[inline]
    fn event_hop(&mut self, stage: u32, source: u64, tag: u64, wire: u64) {
        self.record(TraceEventKind::Hop, source, tag, stage, wire);
    }

    #[inline]
    fn event_block(&mut self, stage: u32, source: u64, tag: u64, losers: usize) {
        self.record(TraceEventKind::Block, source, tag, stage, losers as u64);
    }

    #[inline]
    fn event_fault_drop(&mut self, stage: u32, source: u64, tag: u64) {
        self.record(TraceEventKind::FaultDrop, source, tag, stage, 0);
    }

    #[inline]
    fn event_resubmit(&mut self, source: u64, tag: u64) {
        self.record(TraceEventKind::Resubmit, source, tag, 0, 0);
    }

    #[inline]
    fn event_deliver(&mut self, source: u64, tag: u64, output: u64) {
        self.record(TraceEventKind::Deliver, source, tag, 0, output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutingEngine;
    use crate::hyperbar::PriorityArbiter;
    use crate::params::EdnParams;
    use crate::routing::RouteRequest;

    #[test]
    fn filter_grammar_round_trips() {
        assert_eq!(TraceFilter::parse("").unwrap(), TraceFilter::default());
        let filter = TraceFilter::parse("source=3,tag=17,cycles=10..20").unwrap();
        assert_eq!(filter.source, Some(3));
        assert_eq!(filter.tag, Some(17));
        assert_eq!(filter.cycles, Some((10, 20)));
        assert_eq!(filter.render(), "source=3,tag=17,cycles=10..20");
        assert_eq!(TraceFilter::parse(&filter.render()).unwrap(), filter);
        assert_eq!(TraceFilter::default().render(), "");
        // Spaces around clauses are tolerated; order is free.
        let spaced = TraceFilter::parse(" tag=1 , source=2 ").unwrap();
        assert_eq!(spaced.source, Some(2));
        assert_eq!(spaced.tag, Some(1));
    }

    #[test]
    fn filter_grammar_rejects_malformed_clauses() {
        for bad in [
            "bogus=1",
            "source=x",
            "tag=-1",
            "cycles=5",
            "cycles=9..3",
            "cycles=4..4",
            "source",
            "source=1,source=2",
            "cycles=1..2,cycles=3..4",
        ] {
            assert!(TraceFilter::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn filter_matching_is_conjunctive() {
        let filter = TraceFilter::parse("source=3,cycles=2..4").unwrap();
        assert!(filter.matches(2, 3, 99));
        assert!(filter.matches(3, 3, 0));
        assert!(!filter.matches(1, 3, 0), "cycle below the window");
        assert!(!filter.matches(4, 3, 0), "cycle at the exclusive end");
        assert!(!filter.matches(2, 4, 0), "wrong source");
    }

    #[test]
    fn recorder_stamps_simulated_cycles() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut probe = TraceProbe::new(4096, TraceFilter::default());
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, (s * 5 + 1) % params.outputs()))
            .collect();
        engine.route_with(&requests, None, &mut PriorityArbiter::new(), &mut probe);
        engine.route_with(&requests, None, &mut PriorityArbiter::new(), &mut probe);
        assert_eq!(probe.cycle(), 2);
        assert!(probe.events().iter().any(|e| e.cycle == 0));
        assert!(probe.events().iter().any(|e| e.cycle == 1));
        assert!(probe.events().iter().all(|e| e.cycle < 2));
        // Delivered events carry the output the outcome reports.
        let delivers: Vec<&TraceEvent> = probe
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Deliver && e.cycle == 0)
            .collect();
        assert!(!delivers.is_empty());
        for event in delivers {
            assert_eq!(event.value, event.tag, "full tag addressing: output == tag");
        }
    }

    #[test]
    fn overflow_counts_drops_exactly() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, (s * 3 + 2) % params.outputs()))
            .collect();
        // Count the full event stream, then replay with a tiny ring.
        let mut full = TraceProbe::new(1 << 16, TraceFilter::default());
        engine.route_with(&requests, None, &mut PriorityArbiter::new(), &mut full);
        assert_eq!(full.dropped(), 0);
        let total = full.events().len();
        let mut tiny = TraceProbe::new(5, TraceFilter::default());
        engine.route_with(&requests, None, &mut PriorityArbiter::new(), &mut tiny);
        assert_eq!(tiny.events().len(), 5);
        assert_eq!(tiny.dropped() as usize, total - 5);
        assert_eq!(tiny.events(), &full.events()[..5]);
        tiny.clear();
        assert_eq!(tiny.dropped(), 0);
        assert_eq!(tiny.cycle(), 0);
        assert!(tiny.events().is_empty());
        assert_eq!(tiny.capacity(), 5);
    }

    #[test]
    fn source_filter_records_one_lifecycle() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut probe = TraceProbe::new(256, TraceFilter::parse("source=7").unwrap());
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, (s + 9) % params.outputs()))
            .collect();
        engine.route_with(&requests, None, &mut PriorityArbiter::new(), &mut probe);
        assert!(!probe.events().is_empty());
        assert!(probe.events().iter().all(|e| e.source == 7));
    }

    #[test]
    #[should_panic(expected = "trace capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TraceProbe::new(0, TraceFilter::default());
    }
}
