//! Sweep run telemetry: the `*.metrics.jsonl` sidecar and heartbeats.
//!
//! Every `--out PATH` run writes a second, *non-deterministic* artifact
//! next to the deterministic one: `PATH` with its extension replaced by
//! `metrics.jsonl`, one strict-JSON line per record, describing how the
//! run went — per-table cache effectiveness, pool spread (tasks, workers,
//! steals), a log2-bucketed row-latency histogram, and any
//! [`edn_core::RunMetrics`] snapshots the experiment recorded from its
//! routing probes. The deterministic artifact stays byte-identical
//! across thread counts, shards, and cache states; the sidecar is where
//! the timing lives, so the two never mix.
//!
//! Heartbeats are the live counterpart: when the `EDN_HEARTBEAT`
//! environment variable enables them, the emission layer prints
//! one-line, machine-parseable progress reports to stderr —
//!
//! ```text
//! edn-heartbeat shard=2/3 rows=12/40 rps=3.41 eta=8.2s cache=75%
//! ```
//!
//! — which `edn_orchestrate` parses ([`HeartbeatLine`]) and aggregates
//! into a single progress line across all shard children. `rps` counts
//! all finished rows (replayed hits included) per wall-clock second;
//! `eta` is `?` until a rate exists; `cache` is `-` on uncached runs.

// edn-lint: allow-file(determinism) -- this module IS the non-deterministic
// sidecar: wall-clock timing is its payload and never mixes into the
// byte-identical artifact stream
use crate::pool::PoolStats;
use crate::report::json_string;
use crate::stream::Shard;
use std::time::{Duration, Instant};

/// The environment variable enabling heartbeat emission. Unset, empty,
/// or `0` disables; a positive number is the minimum interval between
/// heartbeats in seconds; any other value enables with the default
/// interval (1 second).
pub const HEARTBEAT_ENV: &str = "EDN_HEARTBEAT";

/// The extension the metrics sidecar replaces the artifact's with:
/// `run.jsonl` → `run.metrics.jsonl`.
pub const METRICS_EXTENSION: &str = "metrics.jsonl";

/// A finite `f64` as a JSON number (`null` for NaN/infinity, which
/// strict JSON cannot carry).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Row latencies bucketed by `floor(log2(microseconds))`, 32 buckets
/// (bucket 0 holds sub-2µs rows, bucket 31 everything from ~36 minutes
/// up) — fixed-size, allocation-free accumulation with enough dynamic
/// range for any row this workspace measures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    total_micros: u64,
    max_micros: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one row measured in `micros` microseconds.
    pub fn record(&mut self, micros: u64) {
        let bucket = (64 - micros.leading_zeros()).saturating_sub(1).min(31) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Rows recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Slowest recorded row, in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Mean row latency in microseconds (`0.0` when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// The bucket counts as a JSON array, trailing zero buckets trimmed.
    fn to_json_array(&self) -> String {
        let used = self
            .buckets
            .iter()
            .rposition(|&count| count > 0)
            .map_or(0, |i| i + 1);
        let cells: Vec<String> = self.buckets[..used]
            .iter()
            .map(|count| count.to_string())
            .collect();
        format!("[{}]", cells.join(", "))
    }
}

/// One table's slice of the run, as recorded by the emission layer.
#[derive(Debug, Clone)]
pub struct TableTelemetry {
    /// The table's title.
    pub title: String,
    /// Rows this process emitted for the table (its shard slice).
    pub rows: usize,
    /// Rows replayed from the row cache.
    pub hits: usize,
    /// Rows measured.
    pub computed: usize,
    /// Fresh rows committed back to the cache.
    pub committed: usize,
    /// Corrupt cache log lines under this table's key.
    pub corrupt: usize,
    /// Superseded cache log lines under this table's key.
    pub superseded: usize,
    /// How the measured rows spread over the pool.
    pub pool: PoolStats,
    /// Measured-row latencies (replayed rows are not timed).
    pub latency: LatencyHistogram,
}

impl TableTelemetry {
    /// The table's `{"kind": "table", ...}` metrics line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\": \"table\", \"title\": {}, \"rows\": {}, \"hits\": {}, \
             \"computed\": {}, \"committed\": {}, \"corrupt\": {}, \"superseded\": {}, \
             \"tasks\": {}, \"workers\": {}, \"steals\": {}, \"latency_mean_us\": {}, \
             \"latency_max_us\": {}, \"latency_buckets_log2_us\": {}}}",
            json_string(&self.title),
            self.rows,
            self.hits,
            self.computed,
            self.committed,
            self.corrupt,
            self.superseded,
            self.pool.tasks,
            self.pool.workers,
            self.pool.steals,
            json_f64(self.latency.mean_micros()),
            self.latency.max_micros(),
            self.latency.to_json_array(),
        )
    }

    /// The per-table line `--cache-stats` prints under the overall
    /// summary.
    pub fn cache_line(&self) -> String {
        format!(
            "  table {}: {} hits, {} computed, {} committed, {} corrupt, {} superseded",
            json_string(&self.title),
            self.hits,
            self.computed,
            self.committed,
            self.corrupt,
            self.superseded
        )
    }
}

/// Serializes a probe's [`edn_core::RunMetrics`] snapshot as one
/// `{"kind": "routing", ...}` metrics line, labeled so an experiment can
/// record several (one per shape, per table, per load point).
pub fn render_run_metrics(label: &str, metrics: &edn_core::RunMetrics) -> String {
    let stages: Vec<String> = metrics
        .stages
        .iter()
        .map(|stage| {
            format!(
                "{{\"stage\": {}, \"offered\": {}, \"granted\": {}, \"blocked\": {}, \
                 \"fault_drops\": {}, \"arb_events\": {}, \"arb_mean_depth\": {}, \
                 \"arb_max_depth\": {}, \"wires\": {}, \"wire_min_grants\": {}, \
                 \"wire_max_grants\": {}}}",
                stage.stage,
                stage.offered,
                stage.granted,
                stage.blocked,
                stage.fault_drops,
                stage.arb_events,
                json_f64(stage.arb_mean_depth),
                stage.arb_max_depth,
                stage.wires,
                stage.wire_min_grants,
                stage.wire_max_grants,
            )
        })
        .collect();
    format!(
        "{{\"kind\": \"routing\", \"label\": {}, \"cycles\": {}, \"offered\": {}, \
         \"delivered\": {}, \"queue_samples\": {}, \"queue_mean_depth\": {}, \
         \"queue_max_depth\": {}, \"reconciles\": {}, \"stages\": [{}]}}",
        json_string(label),
        metrics.cycles,
        metrics.offered,
        metrics.delivered,
        metrics.queue_samples,
        json_f64(metrics.queue_mean_depth),
        metrics.queue_max_depth,
        metrics.reconciles(),
        stages.join(", "),
    )
}

/// The run-level `{"kind": "run", ...}` metrics line (always the
/// sidecar's first line).
pub fn render_run_line(
    binary: &str,
    shard: Shard,
    tables: usize,
    rows: usize,
    elapsed: Duration,
) -> String {
    format!(
        "{{\"kind\": \"run\", \"binary\": {}, \"shard\": \"{}\", \"tables\": {}, \
         \"rows\": {}, \"elapsed_s\": {}}}",
        json_string(binary),
        shard,
        tables,
        rows,
        json_f64(elapsed.as_secs_f64()),
    )
}

/// The known `"kind"` values of metrics lines, in the order they appear.
pub const METRICS_KINDS: [&str; 3] = ["run", "table", "routing"];

/// Validates one metrics sidecar's text (the `edn_merge --check-metrics`
/// engine): every line must parse as strict JSON, carry a known
/// `"kind"`, open with the `"run"` line, and hold the fields of its
/// kind. Returns the record count.
///
/// # Errors
///
/// Every problem found, as `line N: message` strings.
pub fn check_metrics_text(text: &str) -> Result<usize, Vec<String>> {
    let mut errors = Vec::new();
    let mut records = 0usize;
    for (index, line) in text.lines().enumerate() {
        let number = index + 1;
        let mut bad = |message: String| errors.push(format!("line {number}: {message}"));
        let value = match crate::json::parse(line) {
            Ok(value) => value,
            Err(error) => {
                bad(error.to_string());
                continue;
            }
        };
        records += 1;
        let Some(kind) = value.get("kind").and_then(|v| v.as_str()) else {
            bad("record has no string `kind` field".to_string());
            continue;
        };
        if !METRICS_KINDS.contains(&kind) {
            bad(format!("unknown record kind `{kind}`"));
            continue;
        }
        if index == 0 && kind != "run" {
            bad(format!(
                "sidecar must open with the run record, found `{kind}`"
            ));
        }
        let required: &[&str] = match kind {
            "run" => &["binary", "shard", "tables", "rows", "elapsed_s"],
            "table" => &[
                "title",
                "rows",
                "hits",
                "computed",
                "committed",
                "corrupt",
                "superseded",
                "tasks",
                "workers",
                "steals",
                "latency_mean_us",
                "latency_max_us",
                "latency_buckets_log2_us",
            ],
            _ => &[
                "label",
                "cycles",
                "offered",
                "delivered",
                "queue_samples",
                "queue_mean_depth",
                "queue_max_depth",
                "reconciles",
                "stages",
            ],
        };
        for field in required {
            if value.get(field).is_none() {
                bad(format!("{kind} record missing field `{field}`"));
            }
        }
        if kind == "run" {
            if let Some(shard) = value.get("shard").and_then(|v| v.as_str()) {
                if Shard::parse(shard).is_err() {
                    bad(format!("run record shard `{shard}` is not I/N"));
                }
            }
        }
    }
    if records == 0 {
        errors.push("no metric records found".to_string());
    }
    if errors.is_empty() {
        Ok(records)
    } else {
        Err(errors)
    }
}

/// The extension the flight-recorder trace sidecar replaces the
/// artifact's with: `run.jsonl` → `run.trace.jsonl`. Like the metrics
/// sidecar it is never part of the deterministic artifact's
/// byte-identity contract.
pub const TRACE_EXTENSION: &str = "trace.jsonl";

/// The trace sidecar's schema version, carried by its header record as
/// `edn_trace_schema`.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// The known `"kind"` values of trace lines: the header record (always
/// first), one `event` record per recorded [`edn_core::TraceEvent`],
/// and one `summary` record per traced run label.
pub const TRACE_KINDS: [&str; 3] = ["header", "event", "summary"];

/// The trace sidecar's `{"kind": "header", ...}` line (always first):
/// schema version, the emitting binary, its shard coordinate, and the
/// `--trace` filter in its own grammar.
pub fn render_trace_header(binary: &str, shard: Shard, filter: &edn_core::TraceFilter) -> String {
    format!(
        "{{\"kind\": \"header\", \"edn_trace_schema\": {TRACE_SCHEMA_VERSION}, \
         \"binary\": {}, \"shard\": \"{}\", \"filter\": {}}}",
        json_string(binary),
        shard,
        json_string(&filter.render()),
    )
}

/// One recorded event as its `{"kind": "event", ...}` trace line,
/// labeled with the run slice it came from (one label per traced row,
/// mirroring the routing metrics labels).
pub fn render_trace_event(label: &str, event: &edn_core::TraceEvent) -> String {
    format!(
        "{{\"kind\": \"event\", \"label\": {}, \"cycle\": {}, \"event\": \"{}\", \
         \"source\": {}, \"tag\": {}, \"stage\": {}, \"value\": {}}}",
        json_string(label),
        event.cycle,
        event.kind.name(),
        event.source,
        event.tag,
        event.stage,
        event.value,
    )
}

/// A traced run's closing `{"kind": "summary", ...}` line: how many
/// events the ring recorded, how many overflowed past its capacity, and
/// how many simulated cycles the probe observed.
pub fn render_trace_summary(label: &str, probe: &edn_core::TraceProbe) -> String {
    format!(
        "{{\"kind\": \"summary\", \"label\": {}, \"events\": {}, \"dropped\": {}, \
         \"cycles\": {}}}",
        json_string(label),
        probe.events().len(),
        probe.dropped(),
        probe.cycle(),
    )
}

/// Validates one trace sidecar's text (the trace half of
/// `edn_merge --check-metrics`): every line must parse as strict JSON,
/// carry a known `"kind"`, open with the schema-versioned header
/// record, hold the fields of its kind, name a known event, and keep
/// cycle timestamps monotone per `(label, source)` packet. A
/// header-only sidecar (a filtered run that matched nothing) is valid.
/// Returns the record count.
///
/// # Errors
///
/// Every problem found, as `line N: message` strings.
pub fn check_trace_text(text: &str) -> Result<usize, Vec<String>> {
    let mut errors = Vec::new();
    let mut records = 0usize;
    let mut last_cycle: std::collections::BTreeMap<(String, usize), usize> =
        std::collections::BTreeMap::new();
    for (index, line) in text.lines().enumerate() {
        let number = index + 1;
        let mut bad = |message: String| errors.push(format!("line {number}: {message}"));
        let value = match crate::json::parse(line) {
            Ok(value) => value,
            Err(error) => {
                bad(error.to_string());
                continue;
            }
        };
        records += 1;
        let Some(kind) = value.get("kind").and_then(|v| v.as_str()) else {
            bad("record has no string `kind` field".to_string());
            continue;
        };
        if !TRACE_KINDS.contains(&kind) {
            bad(format!("unknown record kind `{kind}`"));
            continue;
        }
        if index == 0 && kind != "header" {
            bad(format!(
                "trace sidecar must open with the header record, found `{kind}`"
            ));
        }
        let required: &[&str] = match kind {
            "header" => &["edn_trace_schema", "binary", "shard", "filter"],
            "event" => &["label", "cycle", "event", "source", "tag", "stage", "value"],
            _ => &["label", "events", "dropped", "cycles"],
        };
        for field in required {
            if value.get(field).is_none() {
                bad(format!("{kind} record missing field `{field}`"));
            }
        }
        match kind {
            "header" => {
                if let Some(shard) = value.get("shard").and_then(|v| v.as_str()) {
                    if Shard::parse(shard).is_err() {
                        bad(format!("header record shard `{shard}` is not I/N"));
                    }
                }
            }
            "event" => {
                if let Some(name) = value.get("event").and_then(|v| v.as_str()) {
                    if !edn_core::TraceEventKind::ALL
                        .iter()
                        .any(|kind| kind.name() == name)
                    {
                        bad(format!("unknown event `{name}`"));
                    }
                }
                if let (Some(label), Some(source), Some(cycle)) = (
                    value.get("label").and_then(|v| v.as_str()),
                    value.get("source").and_then(|v| v.as_usize()),
                    value.get("cycle").and_then(|v| v.as_usize()),
                ) {
                    let key = (label.to_string(), source);
                    if let Some(&previous) = last_cycle.get(&key) {
                        if cycle < previous {
                            bad(format!(
                                "cycle {cycle} before cycle {previous} for source \
                                 {source} of {label:?}: timestamps must be monotone \
                                 per packet"
                            ));
                        }
                    }
                    last_cycle.insert(key, cycle);
                }
            }
            _ => {}
        }
    }
    if records == 0 {
        errors.push("no trace records found".to_string());
    }
    if errors.is_empty() {
        Ok(records)
    } else {
        Err(errors)
    }
}

/// The heartbeat interval [`HEARTBEAT_ENV`] requests, `None` when
/// heartbeats are disabled.
pub fn heartbeat_interval_from_env() -> Option<Duration> {
    let value = std::env::var(HEARTBEAT_ENV).ok()?;
    if value.is_empty() || value == "0" {
        return None;
    }
    match value.parse::<f64>() {
        Ok(seconds) if seconds > 0.0 && seconds.is_finite() => {
            Some(Duration::from_secs_f64(seconds))
        }
        Ok(_) => None,
        Err(_) => Some(Duration::from_secs(1)),
    }
}

/// The throttled stderr heartbeat emitter the emission layer drives: one
/// line per interval while rows finish, plus an unthrottled final line
/// at the end of the run, so even sub-interval runs emit at least one
/// parseable heartbeat.
#[derive(Debug)]
pub struct Heartbeat {
    shard: Shard,
    total: usize,
    done: usize,
    hits: usize,
    cached: bool,
    started: Instant,
    interval: Duration,
    last: Option<Instant>,
}

impl Heartbeat {
    /// A heartbeat for a run emitting `total` rows (the process's shard
    /// slice), if [`HEARTBEAT_ENV`] enables one.
    pub fn from_env(shard: Shard, total: usize, cached: bool) -> Option<Heartbeat> {
        Some(Heartbeat {
            shard,
            total,
            done: 0,
            hits: 0,
            cached,
            started: Instant::now(),
            interval: heartbeat_interval_from_env()?,
            last: None,
        })
    }

    /// Records `count` finished rows (`hit` = replayed from the cache)
    /// and emits a heartbeat if the interval has elapsed.
    pub fn rows_done(&mut self, count: usize, hit: bool) {
        self.done += count;
        if hit {
            self.hits += count;
        }
        let due = match self.last {
            None => true,
            Some(last) => last.elapsed() >= self.interval,
        };
        if due {
            self.emit();
        }
    }

    /// Emits the final heartbeat unconditionally (run end).
    pub fn finish(&mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        eprintln!("{}", self.line());
        self.last = Some(Instant::now());
    }

    /// The current heartbeat line.
    pub fn line(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rps = if elapsed > 0.0 && self.done > 0 {
            Some(self.done as f64 / elapsed)
        } else {
            None
        };
        let eta = match rps {
            Some(rps) if rps > 0.0 => {
                format!(
                    "{:.1}s",
                    (self.total.saturating_sub(self.done)) as f64 / rps
                )
            }
            _ => "?".to_string(),
        };
        let rps = match rps {
            Some(rps) => format!("{rps:.2}"),
            None => "?".to_string(),
        };
        let cache = if self.cached {
            match (self.hits * 100).checked_div(self.done) {
                Some(percent) => format!("{percent}%"),
                None => "0%".to_string(),
            }
        } else {
            "-".to_string()
        };
        format!(
            "edn-heartbeat shard={} rows={}/{} rps={rps} eta={eta} cache={cache}",
            self.shard, self.done, self.total
        )
    }
}

/// One parsed heartbeat line — the consumer side of the grammar, used by
/// `edn_orchestrate` to aggregate shard progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatLine {
    /// The emitting process's shard coordinate.
    pub shard: Shard,
    /// Rows finished so far (this shard's slice).
    pub done: usize,
    /// Rows the shard will emit in total.
    pub total: usize,
    /// Finished rows per second, when a rate exists yet.
    pub rps: Option<f64>,
    /// Estimated seconds to completion, when a rate exists.
    pub eta_seconds: Option<f64>,
    /// Cache hit percentage of the finished rows; `None` on uncached
    /// runs.
    pub cache_percent: Option<u32>,
}

impl HeartbeatLine {
    /// Parses one stderr line; `None` when it is not a heartbeat (the
    /// caller passes arbitrary child stderr through).
    pub fn parse(line: &str) -> Option<HeartbeatLine> {
        let mut tokens = line.split_whitespace();
        if tokens.next()? != "edn-heartbeat" {
            return None;
        }
        let mut shard = None;
        let mut rows = None;
        let mut rps = None;
        let mut eta = None;
        let mut cache = None;
        for token in tokens {
            let (key, value) = token.split_once('=')?;
            match key {
                "shard" => shard = Some(Shard::parse(value).ok()?),
                "rows" => {
                    let (done, total) = value.split_once('/')?;
                    rows = Some((done.parse().ok()?, total.parse().ok()?));
                }
                "rps" => {
                    if value != "?" {
                        rps = Some(value.parse().ok()?);
                    }
                }
                "eta" => {
                    if value != "?" {
                        eta = Some(value.strip_suffix('s')?.parse().ok()?);
                    }
                }
                "cache" => {
                    if value != "-" {
                        cache = Some(value.strip_suffix('%')?.parse().ok()?);
                    }
                }
                _ => return None,
            }
        }
        let (done, total) = rows?;
        Some(HeartbeatLine {
            shard: shard?,
            done,
            total,
            rps,
            eta_seconds: eta,
            cache_percent: cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let mut histogram = LatencyHistogram::new();
        for micros in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            histogram.record(micros);
        }
        assert_eq!(histogram.count(), 8);
        assert_eq!(histogram.max_micros(), u64::MAX);
        // 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 4 in bucket 2;
        // 1023 in bucket 9; 1024 in bucket 10; u64::MAX clamps to 31.
        assert_eq!(histogram.buckets[0], 2);
        assert_eq!(histogram.buckets[1], 2);
        assert_eq!(histogram.buckets[2], 1);
        assert_eq!(histogram.buckets[9], 1);
        assert_eq!(histogram.buckets[10], 1);
        assert_eq!(histogram.buckets[31], 1);
        let rendered = histogram.to_json_array();
        assert!(rendered.starts_with("[2, 2, 1, "));
        assert!(rendered.ends_with(", 1]"));
        // An empty histogram renders an empty array and a zero mean.
        let empty = LatencyHistogram::new();
        assert_eq!(empty.to_json_array(), "[]");
        assert_eq!(empty.mean_micros(), 0.0);
    }

    #[test]
    fn metrics_lines_parse_with_the_strict_parser() {
        let mut latency = LatencyHistogram::new();
        latency.record(12);
        latency.record(900);
        let table = TableTelemetry {
            title: "stage \"quoted\" title".to_string(),
            rows: 9,
            hits: 3,
            computed: 6,
            committed: 6,
            corrupt: 1,
            superseded: 2,
            pool: PoolStats {
                tasks: 6,
                workers: 2,
                steals: 1,
            },
            latency,
        };
        let line = table.to_json();
        let value = crate::json::parse(&line).unwrap();
        assert_eq!(value.get("kind").unwrap().as_str(), Some("table"));
        assert_eq!(
            value.get("title").unwrap().as_str(),
            Some("stage \"quoted\" title")
        );
        assert_eq!(value.get("hits").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("superseded").unwrap().as_usize(), Some(2));
        assert_eq!(value.get("steals").unwrap().as_usize(), Some(1));
        assert_eq!(value.get("latency_mean_us").unwrap().as_f64(), Some(456.0));
        let buckets = value.get("latency_buckets_log2_us").unwrap();
        assert!(buckets.as_array().unwrap().len() >= 4);

        let run = render_run_line(
            "tab_x",
            Shard::new(1, 3),
            2,
            40,
            Duration::from_millis(1250),
        );
        let value = crate::json::parse(&run).unwrap();
        assert_eq!(value.get("kind").unwrap().as_str(), Some("run"));
        assert_eq!(value.get("shard").unwrap().as_str(), Some("2/3"));
        assert_eq!(value.get("rows").unwrap().as_usize(), Some(40));
        assert_eq!(value.get("elapsed_s").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn routing_lines_carry_the_probe_snapshot() {
        use edn_core::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine, StageProbe};
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut probe = StageProbe::new(&params);
        let batch: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, (s * 7 + 3) % params.outputs()))
            .collect();
        let delivered = engine
            .route_with(&batch, None, &mut PriorityArbiter::new(), &mut probe)
            .delivered_count();
        let metrics = probe.snapshot();
        let line = render_run_metrics("EDN(16,4,4,2) full load", &metrics);
        let value = crate::json::parse(&line).unwrap();
        assert_eq!(value.get("kind").unwrap().as_str(), Some("routing"));
        assert_eq!(
            value.get("offered").unwrap().as_usize(),
            Some(params.inputs() as usize)
        );
        assert_eq!(value.get("delivered").unwrap().as_usize(), Some(delivered));
        assert_eq!(value.get("reconciles").unwrap().as_bool(), Some(true));
        let stages = value.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), metrics.stages.len());
        assert_eq!(stages[0].get("stage").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn check_metrics_accepts_real_sidecars_and_names_every_problem() {
        let run = render_run_line("tab_x", Shard::FULL, 1, 3, Duration::from_millis(10));
        let table = TableTelemetry {
            title: "t".to_string(),
            rows: 3,
            hits: 0,
            computed: 3,
            committed: 0,
            corrupt: 0,
            superseded: 0,
            pool: PoolStats {
                tasks: 3,
                workers: 1,
                steals: 0,
            },
            latency: LatencyHistogram::new(),
        };
        let good = format!("{run}\n{}\n", table.to_json());
        assert_eq!(check_metrics_text(&good), Ok(2));
        // A sidecar with every failure mode: bad JSON, no kind, unknown
        // kind, a table record missing fields, and a run record not
        // first.
        let bad = format!(
            "{}\nnot json\n{{\"kind\": 7}}\n{{\"kind\": \"zebra\"}}\n{{\"kind\": \"table\"}}\n",
            "{\"kind\": \"table\", \"title\": \"t\"}"
        );
        let errors = check_metrics_text(&bad).unwrap_err();
        let rendered = errors.join("; ");
        assert!(
            rendered.contains("must open with the run record"),
            "{rendered}"
        );
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("no string `kind`"), "{rendered}");
        assert!(
            rendered.contains("unknown record kind `zebra`"),
            "{rendered}"
        );
        assert!(rendered.contains("missing field `hits`"), "{rendered}");
        assert!(check_metrics_text("").is_err(), "empty sidecar rejected");
    }

    #[test]
    fn heartbeat_lines_round_trip_through_the_parser() {
        let line = "edn-heartbeat shard=2/3 rows=12/40 rps=3.41 eta=8.2s cache=75%";
        let parsed = HeartbeatLine::parse(line).unwrap();
        assert_eq!(parsed.shard, Shard::new(1, 3));
        assert_eq!(parsed.done, 12);
        assert_eq!(parsed.total, 40);
        assert_eq!(parsed.rps, Some(3.41));
        assert_eq!(parsed.eta_seconds, Some(8.2));
        assert_eq!(parsed.cache_percent, Some(75));
        // Unknown-rate and uncached placeholders parse to None.
        let parsed =
            HeartbeatLine::parse("edn-heartbeat shard=1/1 rows=0/7 rps=? eta=? cache=-").unwrap();
        assert_eq!(parsed.rps, None);
        assert_eq!(parsed.eta_seconds, None);
        assert_eq!(parsed.cache_percent, None);
        // Non-heartbeat stderr lines pass through as None.
        assert_eq!(HeartbeatLine::parse("warning: something else"), None);
        assert_eq!(HeartbeatLine::parse("edn-heartbeat shard=zz rows=1"), None);
        assert_eq!(HeartbeatLine::parse(""), None);
    }

    #[test]
    fn emitter_lines_match_the_grammar() {
        // Build the emitter directly (no env dependency) and check its
        // rendered line parses back with consistent fields.
        let mut heartbeat = Heartbeat {
            shard: Shard::new(0, 2),
            total: 10,
            done: 0,
            hits: 0,
            cached: true,
            started: Instant::now(),
            interval: Duration::from_secs(3600),
            last: None,
        };
        let parsed = HeartbeatLine::parse(&heartbeat.line()).unwrap();
        assert_eq!(parsed.done, 0);
        assert_eq!(parsed.total, 10);
        assert_eq!(parsed.rps, None, "no rate before the first row");
        assert_eq!(parsed.cache_percent, Some(0));
        heartbeat.done = 4;
        heartbeat.hits = 3;
        let parsed = HeartbeatLine::parse(&heartbeat.line()).unwrap();
        assert_eq!(parsed.done, 4);
        assert_eq!(parsed.cache_percent, Some(75));
        assert!(parsed.rps.unwrap() > 0.0);
        heartbeat.cached = false;
        let parsed = HeartbeatLine::parse(&heartbeat.line()).unwrap();
        assert_eq!(parsed.cache_percent, None);
    }
}
