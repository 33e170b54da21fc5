//! End-to-end benchmark of the EDN simulator.
//!
//! Four workloads drive the workspace crates through their public entry
//! points and are timed from the outside, in host (wall-clock) time:
//!
//! * `fabric_1m` — one full-load cycle of the 2^20-port `EDN(16,4,4,9)`
//!   per unit, on wiring built, saved and loaded through `edn_fabric`;
//! * `pa_sweep` — a cold-cache Monte-Carlo `PA(r)` sweep through
//!   `edn_sweep` on two pool workers, one table row per unit;
//! * `resubmit_sessions` — an RA-EDN permutation session plus a MIMD
//!   resubmission session per unit;
//! * `sweep_replay` — a warm replay of a 20,000-row table from the row
//!   cache, one full replay per unit.
//!
//! Every workload folds its simulated outcomes into a digest (pinned for
//! [`DEFAULT_SEED`]) and re-checks one unit against `edn_core::reference`
//! or the run's invariants outside the timed phase; units that fail any
//! check are counted in `error_rate`. With tracing on, each call into a
//! crate is wrapped in a [`span::Span`], from which the per-layer metrics
//! and each layer's self time are derived.

#![forbid(unsafe_code)]

pub mod span;
pub mod workloads;

use span::{self_ns, Span, Tracer};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose digests are pinned in [`pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One full-load cycle of a 2^20-port EDN per unit.
    Fabric1m,
    /// A cold-cache `PA(r)` sweep, one row per unit.
    PaSweep,
    /// An RA-EDN and a MIMD session per unit.
    ResubmitSessions,
    /// A warm row-cache replay of a 20,000-row table per unit.
    SweepReplay,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Fabric1m,
        Workload::PaSweep,
        Workload::ResubmitSessions,
        Workload::SweepReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fabric1m => "fabric_1m",
            Workload::PaSweep => "pa_sweep",
            Workload::ResubmitSessions => "resubmit_sessions",
            Workload::SweepReplay => "sweep_replay",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The digest a run of `workload` at [`DEFAULT_SEED`] must produce.
/// Simulated outcomes are bit-reproducible, so any change here is a
/// change in what the simulator computes.
pub fn pinned_digest(workload: Workload, smoke: bool) -> u64 {
    match (workload, smoke) {
        (Workload::Fabric1m, false) => 0x7eb4_792b_e272_e6e4,
        (Workload::PaSweep, false) => 0xebe7_93e5_1be4_9ca1,
        (Workload::ResubmitSessions, false) => 0x47e5_a4ed_8dd2_a8c5,
        (Workload::SweepReplay, false) => 0x7a9e_853c_4d72_1be4,
        (Workload::Fabric1m, true) => 0x52ba_9dfb_0ca1_96ad,
        (Workload::PaSweep, true) => 0xefda_7ee6_7e28_00b5,
        (Workload::ResubmitSessions, true) => 0x5037_5c2d_8d52_beea,
        (Workload::SweepReplay, true) => 0x04b7_36f5_4d6e_16e4,
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed; every simulator input is generated from it.
    pub seed: u64,
    /// Seconds the timed phase runs for (a workload always completes the
    /// units its digest covers, even past this).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Run the workload at its small test size.
    pub smoke: bool,
    /// The digest to expect instead of the pinned one (tests).
    pub expect_digest: Option<u64>,
    /// Directory for the run's temporary files; created if missing.
    pub scratch: PathBuf,
}

impl Config {
    /// The digest this run is checked against, if any.
    pub fn expected_digest(&self) -> Option<u64> {
        self.expect_digest.or_else(|| {
            (self.seed == DEFAULT_SEED).then(|| pinned_digest(self.workload, self.smoke))
        })
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `unit_ms_p50`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Timed units attempted (set-up repetitions are not units).
    pub attempted: u64,
    /// Units that failed any check.
    pub failed: u64,
    /// The run's outcome digest.
    pub digest: u64,
    /// The digest it was checked against, if any.
    pub expected_digest: Option<u64>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
}

impl Report {
    /// Share of attempted units that failed a check.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The report as one line of JSON.
    pub fn to_json(&self, cfg: &Config) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"smoke\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"expected_digest\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
            cfg.workload.name(),
            cfg.seed,
            cfg.traced,
            cfg.smoke,
            self.attempted,
            self.failed,
            self.digest,
            self.expected_digest
                .map_or_else(|| "null".to_string(), |d| format!("\"{d:016x}\"")),
            failures.join(", "),
            metrics.join(", ")
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a, folded incrementally: the outcome digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Derives an independent input stream seed from the workload seed
/// (SplitMix64 finalizer), so each stream of inputs is a pure function of
/// `(seed, stream)`.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of `values`: the highest percentile that still has at least
/// ten samples above it, as `(value, percentile)`. With ten samples or
/// fewer there is no such percentile, and the maximum is returned as the
/// 100th.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (0.0, 100.0),
        n if n <= 10 => (sorted[n - 1], 100.0),
        n => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What a workload records while it runs; [`run`] turns it into a
/// [`Report`].
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The run's settings.
    pub cfg: &'a Config,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host ms of each timed unit.
    pub unit_ms: Vec<f64>,
    /// Host seconds the timed phase spent on the workload's work (unit
    /// time, plus per-pass plumbing where a pass holds several units).
    pub timed_s: f64,
    /// Simulated requests offered in the timed phase.
    pub offered: u64,
    /// Result rows produced in the timed phase.
    pub rows: u64,
    /// Peak RSS, read when the timed phase ends (before the re-check).
    pub peak_rss_mb: f64,
    /// The outcome digest.
    pub digest: Digest,
    /// Extra metrics the workload reports itself (both run kinds).
    pub extra: Vec<Metric>,
    failed_units: BTreeSet<u64>,
    failures: Vec<String>,
}

impl<'a> Ctx<'a> {
    fn new(cfg: &'a Config) -> Self {
        Ctx {
            cfg,
            setup_s: Vec::new(),
            unit_ms: Vec::new(),
            timed_s: 0.0,
            offered: 0,
            rows: 0,
            peak_rss_mb: 0.0,
            digest: Digest::default(),
            extra: Vec::new(),
            failed_units: BTreeSet::new(),
            failures: Vec::new(),
        }
    }

    /// `true` while the timed phase should go on: until `done` reaches
    /// `min_units` and the run's seconds have passed.
    pub fn keep_going(&self, started: Instant, done: u64, min_units: u64) -> bool {
        done < min_units || started.elapsed().as_secs_f64() < self.cfg.seconds
    }

    /// Records one timed unit that took `ms` of host time.
    pub fn add_unit(&mut self, ms: f64) {
        self.unit_ms.push(ms);
        self.timed_s += ms / 1e3;
    }

    /// Ends the timed phase: reads the peak RSS before any re-check runs.
    pub fn end_timed_phase(&mut self) {
        self.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    }

    /// Records a check: when `ok` is false, `units` count as failed.
    pub fn check(
        &mut self,
        ok: bool,
        units: impl IntoIterator<Item = u64>,
        why: impl FnOnce() -> String,
    ) {
        if !ok {
            self.failed_units.extend(units);
            self.failures.push(why());
        }
    }

    /// Records one extra metric, replacing an earlier value of it.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.retain(|m| m.name != name);
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A fresh, empty directory under the run's scratch directory.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created: a benchmark that
    /// cannot write its inputs has nothing to measure.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.cfg.scratch.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .unwrap_or_else(|e| panic!("clearing {}: {e}", dir.display()));
        }
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        dir
    }
}

/// Runs one workload and reports its metrics and checks.
pub fn run(cfg: &Config) -> Report {
    std::fs::create_dir_all(&cfg.scratch)
        .unwrap_or_else(|e| panic!("creating {}: {e}", cfg.scratch.display()));
    let mut ctx = Ctx::new(cfg);
    let tracer = Tracer::new(cfg.traced);
    match cfg.workload {
        Workload::Fabric1m => workloads::fabric_1m(&mut ctx, &tracer),
        Workload::PaSweep => workloads::pa_sweep(&mut ctx, &tracer),
        Workload::ResubmitSessions => workloads::resubmit_sessions(&mut ctx, &tracer),
        Workload::SweepReplay => workloads::sweep_replay(&mut ctx, &tracer),
    }
    // Every file the workload wrote is scratch; its mappings are gone.
    std::fs::remove_dir_all(&cfg.scratch)
        .unwrap_or_else(|e| panic!("removing {}: {e}", cfg.scratch.display()));
    let spans = tracer.spans();
    let attempted = ctx.unit_ms.len() as u64;
    let digest = ctx.digest.value();
    let expected_digest = cfg.expected_digest();
    if let Some(expected) = expected_digest {
        // The digest covers the first units of the run; a mismatch means
        // their simulated outcomes changed, so each of them failed.
        let covered = workloads::digest_units(cfg.workload, cfg.smoke);
        ctx.check(expected == digest, 0..covered, || {
            format!("digest {digest:016x} != pinned {expected:016x}")
        });
    }
    let failed = ctx.failed_units.iter().filter(|&&u| u < attempted).count() as u64;
    let metrics = if cfg.traced {
        layer_metrics(&ctx, &spans)
    } else {
        end_to_end_metrics(&ctx, failed, attempted)
    };
    Report {
        attempted,
        failed,
        digest,
        expected_digest,
        failures: ctx.failures,
        metrics,
        spans,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn end_to_end_metrics(ctx: &Ctx<'_>, failed: u64, attempted: u64) -> Vec<Metric> {
    let (tail_ms, tail_pct) = tail(&ctx.unit_ms);
    let per_s = |count: u64| count as f64 / ctx.timed_s.max(f64::MIN_POSITIVE);
    let mut metrics = vec![
        metric("offered_per_s", per_s(ctx.offered), "1/s"),
        metric("rows_per_s", per_s(ctx.rows), "1/s"),
        metric("unit_ms_p50", median(&ctx.unit_ms), "ms"),
        metric("unit_ms_tail", tail_ms, "ms"),
        metric("setup_s", median(&ctx.setup_s), "s"),
        metric("peak_rss_mb", ctx.peak_rss_mb, "MiB"),
        metric(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("unit_ms_tail_pct", tail_pct, "%"),
        metric("units", ctx.unit_ms.len() as f64, "count"),
        metric("setup_reps", ctx.setup_s.len() as f64, "count"),
    ];
    metrics.extend(ctx.extra.iter().cloned());
    metrics
}

/// Spans grouped by call name.
struct SpanIndex<'s> {
    spans: &'s [Span],
    selfs: Vec<u64>,
}

impl SpanIndex<'_> {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| s.ns() as f64 / 1e6).collect()
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.named(name).map(|(_, s)| s.ns() as f64).sum()
    }

    fn self_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|(i, _)| self.selfs[i] as f64 / 1e6)
            .collect()
    }
}

/// Call names whose spans feed the per-layer metrics.
pub mod calls {
    /// The benchmark's set-up repetition.
    pub const SETUP: &str = "setup";
    /// `SweepArgs::from_flags`.
    pub const FROM_FLAGS: &str = "SweepArgs::from_flags";
    /// `RaEdnSystem::new`.
    pub const RAEDN_NEW: &str = "RaEdnSystem::new";
    /// `MimdSystem::new`.
    pub const MIMD_NEW: &str = "MimdSystem::new";
    /// `Fabric::build`.
    pub const FABRIC_BUILD: &str = "Fabric::build";
    /// `Fabric::save`.
    pub const FABRIC_SAVE: &str = "Fabric::save";
    /// `Fabric::load`.
    pub const FABRIC_LOAD: &str = "Fabric::load";
    /// `RoutingEngine::with_wiring`.
    pub const ENGINE_BUILD: &str = "RoutingEngine::with_wiring";
    /// `RoutingEngine::route`.
    pub const ENGINE_ROUTE: &str = "RoutingEngine::route";
    /// `Workload::fill_batch`.
    pub const FILL: &str = "Workload::fill_batch";
    /// `estimate_pa_seeds`.
    pub const ESTIMATE: &str = "estimate_pa_seeds";
    /// `probability_of_acceptance`.
    pub const EQ4: &str = "probability_of_acceptance";
    /// `RaEdnSystem::route_random_permutation`.
    pub const RAEDN_RUN: &str = "RaEdnSystem::route_random_permutation";
    /// `MimdSystem::run`.
    pub const MIMD_RUN: &str = "MimdSystem::run";
    /// `SweepArgs::plan_emit`.
    pub const PLAN: &str = "SweepArgs::plan_emit";
    /// `Emission::run_table`.
    pub const RUN_TABLE: &str = "Emission::run_table";
    /// `Emission::finish`.
    pub const FINISH: &str = "Emission::finish";
    /// `Store::open` plus `Store::table`.
    pub const TABLE_LOAD: &str = "Store::table";
    /// One pass of `TableCache::lookup` over every row.
    pub const LOOKUP: &str = "TableCache::lookup";
    /// The benchmark's own timed unit.
    pub const UNIT: &str = "unit";
}

/// The layers spans are attributed to.
pub const LAYERS: [&str; 8] = [
    "fabric", "core", "traffic", "sim", "analytic", "sweep", "store", "bench",
];

fn layer_metrics(ctx: &Ctx<'_>, spans: &[Span]) -> Vec<Metric> {
    use calls::*;
    let index = SpanIndex {
        selfs: self_ns(spans),
        spans,
    };
    let mut metrics = vec![
        metric("fabric.build_ms", median(&index.ms(FABRIC_BUILD)), "ms"),
        metric("fabric.save_ms", median(&index.ms(FABRIC_SAVE)), "ms"),
        metric("fabric.load_ms", median(&index.ms(FABRIC_LOAD)), "ms"),
        metric("engine.build_ms", median(&index.ms(ENGINE_BUILD)), "ms"),
        metric("engine.route_ms_p50", median(&index.ms(ENGINE_ROUTE)), "ms"),
        metric("sim.estimate_ms_p50", median(&index.ms(ESTIMATE)), "ms"),
        metric("sim.raedn_run_ms_p50", median(&index.ms(RAEDN_RUN)), "ms"),
        metric("sim.mimd_run_ms_p50", median(&index.ms(MIMD_RUN)), "ms"),
        metric("analytic.eq4_us", median(&index.ms(EQ4)) * 1e3, "us"),
        metric("sweep.plan_ms", median(&index.ms(PLAN)), "ms"),
        metric("sweep.run_table_ms", median(&index.ms(RUN_TABLE)), "ms"),
        metric("sweep.self_ms", median(&index.self_ms(RUN_TABLE)), "ms"),
        metric("sweep.finish_ms", median(&index.ms(FINISH)), "ms"),
        metric("store.table_load_ms", median(&index.ms(TABLE_LOAD)), "ms"),
        metric("unit_ms_p50", median(&index.ms(UNIT)), "ms"),
        metric("trace.spans", spans.len() as f64, "count"),
    ];
    // Per-request costs: the workload reports the request counts the
    // spans carried (`*.requests`), the spans give the time.
    let per = |name: &str, call: &str| {
        let requests = ctx
            .extra
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        if requests > 0.0 {
            index.total_ns(call) / requests
        } else {
            0.0
        }
    };
    metrics.push(metric(
        "engine.route_ns_per_offered",
        per("engine.requests", ENGINE_ROUTE),
        "ns",
    ));
    metrics.push(metric(
        "traffic.fill_ns_per_request",
        per("traffic.requests", FILL),
        "ns",
    ));
    metrics.push(metric(
        "sim.estimate_ns_per_offered",
        per("sim.estimate_requests", ESTIMATE),
        "ns",
    ));
    metrics.push(metric(
        "sim.mimd_ns_per_offered",
        per("sim.mimd_requests", MIMD_RUN),
        "ns",
    ));
    metrics.push(metric(
        "store.lookup_ns",
        per("store.lookups", LOOKUP),
        "ns",
    ));
    // Self time per layer, as a share of all self time (spans on several
    // threads at once each count, so shares add up to 100% even when the
    // sweep pool runs rows in parallel), and the share of unit time spent
    // inside crate calls.
    let all_self: f64 = index.selfs.iter().map(|&n| n as f64).sum();
    for layer in LAYERS {
        let layer_self: f64 = spans
            .iter()
            .zip(&index.selfs)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &n)| n as f64)
            .sum();
        let share = if all_self > 0.0 {
            100.0 * layer_self / all_self
        } else {
            0.0
        };
        metrics.push(metric(&format!("self_pct.{layer}"), share, "%"));
    }
    let (unit_ns, unit_self) = index.named(UNIT).fold((0.0, 0.0), |(total, own), (i, s)| {
        (total + s.ns() as f64, own + index.selfs[i] as f64)
    });
    let accounted = if unit_ns > 0.0 {
        100.0 * (1.0 - unit_self / unit_ns)
    } else {
        0.0
    };
    metrics.push(metric("trace.accounted_pct", accounted, "%"));
    metrics.extend(
        ctx.extra
            .iter()
            .filter(|m| !m.name.ends_with(".requests") && m.name != "store.lookups")
            .cloned(),
    );
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&values), (30.0, 75.0));
        assert_eq!(tail(&values[..5]), (5.0, 100.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stream_seeds_differ_by_stream_and_seed() {
        assert_ne!(stream_seed(1, 0), stream_seed(1, 1));
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
        assert_eq!(stream_seed(5, 3), stream_seed(5, 3));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
