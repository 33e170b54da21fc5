//! The shared command-line surface of every experiment binary.
//!
//! All `fig*`/`tab*` binaries accept the same sweep flags:
//!
//! ```text
//! --threads N     worker threads for the sweep pool (default: auto)
//! --seeds N       seeds per Monte-Carlo measurement (default varies)
//! --cycles N      cycles/trials per measurement (default varies)
//! --out PATH      stream every table row as JSON Lines to PATH
//! --shard I/N     compute and emit only slice I of N (1-based)
//! --cache DIR     replay rows already in the edn_store cache at DIR,
//!                 commit fresh ones (default: $EDN_SWEEP_CACHE)
//! --no-cache      ignore --cache and $EDN_SWEEP_CACHE
//! --fabric DIR    load compiled wiring from the edn_fabric database at
//!                 DIR instead of re-wiring shapes at startup
//! --cache-stats   print hit/compute/commit counters after the run
//! --trace [F]     record flight-recorder trace events into a
//!                 PATH.trace.jsonl sidecar next to --out, optionally
//!                 filtered (e.g. source=3,tag=17,cycles=10..20)
//! --help          print usage and exit
//! ```
//!
//! Parsing is dependency-free (the build image has no crates.io access);
//! unknown flags abort with usage so typos never silently run the default
//! experiment.
//!
//! Emission goes through [`Emission`], the streaming replacement for the
//! old exit-time JSON dump: a binary *plans* its tables (titles, columns,
//! and full row counts) up front — which writes the artifact's
//! [`SchemaHeader`] immediately — then drives each table's rows through
//! the work-stealing pool with [`Emission::run_table`]. Every row is a
//! pure function of its global row index, so `--shard I/N` runs compute
//! only their slice yet stay byte-compatible: `edn_merge` reassembles the
//! slices into the exact artifact of an unsharded run. Rows hit the
//! artifact as their measurements complete (a reorder buffer in
//! [`RowSink`] preserves grid order), not at process exit.

use crate::metrics::{
    render_run_line, render_run_metrics, render_trace_event, render_trace_header,
    render_trace_summary, Heartbeat, LatencyHistogram, TableTelemetry, METRICS_EXTENSION,
    TRACE_EXTENSION,
};
use crate::pool::run_indexed_counted;
use crate::report::{JsonRows, Table};
use crate::stream::{
    row_cache_key, shard_range, Provenance, RowSink, SchemaHeader, Shard, TableSchema,
};
use edn_store::{Row, Store, TableCache};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// edn-lint: allow(determinism) -- timing feeds the metrics sidecar/heartbeats only
use std::time::Instant;

/// The environment variable naming the default `--cache` directory.
pub const CACHE_ENV: &str = "EDN_SWEEP_CACHE";

/// The largest block of replayed rows [`Emission::run_table`] renders
/// before handing it to the [`RowSink`]: large enough that a warm replay
/// costs a handful of writes, small enough that the render buffer stays
/// far below the size of a big table's artifact.
pub(crate) const REPLAY_BLOCK_BYTES: usize = 64 * 1024;

/// Parsed sweep flags shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// Worker threads for the sweep pool (`0` = auto).
    pub threads: usize,
    /// Seeds per Monte-Carlo measurement.
    pub seeds: usize,
    /// Per-measurement cycle/trial override, when given.
    pub cycles: Option<u32>,
    /// JSON Lines output path, when given.
    pub out: Option<PathBuf>,
    /// The shard this process computes (`1/1` unless `--shard` is given).
    pub shard: Shard,
    /// Row-cache directory (`--cache`, or `$EDN_SWEEP_CACHE` unless
    /// `--no-cache`). `None` disables caching.
    pub cache: Option<PathBuf>,
    /// Print cache hit/compute/commit counters after the run.
    pub cache_stats: bool,
    /// Fabric database directory (`--fabric`): compiled wiring is
    /// loaded from here instead of re-wired at startup. Deliberately
    /// **not** part of the artifact header or the row cache key — the
    /// database is bit-identical to in-process wiring, so it can never
    /// change a row.
    pub fabric: Option<PathBuf>,
    /// Flight-recorder filter (`--trace [filter]`): when set, experiments
    /// route probed and the run writes a `PATH.trace.jsonl` sidecar next
    /// to `--out`. Like the metrics sidecar it never joins the
    /// deterministic artifact's byte-identity contract.
    pub trace: Option<edn_core::TraceFilter>,
    no_cache: bool,
    binary: String,
}

impl SweepArgs {
    /// Parses `std::env::args`, printing usage and exiting on `--help` or
    /// a malformed flag. `binary` and `about` feed the usage text;
    /// `default_seeds` is the binary's seed count when `--seeds` is
    /// absent.
    pub fn parse(binary: &str, about: &str, default_seeds: usize) -> Self {
        match Self::try_parse(std::env::args().skip(1), binary, default_seeds) {
            Ok(Some(mut args)) => {
                // `--cache` beats the environment; `--no-cache` beats both.
                if args.cache.is_none() && !args.no_cache {
                    if let Ok(dir) = std::env::var(CACHE_ENV) {
                        if !dir.is_empty() {
                            args.cache = Some(PathBuf::from(dir));
                        }
                    }
                }
                args
            }
            Ok(None) => {
                println!("{}", Self::usage(binary, about, default_seeds));
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("{binary}: {message}");
                eprintln!("{}", Self::usage(binary, about, default_seeds));
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit flag list — the programmatic entry for drivers
    /// and tests. Unlike [`parse`](Self::parse) it never exits the
    /// process and never consults the environment; `Ok(None)` means
    /// `--help` was requested.
    ///
    /// # Errors
    ///
    /// Returns the usage message of the first malformed flag.
    pub fn from_flags<I, S>(
        binary: &str,
        default_seeds: usize,
        flags: I,
    ) -> Result<Option<Self>, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::try_parse(flags.into_iter().map(Into::into), binary, default_seeds)
    }

    /// Flag parsing proper: `Ok(None)` means `--help` was requested.
    fn try_parse(
        args: impl Iterator<Item = String>,
        binary: &str,
        default_seeds: usize,
    ) -> Result<Option<Self>, String> {
        let mut parsed = SweepArgs {
            threads: 0,
            seeds: default_seeds,
            cycles: None,
            out: None,
            shard: Shard::FULL,
            cache: None,
            cache_stats: false,
            fabric: None,
            trace: None,
            no_cache: false,
            binary: binary.to_string(),
        };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match flag.as_str() {
                "--help" | "-h" => return Ok(None),
                "--threads" => {
                    parsed.threads = value("--threads")?
                        .parse()
                        .map_err(|_| "--threads expects a non-negative integer".to_string())?;
                }
                "--seeds" => {
                    parsed.seeds = value("--seeds")?
                        .parse()
                        .map_err(|_| "--seeds expects a positive integer".to_string())?;
                    if parsed.seeds == 0 {
                        return Err("--seeds expects a positive integer".to_string());
                    }
                }
                "--cycles" => {
                    let cycles: u32 = value("--cycles")?
                        .parse()
                        .map_err(|_| "--cycles expects a positive integer".to_string())?;
                    if cycles == 0 {
                        return Err("--cycles expects a positive integer".to_string());
                    }
                    parsed.cycles = Some(cycles);
                }
                "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
                "--shard" => {
                    parsed.shard = Shard::parse(&value("--shard")?)
                        .map_err(|message| format!("--shard: {message}"))?;
                }
                "--cache" => parsed.cache = Some(PathBuf::from(value("--cache")?)),
                "--no-cache" => parsed.no_cache = true,
                "--cache-stats" => parsed.cache_stats = true,
                "--fabric" => parsed.fabric = Some(PathBuf::from(value("--fabric")?)),
                "--trace" => {
                    // The filter is optional: a following token that looks
                    // like a flag belongs to the next clause, not to us.
                    let filter = match args.peek() {
                        Some(token) if !token.starts_with("--") => {
                            let token = args.next().expect("peeked token present");
                            edn_core::TraceFilter::parse(&token)
                                .map_err(|message| format!("--trace: {message}"))?
                        }
                        _ => edn_core::TraceFilter::default(),
                    };
                    parsed.trace = Some(filter);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if parsed.no_cache {
            parsed.cache = None;
        }
        Ok(Some(parsed))
    }

    fn usage(binary: &str, about: &str, default_seeds: usize) -> String {
        format!(
            "{about}\n\n\
             Usage: {binary} [--threads N] [--seeds N] [--cycles N] [--out PATH] [--shard I/N]\n        \
             [--cache DIR] [--no-cache] [--cache-stats] [--fabric DIR] [--trace [FILTER]]\n\n\
             Options:\n  \
             --threads N    worker threads for the sweep pool (default: all cores,\n                 \
             or EDN_SWEEP_THREADS)\n  \
             --seeds N      seeds per Monte-Carlo measurement (default: {default_seeds})\n  \
             --cycles N     cycles/trials per measurement (default: experiment-specific)\n  \
             --out PATH     stream every table row as JSON Lines to PATH\n  \
             --shard I/N    compute only slice I of N (1-based); merge the slice\n                 \
             artifacts with `edn_merge part*.jsonl`\n  \
             --cache DIR    replay rows already in the row cache at DIR and commit\n                 \
             fresh ones (default: $EDN_SWEEP_CACHE; see `edn_store`)\n  \
             --no-cache     ignore --cache and $EDN_SWEEP_CACHE\n  \
             --cache-stats  print cache hit/compute/commit counters after the run\n  \
             --fabric DIR   load compiled wiring from the edn_fabric database at DIR\n                 \
             (build it with `edn_fabric build`); rows are byte-identical\n                 \
             with or without it\n  \
             --trace [F]    record flight-recorder events into PATH.trace.jsonl next\n                 \
             to --out; F filters events, clauses comma-separated:\n                 \
             source=S, tag=T, cycles=A..B (e.g. source=3,cycles=0..20)\n  \
             --help         print this message"
        )
    }

    /// The seed list `base..base + seeds` this run measures.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if `base + seeds` overflows `u64` —
    /// the pre-checked version wrapped around in release builds and
    /// silently measured the wrong seeds.
    pub fn seed_list(&self, base: u64) -> Vec<u64> {
        let end = base.checked_add(self.seeds as u64).unwrap_or_else(|| {
            panic!(
                "{}: seed range overflows u64: base {base} + {} seeds",
                self.binary, self.seeds
            )
        });
        (base..end).collect()
    }

    /// `--cycles` if given, else `default`.
    pub fn cycles_or(&self, default: u32) -> u32 {
        self.cycles.unwrap_or(default)
    }

    /// `true` when this process computes the whole grid (no `--shard`,
    /// or `--shard 1/1`). Narrative summaries that read across rows
    /// should be gated on this.
    pub fn is_full_run(&self) -> bool {
        self.shard.is_full()
    }

    /// Declares this run's complete emission plan — every [`Table`] it
    /// will emit, **in order**, with its full (unsharded) data-row count
    /// — and opens the streaming artifact.
    ///
    /// When `--out` is given, the [`SchemaHeader`] (binary name, spec
    /// hash, parsed args, shard coordinate, row schema) is written and
    /// flushed immediately, before any measurement runs. The returned
    /// [`Emission`] then drives each planned table through
    /// [`run_table`](Emission::run_table) /
    /// [`table_rows`](Emission::table_rows) and is closed with
    /// [`finish`](Emission::finish).
    ///
    /// # Panics
    ///
    /// Panics if the artifact cannot be created — an experiment whose
    /// emission fails should fail before measuring, not print tables for
    /// an hour and lose the artifact at the end.
    pub fn plan_emit(&self, tables: &[(&Table, usize)]) -> Emission<'_> {
        // Workers resolve compiled wiring through the process-global
        // cache; point it at the database before any measurement runs.
        crate::fabric::set_fabric_dir(self.fabric.clone());
        let plans: Vec<TablePlan> = {
            let mut base = 0usize;
            tables
                .iter()
                .map(|&(table, rows)| {
                    let plan = TablePlan {
                        title: table.title().to_string(),
                        headers: table.headers().to_vec(),
                        rows,
                        base,
                    };
                    base = base.checked_add(rows).unwrap_or_else(|| {
                        panic!("{}: total row count overflows usize", self.binary)
                    });
                    plan
                })
                .collect()
        };
        let total: usize = plans.iter().map(|p| p.rows).sum();
        let sink = self.out.as_ref().map(|path| {
            let header = SchemaHeader {
                binary: self.binary.clone(),
                seeds: self.seeds,
                cycles: self.cycles,
                shard: self.shard,
                rows: total,
                tables: plans
                    .iter()
                    .map(|p| TableSchema {
                        title: p.title.clone(),
                        rows: p.rows,
                        columns: p.headers.clone(),
                    })
                    .collect(),
                provenance: Provenance::from_env(),
            };
            let sink = RowSink::create(path, &header).unwrap_or_else(|error| {
                panic!("{}: creating {}: {error}", self.binary, path.display())
            });
            Mutex::new(sink)
        });
        // An unusable cache directory must never kill a run — it only
        // loses the speedup, so warn and compute everything.
        let store = self.cache.as_ref().and_then(|dir| match Store::open(dir) {
            Ok(store) => Some(store),
            Err(error) => {
                eprintln!(
                    "{}: cannot open row cache {} ({error}); running uncached",
                    self.binary,
                    dir.display()
                );
                None
            }
        });
        // Heartbeats count this process's rows — its shard slice, not
        // the full grid — so an orchestrator can sum shard heartbeats
        // into overall progress.
        let shard_rows: usize = plans
            .iter()
            .map(|p| shard_range(p.rows, self.shard).len())
            .sum();
        let heartbeat =
            Heartbeat::from_env(self.shard, shard_rows, store.is_some()).map(Mutex::new);
        Emission {
            args: self,
            plans,
            sink,
            store,
            stats: CacheStats::default(),
            next_table: 0,
            telemetry: Vec::new(),
            routing: Vec::new(),
            trace_lines: Vec::new(),
            heartbeat,
            // edn-lint: allow(determinism) -- heartbeat wall-clock, sidecar-only
            started: Instant::now(),
        }
    }
}

/// Row-cache effectiveness counters of one run, over the cacheable rows
/// (pool-task rows; precomputed [`table_rows`](Emission::table_rows)
/// tables never consult the cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Rows replayed from the cache instead of measured.
    pub hits: usize,
    /// Rows measured because the cache had no trusted entry.
    pub computed: usize,
    /// Fresh rows committed back to the cache.
    pub committed: usize,
    /// Corrupt cache log lines encountered (truncated, hash-mismatched,
    /// or unparseable) — ignored, never trusted. A row only such lines
    /// covered is recomputed; a line superseded by a later good commit
    /// still counts here, so this can exceed the rows affected.
    pub corrupt: usize,
    /// Verified cache log lines shadowed by a later commit of the same
    /// row ("last commit wins") — dead weight from re-commits or
    /// overlapping shard runs, not errors.
    pub superseded: usize,
}

impl CacheStats {
    /// The one-line summary `--cache-stats` prints, e.g.
    /// `cache: 12 hits, 0 computed, 0 committed (100% hits)`.
    pub fn summary(&self) -> String {
        let total = self.hits + self.computed;
        let rate = match (self.hits * 100).checked_div(total) {
            Some(percent) => format!("{percent}% hits"),
            None => "no cacheable rows".to_string(),
        };
        let corrupt = if self.corrupt > 0 {
            format!(", {} corrupt log lines ignored", self.corrupt)
        } else {
            String::new()
        };
        let superseded = if self.superseded > 0 {
            format!(", {} superseded log lines", self.superseded)
        } else {
            String::new()
        };
        format!(
            "cache: {} hits, {} computed, {} committed ({rate}{corrupt}{superseded})",
            self.hits, self.computed, self.committed
        )
    }
}

/// One planned table: schema plus its base in the global row sequence.
#[derive(Debug)]
struct TablePlan {
    title: String,
    headers: Vec<String>,
    rows: usize,
    base: usize,
}

/// The streaming emission driver of one experiment run: owns the
/// artifact sink (if `--out` was given) and the declared table plan, and
/// executes each table's shard slice on the work-stealing pool.
///
/// Tables must be driven in the planned order; [`finish`](Self::finish)
/// panics if any planned table was skipped, so an artifact can never
/// silently miss a section.
#[derive(Debug)]
pub struct Emission<'a> {
    args: &'a SweepArgs,
    plans: Vec<TablePlan>,
    sink: Option<Mutex<RowSink>>,
    store: Option<Store>,
    stats: CacheStats,
    next_table: usize,
    telemetry: Vec<TableTelemetry>,
    routing: Vec<String>,
    trace_lines: Vec<String>,
    heartbeat: Option<Mutex<Heartbeat>>,
    // edn-lint: allow(determinism) -- heartbeat wall-clock, sidecar-only
    started: Instant,
}

impl Emission<'_> {
    /// `true` when this process computes the whole grid.
    pub fn is_full(&self) -> bool {
        self.args.shard.is_full()
    }

    /// `true` when a row cache is open for this run.
    pub fn is_cached(&self) -> bool {
        self.store.is_some()
    }

    /// The cache counters accumulated so far (all zero when uncached).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Opens the row cache of one table, keyed by [`row_cache_key`]. A
    /// broken cache only costs the speedup: warn and return `None`.
    fn open_table_cache(&self, title: &str, headers: &[String]) -> Option<TableCache> {
        let store = self.store.as_ref()?;
        let key = row_cache_key(
            &self.args.binary,
            self.args.seeds,
            self.args.cycles,
            title,
            headers,
        );
        match store.table(key) {
            Ok(cache) => Some(cache),
            Err(error) => {
                eprintln!(
                    "{}: row cache {} unreadable for table `{title}` ({error}); computing all rows",
                    self.args.binary,
                    store.root().display()
                );
                None
            }
        }
    }

    /// The shard's slice of the next planned table's row indices.
    fn begin_table(&mut self, table: &Table) -> (Range<usize>, usize) {
        let plan = self
            .plans
            .get(self.next_table)
            .unwrap_or_else(|| panic!("{}: more tables emitted than planned", self.args.binary));
        assert_eq!(
            plan.title,
            table.title(),
            "{}: table emitted out of plan order",
            self.args.binary
        );
        assert_eq!(
            plan.headers,
            table.headers(),
            "{}: table `{}` headers changed since planning",
            self.args.binary,
            table.title()
        );
        let range = shard_range(plan.rows, self.args.shard);
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("sink poisoned")
                .begin_range(plan.base + range.start..plan.base + range.end);
        }
        let base = plan.base;
        self.next_table += 1;
        (range, base)
    }

    /// Measures the next planned table's rows on the work-stealing pool
    /// and streams them: `measure(state, row)` must return the row's
    /// cells (plus an auxiliary value for post-run narration) as a pure
    /// function of the **global** row index `row`, deriving any
    /// randomness from coordinates only — the same contract as
    /// [`SweepPoint::rng_seed`](crate::SweepPoint::rng_seed). Under
    /// `--shard I/N` only the shard's slice of rows is measured,
    /// appended to `table`, and emitted.
    ///
    /// With `--cache`, every row is looked up in the row cache **before
    /// it is scheduled**: trusted entries are replayed — their verbatim
    /// cells re-rendered through the sink in `seq` order, `measure`
    /// never called — and only the misses become pool tasks, each
    /// committed back to the cache the moment its measurement flushes.
    /// Because the replayed cells are the exact strings a fresh
    /// measurement would produce, a warm run's artifact is
    /// byte-identical to a cold one's. `replay(cells, row)` rebuilds the
    /// auxiliary value for a replayed row from its cached cells (parse
    /// the relevant columns, or recompute if cheap); it is never called
    /// on an uncached run. An aux rebuilt from formatted cells carries
    /// their printed precision, not the original `f64`s — narration
    /// derived from it can differ from the cold run's in its last
    /// printed digit; the artifact itself never differs.
    ///
    /// Rows reach the [`RowSink`] in two grains. Replayed rows are
    /// rendered into contiguous blocks (one per run of consecutive hits,
    /// capped at 64 KiB) and each block is written and
    /// flushed **once, before any pool task starts**; a block that sits
    /// after a still-unmeasured fresh row waits in the sink's reorder
    /// buffer. Fresh rows are flushed **one by one** as their
    /// measurements complete, so the file grows incrementally during the
    /// sweep. Replayed cells move from the cache into `table` without
    /// being copied; `replay` sees them through one scratch `Vec<String>`
    /// whose strings are overwritten in place.
    ///
    /// Returns the auxiliary values in row order (the shard's rows only).
    pub fn run_table<S, T, I, F, R>(
        &mut self,
        table: &mut Table,
        init: I,
        measure: F,
        replay: R,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> (Vec<String>, T) + Sync,
        R: Fn(&[String], usize) -> T,
    {
        let (range, base) = self.begin_table(table);
        let json = JsonRows::new(table.title(), table.headers());

        // Cache lookup before scheduling: replayed rows never reach the
        // pool. `cached[local]` holds the trusted row moved out of the
        // cache, `fresh` the local indices still to be measured.
        let mut cache = self.open_table_cache(table.title(), table.headers());
        let (corrupt, superseded) = cache
            .as_ref()
            .map_or((0, 0), |cache| (cache.corrupt(), cache.superseded()));
        self.stats.corrupt += corrupt;
        self.stats.superseded += superseded;
        let mut cached: Vec<Option<Row>> = Vec::with_capacity(range.len());
        let mut fresh: Vec<usize> = Vec::new();
        {
            // Replay the hits through the sink now, one block per run of
            // consecutive hits; the reorder buffer holds any block that
            // sits after a still-unmeasured fresh row.
            let streaming = self.sink.is_some();
            let mut sink = self
                .sink
                .as_ref()
                .map(|sink| sink.lock().expect("sink poisoned"));
            let mut block = String::new();
            let (mut block_seq, mut block_rows) = (0, 0);
            let mut flush = |block: &mut String, first: usize, rows: &mut usize| {
                if let Some(sink) = sink.as_mut() {
                    sink.push_block(first, *rows, block)
                        .unwrap_or_else(|error| {
                            panic!("{}: replaying cached rows: {error}", self.args.binary)
                        });
                }
                block.clear();
                *rows = 0;
            };
            for (local, row) in range.clone().enumerate() {
                let hit = cache.as_mut().and_then(|cache| cache.take(row));
                match &hit {
                    Some(cells) if streaming => {
                        if block_rows == 0 {
                            block_seq = base + row;
                        }
                        json.render_into(&mut block, base + row, cells.cells());
                        block.push('\n');
                        block_rows += 1;
                        if block.len() >= REPLAY_BLOCK_BYTES {
                            flush(&mut block, block_seq, &mut block_rows);
                        }
                    }
                    Some(_) => {}
                    None => {
                        flush(&mut block, block_seq, &mut block_rows);
                        fresh.push(local);
                    }
                }
                cached.push(hit);
            }
            flush(&mut block, block_seq, &mut block_rows);
        }
        let hits = range.len() - fresh.len();
        if let Some(heartbeat) = &self.heartbeat {
            if hits > 0 {
                heartbeat
                    .lock()
                    .expect("heartbeat poisoned")
                    .rows_done(hits, true);
            }
        }

        // Measure only the misses, as pool tasks; commit each fresh row
        // to the cache as soon as it is measured and flushed. Each task
        // is timed into the latency histogram, and the heartbeat (when
        // enabled) advances as rows land.
        let sink = &self.sink;
        let heartbeat = &self.heartbeat;
        let binary = &self.args.binary;
        let json = &json;
        let start = range.start;
        let committed = AtomicUsize::new(0);
        let cache = cache.map(Mutex::new);
        let latency = Mutex::new(LatencyHistogram::new());
        let (fresh_results, pool) =
            run_indexed_counted(self.args.threads, fresh.len(), init, |state, index| {
                let row = start + fresh[index];
                // edn-lint: allow(determinism) -- row latency goes to the sidecar histogram
                let measured_at = Instant::now();
                let (cells, aux) = measure(state, row);
                let micros = u64::try_from(measured_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                latency.lock().expect("latency poisoned").record(micros);
                if let Some(sink) = sink {
                    let mut line = String::new();
                    json.render_into(&mut line, base + row, cells.iter().map(String::as_str));
                    sink.lock()
                        .expect("sink poisoned")
                        .push(base + row, line)
                        .unwrap_or_else(|error| panic!("{binary}: streaming row: {error}"));
                }
                if let Some(cache) = &cache {
                    match cache.lock().expect("cache poisoned").commit(row, &cells) {
                        Ok(()) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        // A full disk under the cache must not lose the
                        // measurement — the row only misses again next run.
                        Err(error) => eprintln!("{binary}: cache commit failed: {error}"),
                    }
                }
                if let Some(heartbeat) = heartbeat {
                    heartbeat
                        .lock()
                        .expect("heartbeat poisoned")
                        .rows_done(1, false);
                }
                (cells, aux)
            });

        // Stitch replayed and fresh rows back into row order. The
        // counters only move when a cache was actually consulted.
        let committed = committed.into_inner();
        if cache.is_some() {
            self.stats.hits += hits;
            self.stats.computed += fresh.len();
            self.stats.committed += committed;
        }
        self.telemetry.push(TableTelemetry {
            title: table.title().to_string(),
            rows: range.len(),
            hits,
            computed: fresh.len(),
            committed,
            corrupt,
            superseded,
            pool,
            latency: latency.into_inner().expect("latency poisoned"),
        });
        let mut fresh_results = fresh_results.into_iter();
        let mut auxes = Vec::with_capacity(range.len());
        let mut scratch: Vec<String> = Vec::new();
        for (local, slot) in cached.into_iter().enumerate() {
            let aux = match slot {
                Some(row) => {
                    scratch.resize_with(row.len(), String::new);
                    for (cell, text) in scratch.iter_mut().zip(row.cells()) {
                        cell.clear();
                        cell.push_str(text);
                    }
                    table.push_row(row);
                    replay(&scratch, start + local)
                }
                None => {
                    let (cells, aux) = fresh_results.next().expect(
                        "pool returned fewer results than uncached rows — run_indexed_counted \
                         yields exactly one result per fresh-row task",
                    );
                    table.row(cells);
                    aux
                }
            };
            auxes.push(aux);
        }
        auxes
    }

    /// As [`run_table`](Self::run_table) for measurements that carry no
    /// auxiliary value.
    pub fn run_rows<S, I, F>(&mut self, table: &mut Table, init: I, measure: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> Vec<String> + Sync,
    {
        self.run_table(
            table,
            init,
            |state, row| (measure(state, row), ()),
            |_, _| (),
        );
    }

    /// Emits the next planned table from precomputed rows — for
    /// inherently sequential computations (e.g. multi-pass loops where
    /// each pass feeds the next) whose row count is only known after the
    /// fact. `rows` must be the **full** table (every shard computes the
    /// same deterministic rows); under `--shard I/N` only the shard's
    /// slice is appended to `table` and streamed to the artifact.
    pub fn table_rows(&mut self, table: &mut Table, rows: Vec<Vec<String>>) {
        let planned = self
            .plans
            .get(self.next_table)
            .unwrap_or_else(|| panic!("{}: more tables emitted than planned", self.args.binary))
            .rows;
        assert_eq!(
            rows.len(),
            planned,
            "{}: table `{}` planned {planned} rows, got {}",
            self.args.binary,
            table.title(),
            rows.len()
        );
        let (range, base) = self.begin_table(table);
        let json = JsonRows::new(table.title(), table.headers());
        for (row, cells) in rows.into_iter().enumerate() {
            if !range.contains(&row) {
                continue;
            }
            if let Some(sink) = &self.sink {
                let mut line = String::new();
                json.render_into(&mut line, base + row, cells.iter().map(String::as_str));
                sink.lock()
                    .expect("sink poisoned")
                    .push(base + row, line)
                    .unwrap_or_else(|error| panic!("{}: streaming row: {error}", self.args.binary));
            }
            table.row(cells);
        }
        if let Some(heartbeat) = &self.heartbeat {
            if !range.is_empty() {
                heartbeat
                    .lock()
                    .expect("heartbeat poisoned")
                    .rows_done(range.len(), false);
            }
        }
        // Precomputed tables never touch the cache or the pool; their
        // metrics line records the emitted slice only.
        self.telemetry.push(TableTelemetry {
            title: table.title().to_string(),
            rows: range.len(),
            hits: 0,
            computed: 0,
            committed: 0,
            corrupt: 0,
            superseded: 0,
            pool: Default::default(),
            latency: LatencyHistogram::new(),
        });
    }

    /// Records one probe snapshot ([`edn_core::RunMetrics`]) for the
    /// metrics sidecar, labeled so an experiment can record several —
    /// one per shape, load point, or table. The snapshot becomes a
    /// `{"kind": "routing", ...}` line when [`finish`](Self::finish)
    /// writes the sidecar; without `--out` it is dropped with the rest
    /// of the telemetry.
    pub fn record_run_metrics(&mut self, label: &str, metrics: &edn_core::RunMetrics) {
        self.routing.push(render_run_metrics(label, metrics));
    }

    /// The per-table telemetry accumulated so far (tests and drivers).
    pub fn table_telemetry(&self) -> &[TableTelemetry] {
        &self.telemetry
    }

    /// The `--trace` filter, when the run was asked to trace. An
    /// experiment that supports tracing builds one
    /// [`edn_core::TraceProbe`] per traced slice from this filter and
    /// hands each back through [`record_trace`](Self::record_trace).
    pub fn trace_filter(&self) -> Option<edn_core::TraceFilter> {
        self.args.trace
    }

    /// Records one flight-recorder probe's contents for the trace
    /// sidecar, labeled like [`record_run_metrics`](Self::record_run_metrics)
    /// labels routing snapshots. Events become `{"kind": "event", ...}`
    /// lines and the probe's totals a closing `{"kind": "summary", ...}`
    /// line when [`finish`](Self::finish) writes `PATH.trace.jsonl`;
    /// without `--out` (or without `--trace`) they are dropped.
    pub fn record_trace(&mut self, label: &str, probe: &edn_core::TraceProbe) {
        if self.args.trace.is_none() {
            return;
        }
        for event in probe.events() {
            self.trace_lines.push(render_trace_event(label, event));
        }
        self.trace_lines.push(render_trace_summary(label, probe));
    }

    /// Closes the run: every planned table must have been emitted; the
    /// artifact (if any) is validated gap-free, synced, and reported on
    /// stdout.
    ///
    /// # Panics
    ///
    /// Panics on skipped tables, undrained rows, or I/O errors — a
    /// partial artifact must never look like a success.
    pub fn finish(self) {
        assert_eq!(
            self.next_table,
            self.plans.len(),
            "{}: only {} of {} planned tables were emitted",
            self.args.binary,
            self.next_table,
            self.plans.len()
        );
        if let Some(heartbeat) = &self.heartbeat {
            heartbeat.lock().expect("heartbeat poisoned").finish();
        }
        if let Some(sink) = self.sink {
            let sink = sink.into_inner().expect("sink poisoned");
            let path = sink.path().to_path_buf();
            let rows = sink
                .finish()
                .unwrap_or_else(|error| panic!("{}: {error}", self.args.binary));
            if self.args.shard.is_full() {
                println!("wrote {rows} JSON rows to {}", path.display());
            } else {
                println!(
                    "wrote {rows} JSON rows (shard {}) to {}",
                    self.args.shard,
                    path.display()
                );
            }
            // The metrics sidecar rides next to the artifact. It is
            // observability, not data: a failure to write it only warns,
            // and it is deliberately kept out of the deterministic
            // artifact (timings differ run to run).
            let metrics_path = path.with_extension(METRICS_EXTENSION);
            let mut lines = vec![render_run_line(
                &self.args.binary,
                self.args.shard,
                self.telemetry.len(),
                self.telemetry.iter().map(|t| t.rows).sum(),
                self.started.elapsed(),
            )];
            lines.extend(self.telemetry.iter().map(TableTelemetry::to_json));
            lines.extend(self.routing.iter().cloned());
            let records = lines.len();
            let mut text = lines.join("\n");
            text.push('\n');
            match std::fs::write(&metrics_path, text) {
                Ok(()) => println!(
                    "wrote {records} metric records to {}",
                    metrics_path.display()
                ),
                Err(error) => eprintln!(
                    "{}: writing metrics sidecar {}: {error}",
                    self.args.binary,
                    metrics_path.display()
                ),
            }
            // The trace sidecar follows the same rules: observability
            // only, warn-only on failure, never part of byte-identity.
            // A filtered run that matched nothing still writes the
            // schema-versioned header, so consumers can tell "traced,
            // empty" from "never traced".
            if let Some(filter) = &self.args.trace {
                let trace_path = path.with_extension(TRACE_EXTENSION);
                let mut lines = vec![render_trace_header(
                    &self.args.binary,
                    self.args.shard,
                    filter,
                )];
                lines.extend(self.trace_lines.iter().cloned());
                let records = lines.len();
                let mut text = lines.join("\n");
                text.push('\n');
                match std::fs::write(&trace_path, text) {
                    Ok(()) => {
                        println!("wrote {records} trace records to {}", trace_path.display())
                    }
                    Err(error) => eprintln!(
                        "{}: writing trace sidecar {}: {error}",
                        self.args.binary,
                        trace_path.display()
                    ),
                }
            }
        }
        if self.args.cache_stats {
            if self.store.is_some() {
                println!("{}", self.stats.summary());
                for table in &self.telemetry {
                    println!("{}", table.cache_line());
                }
            } else {
                println!("cache: disabled (no --cache directory)");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Option<SweepArgs>, String> {
        SweepArgs::try_parse(flags.iter().map(|s| s.to_string()), "test_bin", 4)
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("edn_sweep_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn defaults_without_flags() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!(args.threads, 0);
        assert_eq!(args.seeds, 4);
        assert_eq!(args.cycles, None);
        assert_eq!(args.out, None);
        assert_eq!(args.shard, Shard::FULL);
        assert!(args.is_full_run());
        assert_eq!(args.cycles_or(60), 60);
        assert_eq!(args.seed_list(100), vec![100, 101, 102, 103]);
    }

    #[test]
    fn all_flags_parse() {
        let args = parse(&[
            "--threads",
            "8",
            "--seeds",
            "2",
            "--cycles",
            "30",
            "--out",
            "rows.jsonl",
            "--shard",
            "2/3",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(args.threads, 8);
        assert_eq!(args.seeds, 2);
        assert_eq!(args.cycles_or(60), 30);
        assert_eq!(args.out, Some(PathBuf::from("rows.jsonl")));
        assert_eq!(args.shard, Shard::new(1, 3));
        assert!(!args.is_full_run());
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert_eq!(parse(&["-h", "--bogus"]).unwrap(), None);
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--cycles", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--shard"]).is_err());
        assert!(parse(&["--shard", "0/3"]).is_err());
        assert!(parse(&["--shard", "4/3"]).is_err());
        assert!(parse(&["--shard", "banana"]).is_err());
    }

    #[test]
    #[should_panic(expected = "seed range overflows u64")]
    fn seed_list_overflow_panics_clearly() {
        let args = parse(&["--seeds", "2"]).unwrap().unwrap();
        let _ = args.seed_list(u64::MAX);
    }

    #[test]
    fn emission_without_out_collects_rows() {
        let args = parse(&[]).unwrap().unwrap();
        let mut table = Table::new("t", &["row", "sq"]);
        let mut emit = args.plan_emit(&[(&table, 5)]);
        let aux = emit.run_table(
            &mut table,
            || (),
            |(), row| (vec![row.to_string(), (row * row).to_string()], row),
            |cells, _| cells[0].parse().unwrap(),
        );
        emit.finish();
        assert_eq!(aux, vec![0, 1, 2, 3, 4]);
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn emission_streams_header_and_rows() {
        let path = temp_path("streams");
        let mut args = parse(&["--threads", "2"]).unwrap().unwrap();
        args.out = Some(path.clone());
        let mut table = Table::new("t", &["row"]);
        let mut emit = args.plan_emit(&[(&table, 6)]);
        // The header exists before any row is measured.
        let early = std::fs::read_to_string(&path).unwrap();
        assert_eq!(early.lines().count(), 1);
        let header = SchemaHeader::parse(early.lines().next().unwrap()).unwrap();
        assert_eq!(header.binary, "test_bin");
        assert_eq!(header.rows, 6);
        emit.run_rows(&mut table, || (), |(), row| vec![row.to_string()]);
        emit.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        for (row, line) in lines[1..].iter().enumerate() {
            let value = crate::json::parse(line).unwrap();
            assert_eq!(value.get("seq").unwrap().as_usize(), Some(row));
            assert_eq!(value.get("row").unwrap().as_usize(), Some(row));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn emission_streams_rows_before_the_run_ends() {
        // On the single-threaded inline path rows execute in order, so
        // by the time the last row is measured every earlier row must
        // already be on disk: streamed, not written at exit.
        let path = temp_path("incremental");
        let mut args = parse(&["--threads", "1"]).unwrap().unwrap();
        args.out = Some(path.clone());
        let mut table = Table::new("t", &["row"]);
        let mut emit = args.plan_emit(&[(&table, 4)]);
        let observed = std::sync::Mutex::new(Vec::new());
        emit.run_rows(
            &mut table,
            || (),
            |(), row| {
                let on_disk = std::fs::read_to_string(&path).unwrap().lines().count();
                observed.lock().unwrap().push((row, on_disk));
                vec![row.to_string()]
            },
        );
        emit.finish();
        let observed = observed.into_inner().unwrap();
        // Measuring row k, the file already holds the header + rows 0..k.
        assert_eq!(observed, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_emission_covers_only_the_slice() {
        let path = temp_path("sharded");
        let mut args = parse(&["--shard", "2/3"]).unwrap().unwrap();
        args.out = Some(path.clone());
        let mut table = Table::new("t", &["row"]);
        let mut emit = args.plan_emit(&[(&table, 10)]);
        let aux = emit.run_table(
            &mut table,
            || (),
            |(), row| (vec![row.to_string()], row),
            |cells, _| cells[0].parse().unwrap(),
        );
        emit.finish();
        // shard 2/3 of 10 rows = global rows 3..6.
        assert_eq!(aux, vec![3, 4, 5]);
        assert_eq!(table.len(), 3);
        let text = std::fs::read_to_string(&path).unwrap();
        let seqs: Vec<usize> = text
            .lines()
            .skip(1)
            .map(|l| {
                crate::json::parse(l)
                    .unwrap()
                    .get("seq")
                    .unwrap()
                    .as_usize()
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_table_emission_sequences_seqs_globally() {
        let path = temp_path("multi");
        let mut args = parse(&[]).unwrap().unwrap();
        args.out = Some(path.clone());
        let mut first = Table::new("a", &["v"]);
        let mut second = Table::new("b", &["v"]);
        let mut emit = args.plan_emit(&[(&first, 2), (&second, 3)]);
        emit.run_rows(&mut first, || (), |(), row| vec![row.to_string()]);
        emit.table_rows(&mut second, (0..3).map(|r| vec![format!("s{r}")]).collect());
        emit.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .skip(1)
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        let seqs: Vec<usize> = parsed
            .iter()
            .map(|v| v.get("seq").unwrap().as_usize().unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(parsed[2].get("table").unwrap().as_str(), Some("b"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "planned tables were emitted")]
    fn finish_rejects_skipped_tables() {
        let args = parse(&[]).unwrap().unwrap();
        let table = Table::new("t", &["v"]);
        let emit = args.plan_emit(&[(&table, 3)]);
        emit.finish();
    }

    #[test]
    #[should_panic(expected = "out of plan order")]
    fn tables_must_follow_the_plan() {
        let args = parse(&[]).unwrap().unwrap();
        let planned = Table::new("planned", &["v"]);
        let mut other = Table::new("other", &["v"]);
        let mut emit = args.plan_emit(&[(&planned, 1)]);
        emit.run_rows(&mut other, || (), |(), _| vec!["1".to_string()]);
    }

    #[test]
    fn empty_plan_finishes_cleanly() {
        let args = parse(&[]).unwrap().unwrap();
        let emit = args.plan_emit(&[]);
        emit.finish();
    }

    #[test]
    fn cache_flags_parse() {
        let args = parse(&["--cache", "cachedir", "--cache-stats"])
            .unwrap()
            .unwrap();
        assert_eq!(args.cache, Some(PathBuf::from("cachedir")));
        assert!(args.cache_stats);
        // --no-cache beats an explicit --cache, whichever order.
        let args = parse(&["--cache", "cachedir", "--no-cache"])
            .unwrap()
            .unwrap();
        assert_eq!(args.cache, None);
        let args = parse(&["--no-cache", "--cache", "cachedir"])
            .unwrap()
            .unwrap();
        assert_eq!(args.cache, None);
        assert!(parse(&["--cache"]).is_err());
        // from_flags is the same parser, programmatically.
        let args = SweepArgs::from_flags("test_bin", 4, ["--cache", "d"])
            .unwrap()
            .unwrap();
        assert_eq!(args.cache, Some(PathBuf::from("d")));
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("edn_sweep_cli_cache_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One synthetic cached run: returns (artifact text, measured rows,
    /// cache stats).
    fn cached_run(
        dir: &std::path::Path,
        tag: &str,
        rows: usize,
        shard: &str,
    ) -> (String, Vec<usize>, CacheStats) {
        let out = dir.join(format!("{tag}.jsonl"));
        let cache = dir.join("cache");
        let mut flags = vec![
            "--threads".to_string(),
            "2".to_string(),
            "--out".to_string(),
            out.display().to_string(),
            "--cache".to_string(),
            cache.display().to_string(),
        ];
        if shard != "1/1" {
            flags.extend(["--shard".to_string(), shard.to_string()]);
        }
        let args = SweepArgs::from_flags("cache_test_bin", 4, flags)
            .unwrap()
            .unwrap();
        let mut table = Table::new("t", &["row", "value"]);
        let measured = Mutex::new(Vec::new());
        let mut emit = args.plan_emit(&[(&table, rows)]);
        emit.run_rows(
            &mut table,
            || (),
            |(), row| {
                measured.lock().unwrap().push(row);
                vec![row.to_string(), format!("{:.3}", row as f64 / 8.0)]
            },
        );
        let stats = emit.cache_stats();
        emit.finish();
        let mut measured = measured.into_inner().unwrap();
        measured.sort_unstable();
        (std::fs::read_to_string(&out).unwrap(), measured, stats)
    }

    #[test]
    fn warm_cache_replays_byte_identically() {
        let dir = temp_dir("warm");
        let (cold, cold_measured, cold_stats) = cached_run(&dir, "cold", 6, "1/1");
        assert_eq!(cold_measured, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.computed, 6);
        assert_eq!(cold_stats.committed, 6);
        let (warm, warm_measured, warm_stats) = cached_run(&dir, "warm", 6, "1/1");
        assert_eq!(warm, cold, "warm artifact must be byte-identical");
        assert!(warm_measured.is_empty(), "no row re-measured");
        assert_eq!(warm_stats.hits, 6);
        assert_eq!(warm_stats.computed, 0);
        assert_eq!(
            warm_stats.summary(),
            "cache: 6 hits, 0 computed, 0 committed (100% hits)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_share_the_cache_with_the_full_run() {
        let dir = temp_dir("shards");
        // Shard 1/3 of 9 rows commits rows 0..3; the full warm run then
        // computes only the other six.
        let (_, shard_measured, _) = cached_run(&dir, "part1", 9, "1/3");
        assert_eq!(shard_measured, vec![0, 1, 2]);
        let (_, full_measured, stats) = cached_run(&dir, "full", 9, "1/1");
        assert_eq!(full_measured, vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.computed, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extending_the_grid_computes_only_new_cells() {
        let dir = temp_dir("extend");
        let (cold, ..) = cached_run(&dir, "cold", 5, "1/1");
        // Same table, three more rows: the old five replay, the new
        // three compute, and the old row lines are byte-identical.
        let (extended, measured, stats) = cached_run(&dir, "ext", 8, "1/1");
        assert_eq!(measured, vec![5, 6, 7]);
        assert_eq!(stats.hits, 5);
        let old_rows: Vec<&str> = cold.lines().skip(1).collect();
        let ext_rows: Vec<&str> = extended.lines().skip(1).take(5).collect();
        assert_eq!(ext_rows, old_rows, "old cells replay byte-identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed_never_trusted() {
        let dir = temp_dir("corrupt");
        let (cold, ..) = cached_run(&dir, "cold", 4, "1/1");
        // Doctor every cache log: flip a payload so its hash mismatches.
        let cache = dir.join("cache");
        let mut doctored = 0;
        for table_dir in std::fs::read_dir(&cache).unwrap() {
            for log in std::fs::read_dir(table_dir.unwrap().path()).unwrap() {
                let log = log.unwrap().path();
                let text = std::fs::read_to_string(&log).unwrap();
                std::fs::write(&log, text.replacen("0.125", "9.999", 1)).unwrap();
                doctored += 1;
            }
        }
        assert!(doctored > 0, "a cache log exists");
        let (warm, measured, stats) = cached_run(&dir, "warm", 4, "1/1");
        assert_eq!(warm, cold, "doctored entry never reaches the artifact");
        assert_eq!(measured, vec![1], "only the doctored row recomputes");
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.computed, 1);
        assert!(stats.corrupt > 0, "corruption surfaced in the stats");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_with_out_write_a_metrics_sidecar() {
        let dir = temp_dir("metrics");
        let (_, _, stats) = cached_run(&dir, "cold", 6, "1/1");
        assert_eq!(stats.computed, 6);
        let sidecar = dir.join("cold.metrics.jsonl");
        let text = std::fs::read_to_string(&sidecar).unwrap();
        let lines: Vec<crate::json::Value> = text
            .lines()
            .map(|line| crate::json::parse(line).unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "one run line, one table line");
        assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("run"));
        assert_eq!(
            lines[0].get("binary").unwrap().as_str(),
            Some("cache_test_bin")
        );
        assert_eq!(lines[0].get("rows").unwrap().as_usize(), Some(6));
        assert!(lines[0].get("elapsed_s").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(lines[1].get("kind").unwrap().as_str(), Some("table"));
        assert_eq!(lines[1].get("title").unwrap().as_str(), Some("t"));
        assert_eq!(lines[1].get("computed").unwrap().as_usize(), Some(6));
        assert_eq!(lines[1].get("hits").unwrap().as_usize(), Some(0));
        assert_eq!(lines[1].get("tasks").unwrap().as_usize(), Some(6));
        assert!(lines[1].get("workers").unwrap().as_usize().unwrap() >= 1);
        // A warm run's sidecar records the replay instead.
        let (..) = cached_run(&dir, "warm", 6, "1/1");
        let text = std::fs::read_to_string(dir.join("warm.metrics.jsonl")).unwrap();
        let table = crate::json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(table.get("hits").unwrap().as_usize(), Some(6));
        assert_eq!(table.get("computed").unwrap().as_usize(), Some(0));
        assert_eq!(table.get("tasks").unwrap().as_usize(), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_probe_snapshots_land_in_the_sidecar() {
        use edn_core::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine, StageProbe};
        let dir = temp_dir("routing_metrics");
        let out = dir.join("run.jsonl");
        let mut args = parse(&[]).unwrap().unwrap();
        args.out = Some(out.clone());
        let mut table = Table::new("t", &["row"]);
        let mut emit = args.plan_emit(&[(&table, 2)]);
        emit.run_rows(&mut table, || (), |(), row| vec![row.to_string()]);
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut probe = StageProbe::new(&params);
        let batch: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, s % params.outputs()))
            .collect();
        engine.route_with(&batch, None, &mut PriorityArbiter::new(), &mut probe);
        emit.record_run_metrics("full load", &probe.snapshot());
        emit.finish();
        let text = std::fs::read_to_string(out.with_extension("metrics.jsonl")).unwrap();
        let routing = crate::json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(routing.get("kind").unwrap().as_str(), Some("routing"));
        assert_eq!(routing.get("label").unwrap().as_str(), Some("full load"));
        assert_eq!(routing.get("reconciles").unwrap().as_bool(), Some(true));
        assert_eq!(
            routing.get("stages").unwrap().as_array().unwrap().len(),
            3,
            "two hyperbar stages plus the crossbar"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rebuilds_aux_values_from_cached_cells() {
        let dir = temp_dir("aux");
        let cache = dir.join("cache");
        let run = |tag: &str| {
            let out = dir.join(format!("{tag}.jsonl"));
            let args = SweepArgs::from_flags(
                "aux_bin",
                4,
                [
                    "--out",
                    &out.display().to_string(),
                    "--cache",
                    &cache.display().to_string(),
                ],
            )
            .unwrap()
            .unwrap();
            let mut table = Table::new("t", &["row", "sq"]);
            let mut emit = args.plan_emit(&[(&table, 4)]);
            let aux = emit.run_table(
                &mut table,
                || (),
                |(), row| (vec![row.to_string(), (row * row).to_string()], row * row),
                |cells, _| cells[1].parse().unwrap(),
            );
            emit.finish();
            aux
        };
        assert_eq!(run("cold"), vec![0, 1, 4, 9]);
        // The warm run's aux values come from replay, parsed back out of
        // the cached cells.
        assert_eq!(run("warm"), vec![0, 1, 4, 9]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
