//! The four workloads. Each runs its set-up several times (the last
//! repetition's state is kept), then timed units until the run's seconds
//! are up, then its checks outside the timed phase.
//!
//! Bound entry points only: `Fabric::{build, save, load}`,
//! `RoutingEngine::{with_wiring, route}`, `Workload::fill_batch`,
//! `edn_sim::{estimate_pa_seeds, RaEdnSystem, MimdSystem}`,
//! `SweepArgs::from_flags`, `Emission`, `edn_store::Store`, and
//! `edn_core::reference` and `edn_sweep::merge::check_file` as oracles.

use crate::calls::*;
use crate::span::Tracer;
use crate::{stream_seed, Ctx, Workload};
use edn_analytic::pa::probability_of_acceptance;
use edn_core::{reference, EdnParams, EdnTopology, PriorityArbiter, RoutingEngine};
use edn_fabric::Fabric;
use edn_sim::{estimate_pa_seeds, ArbiterKind, MimdSystem, RaEdnSystem, ResubmitPolicy};
use edn_store::Store;
use edn_sweep::merge::check_file;
use edn_sweep::{fmt_f, row_cache_key, CacheStats, SweepArgs, Table};
use edn_traffic::{UniformTraffic, Workload as _};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How many leading units the digest covers; every run completes at
/// least these.
pub fn digest_units(workload: Workload, smoke: bool) -> u64 {
    match workload {
        Workload::Fabric1m => 2,
        Workload::PaSweep => pa_grid(smoke).len() as u64,
        Workload::ResubmitSessions => 8,
        Workload::SweepReplay => 1,
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn shape(a: u64, b: u64, c: u64, l: u32) -> EdnParams {
    EdnParams::new(a, b, c, l).unwrap_or_else(|e| panic!("EDN({a},{b},{c},{l}): {e}"))
}

fn utf8(path: &Path) -> String {
    path.to_str()
        .unwrap_or_else(|| panic!("scratch path {} is not UTF-8", path.display()))
        .to_string()
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Sweep flags for a run writing `out` with its row cache at `cache`.
fn sweep_args(
    binary: &str,
    threads: usize,
    seeds: usize,
    cycles: u32,
    out: &Path,
    cache: &Path,
) -> SweepArgs {
    let flags = [
        "--threads".to_string(),
        threads.to_string(),
        "--seeds".to_string(),
        seeds.to_string(),
        "--cycles".to_string(),
        cycles.to_string(),
        "--out".to_string(),
        utf8(out),
        "--cache".to_string(),
        utf8(cache),
    ];
    SweepArgs::from_flags(binary, seeds, flags)
        .unwrap_or_else(|e| panic!("{binary}: {e}"))
        .unwrap_or_else(|| panic!("{binary}: flags asked for --help"))
}

/// `Store::open` + `Store::table` on a sweep run's cache, timed as one
/// span, then one `TableCache::lookup` of every row.
fn reload_table(
    ctx: &mut Ctx<'_>,
    tr: &Tracer,
    table: (&str, &str, &[&str]),
    args: &SweepArgs,
    cache: &Path,
    rows: usize,
) {
    let (binary, title, headers) = table;
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let key = row_cache_key(binary, args.seeds, args.cycles, title, &headers);
    let table = tr
        .span("store", TABLE_LOAD, 0, || {
            Store::open(cache).and_then(|store| store.table(key))
        })
        .unwrap_or_else(|e| panic!("reloading row cache {}: {e}", cache.display()));
    let found = tr.span("store", LOOKUP, 0, || {
        (0..rows).filter(|&row| table.lookup(row).is_some()).count()
    });
    ctx.note("store.lookups", rows as f64, "count");
    ctx.check(found == rows && table.corrupt() == 0, [], || {
        format!(
            "row cache holds {found} of {rows} rows, {} corrupt lines",
            table.corrupt()
        )
    });
}

fn note_cache(ctx: &mut Ctx<'_>, stats: CacheStats) {
    let looked_up = stats.hits + stats.computed;
    ctx.note("store.hits", stats.hits as f64, "count");
    ctx.note("store.computed", stats.computed as f64, "count");
    ctx.note("store.committed", stats.committed as f64, "count");
    ctx.note("store.corrupt", stats.corrupt as f64, "count");
    ctx.note(
        "store.hit_ratio",
        stats.hits as f64 / looked_up.max(1) as f64,
        "ratio",
    );
}

/// `(offered, delivered)` of `estimate_pa_seeds(params, rate, arbiter,
/// cycles, seeds)` recomputed cycle by cycle on `edn_core::reference`:
/// each seed's traffic stream is `StdRng::seed_from_u64(seed)` and its
/// arbiter stream `seed ^ 0xA5A5_5A5A_A5A5_5A5A`, as in `edn_sim`.
fn reference_counts(
    params: &EdnParams,
    rate: f64,
    arbiter: ArbiterKind,
    cycles: u32,
    seeds: &[u64],
) -> (u64, u64) {
    let topology = EdnTopology::new(*params);
    let (mut offered, mut delivered) = (0u64, 0u64);
    let mut batch = Vec::new();
    for &seed in seeds {
        let mut traffic = UniformTraffic::new(params.inputs(), params.outputs(), rate);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arbiter = arbiter.build(seed ^ 0xA5A5_5A5A_A5A5_5A5A);
        for _ in 0..cycles {
            traffic.fill_batch(&mut batch, &mut rng);
            if batch.is_empty() {
                continue;
            }
            let outcome = reference::route_batch(&topology, &batch, arbiter.as_mut());
            offered += outcome.offered() as u64;
            delivered += outcome.delivered_count() as u64;
        }
    }
    (offered, delivered)
}

fn arbiter_name(arbiter: ArbiterKind) -> &'static str {
    match arbiter {
        ArbiterKind::Priority => "priority",
        ArbiterKind::Random => "random",
        ArbiterKind::RoundRobin => "round-robin",
    }
}

// ---------------------------------------------------------------- fabric_1m

/// `fabric_1m`: set-up builds `EDN(16,4,4,9)` (2^20 ports), saves it to a
/// fresh directory, loads it back, and wires an engine to it. One unit is
/// one full-load cycle: `UniformTraffic` at rate 1.0 fills the batch and
/// `RoutingEngine::route` routes it with priority arbitration.
pub fn fabric_1m(ctx: &mut Ctx<'_>, tr: &Tracer) {
    let smoke = ctx.cfg.smoke;
    let params = if smoke {
        shape(16, 4, 4, 4)
    } else {
        shape(16, 4, 4, 9)
    };
    let reps = if smoke { 2 } else { 9 };
    let mut engine = None;
    for rep in 0..reps {
        drop(engine.take());
        let dir = ctx.fresh_dir("fabric");
        let started = Instant::now();
        let built = tr.span("bench", SETUP, rep, || {
            let fabric = tr
                .span("fabric", FABRIC_BUILD, rep, || Fabric::build(params))
                .unwrap_or_else(|e| panic!("building {params}: {e}"));
            let path = Fabric::path_in(&dir, &params);
            tr.span("fabric", FABRIC_SAVE, rep, || fabric.save(&path))
                .unwrap_or_else(|e| panic!("saving {}: {e}", path.display()));
            drop(fabric);
            let loaded = tr
                .span("fabric", FABRIC_LOAD, rep, || Fabric::load(&path))
                .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()));
            tr.span("core", ENGINE_BUILD, rep, || {
                RoutingEngine::with_wiring(Arc::clone(loaded.wiring()))
            })
        });
        ctx.setup_s.push(started.elapsed().as_secs_f64());
        engine = Some(built);
    }
    let mut engine = engine.expect("at least one set-up repetition");

    let inputs = params.inputs();
    let traffic_seed = stream_seed(ctx.cfg.seed, 0);
    let mut traffic = UniformTraffic::new(inputs, params.outputs(), 1.0);
    let mut rng = StdRng::seed_from_u64(traffic_seed);
    let mut batch = Vec::new();
    let mut arbiter = PriorityArbiter::new();
    let covered = digest_units(Workload::Fabric1m, smoke);
    let (mut delivered_total, mut first) = (0u64, (0usize, 0usize));
    let started = Instant::now();
    let mut unit = 0u64;
    while ctx.keep_going(started, unit, covered) {
        let t = Instant::now();
        let (offered, delivered, blocked) = tr.span("bench", UNIT, unit, || {
            tr.span("traffic", FILL, unit, || {
                traffic.fill_batch(&mut batch, &mut rng)
            });
            let outcome = tr.span("core", ENGINE_ROUTE, unit, || {
                engine.route(&batch, &mut arbiter)
            });
            (
                outcome.offered(),
                outcome.delivered_count(),
                outcome.blocked().len(),
            )
        });
        ctx.add_unit(ms_since(t));
        ctx.check(
            offered as u64 == inputs && delivered + blocked == offered && delivered > 0,
            [unit],
            || format!("unit {unit}: offered {offered}, delivered {delivered}, blocked {blocked} of {inputs} ports"),
        );
        if unit < covered {
            ctx.digest.u64(offered as u64);
            ctx.digest.u64(delivered as u64);
            for &(source, tag) in engine.last_outcome().delivered() {
                ctx.digest.u64(source);
                ctx.digest.u64(tag);
            }
        }
        if unit == 0 {
            first = (offered, delivered);
        }
        ctx.offered += offered as u64;
        delivered_total += delivered as u64;
        ctx.rows += 1;
        unit += 1;
    }
    ctx.end_timed_phase();
    let offered_total = ctx.offered;
    ctx.note(
        "engine.acceptance",
        delivered_total as f64 / offered_total.max(1) as f64,
        "ratio",
    );
    ctx.note("engine.requests", offered_total as f64, "count");
    ctx.note("traffic.requests", offered_total as f64, "count");

    // Re-check unit 0 against the reference router: same batch, same
    // static arbitration, outcome identical in every delivered pair and
    // every block reason.
    let mut rng = StdRng::seed_from_u64(traffic_seed);
    traffic.fill_batch(&mut batch, &mut rng);
    let ours = engine
        .route(&batch, &mut PriorityArbiter::new())
        .to_outcome();
    let oracle = reference::route_batch(engine.topology(), &batch, &mut PriorityArbiter::new());
    ctx.check(
        ours == oracle && (ours.offered(), ours.delivered_count()) == first,
        [0],
        || "unit 0 differs from edn_core::reference::route_batch".to_string(),
    );
}

// ----------------------------------------------------------------- pa_sweep

const PA_BINARY: &str = "e2ebench_pa_sweep";
const PA_TITLE: &str = "pa_sweep: PA(r), Monte Carlo vs Eq. 4";
const PA_HEADERS: [&str; 7] = [
    "network",
    "r",
    "arbiter",
    "offered",
    "delivered",
    "simulated",
    "eq4",
];
const PA_THREADS: usize = 2;
const PA_CYCLES: u32 = 40;
/// Nominal host seconds of one `pa_sweep` pass on two workers.
const PA_PASS_S: f64 = 2.4;

struct PaRow {
    params: EdnParams,
    load: f64,
    arbiter: ArbiterKind,
}

fn pa_grid(smoke: bool) -> Vec<PaRow> {
    let shapes = if smoke {
        vec![shape(16, 4, 4, 2), shape(4, 4, 1, 3)]
    } else {
        vec![
            shape(64, 16, 4, 2),
            shape(16, 4, 4, 3),
            shape(4, 4, 1, 4),
            shape(16, 4, 4, 5),
        ]
    };
    let mut grid = Vec::new();
    for params in shapes {
        for load in [0.5, 1.0] {
            for arbiter in [ArbiterKind::Priority, ArbiterKind::Random] {
                grid.push(PaRow {
                    params,
                    load,
                    arbiter,
                });
            }
        }
    }
    grid
}

/// A measured (or, wrongly, replayed) `pa_sweep` row.
#[derive(Debug, Clone, Copy, Default)]
struct PaAux {
    ms: f64,
    offered: u64,
    delivered: u64,
    simulated: f64,
    eq4: f64,
    replayed: bool,
}

fn measure_pa_row(
    tr: &Tracer,
    row: &PaRow,
    cycles: u32,
    seeds: &[u64],
    unit: u64,
) -> (Vec<String>, PaAux) {
    let started = Instant::now();
    let estimates = tr.span("sim", ESTIMATE, unit, || {
        estimate_pa_seeds(&row.params, row.load, row.arbiter, cycles, seeds)
    });
    let eq4 = tr.span("analytic", EQ4, unit, || {
        probability_of_acceptance(&row.params, row.load)
    });
    let offered: u64 = estimates.iter().map(|e| e.offered).sum();
    let delivered: u64 = estimates.iter().map(|e| e.delivered).sum();
    let simulated = delivered as f64 / offered.max(1) as f64;
    let cells = vec![
        row.params.to_string(),
        fmt_f(row.load, 2),
        arbiter_name(row.arbiter).to_string(),
        offered.to_string(),
        delivered.to_string(),
        fmt_f(simulated, 6),
        fmt_f(eq4, 6),
    ];
    let aux = PaAux {
        ms: ms_since(started),
        offered,
        delivered,
        simulated,
        eq4,
        replayed: false,
    };
    (cells, aux)
}

/// `pa_sweep`: the path the paper-figure binaries take, with a cold row
/// cache: `SweepArgs::from_flags` → `plan_emit` → `run_table` on two
/// pool workers → `finish`. One unit is one row: `estimate_pa_seeds`
/// over 64 seeds plus the row's Eq. 4 value. Set-up is what a figure
/// binary does before its first row — parse flags, open the artifact and
/// the cache, look every row up, start the pool — timed in every pass
/// from `from_flags` to the start of the first row.
pub fn pa_sweep(ctx: &mut Ctx<'_>, tr: &Tracer) {
    let smoke = ctx.cfg.smoke;
    let grid = pa_grid(smoke);
    let rows = grid.len();
    let (seed_count, cycles) = if smoke { (4, 4) } else { (64, PA_CYCLES) };
    // Leave headroom so `seed_list` never overflows.
    let base = stream_seed(ctx.cfg.seed, 1) >> 8;

    let mut first_artifact: Option<Vec<u8>> = None;
    let mut first_rows: Vec<PaAux> = Vec::new();
    let mut worst_error = 0.0f64;
    let mut last: Option<(SweepArgs, std::path::PathBuf)> = None;
    // Whole passes only, and a count fixed by the run's seconds, so every
    // row of the uneven grid is measured equally often and the unit-time
    // percentiles always fall on the same rows.
    let passes = ((ctx.cfg.seconds / PA_PASS_S).round() as u64).max(1);
    for pass in 0..passes {
        let dir = ctx.fresh_dir("pa_sweep");
        let (out, cache) = (dir.join("pa.jsonl"), dir.join("cache"));
        let first_unit = pass * rows as u64;
        let units = first_unit..first_unit + rows as u64;
        let pass_started = Instant::now();
        let first_row = OnceLock::new();
        let args = tr.span("sweep", FROM_FLAGS, pass, || {
            sweep_args(PA_BINARY, PA_THREADS, seed_count, cycles, &out, &cache)
        });
        let seeds = args.seed_list(base);
        let mut table = Table::new(PA_TITLE, &PA_HEADERS);
        let mut emit = tr.span("sweep", PLAN, pass, || args.plan_emit(&[(&table, rows)]));
        let auxes = tr.span("sweep", RUN_TABLE, pass, || {
            let parent = tr.current();
            emit.run_table(
                &mut table,
                || (),
                |(), row| {
                    first_row.get_or_init(Instant::now);
                    let unit = first_unit + row as u64;
                    tr.span_under(parent, "bench", UNIT, unit, || {
                        measure_pa_row(tr, &grid[row], cycles, &seeds, unit)
                    })
                },
                |_, _| PaAux {
                    replayed: true,
                    ..PaAux::default()
                },
            )
        });
        let pool = emit.table_telemetry()[0].pool;
        let stats = emit.cache_stats();
        tr.span("sweep", FINISH, pass, || emit.finish());
        ctx.timed_s += pass_started.elapsed().as_secs_f64();
        let first_row = first_row
            .into_inner()
            .expect("a cold pass measures every row");
        ctx.setup_s
            .push(first_row.duration_since(pass_started).as_secs_f64());

        // Checks, outside the pass's timed wall.
        for (row, (aux, spec)) in auxes.iter().zip(&grid).enumerate() {
            ctx.unit_ms.push(aux.ms);
            ctx.offered += aux.offered;
            ctx.rows += 1;
            let unit = first_unit + row as u64;
            let full = spec.params.inputs() * u64::from(cycles) * seed_count as u64;
            ctx.check(
                !aux.replayed
                    && aux.offered > 0
                    && aux.delivered <= aux.offered
                    && (spec.load < 1.0 || aux.offered == full),
                [unit],
                || {
                    format!(
                        "row {unit}: replayed {}, offered {}, delivered {}",
                        aux.replayed, aux.offered, aux.delivered
                    )
                },
            );
            worst_error = worst_error.max((aux.simulated - aux.eq4).abs());
        }
        ctx.check(
            stats.computed == rows
                && stats.committed == rows
                && stats.hits == 0
                && stats.corrupt == 0,
            units.clone(),
            || format!("pass {pass}: cold cache stats {stats:?}"),
        );
        if let Err(e) = check_file(&out) {
            ctx.check(false, units.clone(), || {
                format!("pass {pass}: artifact fails check_file: {e}")
            });
        }
        let bytes = read(&out);
        match &first_artifact {
            None => {
                ctx.digest.bytes(&bytes);
                for aux in &auxes {
                    ctx.digest.u64(aux.offered);
                    ctx.digest.u64(aux.delivered);
                }
                ctx.note("sweep.artifact_bytes", bytes.len() as f64, "B");
                first_rows = auxes.clone();
                first_artifact = Some(bytes);
            }
            Some(first) => ctx.check(*first == bytes, units, || {
                format!("pass {pass}: artifact differs from pass 0")
            }),
        }
        ctx.note("sweep.steals", pool.steals as f64, "count");
        ctx.note("sweep.workers", pool.workers as f64, "count");
        note_cache(ctx, stats);
        last = Some((args, cache));
    }
    ctx.end_timed_phase();
    ctx.note("sim.estimate_requests", ctx.offered as f64, "count");
    ctx.note("sim.pa_abs_err_vs_eq4_max", worst_error, "1");

    let (args, cache) = last.expect("at least one pass");
    reload_table(
        ctx,
        tr,
        (PA_BINARY, PA_TITLE, &PA_HEADERS),
        &args,
        &cache,
        rows,
    );

    // Re-check the smallest random-arbitration row at full load against
    // the reference router, seed by seed and cycle by cycle.
    let recheck = grid
        .iter()
        .enumerate()
        .filter(|(_, r)| r.arbiter == ArbiterKind::Random && r.load == 1.0)
        .min_by_key(|(_, r)| r.params.inputs())
        .map(|(i, _)| i)
        .expect("the grid has a random-arbitration full-load row");
    let spec = &grid[recheck];
    let seeds = args.seed_list(base);
    let expected = reference_counts(&spec.params, spec.load, spec.arbiter, cycles, &seeds);
    let got = (first_rows[recheck].offered, first_rows[recheck].delivered);
    ctx.check(expected == got, [recheck as u64], || {
        format!("row {recheck}: (offered, delivered) {got:?} != reference {expected:?}")
    });
}

// -------------------------------------------------------- resubmit_sessions

/// `resubmit_sessions`: set-up builds two resident systems, the MasPar
/// router `RA-EDN(16,4,2,16)` with random arbitration and a 16K-port
/// MIMD system at `r = 0.1` whose blocked processors retry the same
/// module. One unit routes a fresh random permutation to completion on
/// the first, then runs 50 cycles on the second.
pub fn resubmit_sessions(ctx: &mut Ctx<'_>, tr: &Tracer) {
    let smoke = ctx.cfg.smoke;
    let (b, c, l, q) = if smoke { (4, 2, 2, 4) } else { (16, 4, 2, 16) };
    let mimd_params = if smoke {
        shape(16, 4, 4, 3)
    } else {
        shape(16, 4, 4, 6)
    };
    let mimd_cycles = if smoke { 10 } else { 50 };
    let (raedn_seed, mimd_seed) = (stream_seed(ctx.cfg.seed, 2), stream_seed(ctx.cfg.seed, 3));
    let build = |rep: u64| {
        let raedn = tr
            .span("sim", RAEDN_NEW, rep, || {
                RaEdnSystem::new(b, c, l, q, ArbiterKind::Random, raedn_seed)
            })
            .unwrap_or_else(|e| panic!("RA-EDN({b},{c},{l},{q}): {e}"));
        let mimd = tr
            .span("sim", MIMD_NEW, rep, || {
                MimdSystem::new(
                    mimd_params,
                    0.1,
                    ArbiterKind::Random,
                    ResubmitPolicy::SameDestination,
                    mimd_seed,
                )
            })
            .unwrap_or_else(|e| panic!("MIMD {mimd_params}: {e}"));
        (raedn, mimd)
    };
    let mut systems = None;
    for rep in 0..if smoke { 2 } else { 30 } {
        drop(systems.take());
        let started = Instant::now();
        systems = Some(tr.span("bench", SETUP, rep, || build(rep)));
        ctx.setup_s.push(started.elapsed().as_secs_f64());
    }
    let (mut raedn, mut mimd) = systems.expect("at least one set-up repetition");

    let covered = digest_units(Workload::ResubmitSessions, smoke);
    let (mut cycles_total, mut mimd_offered) = (0u64, 0u64);
    let mut first = None;
    let started = Instant::now();
    let mut unit = 0u64;
    while ctx.keep_going(started, unit, covered) {
        let t = Instant::now();
        let (run, report) = tr.span("bench", UNIT, unit, || {
            let run = tr.span("sim", RAEDN_RUN, unit, || raedn.route_random_permutation());
            let report = tr.span("sim", MIMD_RUN, unit, || mimd.run(0, mimd_cycles));
            (run, report)
        });
        ctx.add_unit(ms_since(t));
        let delivered: u64 = run.delivered_per_cycle.iter().sum();
        ctx.check(
            delivered == run.total_messages
                && run.total_messages == raedn.processors()
                && run.delivered_per_cycle.len() == run.cycles as usize
                && u64::from(run.cycles) >= q
                && report.cycles == mimd_cycles
                && report.delivered <= report.offered,
            [unit],
            || {
                format!(
                    "unit {unit}: RA-EDN delivered {delivered} of {} in {} cycles; MIMD delivered {} of {}",
                    run.total_messages, run.cycles, report.delivered, report.offered
                )
            },
        );
        if unit < covered {
            ctx.digest.u64(u64::from(run.cycles));
            for &count in &run.delivered_per_cycle {
                ctx.digest.u64(count);
            }
            ctx.digest.u64(report.offered);
            ctx.digest.u64(report.delivered);
        }
        if unit == 0 {
            first = Some((run.clone(), report.clone()));
        }
        ctx.offered += run.total_messages + report.offered;
        ctx.rows += 2;
        cycles_total += u64::from(run.cycles);
        mimd_offered += report.offered;
        unit += 1;
    }
    ctx.end_timed_phase();
    let units = unit.max(1) as f64;
    ctx.note(
        "sim.raedn_cycles_mean",
        cycles_total as f64 / units,
        "cycles",
    );
    ctx.note(
        "sim.mimd_offered_per_cycle",
        mimd_offered as f64 / (units * f64::from(mimd_cycles)),
        "1/cycle",
    );
    ctx.note("sim.mimd_requests", mimd_offered as f64, "count");

    // Re-check: freshly built systems replay unit 0 exactly — the
    // resident sessions carry no state from the set-up repetitions.
    let (mut raedn, mut mimd) = build(u64::MAX);
    let replay = (raedn.route_random_permutation(), mimd.run(0, mimd_cycles));
    ctx.check(first.as_ref() == Some(&replay), [0], || {
        "unit 0 differs when replayed on freshly built systems".to_string()
    });
}

// ------------------------------------------------------------- sweep_replay

const REPLAY_BINARY: &str = "e2ebench_sweep_replay";
const REPLAY_TITLE: &str = "sweep_replay: one-cycle PA samples";
const REPLAY_HEADERS: [&str; 7] = [
    "network",
    "r",
    "seed",
    "offered",
    "delivered",
    "simulated",
    "eq4",
];
const REPLAY_CYCLES: u32 = 2;

fn replay_row(row: usize, base: u64) -> (EdnParams, f64, u64) {
    let shapes = [shape(4, 2, 2, 2), shape(2, 2, 1, 3), shape(8, 4, 2, 2)];
    let loads = [0.25, 0.5, 0.75, 1.0];
    (shapes[row % 3], loads[(row / 3) % 4], base + row as u64)
}

/// One cheap row: a two-cycle, one-seed `PA(r)` sample of a small EDN
/// next to its Eq. 4 value.
fn measure_replay_row(row: usize, base: u64) -> (Vec<String>, (u64, u64)) {
    let (params, load, seed) = replay_row(row, base);
    let estimate =
        estimate_pa_seeds(&params, load, ArbiterKind::Priority, REPLAY_CYCLES, &[seed])[0];
    let eq4 = probability_of_acceptance(&params, load);
    let cells = vec![
        params.to_string(),
        fmt_f(load, 2),
        seed.to_string(),
        estimate.offered.to_string(),
        estimate.delivered.to_string(),
        fmt_f(estimate.mean, 6),
        fmt_f(eq4, 6),
    ];
    (cells, (estimate.offered, estimate.delivered))
}

/// `(offered, delivered)` parsed back from a replayed row's cells.
fn parse_replayed(cells: &[String]) -> Option<(u64, u64)> {
    Some((cells.get(3)?.parse().ok()?, cells.get(4)?.parse().ok()?))
}

/// `sweep_replay`: set-up computes a 20,000-row table of cheap rows into
/// a fresh row cache. One unit is a full warm replay of it —
/// `plan_emit` → `run_table` → `finish` — in which every row must be a
/// cache hit and the artifact must be byte-identical to the cold one.
pub fn sweep_replay(ctx: &mut Ctx<'_>, tr: &Tracer) {
    let smoke = ctx.cfg.smoke;
    let rows = if smoke { 200 } else { 20_000 };
    let base = stream_seed(ctx.cfg.seed, 4) >> 8;
    let mut cold = None;
    for rep in 0..if smoke { 2 } else { 5 } {
        let dir = ctx.fresh_dir("replay");
        let started = Instant::now();
        let (out, cache) = (dir.join("cold.jsonl"), dir.join("cache"));
        let (counts, stats) = tr.span("bench", SETUP, rep, || {
            let args = sweep_args(REPLAY_BINARY, 1, 1, REPLAY_CYCLES, &out, &cache);
            let mut table = Table::new(REPLAY_TITLE, &REPLAY_HEADERS);
            let mut emit = args.plan_emit(&[(&table, rows)]);
            let counts = emit.run_table(
                &mut table,
                || (),
                |(), row| measure_replay_row(row, base),
                |cells, _| parse_replayed(cells).unwrap_or_default(),
            );
            let stats = emit.cache_stats();
            emit.finish();
            (counts, stats)
        });
        ctx.setup_s.push(started.elapsed().as_secs_f64());
        ctx.check(
            stats.computed == rows && stats.committed == rows,
            [],
            || format!("cold set-up {rep}: cache stats {stats:?}"),
        );
        cold = Some((dir, out, cache, counts));
    }
    let (dir, cold_out, cache, cold_counts) = cold.expect("at least one set-up repetition");
    let cold_bytes = read(&cold_out);
    let out = dir.join("replay.jsonl");

    let started = Instant::now();
    let mut unit = 0u64;
    let mut last_args = None;
    while ctx.keep_going(started, unit, 1) {
        let t = Instant::now();
        let (args, counts, stats) = tr.span("bench", UNIT, unit, || {
            let args = tr.span("sweep", FROM_FLAGS, unit, || {
                sweep_args(REPLAY_BINARY, 1, 1, REPLAY_CYCLES, &out, &cache)
            });
            let mut table = Table::new(REPLAY_TITLE, &REPLAY_HEADERS);
            let mut emit = tr.span("sweep", PLAN, unit, || args.plan_emit(&[(&table, rows)]));
            let counts = tr.span("sweep", RUN_TABLE, unit, || {
                emit.run_table(
                    &mut table,
                    || (),
                    |(), row| {
                        let (cells, counts) = measure_replay_row(row, base);
                        (cells, Some(counts))
                    },
                    |cells, _| parse_replayed(cells),
                )
            });
            let stats = emit.cache_stats();
            tr.span("sweep", FINISH, unit, || emit.finish());
            (args, counts, stats)
        });
        ctx.add_unit(ms_since(t));
        let replayed: Option<Vec<(u64, u64)>> = counts.into_iter().collect();
        let bytes = read(&out);
        ctx.check(
            stats.computed == 0 && stats.hits == rows && stats.committed == 0 && stats.corrupt == 0,
            [unit],
            || format!("replay {unit}: cache stats {stats:?}"),
        );
        ctx.check(replayed.as_ref() == Some(&cold_counts), [unit], || {
            format!("replay {unit}: replayed counts differ from the cold run")
        });
        ctx.check(bytes == cold_bytes, [unit], || {
            format!("replay {unit}: artifact differs from the cold artifact")
        });
        if unit == 0 {
            ctx.digest.bytes(&cold_bytes);
            ctx.note("sweep.artifact_bytes", bytes.len() as f64, "B");
        }
        ctx.offered += cold_counts.iter().map(|&(offered, _)| offered).sum::<u64>();
        ctx.rows += rows as u64;
        note_cache(ctx, stats);
        last_args = Some(args);
        unit += 1;
    }
    ctx.end_timed_phase();

    let args = last_args.expect("at least one replay");
    reload_table(
        ctx,
        tr,
        (REPLAY_BINARY, REPLAY_TITLE, &REPLAY_HEADERS),
        &args,
        &cache,
        rows,
    );
    for path in [&cold_out, &out] {
        if let Err(e) = check_file(path) {
            ctx.check(false, [0], || {
                format!("{}: fails check_file: {e}", path.display())
            });
        }
    }
    // Re-check row 0 against the reference router.
    let (params, load, seed) = replay_row(0, base);
    let expected = reference_counts(&params, load, ArbiterKind::Priority, REPLAY_CYCLES, &[seed]);
    ctx.check(expected == cold_counts[0], [0], || {
        format!(
            "row 0: (offered, delivered) {:?} != reference {expected:?}",
            cold_counts[0]
        )
    });
}
