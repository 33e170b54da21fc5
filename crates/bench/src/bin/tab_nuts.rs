//! TAB-NUTS — (extension) Non-Uniform Traffic Spots.
//!
//! The introduction motivates EDN multipath as a way "to reduce conflicts
//! or Non Uniform Traffic Spots (NUTS)" (Lang & Kurisaki). This
//! experiment quantifies the *collateral damage* a hot spot inflicts on
//! unrelated ("cold") traffic: per cycle it draws one workload in which a
//! fraction `h` of sources aim at a single hot output, routes it twice —
//! once as-is and once with the hot messages removed (the control, same
//! cold messages and same arbitration seed) — and reports how much cold
//! acceptance the hot overlay destroys on each fabric.
//!
//! Runs on the `edn_sweep` streaming harness: one pool task per
//! hot-fraction row (measuring both fabrics on per-worker cached
//! engines), rows streamed as they complete;
//! `--threads/--seeds/--cycles/--out/--shard` as everywhere.

use edn_bench::{fmt_f, SweepArgs, SweepWorker};
use edn_core::{
    EdnParams, RandomArbiter, RouteRequest, RoutingEngine, RunMetrics, StageProbe, TraceFilter,
    TraceProbe,
};
use edn_sweep::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Damage {
    cold_with_hot: f64,
    cold_alone: f64,
}

impl Damage {
    fn collateral(&self) -> f64 {
        self.cold_alone - self.cold_with_hot
    }
}

/// One traced fabric's flight-recorder haul for a row: the StageProbe
/// aggregate and the TraceProbe event ring, carried out of the pool as
/// row aux data and recorded into the sidecars after the sweep.
struct Traced {
    label: String,
    metrics: RunMetrics,
    probe: TraceProbe,
}

fn measure(engine: &mut RoutingEngine, hot_fraction: f64, cycles: u32, seed: u64) -> Damage {
    let params = *engine.params();
    let hot_output = params.outputs() / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut with_hot_offered = 0u64;
    let mut with_hot_delivered = 0u64;
    let mut alone_offered = 0u64;
    let mut alone_delivered = 0u64;
    let mut full = Vec::with_capacity(params.inputs() as usize);
    let mut cold_only = Vec::with_capacity(params.inputs() as usize);
    for cycle in 0..cycles {
        // One draw, two routings (same arbitration seed for a fair pair).
        full.clear();
        cold_only.clear();
        for source in 0..params.inputs() {
            if rng.gen_bool(hot_fraction) {
                full.push(RouteRequest::new(source, hot_output));
            } else {
                let mut tag = rng.gen_range(0..params.outputs() - 1);
                if tag >= hot_output {
                    tag += 1; // cold traffic avoids the hot output entirely
                }
                full.push(RouteRequest::new(source, tag));
                cold_only.push(RouteRequest::new(source, tag));
            }
        }
        let arbiter_seed = seed ^ (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(arbiter_seed));
        let outcome = engine.route(&full, &mut arbiter);
        with_hot_offered += cold_only.len() as u64;
        with_hot_delivered += outcome
            .delivered()
            .iter()
            .filter(|&&(_, out)| out != hot_output)
            .count() as u64;

        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(arbiter_seed));
        let control = engine.route(&cold_only, &mut arbiter);
        alone_offered += control.offered() as u64;
        alone_delivered += control.delivered_count() as u64;
    }
    Damage {
        cold_with_hot: with_hot_delivered as f64 / with_hot_offered as f64,
        cold_alone: alone_delivered as f64 / alone_offered as f64,
    }
}

/// As [`measure`], with the hot-overlay routing observed by a tee of
/// [`StageProbe`] (aggregates, for the metrics sidecar) and
/// [`TraceProbe`] (events, for the trace sidecar). Outcomes are
/// bit-identical to the unprobed [`measure`] — the probed engine entry
/// is property-asserted against the plain one — so a traced run's
/// artifact never differs from an untraced run's. The control routing
/// stays unprobed: the sidecars describe the hot-spot pass only.
fn measure_traced(
    engine: &mut RoutingEngine,
    hot_fraction: f64,
    cycles: u32,
    seed: u64,
    filter: TraceFilter,
) -> (Damage, RunMetrics, TraceProbe) {
    let params = *engine.params();
    let hot_output = params.outputs() / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut with_hot_offered = 0u64;
    let mut with_hot_delivered = 0u64;
    let mut alone_offered = 0u64;
    let mut alone_delivered = 0u64;
    let mut full = Vec::with_capacity(params.inputs() as usize);
    let mut cold_only = Vec::with_capacity(params.inputs() as usize);
    let mut stage_probe = StageProbe::new(&params);
    // Ring sized for the worst case (every request injected, hopping
    // every stage, and delivered or blocked each cycle), so an
    // unfiltered trace records every event with zero drops and the
    // trace reconciles exactly with the StageProbe aggregates.
    let capacity = (cycles as usize)
        .saturating_mul(params.inputs() as usize)
        .saturating_mul(params.l() as usize + 3)
        .max(1024);
    let mut trace_probe = TraceProbe::new(capacity, filter);
    for cycle in 0..cycles {
        full.clear();
        cold_only.clear();
        for source in 0..params.inputs() {
            if rng.gen_bool(hot_fraction) {
                full.push(RouteRequest::new(source, hot_output));
            } else {
                let mut tag = rng.gen_range(0..params.outputs() - 1);
                if tag >= hot_output {
                    tag += 1;
                }
                full.push(RouteRequest::new(source, tag));
                cold_only.push(RouteRequest::new(source, tag));
            }
        }
        let arbiter_seed = seed ^ (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(arbiter_seed));
        let outcome = engine.route_with(
            &full,
            None,
            &mut arbiter,
            &mut (&mut stage_probe, &mut trace_probe),
        );
        with_hot_offered += cold_only.len() as u64;
        with_hot_delivered += outcome
            .delivered()
            .iter()
            .filter(|&&(_, out)| out != hot_output)
            .count() as u64;

        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(arbiter_seed));
        let control = engine.route(&cold_only, &mut arbiter);
        alone_offered += control.offered() as u64;
        alone_delivered += control.delivered_count() as u64;
    }
    let damage = Damage {
        cold_with_hot: with_hot_delivered as f64 / with_hot_offered as f64,
        cold_alone: alone_delivered as f64 / alone_offered as f64,
    };
    (damage, stage_probe.snapshot(), trace_probe)
}

fn main() {
    let args = SweepArgs::parse(
        "tab_nuts",
        "TAB-NUTS: collateral damage of a hot spot on cold traffic, 256 ports, r = 1.",
        1,
    );
    let cycles = args.cycles_or(80);
    println!("TAB-NUTS: collateral damage of a hot spot on cold traffic, 256 ports, r = 1.\n");
    let edn4 = EdnParams::new(16, 4, 4, 3).expect("valid"); // c = 4
    let delta = EdnParams::new(4, 4, 1, 4).expect("valid"); // c = 1
    assert_eq!(edn4.inputs(), delta.inputs());

    let mut table = Table::new(
        "TAB-NUTS: cold acceptance with vs without the hot overlay",
        &[
            "hot fraction",
            "EDN c=4 cold|hot",
            "EDN c=4 cold alone",
            "EDN damage",
            "delta cold|hot",
            "delta cold alone",
            "delta damage",
        ],
    );
    let hot_fractions = [0.05, 0.10, 0.20, 0.40];
    // One pool task per hot-fraction row, measuring both fabrics;
    // workers cache one wired engine per fabric across all their tasks.
    let mut emit = args.plan_emit(&[(&table, hot_fractions.len())]);
    let trace_filter = emit.trace_filter();
    let damages = emit.run_table(
        &mut table,
        SweepWorker::new,
        |worker, row| {
            let hot = hot_fractions[row];
            let seed = 500 + row as u64;
            // Under --trace the hot-overlay routing is observed by a
            // StageProbe + TraceProbe tee; outcomes (and therefore the
            // artifact) are bit-identical either way.
            let (a, d, traced) = match trace_filter {
                Some(filter) => {
                    let (a, a_metrics, a_probe) =
                        measure_traced(worker.engine(&edn4), hot, cycles, seed, filter);
                    let (d, d_metrics, d_probe) =
                        measure_traced(worker.engine(&delta), hot, cycles, seed, filter);
                    let traced = vec![
                        Traced {
                            label: format!("TAB-NUTS {edn4} h={hot:.2} hot overlay"),
                            metrics: a_metrics,
                            probe: a_probe,
                        },
                        Traced {
                            label: format!("TAB-NUTS {delta} h={hot:.2} hot overlay"),
                            metrics: d_metrics,
                            probe: d_probe,
                        },
                    ];
                    (a, d, traced)
                }
                None => (
                    measure(worker.engine(&edn4), hot, cycles, seed),
                    measure(worker.engine(&delta), hot, cycles, seed),
                    Vec::new(),
                ),
            };
            let cells = vec![
                fmt_f(hot, 2),
                fmt_f(a.cold_with_hot, 4),
                fmt_f(a.cold_alone, 4),
                fmt_f(a.collateral(), 4),
                fmt_f(d.cold_with_hot, 4),
                fmt_f(d.cold_alone, 4),
                fmt_f(d.collateral(), 4),
            ];
            let relative = (
                hot,
                a.collateral() / a.cold_alone,
                d.collateral() / d.cold_alone,
            );
            (cells, (relative, traced))
        },
        // Cached replay: the relative damages are ratios of row columns.
        // Replayed rows were never routed, so they carry no trace.
        |cells, _| {
            let f = |cell: &str| cell.parse::<f64>().expect("cached numeric cell");
            (
                (
                    f(&cells[0]),
                    f(&cells[3]) / f(&cells[2]),
                    f(&cells[6]) / f(&cells[5]),
                ),
                Vec::new(),
            )
        },
    );
    for (_, traced) in &damages {
        for trace in traced {
            emit.record_run_metrics(&trace.label, &trace.metrics);
            emit.record_trace(&trace.label, &trace.probe);
        }
    }
    table.print();
    println!("Reading: 'damage' is the cold acceptance the hot overlay destroys (same");
    println!("cold messages, same arbitration seed). Two findings:");
    println!("  1. In an unbuffered circuit-switched fabric the *relative* collateral");
    println!("     damage is modest and comparable across fabrics — excess hot");
    println!("     messages die in the first stages instead of saturating a tree of");
    println!("     buffers (NUTS tree saturation is a buffered-network phenomenon).");
    println!("  2. The EDN's multipath advantage shows in absolute terms: under every");
    println!("     hot-spot intensity its cold traffic still beats the delta's by the");
    println!("     full Figure-7 margin.");
    for ((hot, edn_damage, delta_damage), _) in damages {
        println!(
            "  h = {hot:.2}: relative damage EDN {:.1}% vs delta {:.1}% of cold baseline",
            100.0 * edn_damage,
            100.0 * delta_damage
        );
    }
    emit.finish();
}
