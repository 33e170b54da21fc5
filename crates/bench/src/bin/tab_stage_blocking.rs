//! TAB-STAGEBLOCK — (extension) where the blocking happens, stage by
//! stage: measured vs the paper's per-stage model.
//!
//! Eq. 4 is a chain of per-stage rate maps ([`hyperbar_stage_rate`],
//! closed by [`crossbar_final_rate`]); the paper validates only the end
//! of the chain, the network-level `PA(r)`. The [`StageProbe`] resolves
//! the middle: counting offered/granted/blocked per stage during a
//! Monte-Carlo run exposes every intermediate rate of the chain, so each
//! link of the model is checked against measurement — not just the
//! composition. A model that was right for the wrong reason (offsetting
//! per-stage errors) would show up here and nowhere else.
//!
//! For each (network, load) point the table reports, per stage, the
//! measured input-wire request rate and blocked fraction next to the
//! model's, with the absolute blocked-fraction error. The run also
//! records one full-load [`RunMetrics`](edn_core::RunMetrics) snapshot
//! per network into the `*.metrics.jsonl` sidecar (`--out` runs), which
//! `edn_plot --heatmap` renders as a stage-utilization heatmap.
//!
//! Runs on the `edn_sweep` streaming harness: one pool task per
//! (network, load, stage) row; `--threads/--cycles/--out/--shard` as
//! everywhere.

use edn_analytic::stage::{crossbar_final_rate, hyperbar_stage_rate};
use edn_bench::{fmt_f, SweepArgs, SweepWorker};
use edn_core::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine, StageProbe};
use edn_sweep::Table;

/// Splittable per-(source, cycle) hash driving destinations and the
/// load gate — deterministic, so every row of one (network, load) point
/// observes the identical traffic.
fn mix(source: u64, cycle: u64, seed: u64) -> u64 {
    let mut x = source
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cycle.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(seed);
    x ^= x >> 27;
    x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    x ^ (x >> 31)
}

/// Routes `cycles` of uniform traffic at offered `load` through the
/// engine with `probe` counting; destinations and the load gate are
/// deterministic in (source, cycle).
fn probe_run(
    engine: &mut RoutingEngine,
    requests: &mut Vec<RouteRequest>,
    probe: &mut StageProbe,
    load: f64,
    cycles: u64,
) {
    let params = *engine.params();
    let gate = (load * 1024.0) as u64;
    for cycle in 0..cycles {
        requests.clear();
        for source in 0..params.inputs() {
            let h = mix(source, cycle, 0xED2);
            if h % 1024 < gate {
                requests.push(RouteRequest::new(source, (h >> 10) % params.outputs()));
            }
        }
        engine.route_probed(requests, &mut PriorityArbiter::new(), probe);
    }
}

/// The analytic rate chain: the model's input-wire request rate entering
/// each stage (index 0 = stage 1) plus the final output rate.
fn model_rates(params: &EdnParams, load: f64) -> Vec<f64> {
    let mut rates = Vec::with_capacity(params.l() as usize + 2);
    let mut rate = load;
    rates.push(rate);
    for _ in 1..=params.l() {
        rate = hyperbar_stage_rate(params.a(), params.b(), params.c(), rate);
        rates.push(rate);
    }
    rates.push(crossbar_final_rate(params.c(), rate));
    rates
}

/// The model's blocked fraction at `stage` (1-based, crossbar last):
/// requests in per cycle are `wires_in * r_in`, survivors
/// `wires_out * r_out`.
fn model_blocked(params: &EdnParams, rates: &[f64], stage: u32) -> f64 {
    let r_in = rates[stage as usize - 1];
    if r_in == 0.0 {
        return 0.0;
    }
    let r_out = rates[stage as usize];
    let wires_in = params.wires_before_stage(stage) as f64;
    let wires_out = if stage <= params.l() {
        params.wires_after_stage(stage) as f64
    } else {
        params.outputs() as f64
    };
    1.0 - (wires_out * r_out) / (wires_in * r_in)
}

fn main() {
    let args = SweepArgs::parse(
        "tab_stage_blocking",
        "TAB-STAGEBLOCK: measured per-stage blocking vs the Eq. 4 rate chain.",
        1,
    );
    let cycles = args.cycles_or(200) as u64;
    println!("TAB-STAGEBLOCK: per-stage blocking, measured vs model.\n");

    let networks = [
        EdnParams::new(16, 4, 4, 3).expect("valid"), // 256 ports, 4 stages
        EdnParams::new(8, 2, 4, 4).expect("valid"),  // 64 ports, 5 stages
    ];
    let loads = [0.5, 1.0];
    // One row per (network, load, stage), flattened up front because the
    // stage count varies by network.
    let rows: Vec<(EdnParams, f64, u32)> = networks
        .iter()
        .flat_map(|&params| {
            loads
                .iter()
                .flat_map(move |&load| (1..=params.l() + 1).map(move |stage| (params, load, stage)))
        })
        .collect();

    let mut table = Table::new(
        "TAB-STAGEBLOCK: per-stage input rate and blocked fraction, measured vs Eq. 4",
        &[
            "network",
            "load",
            "stage",
            "model r_in",
            "meas r_in",
            "model blocked",
            "meas blocked",
            "|diff|",
        ],
    );
    let mut emit = args.plan_emit(&[(&table, rows.len())]);
    emit.run_rows(&mut table, SweepWorker::new, |worker, row| {
        let (params, load, stage) = rows[row];
        let (engine, requests) = worker.engine_and_requests(&params);
        let mut probe = StageProbe::new(&params);
        probe_run(engine, requests, &mut probe, load, cycles);
        let metrics = probe.snapshot();
        assert!(metrics.reconciles(), "probe ledger must balance");
        let measured = &metrics.stages[stage as usize - 1];
        let wires_in = params.wires_before_stage(stage) as f64;
        let meas_rate = measured.offered as f64 / (cycles as f64 * wires_in);
        let meas_blocked = if measured.offered == 0 {
            0.0
        } else {
            measured.blocked as f64 / measured.offered as f64
        };
        let rates = model_rates(&params, load);
        let blocked = model_blocked(&params, &rates, stage);
        vec![
            params.to_string(),
            fmt_f(load, 2),
            stage.to_string(),
            fmt_f(rates[stage as usize - 1], 4),
            fmt_f(meas_rate, 4),
            fmt_f(blocked, 4),
            fmt_f(meas_blocked, 4),
            fmt_f((blocked - meas_blocked).abs(), 4),
        ]
    });
    table.print();

    // One full-load probe snapshot per network into the metrics sidecar:
    // the stage-resolved trace `edn_plot --heatmap` renders.
    let mut worker = SweepWorker::new();
    for params in &networks {
        let (engine, requests) = worker.engine_and_requests(params);
        let mut probe = StageProbe::new(params);
        probe_run(engine, requests, &mut probe, 1.0, cycles);
        emit.record_run_metrics(&format!("{params} r=1.00"), &probe.snapshot());
    }

    println!("Reading: the rate chain tracks measurement stage by stage — blocking");
    println!("peaks at the first stage (uniform traffic arrives uncondensed), fades");
    println!("downstream as the surviving rate drops, then spikes at the final");
    println!("crossbar where capacity-c buckets narrow to single output ports —");
    println!("exactly as the model's per-stage maps predict. Link-level agreement");
    println!("means Eq. 4's accuracy is not an artifact of offsetting errors.");
    emit.finish();
}
