//! TAB-SIMVAL — (extension) end-to-end validation of the analytic models
//! against Monte-Carlo simulation of the wired fabric.
//!
//! The paper's evaluation is entirely analytical; its credibility rests on
//! the Theorem-3 uniformity argument and the per-stage independence
//! approximation. This binary quantifies that approximation: for a sweep
//! of networks and request rates it prints Eq. 4's `PA(r)` next to the
//! simulated acceptance (with confidence intervals), and likewise for the
//! Section 4 resubmission fixed point.
//!
//! Runs on the `edn_sweep` streaming harness: one pool task per table
//! row — a (network, rate) cell folds its seed axis inside the task —
//! with every row streamed to the artifact as its simulations complete;
//! `--threads/--seeds/--cycles/--out/--shard` as everywhere.

use edn_analytic::mimd::resubmission_fixed_point;
use edn_analytic::pa::probability_of_acceptance;
use edn_bench::{fmt_f, SweepArgs, Table};
use edn_core::EdnParams;
use edn_sim::{estimate_pa_seeds, ArbiterKind, MimdSystem, ResubmitPolicy};

fn main() {
    let args = SweepArgs::parse(
        "tab_sim_vs_analytic",
        "TAB-SIMVAL: analytic models vs cycle-level Monte-Carlo simulation.",
        4,
    );
    let cycles = args.cycles_or(60);
    println!("TAB-SIMVAL: analytic models vs cycle-level simulation.\n");

    // --- Eq. 4 PA(r) vs simulation: the (network, rate) grid, one row
    // per cell, the seed axis folded inside the row's task. ---
    let mut table = Table::new(
        "TAB-SIMVAL a: PA(r), model vs Monte Carlo (random arbitration)",
        &[
            "network",
            "N",
            "r",
            "model",
            "simulated",
            "CI95 +-",
            "|diff|",
        ],
    );
    let networks = [
        EdnParams::new(16, 4, 4, 2).expect("valid"),
        EdnParams::new(16, 4, 4, 3).expect("valid"),
        EdnParams::new(8, 2, 4, 4).expect("valid"),
        EdnParams::new(8, 8, 1, 3).expect("valid"),
        EdnParams::new(64, 16, 4, 2).expect("valid"),
    ];
    let rates = [0.25, 0.5, 1.0];
    let seeds = args.seed_list(1000);

    let mut mimd = Table::new(
        "TAB-SIMVAL b: MIMD resubmission, model vs simulation (redraw policy)",
        &[
            "network",
            "r",
            "PA' model",
            "PA' sim",
            "qW model",
            "qW sim",
            "r' model",
            "r' sim",
        ],
    );
    let mimd_points = [
        (EdnParams::new(16, 4, 4, 3).expect("valid"), 0.5),
        (EdnParams::new(16, 4, 4, 3).expect("valid"), 1.0),
        (EdnParams::new(4, 2, 2, 5).expect("valid"), 0.5),
    ];

    let mut policy = Table::new(
        "TAB-SIMVAL c: resubmission destination policy (simulation only)",
        &[
            "network",
            "r",
            "PA' redraw",
            "PA' same-dest",
            "qW redraw",
            "qW same-dest",
        ],
    );
    let policy_points = [
        (EdnParams::new(16, 4, 4, 3).expect("valid"), 0.5),
        (EdnParams::new(16, 4, 4, 3).expect("valid"), 1.0),
    ];

    let mut emit = args.plan_emit(&[
        (&table, networks.len() * rates.len()),
        (&mimd, mimd_points.len()),
        (&policy, policy_points.len()),
    ]);

    emit.run_rows(
        &mut table,
        || (),
        |(), row| {
            let params = networks[row / rates.len()];
            let rate = rates[row % rates.len()];
            let model = probability_of_acceptance(&params, rate);
            // Fold the per-seed estimates of this (network, rate) cell.
            let estimates = estimate_pa_seeds(&params, rate, ArbiterKind::Random, cycles, &seeds);
            let mean = estimates.iter().map(|e| e.mean).sum::<f64>() / estimates.len() as f64;
            let se = estimates.iter().map(|e| e.std_error).sum::<f64>()
                / (estimates.len() as f64).powf(1.5);
            vec![
                params.to_string(),
                params.inputs().to_string(),
                fmt_f(rate, 2),
                fmt_f(model, 4),
                fmt_f(mean, 4),
                fmt_f(1.96 * se, 4),
                fmt_f((model - mean).abs(), 4),
            ]
        },
    );
    table.print();

    // --- Section 4 fixed point vs MIMD simulation, one pool task per
    // (network, rate) row. ---
    emit.run_rows(
        &mut mimd,
        || (),
        |(), row| {
            let (params, rate) = mimd_points[row];
            let model = resubmission_fixed_point(&params, rate, 1e-12, 100_000);
            let mut system = MimdSystem::new(
                params,
                rate,
                ArbiterKind::Random,
                ResubmitPolicy::Redraw,
                77,
            )
            .expect("valid rate");
            let report = system.run(300, 700);
            vec![
                params.to_string(),
                fmt_f(rate, 2),
                fmt_f(model.pa_prime, 4),
                fmt_f(report.acceptance, 4),
                fmt_f(model.q_waiting, 4),
                fmt_f(report.waiting_fraction, 4),
                fmt_f(model.effective_rate, 4),
                fmt_f(report.effective_rate, 4),
            ]
        },
    );
    mimd.print();

    // --- The independence shortcut: redraw vs same-destination retries,
    // one pool task per (network, rate) row measuring both policies. ---
    emit.run_rows(
        &mut policy,
        || (),
        |(), row| {
            let (params, rate) = policy_points[row];
            let run = |resubmit| {
                let mut system = MimdSystem::new(params, rate, ArbiterKind::Random, resubmit, 5)
                    .expect("valid rate");
                system.run(300, 700)
            };
            let a = run(ResubmitPolicy::Redraw);
            let b = run(ResubmitPolicy::SameDestination);
            vec![
                params.to_string(),
                fmt_f(rate, 2),
                fmt_f(a.acceptance, 4),
                fmt_f(b.acceptance, 4),
                fmt_f(a.waiting_fraction, 4),
                fmt_f(b.waiting_fraction, 4),
            ]
        },
    );
    policy.print();
    println!("Reading: Eq. 4 tracks simulation within a few hundredths across the sweep;");
    println!("the paper's re-uniformization assumption (redraw) is mildly optimistic");
    println!("compared to physically faithful same-destination retries.");
    emit.finish();
}
