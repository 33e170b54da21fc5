//! TAB-NUTS-SWEEP — (extension) hot-spot (NUTS) intensity sweep.
//!
//! Where `tab_nuts` isolates the collateral damage of one hot spot at a
//! handful of intensities, this scenario sweeps the full hot-spot
//! intensity axis as a first-class Monte-Carlo grid: (fabric × hot
//! fraction × seed), every point an independent [`HotSpotTraffic`]
//! measurement on the engine hot path. It reports, per fabric and
//! intensity, the overall acceptance with a seed-level confidence
//! interval and the degradation relative to the uniform (`h = 0`)
//! baseline of the same fabric — the quantity the paper's "reduce
//! conflicts or Non Uniform Traffic Spots" claim is about.
//!
//! Runs on the `edn_sweep` streaming harness: one pool task per
//! (fabric, intensity) row — its seed axis measured inside the task, the
//! `h = 0` baseline re-derived from the same seeds so every row is a
//! pure function of its coordinates and `--shard` splits the grid across
//! processes; `--threads/--seeds/--cycles/--out/--shard` as everywhere.

use edn_bench::{fmt_f, SweepArgs};
use edn_core::EdnParams;
use edn_sim::{estimate_pa_seeds_with, ArbiterKind, RunningStats};
use edn_sweep::Table;
use edn_traffic::HotSpotTraffic;

/// One (fabric, intensity) cell aggregated over seeds.
#[derive(Clone)]
struct Cell {
    mean: f64,
    ci95: f64,
    delivered: u64,
    offered: u64,
}

/// Measures one (fabric, intensity) cell: independent seeded Monte-Carlo
/// runs, folded into a mean with a seed-level CI.
fn measure_cell(params: &EdnParams, intensity: f64, seeds: &[u64], cycles: u32) -> Cell {
    let hot_output = params.outputs() / 2;
    let cell_seeds: Vec<u64> = seeds
        .iter()
        .map(|&seed| seed ^ (intensity.to_bits().rotate_left(17)))
        .collect();
    let estimates = estimate_pa_seeds_with(
        params,
        |_seed| {
            HotSpotTraffic::new(
                params.inputs(),
                params.outputs(),
                1.0,
                hot_output,
                intensity,
            )
        },
        ArbiterKind::Random,
        cycles,
        &cell_seeds,
    );
    let mut stats = RunningStats::new();
    let mut delivered = 0u64;
    let mut offered = 0u64;
    for estimate in &estimates {
        stats.push(estimate.mean);
        delivered += estimate.delivered;
        offered += estimate.offered;
    }
    Cell {
        mean: stats.mean(),
        ci95: 1.96 * stats.std_error(),
        delivered,
        offered,
    }
}

fn main() {
    let args = SweepArgs::parse(
        "tab_nuts_sweep",
        "TAB-NUTS-SWEEP: acceptance vs hot-spot intensity on equal 256-port fabrics.",
        4,
    );
    let cycles = args.cycles_or(60);
    println!("TAB-NUTS-SWEEP: hot-spot intensity sweep, equal 256-port fabrics, r = 1.\n");

    let edn4 = EdnParams::new(16, 4, 4, 3).expect("valid"); // c = 4
    let delta = EdnParams::new(4, 4, 1, 4).expect("valid"); // c = 1
    assert_eq!(edn4.inputs(), delta.inputs());
    let fabrics = [("EDN(16,4,4,3) c=4", edn4), ("EDN(4,4,1,4) delta", delta)];
    let intensities = [0.0, 0.05, 0.10, 0.20, 0.40];
    let seeds = args.seed_list(0x2075);

    let mut table = Table::new(
        "TAB-NUTS-SWEEP: acceptance vs hot-spot intensity (seed-level CI95)",
        &[
            "fabric",
            "hot fraction",
            "acceptance",
            "CI95 +-",
            "vs h=0",
            "delivered",
            "offered",
        ],
    );
    // Grid: fabric-major, intensity-minor — one pool task per row,
    // seeded from the row coordinates only. The `vs h=0` column needs the
    // fabric's uniform baseline; it is measured **lazily, once per fabric
    // with a fresh row**, from the same seeds every row would use — so
    // rows stay pure functions of their coordinates (bit-identical across
    // shard splits), the h = 0 rows reuse the very same cell instead of
    // measuring twice, and a fully warm `--cache` run simulates nothing.
    let total_rows = fabrics.len() * intensities.len();
    let baselines: Vec<std::sync::OnceLock<Cell>> = (0..fabrics.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();
    let mut emit = args.plan_emit(&[(&table, total_rows)]);
    let cells = emit.run_table(
        &mut table,
        || (),
        |(), row| {
            let fabric = row / intensities.len();
            let (name, params) = fabrics[fabric];
            let intensity = intensities[row % intensities.len()];
            let baseline =
                baselines[fabric].get_or_init(|| measure_cell(&params, 0.0, &seeds, cycles));
            let cell = if intensity == 0.0 {
                baseline.clone()
            } else {
                measure_cell(&params, intensity, &seeds, cycles)
            };
            let cells = vec![
                name.to_string(),
                fmt_f(intensity, 2),
                fmt_f(cell.mean, 4),
                fmt_f(cell.ci95, 4),
                fmt_f(cell.mean - baseline.mean, 4),
                cell.delivered.to_string(),
                cell.offered.to_string(),
            ];
            (cells, cell)
        },
        // Cached replay: the narration Cell parses back out of the row.
        |cells, _| Cell {
            mean: cells[2].parse().expect("cached mean"),
            ci95: cells[3].parse().expect("cached ci95"),
            delivered: cells[5].parse().expect("cached delivered"),
            offered: cells[6].parse().expect("cached offered"),
        },
    );
    table.print();

    println!("Reading: the hot output is a serial bottleneck no topology can widen —");
    println!("its excess messages are lost on every fabric, so acceptance falls with h");
    println!("roughly in parallel across fabrics. What multipath buys is the *level*:");
    if emit.is_full() {
        for (f, (name, _)) in fabrics.iter().enumerate() {
            let h0 = cells[f * intensities.len()].mean;
            let h_max = cells[(f + 1) * intensities.len() - 1].mean;
            println!(
                "  {name}: acceptance {h0:.4} (uniform) -> {h_max:.4} at h = {:.2}, drop {:.4}",
                intensities[intensities.len() - 1],
                h0 - h_max
            );
        }
    }
    println!("Each point is an independent seeded Monte-Carlo run; rows are identical");
    println!("for every --threads value and every --shard split.");
    emit.finish();
}
