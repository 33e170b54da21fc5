//! TAB-FAULTS — (extension) fault tolerance of multipath EDNs.
//!
//! The paper motivates capacity `c > 1` by contention; the same redundancy
//! is a fault-tolerance budget. All `c` wires of a bucket reach the same
//! next-stage switch, so a source/destination pair survives until an
//! entire bucket on its switch sequence dies — probability `f^c` per
//! bucket at wire-fault rate `f` — while the unique-path delta network
//! (`c = 1`) is severed by any fault on its path.
//!
//! Two metrics at equal port count (256), sweeping the wire-fault rate:
//! the fraction of (source, destination) pairs still connected, and the
//! simulated full-load acceptance of the degraded fabric.
//!
//! Runs on the `edn_sweep` streaming harness: one pool task per fault
//! rate (measuring all three fabrics on per-worker cached engines and
//! fault bitmasks), rows streamed as they complete;
//! `--threads/--cycles/--out/--shard` as everywhere.

use edn_bench::{fmt_f, SweepArgs, SweepWorker};
use edn_core::{
    route_one_with_faults, EdnParams, EdnTopology, FaultRouting, FaultSet, NullProbe,
    PriorityArbiter, RouteRequest, RoutingEngine,
};
use edn_sweep::Table;

fn connectivity(topology: &EdnTopology, faults: &FaultSet, samples: u64) -> f64 {
    let params = topology.params();
    let mut connected = 0u64;
    for i in 0..samples {
        let source = (i * 2654435761) % params.inputs();
        let tag = (i * 40503 + 17) % params.outputs();
        if matches!(
            route_one_with_faults(topology, faults, source, tag).expect("valid indices"),
            FaultRouting::Delivered(_)
        ) {
            connected += 1;
        }
    }
    connected as f64 / samples as f64
}

fn degraded_pa(
    engine: &mut RoutingEngine,
    requests: &mut Vec<RouteRequest>,
    faults: &FaultSet,
    cycles: u64,
) -> f64 {
    let params = *engine.params();
    let mut offered = 0u64;
    let mut delivered = 0u64;
    for cycle in 0..cycles {
        requests.clear();
        requests.extend(
            (0..params.inputs())
                .map(|s| RouteRequest::new(s, (s * 131 + cycle * 7919 + 23) % params.outputs())),
        );
        let outcome = engine.route_with(
            requests,
            Some(faults),
            &mut PriorityArbiter::new(),
            &mut NullProbe,
        );
        offered += outcome.offered() as u64;
        delivered += outcome.delivered_count() as u64;
    }
    delivered as f64 / offered as f64
}

/// What one pool task measures for its (fault rate, fabric) point.
struct Row {
    connected: f64,
    pa: Option<f64>,
}

fn main() {
    let args = SweepArgs::parse(
        "tab_faults",
        "TAB-FAULTS: pair connectivity and degraded acceptance under wire faults,\n\
         equal 256-port fabrics.",
        1,
    );
    let cycles = args.cycles_or(40) as u64;
    println!("TAB-FAULTS: wire faults on equal 256-port fabrics.\n");
    let edn = EdnParams::new(16, 4, 4, 3).expect("valid"); // c = 4
    let half = EdnParams::new(8, 4, 2, 4).expect("valid"); // c = 2
    let delta = EdnParams::new(4, 4, 1, 4).expect("valid"); // c = 1
    assert_eq!(edn.inputs(), 256);
    assert_eq!(delta.inputs(), 256);
    assert_eq!(half.inputs(), 512); // nearest c=2 square sibling

    let fractions = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];
    let fabrics = [edn, half, delta];

    let mut table = Table::new(
        "TAB-FAULTS: pair connectivity and degraded PA(1) vs wire-fault rate",
        &[
            "fault rate",
            "EDN c=4 connected",
            "EDN c=2 connected",
            "delta c=1 connected",
            "EDN c=4 PA(1)",
            "delta PA(1)",
        ],
    );
    // One pool task per fault-rate row, measuring all three fabrics on
    // the worker's cached engines and fault bitmasks. The degraded-PA
    // column is only measured for the c=4 EDN and the delta (as in the
    // original table).
    let mut emit = args.plan_emit(&[(&table, fractions.len())]);
    emit.run_rows(&mut table, SweepWorker::new, |worker, row| {
        let fraction = fractions[row];
        let seed = 1000 + row as u64;
        let measured: Vec<Row> = fabrics
            .iter()
            .map(|params| {
                let (engine, requests, faults) =
                    worker.engine_requests_faults(params, fraction, seed);
                let connected = connectivity(engine.topology(), faults, 2000);
                let pa = (*params == edn || *params == delta)
                    .then(|| degraded_pa(engine, requests, faults, cycles));
                Row { connected, pa }
            })
            .collect();
        vec![
            fmt_f(fraction, 2),
            fmt_f(measured[0].connected, 4),
            fmt_f(measured[1].connected, 4),
            fmt_f(measured[2].connected, 4),
            fmt_f(measured[0].pa.expect("EDN PA measured"), 4),
            fmt_f(measured[2].pa.expect("delta PA measured"), 4),
        ]
    });
    table.print();
    println!("Reading: pair survival scales like (1 - f^c)^(buckets on path) — at a 5%");
    println!("wire-fault rate the capacity-4 EDN keeps >99.9% of pairs connected while");
    println!("the delta network has already lost ~1 - (1-0.05)^l of them. Degraded");
    println!("acceptance shrinks gracefully with capacity, by roughly the healthy-wire");
    println!("fraction, instead of cliff-dropping with severed paths.");
    emit.finish();
}
