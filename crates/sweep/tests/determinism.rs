//! The executor's headline contract: a [`SweepSpec`] produces
//! **row-for-row identical output for every worker count**, because task
//! results are pure functions of grid coordinates and per-point RNG
//! streams derive from [`SweepPoint::rng_seed`], never from worker
//! identity or execution order.

use edn_core::{
    ClusterSchedule, EdnParams, NullProbe, PriorityArbiter, RandomArbiter, Resubmit, RouteRequest,
};
use edn_sweep::{SweepPoint, SweepSpec, SweepWorker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A full Monte-Carlo measurement at one grid point: seeded traffic,
/// seeded arbitration, optional faults — every source of randomness
/// derived from the point's coordinates.
fn measure(worker: &mut SweepWorker, point: &SweepPoint) -> (usize, u64, u64) {
    let (engine, requests, faults) =
        worker.engine_requests_faults(&point.params, point.fault_fraction, point.rng_seed());
    let mut rng = StdRng::seed_from_u64(point.rng_seed());
    let mut delivered = 0u64;
    let mut offered = 0u64;
    for _ in 0..6 {
        requests.clear();
        for source in 0..point.params.inputs() {
            if rng.gen_bool(point.load) {
                requests.push(RouteRequest::new(
                    source,
                    rng.gen_range(0..point.params.outputs()),
                ));
            }
        }
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(point.rng_seed() ^ 0xA5A5));
        let faults = (point.fault_fraction > 0.0).then_some(faults);
        let outcome = engine.route_with(requests, faults, &mut arbiter, &mut NullProbe);
        delivered += outcome.delivered_count() as u64;
        offered += outcome.offered() as u64;
    }
    (point.index, delivered, offered)
}

fn spec() -> SweepSpec {
    SweepSpec::over([
        EdnParams::new(16, 4, 4, 2).unwrap(),
        EdnParams::new(8, 4, 2, 3).unwrap(),
        EdnParams::new(64, 16, 4, 2).unwrap(),
    ])
    .loads([0.5, 1.0])
    .fault_fractions([0.0, 0.1])
    .seeds(0..4)
}

#[test]
fn sweep_rows_are_identical_for_every_worker_count() {
    let spec = spec();
    assert_eq!(spec.len(), 48);
    let reference = spec.run(1, SweepWorker::new, measure);
    assert_eq!(reference.len(), 48);
    // Sanity: the sweep routed real traffic.
    assert!(reference.iter().any(|&(_, delivered, _)| delivered > 0));
    for threads in [2, 3, 8] {
        let rows = spec.run(threads, SweepWorker::new, measure);
        assert_eq!(rows, reference, "threads = {threads}");
    }
}

#[test]
fn engine_reuse_across_points_matches_fresh_engines() {
    // Worker-state caching must be observationally pure: measuring with
    // one long-lived worker equals measuring each point with a fresh one.
    let spec = spec();
    let cached = spec.run(1, SweepWorker::new, measure);
    let fresh: Vec<(usize, u64, u64)> = spec
        .points()
        .iter()
        .map(|point| measure(&mut SweepWorker::new(), point))
        .collect();
    assert_eq!(cached, fresh);
}

/// A resident multi-cycle resubmission run at one grid point, on the
/// worker's cached (engine, session) pair: blocked requests re-randomize
/// their addresses every cycle until all are delivered (the MIMD
/// arrangement), under the point's fault mask when one is requested.
/// Every random stream derives from the point's coordinates.
fn measure_resubmission(worker: &mut SweepWorker, point: &SweepPoint) -> (usize, u64, u64) {
    let (engine, session, requests, faults) = worker.engine_session_requests_faults(
        &point.params,
        point.fault_fraction,
        point.rng_seed(),
    );
    let mut rng = StdRng::seed_from_u64(point.rng_seed());
    requests.clear();
    for source in 0..point.params.inputs() {
        if rng.gen_bool(point.load) {
            requests.push(RouteRequest::new(
                source,
                rng.gen_range(0..point.params.outputs()),
            ));
        }
    }
    let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(point.rng_seed() ^ 0x5A5A));
    let mut session_run =
        engine.begin_session(session, requests, Resubmit::Redraw(&mut rng), &mut arbiter);
    let cycles = if point.fault_fraction > 0.0 {
        session_run.with_faults(faults).run_to_completion(1 << 24)
    } else {
        session_run.run_to_completion(1 << 24)
    };
    (point.index, cycles, session.delivered())
}

/// An RA-EDN-style cluster drain at one grid point on the cached
/// (engine, session) pair: every cluster holds `q = 2` messages addressed
/// by a point-seeded shuffle and submits one per cycle under the random
/// or greedy schedule (alternating by seed parity).
fn measure_cluster(worker: &mut SweepWorker, point: &SweepPoint) -> (usize, u64, u64, u64) {
    let (engine, session, _) = worker.engine_session_requests(&point.params);
    let clusters = point.params.inputs();
    let q = 2u64;
    let mut rng = StdRng::seed_from_u64(point.rng_seed() ^ 0xC1A5);
    let schedule = if point.seed.is_multiple_of(2) {
        ClusterSchedule::Random
    } else {
        ClusterSchedule::GreedyDistinct
    };
    let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(point.rng_seed() ^ 0x7777));
    let messages =
        (0..clusters * q).map(|m| (m / q, (m * 13 + point.seed) % point.params.outputs()));
    let cycles = engine
        .begin_cluster_session(
            session,
            clusters,
            messages,
            schedule,
            &mut rng,
            &mut arbiter,
        )
        .run_to_completion(1 << 24);
    let first_cycle = session.delivered_per_cycle().first().copied().unwrap_or(0);
    (point.index, cycles, session.delivered(), first_cycle)
}

#[test]
fn resubmission_session_rows_are_identical_for_every_worker_count() {
    // Multi-cycle resident sessions through the worker's session cache
    // must stay bit-identical across thread counts, exactly like the
    // single-cycle measurements: all state is keyed by grid coordinates.
    let spec = SweepSpec::over([
        EdnParams::new(16, 4, 4, 2).unwrap(),
        EdnParams::new(8, 4, 2, 3).unwrap(),
    ])
    .loads([0.6, 1.0])
    .fault_fractions([0.0, 0.05])
    .seeds(0..3);
    let reference = spec.run(1, SweepWorker::new, measure_resubmission);
    assert_eq!(reference.len(), 24);
    assert!(reference.iter().all(|&(_, cycles, _)| cycles >= 1));
    assert!(reference.iter().any(|&(_, _, delivered)| delivered > 0));
    for threads in [2, 8] {
        let rows = spec.run(threads, SweepWorker::new, measure_resubmission);
        assert_eq!(rows, reference, "threads = {threads}");
    }
    // And cached sessions must be observationally pure: fresh worker per
    // point gives the same rows.
    let fresh: Vec<(usize, u64, u64)> = spec
        .points()
        .iter()
        .map(|point| measure_resubmission(&mut SweepWorker::new(), point))
        .collect();
    assert_eq!(fresh, reference);
}

#[test]
fn cluster_session_rows_are_identical_for_every_worker_count() {
    let spec = SweepSpec::over([
        EdnParams::new(16, 4, 4, 2).unwrap(),
        EdnParams::new(8, 4, 2, 2).unwrap(),
    ])
    .seeds(0..4);
    let reference = spec.run(1, SweepWorker::new, measure_cluster);
    assert_eq!(reference.len(), 8);
    // Every drain delivers all p*q messages.
    for &(index, cycles, delivered, _) in &reference {
        let params = spec.points()[index].params;
        assert_eq!(delivered, params.inputs() * 2);
        assert!(cycles >= 2);
    }
    for threads in [2, 8] {
        let rows = spec.run(threads, SweepWorker::new, measure_cluster);
        assert_eq!(rows, reference, "threads = {threads}");
    }
}

#[test]
fn sharded_sweeps_merge_bit_exactly() {
    // The scale-out contract: running the grid as N independent shard
    // sweeps (each a separate `SweepSpec` as a separate process would
    // build) and concatenating the results row-for-row reproduces the
    // unsharded rows bit-exactly — the library-level half of what
    // `edn_merge` asserts at the artifact level.
    let spec = spec();
    let reference = spec.run(2, SweepWorker::new, measure);
    assert_eq!(reference.len(), 48);
    for n in [2usize, 3, 5] {
        let mut merged = Vec::new();
        for i in 0..n {
            let shard = spec.clone().shard(i, n);
            merged.extend(shard.run(2, SweepWorker::new, measure));
        }
        assert_eq!(merged.len(), reference.len(), "{n}-way covering");
        for (row, (merged_row, reference_row)) in merged.iter().zip(&reference).enumerate() {
            assert_eq!(merged_row, reference_row, "{n}-way shards, row {row}");
        }
    }
}

#[test]
fn shards_are_thread_count_invariant_too() {
    // A shard's rows must not depend on the worker count either — the
    // same contract as the full grid, restated on a slice.
    let spec = spec().shard(1, 3);
    let reference = spec.run(1, SweepWorker::new, measure);
    assert_eq!(reference.len(), 16);
    for threads in [2, 8] {
        assert_eq!(
            spec.run(threads, SweepWorker::new, measure),
            reference,
            "threads = {threads}"
        );
    }
}

#[test]
fn identity_routing_sanity_on_the_grid() {
    // A deterministic (non-random) measurement: full identity battery.
    let spec = SweepSpec::over([EdnParams::new(16, 4, 4, 2).unwrap()]);
    let rows = spec.run(2, SweepWorker::new, |worker, point| {
        let (engine, requests) = worker.engine_and_requests(&point.params);
        requests.clear();
        requests.extend((0..point.params.inputs()).map(|s| RouteRequest::new(s, s)));
        engine
            .route(requests, &mut PriorityArbiter::new())
            .delivered_count()
    });
    // The identity on EDN(16,4,4,2) loses to first-stage bucket conflicts
    // but delivers a deterministic count.
    assert_eq!(rows.len(), 1);
    assert!(rows[0] > 0);
}
