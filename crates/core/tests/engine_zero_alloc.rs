//! Asserts the engine's headline property with a counting global
//! allocator: once warmed up, [`RoutingEngine::route`],
//! [`RoutingEngine::route_with`], and [`RoutingEngine::route_reordered`]
//! (with its equality-keyed inverse cache holding a repeated order)
//! perform **zero heap allocations**, for every arbitration policy, on
//! the MasPar-shaped `EDN(64, 16, 4, 2)` at full load — and so does the
//! session layer in steady state: whole multi-cycle
//! [`RouteSession::run_to_completion`] / [`RouteSession::step_n`] runs
//! (resident SameTag and Redraw resubmission, faulty stepping, and both
//! cluster schedules) reuse one [`SessionState`] without touching the
//! allocator once its buffers reached their high-water marks. The same
//! holds with telemetry **on**: probed passes and probed sessions
//! accumulate into a pre-sized [`StageProbe`] without allocating. The
//! dense traversal buffers never regrow either: a wide-switch shape
//! (`a = 128`, one switch spanning two occupancy words) driven through a
//! full -> sparse -> full load sequence stays allocation-free with no
//! probe, a [`StageProbe`] and a [`TraceProbe`].
//!
//! This file deliberately holds a single `#[test]` so nothing else runs
//! concurrently against the global allocation counter.

// edn-lint: allow-file(unsafe-containment) -- the counting GlobalAlloc that enforces the zero-alloc invariant requires unsafe impls
use edn_core::{
    ClusterSchedule, EdnParams, FaultSet, NullProbe, PriorityArbiter, RandomArbiter, Resubmit,
    RetirementOrder, RoundRobinArbiter, RouteRequest, RoutingEngine, SessionState, StageProbe,
    TraceFilter, TraceProbe,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocating entry point.
struct CountingAllocator;

// SAFETY: defers all allocation to `System`, only adding a relaxed
// counter bump; layout contracts are passed through unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn full_load_batch(params: &EdnParams, seed: u64) -> Vec<RouteRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..params.inputs())
        .map(|s| RouteRequest::new(s, rng.gen_range(0..params.outputs())))
        .collect()
}

fn sparse_batch(params: &EdnParams, seed: u64, rate: f64) -> Vec<RouteRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::new();
    for s in 0..params.inputs() {
        if rng.gen_bool(rate) {
            batch.push(RouteRequest::new(s, rng.gen_range(0..params.outputs())));
        }
    }
    batch
}

/// One full round of multi-cycle sessions over a shared state. Every RNG
/// (resubmission redraws and random arbitration) is re-seeded
/// identically per round, so each round replays the same cycle counts
/// and the state's buffers stabilize at their high-water marks after the
/// first round.
fn session_round(
    engine: &mut RoutingEngine,
    state: &mut SessionState,
    batches: &[Vec<RouteRequest>],
    faults: &FaultSet,
    clusters: u64,
    cluster_messages: &[(u64, u64)],
    probe: &mut StageProbe,
) {
    let limit = 1 << 24;
    for (i, batch) in batches.iter().enumerate() {
        let i = i as u64;
        // Resident SameTag completion under deterministic arbitration.
        engine
            .begin_session(state, batch, Resubmit::SameTag, &mut PriorityArbiter::new())
            .run_to_completion(limit);
        // Resident Redraw completion.
        let mut redraw_rng = StdRng::seed_from_u64(1000 + i);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(2000 + i));
        engine
            .begin_session(
                state,
                batch,
                Resubmit::Redraw(&mut redraw_rng),
                &mut arbiter,
            )
            .run_to_completion(limit);
        // Faulty fixed-count stepping (step_n is the open-ended entry).
        let mut redraw_rng = StdRng::seed_from_u64(3000 + i);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(4000 + i));
        engine
            .begin_session(
                state,
                batch,
                Resubmit::Redraw(&mut redraw_rng),
                &mut arbiter,
            )
            .with_faults(faults)
            .step_n(12);
        // Probed resident completion: the counting probe accumulates into
        // pre-sized buffers, so telemetry must not break the guarantee.
        engine
            .begin_session(state, batch, Resubmit::SameTag, &mut PriorityArbiter::new())
            .with_probe(probe)
            .run_to_completion(limit);
        // Probed faulty stepping.
        let mut redraw_rng = StdRng::seed_from_u64(7000 + i);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(8000 + i));
        engine
            .begin_session(
                state,
                batch,
                Resubmit::Redraw(&mut redraw_rng),
                &mut arbiter,
            )
            .with_probe(probe)
            .with_faults(faults)
            .step_n(12);
        // Cluster drains under both schedules.
        for (j, schedule) in [ClusterSchedule::Random, ClusterSchedule::GreedyDistinct]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(5000 + i * 2 + j as u64);
            let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(6000 + i * 2 + j as u64));
            engine
                .begin_cluster_session(
                    state,
                    clusters,
                    cluster_messages.iter().copied(),
                    schedule,
                    &mut rng,
                    &mut arbiter,
                )
                .run_to_completion(limit);
        }
    }
}

#[test]
fn steady_state_routing_does_not_allocate() {
    let params = EdnParams::new(64, 16, 4, 2).unwrap(); // the MasPar shape
    let mut engine = RoutingEngine::from_params(params);
    let batches: Vec<Vec<RouteRequest>> =
        (0..8).map(|seed| full_load_batch(&params, seed)).collect();
    let faults = FaultSet::random(&params, 0.1, 99);
    let order = RetirementOrder::rotate_left(params.output_bits(), params.log2_b()).unwrap();

    let mut priority = PriorityArbiter::new();
    let mut random = RandomArbiter::new(StdRng::seed_from_u64(42));
    let mut round_robin = RoundRobinArbiter::new();
    let mut probe = StageProbe::new(&params);

    // Warm-up: let every buffer reach its high-water capacity under all
    // three policies and the healthy, faulty, probed, and reordered paths
    // (the first reordered cycle also populates the inverse-order cache).
    for batch in &batches {
        engine.route(batch, &mut priority);
        engine.route(batch, &mut random);
        engine.route(batch, &mut round_robin);
        engine.route_with(batch, Some(&faults), &mut random, &mut NullProbe);
        engine.route_with(batch, None, &mut priority, &mut probe);
        engine.route_with(batch, Some(&faults), &mut random, &mut probe);
        engine.route_reordered(batch, &order, &mut priority);
    }

    // Steady state: hundreds of further cycles, zero allocations.
    let before = allocations();
    for _ in 0..25 {
        for batch in &batches {
            engine.route(batch, &mut priority);
            engine.route(batch, &mut random);
            engine.route(batch, &mut round_robin);
            engine.route_with(batch, Some(&faults), &mut random, &mut NullProbe);
            engine.route_with(batch, None, &mut priority, &mut probe);
            engine.route_with(batch, Some(&faults), &mut random, &mut probe);
            engine.route_reordered(batch, &order, &mut priority);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state route()/route_with()/route_reordered() must not touch the allocator, probed or not"
    );

    // --- The flight recorder holds the same guarantee. ---
    // A pre-sized TraceProbe ring (roomy, reused via clear(); and a tiny
    // one that overflows every cycle and only counts drops) records
    // per-event telemetry — alone and teed behind the StageProbe exactly
    // as `--trace` runs route — without touching the allocator.
    let roomy = (params.inputs() as usize) * (params.l() as usize + 3);
    let mut trace = TraceProbe::new(roomy, TraceFilter::default());
    let mut tiny = TraceProbe::new(8, TraceFilter::default());
    let trace_round = |engine: &mut RoutingEngine,
                       trace: &mut TraceProbe,
                       tiny: &mut TraceProbe,
                       probe: &mut StageProbe,
                       priority: &mut PriorityArbiter,
                       random: &mut RandomArbiter<StdRng>| {
        for batch in &batches {
            trace.clear();
            engine.route_with(batch, None, priority, trace);
            engine.route_with(
                batch,
                Some(&faults),
                random,
                &mut (&mut *probe, &mut *trace),
            );
            engine.route_with(batch, None, priority, tiny);
        }
    };
    trace_round(
        &mut engine,
        &mut trace,
        &mut tiny,
        &mut probe,
        &mut priority,
        &mut random,
    );
    assert!(tiny.dropped() > 0, "the tiny ring must actually overflow");
    let before = allocations();
    for _ in 0..25 {
        trace_round(
            &mut engine,
            &mut trace,
            &mut tiny,
            &mut probe,
            &mut priority,
            &mut random,
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state trace recording (roomy, overflowing, and teed rings) must not touch the allocator"
    );

    // --- The session layer holds the same guarantee. ---
    // Whole multi-cycle runs (resident resubmission to completion, faulty
    // stepping, cluster drains under both schedules) over one reused
    // SessionState: warm-up rounds grow every resident buffer to its
    // high-water mark, then identical replayed rounds must not allocate.
    let mut state = SessionState::new();
    let clusters = params.inputs();
    let cluster_messages: Vec<(u64, u64)> = {
        let mut rng = StdRng::seed_from_u64(77);
        (0..clusters * 2)
            .map(|m| (m / 2, rng.gen_range(0..params.outputs())))
            .collect()
    };
    for _ in 0..2 {
        session_round(
            &mut engine,
            &mut state,
            &batches,
            &faults,
            clusters,
            &cluster_messages,
            &mut probe,
        );
    }
    let before = allocations();
    for _ in 0..3 {
        session_round(
            &mut engine,
            &mut state,
            &batches,
            &faults,
            clusters,
            &cluster_messages,
            &mut probe,
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state step_n()/run_to_completion() sessions must not touch the allocator"
    );

    // --- The dense traversal buffers never regrow. ---
    // A wide-switch shape (a = 128: one switch spans two occupancy words)
    // driven through full -> sparse -> single-request -> full load, with
    // no probe, the StageProbe, and the TraceProbe, healthy and faulty.
    let wide = EdnParams::new(128, 64, 2, 2).unwrap();
    let mut engine = RoutingEngine::from_params(wide);
    let loads = [
        full_load_batch(&wide, 1),
        sparse_batch(&wide, 2, 0.1),
        vec![RouteRequest::new(wide.inputs() - 1, wide.outputs() - 1)],
        full_load_batch(&wide, 3),
    ];
    let wide_faults = FaultSet::random(&wide, 0.1, 5);
    let mut wide_probe = StageProbe::new(&wide);
    let mut wide_trace = TraceProbe::new(
        (wide.inputs() as usize) * (wide.l() as usize + 3),
        TraceFilter::default(),
    );
    let mut before = 0;
    for round in 0..6 {
        // Two warm-up rounds, then four measured ones.
        if round == 2 {
            before = allocations();
        }
        for batch in &loads {
            engine.route(batch, &mut priority);
            engine.route(batch, &mut random);
            engine.route(batch, &mut round_robin);
            engine.route_with(batch, Some(&wide_faults), &mut priority, &mut NullProbe);
            engine.route_with(batch, None, &mut priority, &mut wide_probe);
            wide_trace.clear();
            engine.route_with(batch, None, &mut round_robin, &mut wide_trace);
            engine.route_with(batch, Some(&wide_faults), &mut random, &mut wide_trace);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the wide-switch engine must not allocate across full/sparse/full loads, probed or not"
    );

    // Sanity check on the instrument itself: allocating obviously bumps
    // the counter.
    let before = allocations();
    let probe = vec![0u8; 4096];
    assert!(
        allocations() > before,
        "counting allocator must observe allocations"
    );
    drop(probe);
}
