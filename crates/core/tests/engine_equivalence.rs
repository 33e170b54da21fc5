//! Differential property tests: [`RoutingEngine`] must be bit-identical
//! to the pre-refactor implementations preserved in `edn_core::reference`,
//! across network shapes, loads, arbitration policies, and fault sets —
//! and reusing one engine across cycles must never leak state between
//! them.

use edn_core::{
    reference, Arbiter, EdnParams, EdnTopology, FaultSet, NullProbe, PriorityArbiter,
    RandomArbiter, RetirementOrder, RoundRobinArbiter, RouteRequest, RoutingEngine,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Valid EDN parameters small enough to route exhaustively-ish.
fn params_strategy() -> impl Strategy<Value = EdnParams> {
    (1u32..=4, 0u32..=3, 1u32..=3, 1u32..=3).prop_filter_map(
        "valid parameter combination",
        |(log_a, log_c, log_b, l)| {
            if log_c > log_a {
                return None;
            }
            let a = 1u64 << log_a;
            let b = 1u64 << log_b;
            let c = 1u64 << log_c;
            EdnParams::new(a, b, c, l)
                .ok()
                .filter(|p| p.inputs() <= 4096 && p.outputs() <= 4096)
        },
    )
}

/// A Bernoulli-`rate` uniform batch.
fn uniform_batch(p: &EdnParams, seed: u64, rate: f64) -> Vec<RouteRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::new();
    for source in 0..p.inputs() {
        if rng.gen_bool(rate) {
            batch.push(RouteRequest::new(source, rng.gen_range(0..p.outputs())));
        }
    }
    batch
}

/// Two independent arbiters of the same kind with identical state, so the
/// engine and the reference observe identical decision streams.
fn arbiter_pair(kind: u32, seed: u64) -> (Box<dyn Arbiter>, Box<dyn Arbiter>) {
    match kind % 3 {
        0 => (
            Box::new(PriorityArbiter::new()),
            Box::new(PriorityArbiter::new()),
        ),
        1 => (
            Box::new(RandomArbiter::new(StdRng::seed_from_u64(seed))),
            Box::new(RandomArbiter::new(StdRng::seed_from_u64(seed))),
        ),
        _ => (
            Box::new(RoundRobinArbiter::new()),
            Box::new(RoundRobinArbiter::new()),
        ),
    }
}

proptest! {
    #[test]
    fn engine_is_bit_identical_to_reference_route_batch(
        params in params_strategy(),
        seed in any::<u64>(),
        load_pct in 0u32..=100,
        kind in 0u32..3,
    ) {
        let topology = EdnTopology::new(params);
        let batch = uniform_batch(&params, seed, load_pct as f64 / 100.0);
        let (mut ref_arb, mut eng_arb) = arbiter_pair(kind, seed ^ 0xABCD);
        let expected = reference::route_batch(&topology, &batch, ref_arb.as_mut());
        let mut engine = RoutingEngine::new(topology);
        let actual = engine.route(&batch, eng_arb.as_mut()).to_outcome();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn engine_is_bit_identical_to_reference_under_faults(
        params in params_strategy(),
        seed in any::<u64>(),
        load_pct in 10u32..=100,
        fault_pct in 0u32..=40,
        kind in 0u32..3,
    ) {
        let topology = EdnTopology::new(params);
        let faults = FaultSet::random(&params, fault_pct as f64 / 100.0, seed ^ 0xFA017);
        let batch = uniform_batch(&params, seed, load_pct as f64 / 100.0);
        let (mut ref_arb, mut eng_arb) = arbiter_pair(kind, seed ^ 0x5EED);
        let expected =
            reference::route_batch_with(&topology, &batch, Some(&faults), ref_arb.as_mut());
        let mut engine = RoutingEngine::new(topology);
        let actual = engine.route_with(&batch, Some(&faults), eng_arb.as_mut(), &mut NullProbe).to_outcome();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn engine_reuse_never_leaks_state_between_cycles(
        params in params_strategy(),
        seeds in vec(any::<u64>(), 2..6),
        kind in 0u32..3,
    ) {
        // One engine routing a sequence of batches must produce, at every
        // step, exactly what a freshly built engine produces for that
        // batch (with identically seeded arbiters).
        let topology = EdnTopology::new(params);
        let mut reused = RoutingEngine::new(topology.clone());
        // Mix full-load, partial, and empty batches in one sequence.
        for (i, &seed) in seeds.iter().enumerate() {
            let rate = match i % 3 {
                0 => 1.0,
                1 => 0.4,
                _ => 0.0,
            };
            let batch = uniform_batch(&params, seed, rate);
            let (mut fresh_arb, mut reused_arb) = arbiter_pair(kind, seed);
            let mut fresh = RoutingEngine::new(topology.clone());
            let expected = fresh.route(&batch, fresh_arb.as_mut()).to_outcome();
            let actual = reused.route(&batch, reused_arb.as_mut()).to_outcome();
            prop_assert_eq!(actual, expected, "cycle {} diverged after reuse", i);
        }
    }

    #[test]
    fn engine_reuse_alternating_faulty_and_healthy_cycles(
        params in params_strategy(),
        seed in any::<u64>(),
        fault_pct in 1u32..=30,
    ) {
        // Interleaving faulty and healthy cycles on one engine must match
        // fresh single-shot routing of each: the fault mask is consulted
        // per call, never cached.
        let topology = EdnTopology::new(params);
        let faults = FaultSet::random(&params, fault_pct as f64 / 100.0, seed);
        let batch = uniform_batch(&params, seed, 0.8);
        let mut engine = RoutingEngine::new(topology.clone());
        for _ in 0..2 {
            let healthy = engine.route(&batch, &mut PriorityArbiter::new()).to_outcome();
            let expected_healthy =
                reference::route_batch(&topology, &batch, &mut PriorityArbiter::new());
            prop_assert_eq!(healthy, expected_healthy);
            let faulty =
                engine.route_with(&batch, Some(&faults), &mut PriorityArbiter::new(), &mut NullProbe).to_outcome();
            let expected_faulty = reference::route_batch_with(&topology, &batch, Some(&faults), &mut PriorityArbiter::new());
            prop_assert_eq!(faulty, expected_faulty);
        }
    }

    #[test]
    fn engine_reordered_matches_wrapper_semantics(
        params in params_strategy(),
        rotation in 0u32..16,
        seed in any::<u64>(),
    ) {
        // route_reordered = reorder tags, route, compensate through the
        // inverse — checked against doing those steps by hand over the
        // reference router.
        let topology = EdnTopology::new(params);
        let bits = params.output_bits();
        let order = RetirementOrder::rotate_left(bits, rotation % bits.max(1)).unwrap();
        let batch = uniform_batch(&params, seed, 0.7);
        let reordered: Vec<RouteRequest> = batch
            .iter()
            .map(|r| RouteRequest::new(r.source, order.apply(r.tag)))
            .collect();
        let expected =
            reference::route_batch(&topology, &reordered, &mut PriorityArbiter::new());
        let inverse = order.inverse();
        let compensated: Vec<(u64, u64)> = {
            let mut pairs: Vec<(u64, u64)> = expected
                .delivered()
                .iter()
                .map(|&(source, output)| (source, inverse.apply(output)))
                .collect();
            pairs.sort_unstable();
            pairs
        };
        let mut engine = RoutingEngine::new(topology);
        let actual = engine.route_reordered(&batch, &order, &mut PriorityArbiter::new());
        prop_assert_eq!(actual.delivered(), compensated.as_slice());
        prop_assert_eq!(actual.offered(), expected.offered());
        prop_assert_eq!(actual.survivors(), expected.survivors());
        // Blocked sets agree too (sources and reasons are unaffected by
        // output compensation).
        prop_assert_eq!(actual.blocked(), expected.blocked());
    }
}

/// Routes `batches` in sequence through one engine and through the
/// reference, under each arbiter kind (arbiter state carried across the
/// sequence), on the healthy fabric and under 20% random faults.
fn assert_matches_reference(params: EdnParams, batches: &[Vec<RouteRequest>]) {
    let topology = EdnTopology::new(params);
    let faults = FaultSet::random(&params, 0.2, 0xFA17);
    for kind in 0..3 {
        let mut engine = RoutingEngine::new(topology.clone());
        let (mut ref_arb, mut eng_arb) = arbiter_pair(kind, 0x5EED ^ u64::from(kind));
        let (mut ref_faulty_arb, mut eng_faulty_arb) = arbiter_pair(kind, 0xFA57);
        for (cycle, batch) in batches.iter().enumerate() {
            let expected = reference::route_batch(&topology, batch, ref_arb.as_mut());
            let actual = engine.route(batch, eng_arb.as_mut()).to_outcome();
            assert_eq!(actual, expected, "{params} arbiter {kind} cycle {cycle}");
            let expected = reference::route_batch_with(
                &topology,
                batch,
                Some(&faults),
                ref_faulty_arb.as_mut(),
            );
            let actual = engine
                .route_with(
                    batch,
                    Some(&faults),
                    eng_faulty_arb.as_mut(),
                    &mut NullProbe,
                )
                .to_outcome();
            assert_eq!(
                actual, expected,
                "{params} faulty, arbiter {kind} cycle {cycle}"
            );
        }
    }
}

/// Full load, then a single request on the last input line, then an
/// empty batch, then full load again: every bitmap word must come back
/// clean between cycles.
fn load_sequence(params: &EdnParams, seed: u64) -> Vec<Vec<RouteRequest>> {
    let last = vec![RouteRequest::new(params.inputs() - 1, params.outputs() - 1)];
    vec![
        uniform_batch(params, seed, 1.0),
        last,
        Vec::new(),
        uniform_batch(params, seed + 1, 1.0),
        uniform_batch(params, seed + 2, 0.1),
    ]
}

#[test]
fn wide_switches_spanning_two_bitmap_words_match_reference() {
    // a = 128: one hyperbar switch covers two u64 occupancy words.
    for params in [
        EdnParams::new(128, 64, 2, 1).unwrap(),
        EdnParams::new(128, 64, 2, 2).unwrap(),
        // A 128-wide crossbar stage.
        EdnParams::new(128, 2, 128, 1).unwrap(),
    ] {
        assert_matches_reference(params, &load_sequence(&params, 11));
    }
}

#[test]
fn narrow_switches_sharing_one_bitmap_word_match_reference() {
    // a in {2, 4}: up to 32 switches share one occupancy word.
    for params in [
        EdnParams::new(2, 2, 1, 6).unwrap(),
        EdnParams::new(4, 2, 2, 4).unwrap(),
        EdnParams::new(4, 4, 1, 4).unwrap(),
        EdnParams::new(2, 2, 2, 3).unwrap(),
    ] {
        assert_matches_reference(params, &load_sequence(&params, 23));
    }
}

#[test]
fn word_sized_switches_match_reference() {
    // a = 32: two switches per occupancy word; a = 64: exactly one. The
    // last shape has a 32-wide crossbar stage.
    for params in [
        EdnParams::new(32, 8, 4, 2).unwrap(),
        EdnParams::new(64, 16, 4, 2).unwrap(),
        EdnParams::new(32, 4, 32, 1).unwrap(),
    ] {
        assert_matches_reference(params, &load_sequence(&params, 41));
    }
}

#[test]
fn stage_widths_below_one_bitmap_word_match_reference() {
    // EDN(8,2,2,3) narrows 128 -> 64 -> 32 -> 16 lines: the last two
    // boundaries fill only part of one word. EDN(4,2,2,2) is 8 lines wide
    // end to end.
    for params in [
        EdnParams::new(8, 2, 2, 3).unwrap(),
        EdnParams::new(4, 2, 2, 2).unwrap(),
        EdnParams::new(16, 4, 4, 1).unwrap(),
    ] {
        assert_matches_reference(params, &load_sequence(&params, 37));
    }
}

#[test]
fn full_load_on_sixty_four_thousand_ports_matches_reference() {
    let params = EdnParams::new(16, 4, 4, 7).unwrap();
    assert_eq!(params.inputs(), 1 << 16);
    let topology = EdnTopology::new(params);
    let batch = uniform_batch(&params, 5, 1.0);
    let expected = reference::route_batch(&topology, &batch, &mut PriorityArbiter::new());
    let mut engine = RoutingEngine::new(topology);
    let actual = engine
        .route(&batch, &mut PriorityArbiter::new())
        .to_outcome();
    assert_eq!(actual, expected);
}
