//! The telemetry layer's headline contract, property-tested: attaching a
//! probe never changes a routing verdict. Every outcome — delivered set,
//! blocked set, per-stage survivors, per-cycle session counts — is
//! **bit-identical** with [`NullProbe`] (the default) vs. the counting
//! [`StageProbe`], across property-generated shapes, loads, arbitration
//! policies, fault masks, and multi-cycle sessions. And the
//! probe's ledger balances: offered = delivered + blocked + fault drops,
//! stage by stage ([`RunMetrics::reconciles`]), with totals matching the
//! engine's own outcome counters.

use edn_core::{
    Arbiter, ClusterSchedule, EdnParams, FaultSet, NullProbe, PriorityArbiter, RandomArbiter,
    Resubmit, RoundRobinArbiter, RouteRequest, RoutingEngine, SessionState, StageProbe,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: valid EDN parameters small enough to route many cycles per
/// property case (`a, b, c <= 16`, wires `<= 1024`).
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
                .filter(|p| p.inputs() <= 1024 && p.outputs() <= 1024)
        },
    )
}

/// Strategy: square parameters, as cluster sessions require.
fn square_params_strategy() -> impl Strategy<Value = EdnParams> {
    params_strategy().prop_filter_map("square network", |p| p.is_square().then_some(p))
}

/// A Bernoulli-`load` batch with uniform destinations, all randomness
/// from `seed`.
fn batch(params: &EdnParams, load: f64, seed: u64) -> Vec<RouteRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::new();
    for source in 0..params.inputs() {
        if rng.gen_bool(load) {
            requests.push(RouteRequest::new(
                source,
                rng.gen_range(0..params.outputs()),
            ));
        }
    }
    requests
}

/// One arbiter of the chosen policy; `seed` only drives random
/// arbitration. Kinds: 0 = priority, 1 = random, 2 = round-robin.
fn build_arbiter(kind: u8, seed: u64) -> Box<dyn Arbiter> {
    match kind {
        0 => Box::new(PriorityArbiter::new()),
        1 => Box::new(RandomArbiter::new(StdRng::seed_from_u64(seed))),
        _ => Box::new(RoundRobinArbiter::new()),
    }
}

/// Distinct per-cycle batch seed.
fn cycle_seed(seed: u64, cycle: usize) -> u64 {
    seed ^ (cycle as u64) << 48
}

proptest! {
    /// Scalar passes: `route_with` with a [`StageProbe`] matches it with
    /// [`NullProbe`] bit-for-bit, healthy and faulty, and the probe reconciles against the
    /// outcome's own counters.
    #[test]
    fn scalar_outcomes_are_probe_invariant(
        params in params_strategy(),
        kind in 0u8..3,
        cycles in 1usize..=4,
        load in 0.1f64..=1.0,
        faulty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let faults = FaultSet::random(&params, 0.15, seed ^ 0xFA17);
        let mut plain = RoutingEngine::from_params(params);
        let mut probed = RoutingEngine::from_params(params);
        let mut plain_arbiter = build_arbiter(kind, seed);
        let mut probed_arbiter = build_arbiter(kind, seed);
        let mut probe = StageProbe::new(&params);
        let mut offered_total = 0u64;
        let mut delivered_total = 0u64;
        for cycle in 0..cycles {
            let requests = batch(&params, load, cycle_seed(seed, cycle));
            offered_total += requests.len() as u64;
            let (expected, observed) = if faulty {
                (
                    plain.route_with(&requests, Some(&faults), plain_arbiter.as_mut(), &mut NullProbe),
                    probed.route_with(&requests, Some(&faults), probed_arbiter.as_mut(), &mut probe),
                )
            } else {
                (
                    plain.route(&requests, plain_arbiter.as_mut()),
                    probed.route_with(&requests, None, probed_arbiter.as_mut(), &mut probe),
                )
            };
            delivered_total += expected.delivered_count() as u64;
            prop_assert_eq!(observed, expected, "cycle {} kind {}", cycle, kind);
        }
        let metrics = probe.snapshot();
        prop_assert_eq!(metrics.cycles, cycles as u64);
        prop_assert_eq!(metrics.offered, offered_total);
        prop_assert_eq!(metrics.delivered, delivered_total);
        prop_assert!(metrics.reconciles(), "{:?}", metrics);
        if !faulty {
            prop_assert!(metrics.stages.iter().all(|s| s.fault_drops == 0));
        }
    }

    /// Resident sessions: `with_probe` never changes a multi-cycle run —
    /// per-cycle delivered counts, the delivered-by-source mask, and the
    /// cycle count all match, and the probe's queue-depth sampling sees
    /// exactly one observation per cycle.
    #[test]
    fn resident_sessions_are_probe_invariant(
        params in params_strategy(),
        redraw in any::<bool>(),
        faulty in any::<bool>(),
        load in 0.2f64..=1.0,
        seed in any::<u64>(),
    ) {
        let limit = 1 << 20;
        let requests = batch(&params, load, seed);
        // Faulty fabrics may never deliver some requests; bound by steps.
        let steps = 24u64;
        let faults = FaultSet::random(&params, 0.1, seed ^ 0xFA17);
        let run = |probe: Option<&mut StageProbe>| -> (Vec<u64>, Vec<bool>, u64, u64) {
            let mut engine = RoutingEngine::from_params(params);
            let mut state = SessionState::new();
            let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(seed ^ 1));
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            let resubmit = if redraw {
                Resubmit::Redraw(&mut rng)
            } else {
                Resubmit::SameTag
            };
            let session = engine.begin_session(&mut state, &requests, resubmit, &mut arbiter);
            let delivered = match (probe, faulty) {
                (Some(probe), true) => {
                    let mut s = session.with_probe(probe).with_faults(&faults);
                    s.step_n(steps).1
                }
                (Some(probe), false) => {
                    let mut s = session.with_probe(probe);
                    s.run_to_completion(limit);
                    state.delivered()
                }
                (None, true) => {
                    let mut s = session.with_faults(&faults);
                    s.step_n(steps).1
                }
                (None, false) => {
                    let mut s = session;
                    s.run_to_completion(limit);
                    state.delivered()
                }
            };
            (
                state.delivered_per_cycle().to_vec(),
                state.delivered_mask().to_vec(),
                state.delivered_per_cycle().len() as u64,
                delivered,
            )
        };
        let expected = run(None);
        let mut probe = StageProbe::new(&params);
        let observed = run(Some(&mut probe));
        prop_assert_eq!(&observed, &expected);
        let metrics = probe.snapshot();
        let (_, _, cycles, delivered) = expected;
        prop_assert_eq!(metrics.cycles, cycles);
        prop_assert_eq!(metrics.delivered, delivered);
        prop_assert_eq!(metrics.queue_samples, cycles);
        prop_assert!(metrics.reconciles(), "{:?}", metrics);
    }

    /// Cluster sessions: probe invariance holds for the RA-EDN drain too.
    #[test]
    fn cluster_sessions_are_probe_invariant(
        params in square_params_strategy(),
        greedy in any::<bool>(),
        messages_per_cluster in 1u64..=3,
        seed in any::<u64>(),
    ) {
        let limit = 1 << 20;
        let clusters = params.inputs();
        let messages: Vec<(u64, u64)> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..clusters * messages_per_cluster)
                .map(|m| (m % clusters, rng.gen_range(0..params.outputs())))
                .collect()
        };
        let schedule = if greedy {
            ClusterSchedule::GreedyDistinct
        } else {
            ClusterSchedule::Random
        };
        let run = |probe: Option<&mut StageProbe>| -> (Vec<u64>, u64) {
            let mut engine = RoutingEngine::from_params(params);
            let mut state = SessionState::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 3);
            let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(seed ^ 4));
            let session = engine.begin_cluster_session(
                &mut state,
                clusters,
                messages.iter().copied(),
                schedule,
                &mut rng,
                &mut arbiter,
            );
            match probe {
                Some(probe) => session.with_probe(probe).run_to_completion(limit),
                None => {
                    let mut s = session;
                    s.run_to_completion(limit)
                }
            };
            (state.delivered_per_cycle().to_vec(), state.delivered())
        };
        let expected = run(None);
        let mut probe = StageProbe::new(&params);
        let observed = run(Some(&mut probe));
        prop_assert_eq!(&observed, &expected);
        let metrics = probe.snapshot();
        prop_assert_eq!(metrics.delivered, expected.1);
        prop_assert!(metrics.queue_samples >= metrics.cycles.min(1));
        prop_assert!(metrics.reconciles(), "{:?}", metrics);
    }
}
