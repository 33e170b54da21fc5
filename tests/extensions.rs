//! Integration tests for the extension features: fault tolerance,
//! scheduling, and design solvers, exercised across crates.

use edn::analytic::design::{cheapest_meeting, deepest_at_acceptance};
use edn::analytic::pa::probability_of_acceptance;
use edn::core::{route_one_with_faults, FaultRouting, FaultSet, NullProbe};
use edn::sim::{ArbiterKind, RaEdnSystem, Schedule};
use edn::traffic::Permutation;
use edn::{EdnParams, EdnTopology, PriorityArbiter, RouteRequest, RoutingEngine};

#[test]
fn multipath_degrades_gracefully_delta_does_not() {
    // At equal ports and equal fault rate, the EDN's delivered fraction
    // falls smoothly while the delta's collapses with severed pairs.
    let edn = EdnParams::new(16, 4, 4, 3).unwrap();
    let delta = EdnParams::new(4, 4, 1, 4).unwrap();
    let requests: Vec<RouteRequest> = (0..256u64)
        .map(|s| RouteRequest::new(s, (s * 29 + 5) % 256))
        .collect();
    let delivered = |params: &EdnParams, faults: &FaultSet| {
        RoutingEngine::from_params(*params)
            .route_with(
                &requests,
                Some(faults),
                &mut PriorityArbiter::new(),
                &mut NullProbe,
            )
            .delivered_count() as f64
    };
    let healthy_edn = delivered(&edn, &FaultSet::none(&edn));
    let healthy_delta = delivered(&delta, &FaultSet::none(&delta));
    let faulty_edn = delivered(&edn, &FaultSet::random(&edn, 0.1, 3));
    let faulty_delta = delivered(&delta, &FaultSet::random(&delta, 0.1, 3));

    let edn_retained = faulty_edn / healthy_edn;
    let delta_retained = faulty_delta / healthy_delta;
    assert!(
        edn_retained > delta_retained,
        "EDN retained {edn_retained:.3}, delta {delta_retained:.3}"
    );
}

#[test]
fn fault_connectivity_matches_batch_routing_reachability() {
    // If route_one_with_faults says a pair is severed, a single-request
    // batch must also fail, and vice versa.
    let topology = EdnTopology::new(EdnParams::new(8, 4, 2, 3).unwrap());
    let mut engine = RoutingEngine::new(topology.clone());
    let faults = FaultSet::random(topology.params(), 0.15, 77);
    for i in 0..200u64 {
        let source = (i * 37) % topology.params().inputs();
        let tag = (i * 53 + 11) % topology.params().outputs();
        let connected = matches!(
            route_one_with_faults(&topology, &faults, source, tag).unwrap(),
            FaultRouting::Delivered(_)
        );
        let outcome = engine.route_with(
            &[RouteRequest::new(source, tag)],
            Some(&faults),
            &mut PriorityArbiter::new(),
            &mut NullProbe,
        );
        assert_eq!(
            connected,
            outcome.delivered_count() == 1,
            "S={source} D={tag}: connectivity and routing disagree"
        );
    }
}

#[test]
fn greedy_schedule_beats_random_on_the_maspar_shape() {
    let mut random = RaEdnSystem::new(16, 4, 2, 16, ArbiterKind::Random, 42).unwrap();
    let mut greedy = RaEdnSystem::new(16, 4, 2, 16, ArbiterKind::Random, 42).unwrap();
    let (t_random, _) = random.measure_mean_cycles_scheduled(3, Schedule::Random);
    let (t_greedy, _) = greedy.measure_mean_cycles_scheduled(3, Schedule::GreedyDistinct);
    assert!(
        t_greedy < t_random,
        "greedy {t_greedy} should beat random {t_random} at 16K PEs"
    );
}

#[test]
fn schedules_agree_on_total_delivery() {
    let n = 4 * 2 * 2 * 2; // RA-EDN(2,2,2,2): 8 ports? compute: p = 2^2*2 = 8, q = 2 -> 16 PEs
    let mut system = RaEdnSystem::new(2, 2, 2, 2, ArbiterKind::Random, 5).unwrap();
    assert_eq!(system.processors(), 16);
    let perm = Permutation::random(
        system.processors(),
        &mut rand::rngs::mock::StepRng::new(7, 11),
    );
    let _ = n;
    for schedule in [Schedule::Random, Schedule::GreedyDistinct] {
        let run = system.route_permutation_scheduled(&perm, schedule);
        assert_eq!(
            run.delivered_per_cycle.iter().sum::<u64>(),
            16,
            "{schedule:?}"
        );
    }
}

#[test]
fn design_solver_agrees_with_direct_model_evaluation() {
    let point = deepest_at_acceptance(8, 2, 0.45)
        .unwrap()
        .expect("feasible");
    assert!((point.pa_full_load - probability_of_acceptance(&point.params, 1.0)).abs() < 1e-12);
    // The paper's performance/cost argument: among candidates at >= 1024
    // ports and PA >= 0.4, the cheapest is never the crossbar-heaviest
    // family (io = max) — larger switches cost quadratically.
    let best = cheapest_meeting(16, 1024, 0.4).expect("feasible");
    assert!(best.ports >= 1024);
    assert!(best.pa_full_load >= 0.4);
}
