//! Cross-crate routing correctness: the wired fabric versus the paper's
//! closed forms, over randomized workloads.

use edn::traffic::Permutation;
use edn::{
    EdnParams, EdnTopology, PriorityArbiter, RandomArbiter, RetirementOrder, RouteRequest,
    RoutingEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn networks() -> Vec<EdnParams> {
    vec![
        EdnParams::new(16, 4, 4, 2).unwrap(),
        EdnParams::new(8, 4, 2, 3).unwrap(),
        EdnParams::new(64, 16, 4, 2).unwrap(),
        EdnParams::new(8, 8, 1, 2).unwrap(),  // delta
        EdnParams::new(8, 4, 4, 2).unwrap(),  // expansion (rectangular)
        EdnParams::new(16, 2, 4, 3).unwrap(), // concentration (rectangular)
    ]
}

#[test]
fn fabric_trace_equals_lemma1_closed_form_randomized() {
    let mut rng = StdRng::seed_from_u64(0xFAB);
    for params in networks() {
        let topology = EdnTopology::new(params);
        for _ in 0..100 {
            let source = rng.gen_range(0..params.inputs());
            let tag = rng.gen_range(0..params.outputs());
            let choices: Vec<u64> = (0..params.l())
                .map(|_| rng.gen_range(0..params.c()))
                .collect();
            let trace = topology.trace_path(source, tag, &choices).unwrap();
            assert_eq!(trace.output(), tag, "{params}: trace must deliver");
            for stage in 1..=params.l() {
                let closed = topology
                    .lemma1_line_after_stage(source, tag, stage, choices[(stage - 1) as usize])
                    .unwrap();
                assert_eq!(
                    trace.exit_lines()[(stage - 1) as usize],
                    closed,
                    "{params} S={source} D={tag} stage={stage}"
                );
            }
        }
    }
}

#[test]
fn every_delivered_message_lands_on_its_tag() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for params in networks() {
        let mut engine = RoutingEngine::from_params(params);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(1));
        for _ in 0..10 {
            let mut requests: Vec<RouteRequest> = Vec::new();
            for s in 0..params.inputs() {
                if rng.gen_bool(0.7) {
                    requests.push(RouteRequest::new(s, rng.gen_range(0..params.outputs())));
                }
            }
            let outcome = engine.route(&requests, &mut arbiter);
            let lookup: std::collections::HashMap<u64, u64> =
                requests.iter().map(|r| (r.source, r.tag)).collect();
            for &(source, output) in outcome.delivered() {
                assert_eq!(output, lookup[&source], "{params}");
            }
            assert_eq!(
                outcome.delivered_count() + outcome.blocked().len(),
                outcome.offered(),
                "{params}: conservation"
            );
        }
    }
}

#[test]
fn no_output_is_delivered_twice_in_a_cycle() {
    let mut rng = StdRng::seed_from_u64(0xD0);
    for params in networks() {
        let mut engine = RoutingEngine::from_params(params);
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, rng.gen_range(0..params.outputs())))
            .collect();
        let outcome = engine.route(&requests, &mut PriorityArbiter::new());
        let mut outputs: Vec<u64> = outcome.delivered().iter().map(|&(_, o)| o).collect();
        let before = outputs.len();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), before, "{params}: double delivery");
    }
}

#[test]
fn corollary2_reordering_preserves_arbitrary_permutations() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for params in networks().into_iter().filter(|p| p.is_square()) {
        let mut engine = RoutingEngine::from_params(params);
        let bits = params.output_bits();
        for rotation in [1u32, params.log2_b(), bits - 1] {
            let order = RetirementOrder::rotate_left(bits, rotation).unwrap();
            let perm = Permutation::random(params.inputs(), &mut rng);
            let outcome =
                engine.route_reordered(&perm.to_requests(), &order, &mut PriorityArbiter::new());
            for &(source, output) in outcome.delivered() {
                assert_eq!(output, perm.apply(source), "{params} rot={rotation}");
            }
        }
    }
}

#[test]
fn multipass_routing_eventually_completes_any_permutation() {
    let mut rng = StdRng::seed_from_u64(0x9A55);
    for params in networks().into_iter().filter(|p| p.is_square()) {
        let mut engine = RoutingEngine::from_params(params);
        let perm = Permutation::random(params.inputs(), &mut rng);
        let mut remaining = perm.to_requests();
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(3));
        let mut passes = 0u32;
        while !remaining.is_empty() {
            passes += 1;
            assert!(passes <= 10_000, "{params}: livelock");
            let outcome = engine.route(&remaining, &mut arbiter);
            let delivered: std::collections::HashSet<u64> =
                outcome.delivered().iter().map(|&(s, _)| s).collect();
            assert!(
                !delivered.is_empty() || remaining.is_empty(),
                "{params}: a non-empty batch always delivers at least one message"
            );
            remaining.retain(|r| !delivered.contains(&r.source));
        }
    }
}

#[test]
fn structured_permutations_route_fully_on_crossbars_only() {
    // A crossbar (c=1, l=1) routes every permutation in one pass; deeper
    // networks may or may not, but never deliver to a wrong port.
    let xbar = EdnParams::crossbar(64).unwrap();
    let mut engine = RoutingEngine::from_params(xbar);
    for perm in [
        Permutation::identity(64),
        Permutation::bit_reversal(64).unwrap(),
        Permutation::perfect_shuffle(64).unwrap(),
        Permutation::transpose(64).unwrap(),
        Permutation::reversal(64),
    ] {
        let outcome = engine.route(&perm.to_requests(), &mut PriorityArbiter::new());
        assert_eq!(outcome.delivered_count(), 64);
    }
}
