//! Property-based tests (proptest) for the core invariants claimed by the
//! paper: gamma bijectivity, digit round-trips, hyperbar capacity
//! discipline, Theorem-1 delivery, Theorem-2 multiplicity, and the cost
//! closed forms.

use edn_core::{
    cost, DestTag, EdnParams, EdnTopology, Gamma, Hyperbar, PriorityArbiter, RandomArbiter,
    RetirementOrder, RouteRequest, RoutingEngine, SourceAddress,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: valid EDN parameters with label widths small enough to test
/// exhaustively-ish.
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

proptest! {
    #[test]
    fn gamma_is_a_bijection_and_inverse_round_trips(
        n in 1u32..=14,
        j in 0u32..=14,
        k in 0u32..=20,
        samples in vec(0u64..(1 << 14), 1..50),
    ) {
        prop_assume!(j <= n);
        let gamma = Gamma::new(j, k, n).unwrap();
        let inverse = gamma.inverse();
        for &raw in &samples {
            let y = raw & ((1u64 << n) - 1);
            let z = gamma.apply(y);
            prop_assert!(z < (1u64 << n));
            prop_assert_eq!(inverse.apply(z), y);
            // Fixed bits never move.
            prop_assert_eq!(z & ((1u64 << j) - 1), y & ((1u64 << j) - 1));
        }
    }

    #[test]
    fn gamma_composition_matches_pointwise(
        n in 1u32..=12,
        j in 0u32..=12,
        k1 in 0u32..=15,
        k2 in 0u32..=15,
    ) {
        prop_assume!(j <= n);
        let g1 = Gamma::new(j, k1, n).unwrap();
        let g2 = Gamma::new(j, k2, n).unwrap();
        let composed = g1.then(&g2).unwrap();
        for y in 0..(1u64 << n).min(256) {
            prop_assert_eq!(composed.apply(y), g2.apply(g1.apply(y)));
        }
    }

    #[test]
    fn address_round_trips(params in params_strategy(), seed in any::<u64>()) {
        let input = seed % params.inputs();
        let output = seed % params.outputs();
        let s = SourceAddress::from_input_index(&params, input).unwrap();
        prop_assert_eq!(s.to_input_index(), input);
        let d = DestTag::from_output_index(&params, output).unwrap();
        prop_assert_eq!(d.to_output_index(), output);
        // Digit views agree with the bit-twiddling helpers.
        for stage in 1..=params.l() {
            prop_assert_eq!(
                d.digit_for_stage(stage),
                params.tag_digit_for_stage(output, stage)
            );
        }
    }

    #[test]
    fn retirement_orders_round_trip(
        mapping in Just(()).prop_perturb(|_, mut rng| {
            let n = (rng.random::<u32>() % 12 + 1) as usize;
            // edn-lint: allow(cast-audit) -- n <= 12 by construction
            let mut map: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                let pick = (rng.random::<u64>() % (i as u64 + 1)) as usize;
                map.swap(i, pick);
            }
            map
        }),
        samples in vec(any::<u64>(), 1..20),
    ) {
        // edn-lint: allow(cast-audit) -- mapping is at most 12 entries
        let bits = mapping.len() as u32;
        let order = RetirementOrder::from_bit_mapping(mapping).unwrap();
        let inverse = order.inverse();
        let mask = (1u64 << bits) - 1;
        for &raw in &samples {
            let tag = raw & mask;
            prop_assert_eq!(inverse.apply(order.apply(tag)), tag);
            prop_assert_eq!(order.apply(inverse.apply(tag)), tag);
        }
    }

    #[test]
    fn hyperbar_respects_capacity_and_conserves(
        log_a in 1u32..=6,
        log_b in 0u32..=4,
        log_c in 0u32..=3,
        seed in any::<u64>(),
        occupancy in 0.0f64..=1.0,
    ) {
        let (a, b, c) = (1u64 << log_a, 1u64 << log_b, 1u64 << log_c);
        let switch = Hyperbar::new(a, b, c).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<Option<u64>> = (0..a)
            .map(|_| {
                if rand::Rng::gen_bool(&mut rng, occupancy) {
                    Some(rand::Rng::gen_range(&mut rng, 0..b))
                } else {
                    None
                }
            })
            .collect();
        let outcome = switch.route(&requests, &mut PriorityArbiter::new()).unwrap();
        // Conservation.
        let rejected = outcome.rejected_inputs(&requests).count();
        prop_assert_eq!(outcome.accepted() + rejected, outcome.offered());
        // Capacity discipline per bucket, and wires stay in-bucket.
        let mut per_bucket = vec![0u64; b as usize];
        for (input, granted) in outcome.assignments().iter().enumerate() {
            if let Some(wire) = granted {
                let bucket = wire / c;
                prop_assert_eq!(Some(bucket), requests[input]);
                per_bucket[bucket as usize] += 1;
            }
        }
        for &count in &per_bucket {
            prop_assert!(count <= c);
        }
        // Priority arbitration accepts a prefix of each bucket's contenders.
        for bucket in 0..b {
            let contenders: Vec<usize> = requests
                .iter()
                .enumerate()
                .filter(|(_, r)| **r == Some(bucket))
                .map(|(i, _)| i)
                .collect();
            let winners: Vec<usize> = contenders
                .iter()
                .copied()
                .filter(|&i| outcome.assignments()[i].is_some())
                .collect();
            let expected: Vec<usize> =
                contenders.iter().copied().take(c as usize).collect();
            prop_assert_eq!(winners, expected);
        }
    }

    #[test]
    fn theorem1_any_choice_vector_delivers(
        params in params_strategy(),
        seed in any::<u64>(),
    ) {
        let topology = EdnTopology::new(params);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        for _ in 0..16 {
            let source = next() % params.inputs();
            let tag = next() % params.outputs();
            let choices: Vec<u64> = (0..params.l()).map(|_| next() % params.c()).collect();
            let trace = topology.trace_path(source, tag, &choices).unwrap();
            prop_assert_eq!(trace.output(), tag);
            // And the closed form matches at every stage.
            for stage in 1..=params.l() {
                let closed = topology
                    .lemma1_line_after_stage(source, tag, stage, choices[(stage - 1) as usize])
                    .unwrap();
                prop_assert_eq!(trace.exit_lines()[(stage - 1) as usize], closed);
            }
        }
    }

    #[test]
    fn theorem2_distinct_path_count(params in params_strategy(), seed in any::<u64>()) {
        prop_assume!(params.path_count() <= 256);
        let topology = EdnTopology::new(params);
        let source = seed % params.inputs();
        let tag = seed % params.outputs();
        let paths = topology.enumerate_paths(source, tag, 256).unwrap();
        prop_assert_eq!(paths.len() as u128, params.path_count());
        let mut signatures: Vec<Vec<u64>> =
            paths.iter().map(|p| p.exit_lines().to_vec()).collect();
        signatures.sort();
        signatures.dedup();
        prop_assert_eq!(signatures.len() as u128, params.path_count());
    }

    #[test]
    fn route_batch_invariants(params in params_strategy(), seed in any::<u64>()) {
        let mut engine = RoutingEngine::from_params(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut requests = Vec::new();
        for source in 0..params.inputs() {
            if rand::Rng::gen_bool(&mut rng, 0.6) {
                requests.push(RouteRequest::new(
                    source,
                    rand::Rng::gen_range(&mut rng, 0..params.outputs()),
                ));
            }
        }
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(seed ^ 1));
        let outcome = engine.route(&requests, &mut arbiter);
        // Conservation.
        prop_assert_eq!(
            outcome.delivered_count() + outcome.blocked().len(),
            outcome.offered()
        );
        // Monotone survivors.
        for window in outcome.survivors().windows(2) {
            prop_assert!(window[0] >= window[1]);
        }
        // Delivery correctness and output uniqueness.
        let lookup: std::collections::BTreeMap<u64, u64> =
            requests.iter().map(|r| (r.source, r.tag)).collect();
        let mut outputs = Vec::new();
        for &(source, output) in outcome.delivered() {
            prop_assert_eq!(lookup[&source], output);
            outputs.push(output);
        }
        let count = outputs.len();
        outputs.sort_unstable();
        outputs.dedup();
        prop_assert_eq!(outputs.len(), count);
    }

    #[test]
    fn reordered_routing_is_equivalent_to_plain_on_rotated_tags(
        params in params_strategy(),
        rotation in 0u32..16,
        seed in any::<u64>(),
    ) {
        let mut engine = RoutingEngine::from_params(params);
        let bits = params.output_bits();
        let order = RetirementOrder::rotate_left(bits, rotation % bits.max(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut requests = Vec::new();
        for source in 0..params.inputs().min(64) {
            requests.push(RouteRequest::new(
                source,
                rand::Rng::gen_range(&mut rng, 0..params.outputs()),
            ));
        }
        let outcome = engine.route_reordered(&requests, &order, &mut PriorityArbiter::new());
        let lookup: std::collections::BTreeMap<u64, u64> =
            requests.iter().map(|r| (r.source, r.tag)).collect();
        for &(source, output) in outcome.delivered() {
            prop_assert_eq!(lookup[&source], output);
        }
    }

    #[test]
    fn cost_closed_forms_equal_exact_sums(params in params_strategy()) {
        prop_assert_eq!(
            cost::crosspoint_cost(&params),
            cost::crosspoint_cost_closed_form(&params)
        );
        prop_assert_eq!(cost::wire_cost(&params), cost::wire_cost_closed_form(&params));
    }

    #[test]
    fn wire_conservation_between_stages(params in params_strategy()) {
        for stage in 1..=params.l() {
            prop_assert_eq!(
                params.wires_after_stage(stage),
                params.wires_before_stage(stage + 1)
            );
            // Interstage permutation acts on exactly this many labels.
            let topology = EdnTopology::new(params);
            prop_assert_eq!(
                topology.interstage_gamma(stage).domain_size(),
                params.wires_after_stage(stage)
            );
        }
    }
}
