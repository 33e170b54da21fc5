//! The session layer's headline contract, property-tested: a
//! [`RouteSession`] driven by `run_to_completion` / `step_n` is
//! **bit-identical** — delivered set, per-cycle counts, total cycles — to
//! the legacy caller-driven loop it replaced, across property-generated
//! shapes, loads, resubmission policies, cluster schedules, and fault
//! masks. The oracle loops below are the pre-session arrangement: the
//! caller owns the waiting population and round-trips through
//! [`RoutingEngine::route`] once per cycle.

use edn_core::{
    ClusterSchedule, EdnParams, FaultSet, NullProbe, RandomArbiter, Resubmit, RouteRequest,
    RoutingEngine, SessionState,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Strategy: valid EDN parameters small enough to route to completion
/// many times per property case.
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

/// One caller-driven resident run: the pre-session loop. `steps` bounds
/// the cycle count (`None` = run until everything is delivered); returns
/// (per-cycle delivered counts, delivered-by-source mask).
#[allow(clippy::too_many_arguments)]
fn resident_oracle(
    params: &EdnParams,
    requests: &[RouteRequest],
    redraw: bool,
    faults: Option<&FaultSet>,
    rng_seed: u64,
    arbiter_seed: u64,
    steps: Option<u64>,
    limit: u64,
) -> (Vec<u64>, Vec<bool>) {
    let mut engine = RoutingEngine::from_params(*params);
    let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(arbiter_seed));
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut waiting: Vec<RouteRequest> = requests.to_vec();
    let mut delivered_mask = vec![false; params.inputs() as usize];
    let mut per_cycle = Vec::new();
    let mut submit = Vec::new();
    let mut cycle = 0u64;
    loop {
        let done = match steps {
            Some(steps) => cycle == steps,
            None => waiting.is_empty(),
        };
        if done {
            break;
        }
        assert!(cycle < limit, "oracle made no forward progress");
        submit.clear();
        for entry in &mut waiting {
            if redraw {
                entry.tag = rng.gen_range(0..params.outputs());
            }
            submit.push(*entry);
        }
        let outcome = engine.route_with(&submit, faults, &mut arbiter, &mut NullProbe);
        for &(source, _) in outcome.delivered() {
            delivered_mask[source as usize] = true;
        }
        per_cycle.push(outcome.delivered_count() as u64);
        waiting.retain(|r| !delivered_mask[r.source as usize]);
        cycle += 1;
    }
    (per_cycle, delivered_mask)
}

/// One caller-driven cluster drain: the pre-session RA-EDN loop, with
/// the original claim-set bookkeeping (now a `BTreeSet` so the
/// oracle itself is iteration-order deterministic).
fn cluster_oracle(
    params: &EdnParams,
    messages: &[(u64, u64)],
    schedule: ClusterSchedule,
    rng_seed: u64,
    arbiter_seed: u64,
    limit: u64,
) -> Vec<u64> {
    let ports = params.inputs();
    let mut queues: Vec<Vec<u64>> = (0..ports).map(|_| Vec::new()).collect();
    for &(cluster, tag) in messages {
        queues[cluster as usize].push(tag);
    }
    let mut engine = RoutingEngine::from_params(*params);
    let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(arbiter_seed));
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut remaining = messages.len() as u64;
    let mut selected = vec![0usize; ports as usize];
    let mut claimed: BTreeSet<u64> = BTreeSet::new();
    let mut per_cycle = Vec::new();
    let mut submit = Vec::new();
    while remaining > 0 {
        let cycle = per_cycle.len() as u64;
        assert!(cycle < limit, "oracle made no forward progress");
        submit.clear();
        match schedule {
            ClusterSchedule::Random => {
                for (cluster, queue) in queues.iter().enumerate() {
                    if queue.is_empty() {
                        continue;
                    }
                    let pick = rng.gen_range(0..queue.len());
                    selected[cluster] = pick;
                    submit.push(RouteRequest::new(cluster as u64, queue[pick]));
                }
            }
            ClusterSchedule::GreedyDistinct => {
                claimed.clear();
                let start = (cycle % ports) as usize;
                for offset in 0..ports as usize {
                    let cluster = (start + offset) % ports as usize;
                    let queue = &queues[cluster];
                    if queue.is_empty() {
                        continue;
                    }
                    let pick = queue
                        .iter()
                        .position(|tag| !claimed.contains(tag))
                        .unwrap_or_else(|| rng.gen_range(0..queue.len()));
                    selected[cluster] = pick;
                    claimed.insert(queue[pick]);
                    submit.push(RouteRequest::new(cluster as u64, queue[pick]));
                }
            }
        }
        let outcome = engine.route(&submit, &mut arbiter);
        let mut delivered = 0u64;
        for &(cluster, _) in outcome.delivered() {
            queues[cluster as usize].swap_remove(selected[cluster as usize]);
            delivered += 1;
        }
        remaining -= delivered;
        per_cycle.push(delivered);
    }
    per_cycle
}

proptest! {
    #[test]
    fn resident_completion_matches_caller_driven_loop(
        params in params_strategy(),
        load in 0.2f64..=1.0,
        redraw in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let requests = batch(&params, load, seed);
        let limit = (params.inputs() * 64).max(4096);
        let (oracle_counts, oracle_mask) = resident_oracle(
            &params, &requests, redraw, None, seed ^ 0xD1CE, seed ^ 0xA5B1, None, limit,
        );

        let mut engine = RoutingEngine::from_params(params);
        let mut state = SessionState::new();
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(seed ^ 0xA5B1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let resubmit = if redraw {
            Resubmit::Redraw(&mut rng)
        } else {
            Resubmit::SameTag
        };
        let cycles = engine
            .begin_session(&mut state, &requests, resubmit, &mut arbiter)
            .run_to_completion(limit);

        prop_assert_eq!(cycles, oracle_counts.len() as u64);
        prop_assert_eq!(state.delivered_per_cycle(), oracle_counts.as_slice());
        prop_assert_eq!(state.delivered_mask(), oracle_mask.as_slice());
        prop_assert_eq!(state.delivered(), requests.len() as u64);
    }

    #[test]
    fn faulty_stepping_matches_caller_driven_loop(
        params in params_strategy(),
        load in 0.2f64..=1.0,
        redraw in any::<bool>(),
        fraction in 0.05f64..=0.3,
        steps in 1u64..=32,
        seed in any::<u64>(),
    ) {
        // Fixed-step comparison: under SameTag a fully-faulted bucket can
        // make completion unreachable, so the faulty contract is asserted
        // cycle-by-cycle via step_n rather than run_to_completion.
        let requests = batch(&params, load, seed);
        let faults = FaultSet::random(&params, fraction, seed ^ 0xFA17);
        let (oracle_counts, oracle_mask) = resident_oracle(
            &params, &requests, redraw, Some(&faults), seed ^ 0xD1CE, seed ^ 0xA5B1,
            Some(steps), u64::MAX,
        );

        let mut engine = RoutingEngine::from_params(params);
        let mut state = SessionState::new();
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(seed ^ 0xA5B1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let resubmit = if redraw {
            Resubmit::Redraw(&mut rng)
        } else {
            Resubmit::SameTag
        };
        engine
            .begin_session(&mut state, &requests, resubmit, &mut arbiter)
            .with_faults(&faults)
            .step_n(steps);

        prop_assert_eq!(state.cycles(), steps);
        prop_assert_eq!(state.delivered_per_cycle(), oracle_counts.as_slice());
        prop_assert_eq!(state.delivered_mask(), oracle_mask.as_slice());
    }

    #[test]
    fn cluster_completion_matches_caller_driven_loop(
        params in square_params_strategy(),
        q in 1u64..=3,
        greedy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ports = params.inputs();
        let mut message_rng = StdRng::seed_from_u64(seed ^ 0x9E5A);
        let messages: Vec<(u64, u64)> = (0..ports * q)
            .map(|m| (m / q, message_rng.gen_range(0..params.outputs())))
            .collect();
        let schedule = if greedy {
            ClusterSchedule::GreedyDistinct
        } else {
            ClusterSchedule::Random
        };
        let limit = (ports * q * 64).max(1024);
        let oracle_counts = cluster_oracle(
            &params, &messages, schedule, seed ^ 0xD1CE, seed ^ 0xA5B1, limit,
        );

        let mut engine = RoutingEngine::from_params(params);
        let mut state = SessionState::new();
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(seed ^ 0xA5B1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let cycles = engine
            .begin_cluster_session(
                &mut state,
                ports,
                messages.iter().copied(),
                schedule,
                &mut rng,
                &mut arbiter,
            )
            .run_to_completion(limit);

        prop_assert_eq!(cycles, oracle_counts.len() as u64);
        prop_assert_eq!(state.delivered_per_cycle(), oracle_counts.as_slice());
        prop_assert_eq!(state.delivered(), ports * q);
    }
}
