//! The flight recorder's contract, property-tested. Three guarantees:
//!
//! 1. **Invariance** — routing with a [`TraceProbe`] attached (alone or
//!    teed with a [`StageProbe`], exactly as `--trace` runs do) yields
//!    outcomes bit-identical to the unprobed engine, across
//!    property-generated shapes, loads, arbiters, and fault masks.
//! 2. **Fidelity** — the recorded events are the run: injects equal the
//!    offered batch, delivers equal the delivered set, and every
//!    delivered packet's hop-by-hop path is a valid stage-by-stage walk
//!    through the engine's own [`CompiledWiring`] — right switch, right
//!    tag bucket, right interstage line, ending at the reported output.
//! 3. **Bounded ring** — a full ring drops *matching* events only, and
//!    counts them exactly: `recorded + dropped` equals the same run's
//!    unbounded event count, and the recorded prefix is identical.

use edn_core::{
    Arbiter, EdnParams, FaultSet, PriorityArbiter, RandomArbiter, RoundRobinArbiter, RouteRequest,
    RoutingEngine, StageProbe, TraceEventKind, TraceFilter, TraceProbe,
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

/// A generous ring: every event of a few cycles fits with room to spare.
fn roomy_capacity(params: &EdnParams, cycles: usize) -> usize {
    (cycles.max(1)) * (params.inputs() as usize) * (params.l() as usize + 3)
}

proptest! {
    /// Scalar passes: routing observed by a `TraceProbe` — alone or teed
    /// behind a `StageProbe` exactly as `--trace` runs route — matches
    /// the unprobed outcome bit-for-bit, and the event stream conserves:
    /// injects = offered, delivers = delivered, and each stage's
    /// blocks + fault drops account for that stage's losses.
    #[test]
    fn scalar_outcomes_are_trace_invariant(
        params in params_strategy(),
        kind in 0u8..3,
        cycles in 1usize..=3,
        load in 0.1f64..=1.0,
        mode in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (faulty, tee) = (mode & 1 != 0, mode & 2 != 0);
        let faults = FaultSet::random(&params, 0.15, seed ^ 0xFA17);
        let mut plain = RoutingEngine::from_params(params);
        let mut probed = RoutingEngine::from_params(params);
        let mut plain_arbiter = build_arbiter(kind, seed);
        let mut probed_arbiter = build_arbiter(kind, seed);
        let mut stage_probe = StageProbe::new(&params);
        let mut trace = TraceProbe::new(roomy_capacity(&params, cycles), TraceFilter::default());
        let mut offered_total = 0usize;
        let mut delivered_total = 0usize;
        for cycle in 0..cycles {
            let requests = batch(&params, load, cycle_seed(seed, cycle));
            offered_total += requests.len();
            let expected = if faulty {
                plain.route_faulty(&requests, &faults, plain_arbiter.as_mut())
            } else {
                plain.route(&requests, plain_arbiter.as_mut())
            };
            let observed = match (faulty, tee) {
                (true, true) => probed.route_faulty_probed(
                    &requests,
                    &faults,
                    probed_arbiter.as_mut(),
                    &mut (&mut stage_probe, &mut trace),
                ),
                (true, false) => probed.route_faulty_probed(
                    &requests,
                    &faults,
                    probed_arbiter.as_mut(),
                    &mut trace,
                ),
                (false, true) => probed.route_probed(
                    &requests,
                    probed_arbiter.as_mut(),
                    &mut (&mut stage_probe, &mut trace),
                ),
                (false, false) => {
                    probed.route_probed(&requests, probed_arbiter.as_mut(), &mut trace)
                }
            };
            delivered_total += expected.delivered_count();
            prop_assert_eq!(observed, expected, "cycle {} kind {}", cycle, kind);
        }
        prop_assert_eq!(trace.dropped(), 0);
        prop_assert_eq!(trace.cycle(), cycles as u64);
        let count = |kind: TraceEventKind| {
            trace.events().iter().filter(|e| e.kind == kind).count()
        };
        prop_assert_eq!(count(TraceEventKind::Inject), offered_total);
        prop_assert_eq!(count(TraceEventKind::Deliver), delivered_total);
        prop_assert_eq!(
            count(TraceEventKind::Deliver)
                + count(TraceEventKind::Block)
                + count(TraceEventKind::FaultDrop),
            offered_total,
            "every injected request meets exactly one terminal event"
        );
        if !faulty {
            prop_assert_eq!(count(TraceEventKind::FaultDrop), 0);
        }
        if tee {
            // The tee's StageProbe saw the same run: aggregate totals
            // equal the trace's event counts.
            let metrics = stage_probe.snapshot();
            prop_assert_eq!(metrics.offered as usize, offered_total);
            prop_assert_eq!(metrics.delivered as usize, delivered_total);
            prop_assert!(metrics.reconciles(), "{:?}", metrics);
        }
    }

    /// Fidelity: every delivered request's recorded hops form a valid
    /// stage-by-stage walk through the engine's own `CompiledWiring` —
    /// stage `s`'s granted exit belongs to the request's switch and its
    /// tag's bucket, the interstage table maps it to the line the next
    /// hop starts from, and the final crossbar line yields exactly the
    /// delivered output.
    #[test]
    fn delivered_paths_walk_the_compiled_wiring(
        params in params_strategy(),
        kind in 0u8..3,
        load in 0.2f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut engine = RoutingEngine::from_params(params);
        let mut arbiter = build_arbiter(kind, seed);
        let mut trace = TraceProbe::new(roomy_capacity(&params, 1), TraceFilter::default());
        let requests = batch(&params, load, seed);
        let outcome = engine.route_probed(&requests, arbiter.as_mut(), &mut trace);
        let delivered: Vec<(u64, u64)> = outcome.delivered().to_vec();
        prop_assert_eq!(trace.dropped(), 0);
        let wiring = engine.wiring().clone();
        let p = wiring.params();
        for &(source, output) in &delivered {
            let events: Vec<_> = trace
                .events()
                .iter()
                .filter(|e| e.source == source)
                .collect();
            prop_assert_eq!(events[0].kind, TraceEventKind::Inject);
            let tag = events[0].tag;
            let hops: Vec<_> = events
                .iter()
                .filter(|e| e.kind == TraceEventKind::Hop)
                .collect();
            prop_assert_eq!(hops.len() as u64, u64::from(p.l()), "one hop per hyperbar stage");
            let mut line = source;
            for (index, hop) in hops.iter().enumerate() {
                let stage = u32::try_from(index).expect("stage count fits u32") + 1;
                prop_assert_eq!(hop.stage, stage, "hops arrive in stage order");
                let exit = hop.value;
                prop_assert_eq!(
                    exit / (p.b() * p.c()),
                    line / p.a(),
                    "stage {} exit on the request's switch",
                    stage
                );
                prop_assert_eq!(
                    (exit % (p.b() * p.c())) / p.c(),
                    p.tag_digit_for_stage(tag, stage),
                    "stage {} exit inside the tag's bucket",
                    stage
                );
                line = wiring.stage_lut(stage)[exit as usize] as u64;
            }
            let deliver = events.last().expect("delivered source has events");
            prop_assert_eq!(deliver.kind, TraceEventKind::Deliver);
            prop_assert_eq!(
                deliver.value,
                (line / p.c()) * p.c() + p.tag_crossbar_digit(tag),
                "crossbar line + tag digit give the output"
            );
            prop_assert_eq!(deliver.value, output, "trace and outcome agree");
        }
    }

    /// Bounded ring: replaying a run into a tiny ring records exactly the
    /// unbounded stream's prefix and counts every overflow, shape by
    /// shape — and never perturbs the outcome while doing it.
    #[test]
    fn overflow_drops_are_counted_exactly(
        params in params_strategy(),
        kind in 0u8..3,
        capacity in 1usize..=16,
        load in 0.2f64..=1.0,
        seed in any::<u64>(),
    ) {
        let requests = batch(&params, load, seed);
        let mut full_engine = RoutingEngine::from_params(params);
        let mut full_arbiter = build_arbiter(kind, seed);
        let mut full = TraceProbe::new(roomy_capacity(&params, 1), TraceFilter::default());
        let unbounded = full_engine.route_probed(&requests, full_arbiter.as_mut(), &mut full);
        prop_assert_eq!(full.dropped(), 0);
        let mut tiny_engine = RoutingEngine::from_params(params);
        let mut tiny_arbiter = build_arbiter(kind, seed);
        let mut tiny = TraceProbe::new(capacity, TraceFilter::default());
        let bounded = tiny_engine.route_probed(&requests, tiny_arbiter.as_mut(), &mut tiny);
        prop_assert_eq!(bounded, unbounded, "a full ring never perturbs routing");
        let total = full.events().len();
        let kept = total.min(capacity);
        prop_assert_eq!(tiny.events().len(), kept);
        prop_assert_eq!(tiny.dropped() as usize, total - kept);
        prop_assert_eq!(tiny.events(), &full.events()[..kept]);
    }

    /// Filtered rings record exactly the matching subsequence of the
    /// unfiltered stream.
    #[test]
    fn filters_select_the_exact_subsequence(
        params in params_strategy(),
        kind in 0u8..3,
        load in 0.2f64..=1.0,
        seed in any::<u64>(),
    ) {
        let requests = batch(&params, load, seed);
        prop_assume!(!requests.is_empty());
        let run = |filter: TraceFilter| -> TraceProbe {
            let mut engine = RoutingEngine::from_params(params);
            let mut arbiter = build_arbiter(kind, seed);
            let mut trace = TraceProbe::new(roomy_capacity(&params, 1), filter);
            engine.route_probed(&requests, arbiter.as_mut(), &mut trace);
            trace
        };
        let everything = run(TraceFilter::default());
        let source = requests[requests.len() / 2].source;
        let filtered = run(TraceFilter::parse(&format!("source={source}")).unwrap());
        let expected: Vec<_> = everything
            .events()
            .iter()
            .filter(|e| e.source == source)
            .copied()
            .collect();
        prop_assert_eq!(filtered.events(), expected.as_slice());
        prop_assert_eq!(filtered.dropped(), 0);
    }
}
