//! Integration tests pinning every numeric anchor the paper states,
//! end-to-end across the workspace crates.

use edn::analytic::mimd::resubmission_fixed_point;
use edn::analytic::pa::{probability_of_acceptance, stage_rates};
use edn::analytic::simd::RaEdnModel;
use edn::core::cost::{
    crosspoint_cost, crosspoint_cost_closed_form, wire_cost, wire_cost_closed_form,
};
use edn::core::NetworkClass;
use edn::sim::{ArbiterKind, MimdSystem, RaEdnSystem, ResubmitPolicy};
use edn::{
    EdnParams, EdnTopology, Hyperbar, PriorityArbiter, RetirementOrder, RouteRequest, RoutingEngine,
};

/// Section 5.1: "In this system PA(1) = .544."
#[test]
fn section5_pa_anchor() {
    let params = EdnParams::ra_edn(16, 4, 2).unwrap();
    let pa = probability_of_acceptance(&params, 1.0);
    assert!((pa - 0.544).abs() < 1e-3, "PA(1) = {pa}");
}

/// Section 5.1: "Solving the recursion above gives a J of 5. Thus the
/// expected time to route an average permutation will be about
/// 16/.544 + 5 = 34.41 network cycles."
#[test]
fn section5_timing_anchor() {
    let model = RaEdnModel::new(16, 4, 2, 16).unwrap();
    let timing = model.expected_permutation_cycles();
    assert_eq!(timing.tail_cycles, 5);
    assert!(
        (timing.total_cycles - 34.41).abs() < 0.05,
        "E = {}",
        timing.total_cycles
    );
}

/// Conclusion: "The router network of the MasPar MP-1 computer with 16K
/// PEs can [be] shown to be logically equivalent to the RA-EDN(16,4,2,16)."
#[test]
fn maspar_router_shape() {
    let model = RaEdnModel::new(16, 4, 2, 16).unwrap();
    assert_eq!(model.processors(), 16 * 1024);
    assert_eq!(model.ports(), 1024);
    assert_eq!(*model.params(), EdnParams::new(64, 16, 4, 2).unwrap());
}

/// Figure 2: H(8 -> 4 x 2) with digits [3,2,3,1,2,2,0,3] discards 5 and 7.
#[test]
fn figure2_rejections() {
    let switch = Hyperbar::new(8, 4, 2).unwrap();
    let requests: Vec<Option<u64>> = [3u64, 2, 3, 1, 2, 2, 0, 3]
        .iter()
        .map(|&d| Some(d))
        .collect();
    let outcome = switch
        .route(&requests, &mut PriorityArbiter::new())
        .unwrap();
    let rejected: Vec<usize> = outcome.rejected_inputs(&requests).collect();
    assert_eq!(rejected, [5, 7]);
}

/// Section 2: "An EDN(a,b,1,1) is an a x b crossbar. An EDN(a,b,1,l) is an
/// a^l x b^l delta network."
#[test]
fn degenerate_classes() {
    assert_eq!(
        EdnParams::new(8, 4, 1, 1).unwrap().class(),
        NetworkClass::Crossbar
    );
    let delta = EdnParams::new(8, 4, 1, 3).unwrap();
    assert_eq!(delta.class(), NetworkClass::Delta);
    assert_eq!(delta.inputs(), 8 * 8 * 8);
    assert_eq!(delta.outputs(), 4 * 4 * 4);
    // "In both of these cases ... there is a unique path from any input to
    // any output."
    assert_eq!(delta.path_count(), 1);
}

/// Figures 5-6: the identity permutation fails on the unmodified
/// EDN(64,16,4,2) (64 of 1024 in one pass) and routes completely after
/// the Corollary-2 modification.
#[test]
fn figures5_6_identity() {
    let params = EdnParams::new(64, 16, 4, 2).unwrap();
    let mut engine = RoutingEngine::from_params(params);
    let identity: Vec<RouteRequest> = (0..params.inputs())
        .map(|s| RouteRequest::new(s, s))
        .collect();

    let plain = engine.route(&identity, &mut PriorityArbiter::new());
    assert_eq!(plain.delivered_count(), 64);

    let order = RetirementOrder::rotate_left(params.output_bits(), params.log2_b()).unwrap();
    let fixed = engine.route_reordered(&identity, &order, &mut PriorityArbiter::new());
    assert_eq!(fixed.delivered_count(), 1024);
    assert!(fixed.delivered().iter().all(|&(s, o)| s == o));
}

/// Section 3.1 (Eqs. 2-3): closed forms equal the stage-by-stage sums for
/// both the geometric (a/c != b) and square (a/c == b) cases.
#[test]
fn cost_equations() {
    for (a, b, c, l) in [
        (8u64, 2u64, 4u64, 3u32),
        (16, 4, 4, 4),
        (64, 16, 4, 2),
        (8, 4, 4, 3),
        (16, 2, 4, 3),
        (8, 8, 1, 5),
    ] {
        let p = EdnParams::new(a, b, c, l).unwrap();
        assert_eq!(crosspoint_cost(&p), crosspoint_cost_closed_form(&p), "{p}");
        assert_eq!(wire_cost(&p), wire_cost_closed_form(&p), "{p}");
    }
}

/// Section 2 structure: an EDN(a,b,c,l) has (a/c)^l c inputs, b^l c
/// outputs, (a/c)^(l-i) b^(i-1) hyperbars in stage i, and b^l crossbars.
#[test]
fn structural_counts() {
    let p = EdnParams::new(16, 4, 4, 2).unwrap();
    assert_eq!(p.inputs(), 64);
    assert_eq!(p.outputs(), 64);
    assert_eq!(p.hyperbars_in_stage(1), 4);
    assert_eq!(p.hyperbars_in_stage(2), 4);
    assert_eq!(p.crossbar_count(), 16);
    // Figure 4: "All thick lines consist of 4 parallel wires."
    assert_eq!(p.wires_after_stage(1), 64);
}

/// Stage-rate chain for the Section 5 example, independently derived:
/// r1 = 0.810853, r2 = 0.712516, r_final = 0.543738.
#[test]
fn section5_stage_chain() {
    let rates = stage_rates(&EdnParams::new(64, 16, 4, 2).unwrap(), 1.0);
    assert!((rates[1] - 0.810853).abs() < 1e-6);
    assert!((rates[2] - 0.712516).abs() < 1e-6);
    assert!((rates[3] - 0.543738).abs() < 1e-6);
}

/// Section 5.1 measured end-to-end through the resident session path:
/// the mean completion time of a random permutation on the MasPar-shaped
/// `RA-EDN(16,4,2,16)` stays in the band of the paper's ~34.4-cycle
/// prediction. `route_permutation_scheduled` is one cluster-session call
/// per run since the session refactor, so this anchors the new path
/// against the paper, not just against the legacy loop.
#[test]
fn section5_session_completion_anchor() {
    let mut system = RaEdnSystem::new(16, 4, 2, 16, ArbiterKind::Random, 0x34A4).unwrap();
    assert_eq!(system.processors(), 16384);
    let (mean, _se) = system.measure_mean_cycles(4);
    let predicted = RaEdnModel::new(16, 4, 2, 16)
        .unwrap()
        .expected_permutation_cycles()
        .total_cycles;
    assert!(
        (predicted - 34.41).abs() < 0.05,
        "model drifted: {predicted}"
    );
    assert!(
        (mean - predicted).abs() < 10.0,
        "session path measured {mean} cycles vs paper's ~{predicted}"
    );
}

/// The TAB-SIMVAL agreement, asserted: the Section 4 resubmission fixed
/// point and the session-backed `MimdSystem::run` (one `RouteSession`
/// call per run) agree on acceptance, effective rate, and waiting
/// fraction under the model's own redraw assumption.
#[test]
fn tab_sim_vs_analytic_fixed_point_agreement() {
    let params = EdnParams::new(16, 4, 4, 3).unwrap(); // 256 processors
    for rate in [0.5, 1.0] {
        let model = resubmission_fixed_point(&params, rate, 1e-12, 100_000);
        let mut system = MimdSystem::new(
            params,
            rate,
            ArbiterKind::Random,
            ResubmitPolicy::Redraw,
            0x51D5,
        )
        .unwrap();
        let report = system.run(300, 600);
        assert!(
            (report.acceptance - model.pa_prime).abs() < 0.04,
            "r={rate}: measured PA' {} vs fixed point {}",
            report.acceptance,
            model.pa_prime
        );
        assert!(
            (report.effective_rate - model.effective_rate).abs() < 0.04,
            "r={rate}: measured r' {} vs fixed point {}",
            report.effective_rate,
            model.effective_rate
        );
        assert!(
            (report.waiting_fraction - model.q_waiting).abs() < 0.05,
            "r={rate}: measured qW {} vs fixed point {}",
            report.waiting_fraction,
            model.q_waiting
        );
    }
}

/// Theorem 2: c^l paths, all arriving at the destination.
#[test]
fn theorem2_multipath() {
    let params = EdnParams::new(16, 4, 4, 2).unwrap();
    let topology = EdnTopology::new(params);
    let paths = topology.enumerate_paths(11, 37, 1 << 20).unwrap();
    assert_eq!(paths.len() as u128, params.path_count());
    assert!(paths.iter().all(|p| p.output() == 37));
}
