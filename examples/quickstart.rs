//! Quickstart: build an Expanded Delta Network, route traffic through it,
//! and compare what you measured with what the paper's model predicts.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use edn::analytic::pa::probability_of_acceptance;
use edn::core::EdnError;
use edn::traffic::Permutation;
use edn::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), EdnError> {
    // 1. Describe the network: EDN(a, b, c, l) = l stages of H(a -> b x c)
    //    hyperbars plus a final stage of c x c crossbars. This one has 64
    //    ports and 16 distinct paths between any input/output pair.
    let params = EdnParams::new(16, 4, 4, 2)?;
    println!("network: {params}");
    println!(
        "  inputs = {}, outputs = {}",
        params.inputs(),
        params.outputs()
    );
    println!("  paths per pair = c^l = {}", params.path_count());

    // 2. Wire it up. A RoutingEngine is built once and reuses every
    //    per-cycle buffer, so repeated routing is allocation-free (this is
    //    what the simulators in `edn::sim` do).
    let mut engine = RoutingEngine::from_params(params);

    // 3. Any single message always reaches its destination (Theorem 1).
    let trace = engine.topology().trace_path(5, 42, &[0, 0])?;
    println!(
        "\nTheorem 1: input 5 -> output {} via lines {:?}",
        trace.output(),
        trace.exit_lines()
    );

    // 4. Route a full random permutation in one circuit-switched cycle.
    let mut rng = StdRng::seed_from_u64(2024);
    let permutation = Permutation::random(params.inputs(), &mut rng);
    let requests: Vec<RouteRequest> = permutation.to_requests();
    let outcome = engine.route(&requests, &mut PriorityArbiter::new());
    println!(
        "\nrandom permutation: {} of {} delivered in one pass (acceptance {:.3})",
        outcome.delivered_count(),
        outcome.offered(),
        outcome.acceptance_rate()
    );

    // 5. Compare with the paper's analytic prediction for uniform traffic.
    let pa = probability_of_acceptance(&params, 1.0);
    println!("Eq. 4 predicts PA(1) = {pa:.3} under uniform full load");

    // 6. Every delivered message really is where the permutation sent it.
    for &(source, output) in outcome.delivered() {
        assert_eq!(output, permutation.apply(source));
    }
    println!("\nall delivered messages verified at their destinations");

    // 7. Keep routing through the same engine, one cycle per call.
    let mut arbiter = PriorityArbiter::new();
    let mut permutation = permutation;
    let mut batch = requests;
    let mut delivered_total = 0usize;
    let cycles = 1000;
    for _ in 0..cycles {
        permutation.randomize_in_place(&mut rng);
        permutation.fill_requests(&mut batch);
        delivered_total += engine.route(&batch, &mut arbiter).delivered_count();
    }
    println!(
        "engine: {cycles} random permutations routed, mean acceptance {:.3}",
        delivered_total as f64 / (cycles * batch.len()) as f64
    );
    Ok(())
}
