//! Corollary 2 in action: making `EDN(64,16,4,2)` route the identity.
//!
//! The paper's Figures 5-6 story: the identity permutation is the *worst*
//! workload for this network — all 64 sources of each first-stage
//! hyperbar address the same capacity-4 bucket, so 94% of messages die at
//! stage 1. Retiring the tag bits in a different order (rotate left by
//! log2(b) = 4) and compensating with the inverse permutation at the
//! output turns the same identity into a conflict-free workload.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example identity_permutation
//! ```

use edn::core::EdnError;
use edn::{EdnParams, PriorityArbiter, RetirementOrder, RouteRequest, RoutingEngine};

fn main() -> Result<(), EdnError> {
    let params = EdnParams::new(64, 16, 4, 2)?;
    let mut engine = RoutingEngine::from_params(params);
    let identity: Vec<RouteRequest> = (0..params.inputs())
        .map(|s| RouteRequest::new(s, s))
        .collect();

    // Unmodified network (Figure 5).
    let outcome = engine.route(&identity, &mut PriorityArbiter::new());
    println!("unmodified {params} on the identity permutation:");
    println!(
        "  survivors per stage: {:?}  (offered, after stage 1, after stage 2, delivered)",
        outcome.survivors()
    );
    println!(
        "  delivered {} / {} = {:.1}%",
        outcome.delivered_count(),
        outcome.offered(),
        100.0 * outcome.acceptance_rate()
    );

    // Why: every source of first-stage hyperbar k carries tag digit
    // d_1 = k, so 64 requests fight for one capacity-4 bucket.
    let tag_digit = params.tag_digit_for_stage(70, 1); // source/tag 70 sits on hyperbar 1
    println!("  e.g. tag 70 retires digit d_1 = {tag_digit} at stage 1, like all of hyperbar 1\n");

    // Figure 6: reorder retirement + inverse permutation at the output.
    let order = RetirementOrder::rotate_left(params.output_bits(), params.log2_b())?;
    let fixed = engine.route_reordered(&identity, &order, &mut PriorityArbiter::new());
    println!("with bit-rotated retirement and the inverse output stage (Corollary 2):");
    println!("  survivors per stage: {:?}", fixed.survivors());
    println!(
        "  delivered {} / {} = {:.1}%",
        fixed.delivered_count(),
        fixed.offered(),
        100.0 * fixed.acceptance_rate()
    );
    for &(source, output) in fixed.delivered() {
        assert_eq!(source, output, "compensation must restore the identity");
    }
    println!("  every message verified at its original destination");

    println!("\nThe two networks are identical in the average case but differ wildly on");
    println!("specific permutations — exactly the paper's point about Corollary 2.");
    Ok(())
}
