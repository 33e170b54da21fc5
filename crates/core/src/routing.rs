//! One-pass circuit-switched routing of request batches through the fabric.
//!
//! The paper's performance model (Section 3.2) assumes a circuit-switched
//! network with no internal buffering: at the start of a cycle every source
//! presents a destination tag, the tags flow stage by stage, and a request
//! that loses bucket arbitration anywhere is dropped for the rest of the
//! cycle. This module holds its vocabulary: the [`RouteRequest`] a source
//! presents and the [`BatchOutcome`] of a cycle. The cycle itself is
//! [`RoutingEngine::route`](crate::RoutingEngine::route) (and
//! [`RoutingEngine::route_with`](crate::RoutingEngine::route_with) for
//! probes and faults), which reuses every buffer across cycles; the
//! original allocating implementation lives on in [`crate::reference`]
//! as the differential-testing oracle. Higher-level system behaviour
//! (resubmission, clustering, multi-pass permutations) lives in the
//! `edn-sim` crate.

use crate::engine::BatchOutcomeView;

/// One routing request: a source input index and a destination tag.
///
/// For an unmodified network the tag *is* the desired output index; with
/// a [`RetirementOrder`](crate::RetirementOrder) (Corollary 2) the tag is
/// the reordered image of the desired output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteRequest {
    /// Network input carrying the request.
    pub source: u64,
    /// Destination tag presented to the network.
    pub tag: u64,
}

impl RouteRequest {
    /// Creates a request from `source` addressed to `tag`.
    pub fn new(source: u64, tag: u64) -> Self {
        RouteRequest { source, tag }
    }
}

/// Where a blocked request died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// Lost bucket arbitration in hyperbar stage `i` (`1 <= i <= l`).
    HyperbarStage(u32),
    /// Lost output-port arbitration in the final crossbar stage.
    CrossbarOutput,
}

/// The result of routing one batch (one network cycle), owned.
///
/// Produced by [`crate::reference::route_batch`] and by
/// [`BatchOutcomeView::to_outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    delivered: Vec<(u64, u64)>,
    blocked: Vec<(u64, BlockReason)>,
    offered: usize,
    /// `survivors[0]` = offered; `survivors[i]` = requests still alive after
    /// stage `i`; the last entry equals the delivered count.
    survivors: Vec<usize>,
}

impl BatchOutcome {
    /// Assembles an outcome from its parts.
    pub(crate) fn from_parts(
        delivered: Vec<(u64, u64)>,
        blocked: Vec<(u64, BlockReason)>,
        offered: usize,
        survivors: Vec<usize>,
    ) -> Self {
        BatchOutcome {
            delivered,
            blocked,
            offered,
            survivors,
        }
    }

    /// `(source, output)` pairs that completed, sorted by source.
    pub fn delivered(&self) -> &[(u64, u64)] {
        &self.delivered
    }

    /// Number of delivered requests.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// `(source, reason)` pairs that were blocked, sorted by source.
    pub fn blocked(&self) -> &[(u64, BlockReason)] {
        &self.blocked
    }

    /// Number of requests presented this cycle.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Fraction of offered requests delivered; `1.0` for an empty batch.
    pub fn acceptance_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered.len() as f64 / self.offered as f64
        }
    }

    /// Requests alive after each stage: index 0 is the offered count, index
    /// `i` the survivors of stage `i`, the last entry the delivered count.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// Moves this outcome into the view type a
    /// [`CycleDriver`](crate::CycleDriver) absorbs.
    pub(crate) fn into_view(self) -> BatchOutcomeView {
        BatchOutcomeView {
            delivered: self.delivered,
            blocked: self.blocked,
            offered: self.offered,
            survivors: self.survivors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::RetirementOrder;
    use crate::engine::RoutingEngine;
    use crate::hyperbar::{PriorityArbiter, RandomArbiter};
    use crate::params::EdnParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(a: u64, b: u64, c: u64, l: u32) -> RoutingEngine {
        RoutingEngine::from_params(EdnParams::new(a, b, c, l).unwrap())
    }

    #[test]
    fn single_request_always_delivered() {
        let mut t = engine(16, 4, 4, 2);
        let p = *t.params();
        for source in [0u64, 13, 63] {
            for tag in [0u64, 31, 63] {
                let outcome = t.route(
                    &[RouteRequest::new(source, tag)],
                    &mut PriorityArbiter::new(),
                );
                assert_eq!(outcome.delivered(), &[(source, tag)]);
                assert_eq!(outcome.acceptance_rate(), 1.0);
                assert_eq!(outcome.survivors(), &[1, 1, 1, 1]);
                assert_eq!(*t.params(), p);
            }
        }
    }

    #[test]
    fn delivered_messages_arrive_at_their_tags() {
        let mut t = engine(8, 4, 2, 3); // 64 inputs, 128 outputs
        let p = *t.params();
        let requests: Vec<RouteRequest> = (0..p.inputs())
            .map(|s| RouteRequest::new(s, (s * 37 + 5) % p.outputs()))
            .collect();
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(3));
        let outcome = t.route(&requests, &mut arbiter);
        for &(source, output) in outcome.delivered() {
            assert_eq!(output, (source * 37 + 5) % p.outputs());
        }
        // Conservation: every request is delivered or blocked, never both.
        assert_eq!(
            outcome.delivered_count() + outcome.blocked().len(),
            outcome.offered()
        );
    }

    #[test]
    fn no_two_delivered_requests_share_an_output() {
        let mut t = engine(16, 4, 4, 2);
        let p = *t.params();
        // Everyone wants output 5: exactly one can have it.
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, 5)).collect();
        let outcome = t.route(&requests, &mut PriorityArbiter::new());
        assert_eq!(outcome.delivered_count(), 1);
        assert_eq!(outcome.delivered()[0].1, 5);
    }

    #[test]
    fn survivors_are_monotone_nonincreasing() {
        let mut t = engine(8, 2, 4, 3);
        let p = *t.params();
        let requests: Vec<RouteRequest> = (0..p.inputs())
            .map(|s| RouteRequest::new(s, (s * 101 + 17) % p.outputs()))
            .collect();
        let outcome = t.route(&requests, &mut PriorityArbiter::new());
        let survivors = outcome.survivors();
        assert_eq!(survivors.len(), (p.l() + 2) as usize);
        for window in survivors.windows(2) {
            assert!(window[0] >= window[1], "survivors {survivors:?} increased");
        }
    }

    #[test]
    fn crossbar_network_routes_any_permutation_fully() {
        // EDN(8,8,1,1) is an 8x8 crossbar: permutations never block.
        let mut t = engine(8, 8, 1, 1);
        let requests: Vec<RouteRequest> =
            (0..8).map(|s| RouteRequest::new(s, (s + 3) % 8)).collect();
        let outcome = t.route(&requests, &mut PriorityArbiter::new());
        assert_eq!(outcome.delivered_count(), 8);
    }

    #[test]
    fn delta_network_blocks_some_permutations() {
        // A unique-path delta network cannot route all permutations. On
        // this fabric the identity collapses exactly as in Figure 5: every
        // input of a first-stage switch wants the same (capacity-1) bucket.
        let mut t = engine(4, 4, 1, 2); // 16x16 delta
        let p = *t.params();
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, s)).collect();
        let outcome = t.route(&requests, &mut PriorityArbiter::new());
        assert_eq!(
            outcome.delivered_count(),
            4,
            "one survivor per first-stage switch"
        );
    }

    #[test]
    fn figure5_identity_permutation_accepts_only_4_per_first_stage_switch() {
        // Figure 5: EDN(64,16,4,2) cannot route the identity in one pass —
        // each first-stage hyperbar has 64 sources all wanting the same
        // bucket (capacity 4), so exactly 16 * 4 = 64 of 1024 survive.
        let mut t = engine(64, 16, 4, 2);
        let p = *t.params();
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, s)).collect();
        let outcome = t.route(&requests, &mut PriorityArbiter::new());
        assert_eq!(outcome.survivors()[1], 64);
        assert_eq!(outcome.delivered_count(), 64);
        for &(source, output) in outcome.delivered() {
            assert_eq!(source, output);
        }
    }

    #[test]
    fn figure6_reordered_retirement_fixes_identity() {
        // Figure 6: rotate the tag bits left by log2(b) = 4 so stage 1
        // retires s_0's bits; the identity then routes without conflicts.
        let mut t = engine(64, 16, 4, 2);
        let p = *t.params();
        let order = RetirementOrder::rotate_left(p.output_bits(), p.log2_b()).unwrap();
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, s)).collect();
        let outcome = t.route_reordered(&requests, &order, &mut PriorityArbiter::new());
        assert_eq!(outcome.delivered_count(), 1024);
        for &(source, output) in outcome.delivered() {
            assert_eq!(
                source, output,
                "compensated output must equal desired output"
            );
        }
    }

    #[test]
    fn reordered_routing_delivers_to_desired_outputs_generally() {
        let mut t = engine(16, 4, 4, 2);
        let p = *t.params();
        let order = RetirementOrder::rotate_left(p.output_bits(), 3).unwrap();
        let requests: Vec<RouteRequest> = (0..p.inputs())
            .map(|s| RouteRequest::new(s, (s * 11 + 2) % p.outputs()))
            .collect();
        let outcome = t.route_reordered(&requests, &order, &mut PriorityArbiter::new());
        for &(source, output) in outcome.delivered() {
            assert_eq!(output, (source * 11 + 2) % p.outputs());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate request")]
    fn duplicate_sources_panic() {
        let mut t = engine(16, 4, 4, 2);
        t.route(
            &[RouteRequest::new(1, 2), RouteRequest::new(1, 3)],
            &mut PriorityArbiter::new(),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tag_panics() {
        let mut t = engine(16, 4, 4, 2);
        t.route(&[RouteRequest::new(0, 64)], &mut PriorityArbiter::new());
    }

    #[test]
    fn empty_batch_is_trivially_complete() {
        let mut t = engine(16, 4, 4, 2);
        let outcome = t.route(&[], &mut PriorityArbiter::new());
        assert_eq!(outcome.offered(), 0);
        assert_eq!(outcome.acceptance_rate(), 1.0);
    }

    #[test]
    fn block_reasons_point_at_real_stages() {
        let mut t = engine(64, 16, 4, 2);
        let p = *t.params();
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, s)).collect();
        let outcome = t.route(&requests, &mut PriorityArbiter::new());
        for &(_, reason) in outcome.blocked() {
            match reason {
                BlockReason::HyperbarStage(stage) => assert!((1..=p.l()).contains(&stage)),
                BlockReason::CrossbarOutput => {}
            }
        }
        // The identity collapse happens entirely at stage 1.
        assert!(outcome
            .blocked()
            .iter()
            .all(|&(_, reason)| reason == BlockReason::HyperbarStage(1)));
    }
}
