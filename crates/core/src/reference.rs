//! The pre-engine routing implementation, preserved as a differential
//! oracle, and the caller-driven multi-cycle loop built on it.
//!
//! When [`crate::engine::RoutingEngine`] replaced the original free
//! functions, the original moved here unchanged instead of being deleted:
//! it is the simplest correct statement of the paper's circuit-switched
//! cycle (Section 3.2), and the `engine_equivalence` property tests assert
//! the engine's outcomes are **bit-identical** to it across network
//! shapes, loads, arbiters, and fault sets. [`step_driver`] runs any
//! [`CycleDriver`] over it one cycle at a time, which is the oracle the
//! session-backed simulators in `edn-sim` are checked against.
//!
//! It allocates freely (a `HashSet` for duplicate detection, fresh `Vec`s
//! per stage, per-switch buffers inside [`Hyperbar::route_with_disabled`])
//! and is therefore unsuitable for the Monte-Carlo hot path: route through
//! a reused [`crate::engine::RoutingEngine`] instead.

// edn-lint: allow-file(determinism) -- HashSets here do duplicate detection only
// (insert/contains, never iterated), so hash order cannot reach any output
use crate::hyperbar::{Arbiter, Hyperbar};
use crate::routing::{BatchOutcome, BlockReason, RouteRequest};
use crate::session::CycleDriver;
use crate::topology::EdnTopology;
use crate::FaultSet;
use std::collections::HashSet;

/// The original allocating implementation of
/// [`RoutingEngine::route`](crate::RoutingEngine::route): one cycle
/// through the healthy fabric.
///
/// # Panics
///
/// As [`RoutingEngine::route`](crate::RoutingEngine::route): panics on
/// duplicate sources or out-of-range indices.
pub fn route_batch(
    topology: &EdnTopology,
    requests: &[RouteRequest],
    arbiter: &mut dyn Arbiter,
) -> BatchOutcome {
    route_batch_with(topology, requests, None, arbiter)
}

/// The original allocating implementation of
/// [`RoutingEngine::route_with`](crate::RoutingEngine::route_with): one
/// cycle through the fabric, with each hyperbar's bucket capacity shrunk
/// to its healthy-wire count when `faults` is given. The final crossbar
/// stage is always healthy (its wires are the network outputs).
///
/// # Panics
///
/// As [`route_batch`]; additionally panics if `faults` was built for
/// different parameters.
pub fn route_batch_with(
    topology: &EdnTopology,
    requests: &[RouteRequest],
    faults: Option<&FaultSet>,
    arbiter: &mut dyn Arbiter,
) -> BatchOutcome {
    let p = *topology.params();
    if let Some(faults) = faults {
        assert_eq!(
            faults.params(),
            &p,
            "fault set was built for {} but the fabric is {}",
            faults.params(),
            p
        );
    }
    let mut seen = HashSet::with_capacity(requests.len());
    for request in requests {
        assert!(
            request.source < p.inputs(),
            "source {} out of range (inputs = {})",
            request.source,
            p.inputs()
        );
        assert!(
            request.tag < p.outputs(),
            "tag {} out of range (outputs = {})",
            request.tag,
            p.outputs()
        );
        assert!(
            seen.insert(request.source),
            "duplicate request on source {}",
            request.source
        );
    }

    let hyperbar = Hyperbar::from_params(&p);
    let crossbar = Hyperbar::final_stage_crossbar(&p);
    let mut blocked: Vec<(u64, BlockReason)> = Vec::new();
    let mut survivors = Vec::with_capacity(p.l() as usize + 2);
    survivors.push(requests.len());

    // (request index, current line).
    let mut active: Vec<(usize, u64)> = requests
        .iter()
        .enumerate()
        .map(|(idx, r)| (idx, r.source))
        .collect();

    let mut switch_requests: Vec<Option<u64>> = Vec::new();
    for stage in 1..=p.l() {
        active.sort_unstable_by_key(|&(_, line)| line);
        let gamma = topology.interstage_gamma(stage);
        let mut next: Vec<(usize, u64)> = Vec::with_capacity(active.len());
        let mut span_start = 0usize;
        while span_start < active.len() {
            let switch = active[span_start].1 / p.a();
            let mut span_end = span_start + 1;
            while span_end < active.len() && active[span_end].1 / p.a() == switch {
                span_end += 1;
            }
            switch_requests.clear();
            switch_requests.resize(p.a() as usize, None);
            for &(req, line) in &active[span_start..span_end] {
                let port = (line % p.a()) as usize;
                switch_requests[port] = Some(p.tag_digit_for_stage(requests[req].tag, stage));
            }
            let disabled = faults
                .map(|faults| faults.switch_local_disabled(stage, switch))
                .unwrap_or_default();
            let outcome = hyperbar
                .route_with_disabled(&switch_requests, &disabled, arbiter)
                .expect("validated requests imply valid switch digits");
            for &(req, line) in &active[span_start..span_end] {
                let port = (line % p.a()) as usize;
                match outcome.assignments()[port] {
                    Some(wire) => {
                        let exit = switch * (p.b() * p.c()) + wire;
                        next.push((req, gamma.apply(exit)));
                    }
                    None => {
                        blocked.push((requests[req].source, BlockReason::HyperbarStage(stage)));
                    }
                }
            }
            span_start = span_end;
        }
        active = next;
        survivors.push(active.len());
    }

    // Final stage: c x c crossbars; the base-c digit picks the output port.
    active.sort_unstable_by_key(|&(_, line)| line);
    let mut delivered: Vec<(u64, u64)> = Vec::with_capacity(active.len());
    let mut span_start = 0usize;
    while span_start < active.len() {
        let switch = active[span_start].1 / p.c();
        let mut span_end = span_start + 1;
        while span_end < active.len() && active[span_end].1 / p.c() == switch {
            span_end += 1;
        }
        switch_requests.clear();
        switch_requests.resize(p.c() as usize, None);
        for &(req, line) in &active[span_start..span_end] {
            let port = (line % p.c()) as usize;
            switch_requests[port] = Some(p.tag_crossbar_digit(requests[req].tag));
        }
        let outcome = crossbar
            .route(&switch_requests, arbiter)
            .expect("validated requests imply valid crossbar digits");
        for &(req, line) in &active[span_start..span_end] {
            let port = (line % p.c()) as usize;
            match outcome.assignments()[port] {
                Some(out_port) => delivered.push((requests[req].source, switch * p.c() + out_port)),
                None => blocked.push((requests[req].source, BlockReason::CrossbarOutput)),
            }
        }
        span_start = span_end;
    }
    survivors.push(delivered.len());

    delivered.sort_unstable();
    blocked.sort_unstable_by_key(|&(source, _)| source);
    BatchOutcome::from_parts(delivered, blocked, requests.len(), survivors)
}

/// Steps `driver` for `cycles` cycles, routing each cycle's submissions
/// with [`route_batch`]: the caller-driven loop that
/// [`RouteSession::step_n`](crate::RouteSession::step_n) replaced, kept as
/// the multi-cycle oracle. Given the same driver state and an identically
/// seeded arbiter, a driver-backed session
/// ([`RoutingEngine::begin_session_with`](crate::RoutingEngine::begin_session_with))
/// must make the same calls with the same outcomes. Returns total
/// `(offered, delivered)`.
///
/// # Panics
///
/// As [`route_batch`], per cycle.
pub fn step_driver(
    topology: &EdnTopology,
    driver: &mut dyn CycleDriver,
    arbiter: &mut dyn Arbiter,
    cycles: u64,
) -> (u64, u64) {
    let mut requests = Vec::new();
    let (mut offered, mut delivered) = (0, 0);
    for cycle in 0..cycles {
        requests.clear();
        driver.fill_cycle(cycle, &mut requests);
        let outcome = route_batch(topology, &requests, arbiter).into_view();
        driver.absorb(cycle, &outcome);
        offered += outcome.offered() as u64;
        delivered += outcome.delivered_count() as u64;
    }
    (offered, delivered)
}
