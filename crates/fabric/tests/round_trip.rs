//! The fabric database must be routing-invisible: an engine borrowing
//! wiring loaded from disk must produce bit-identical outcomes to one
//! that compiled the same shape in-process, across shapes, arbiter
//! policies, and fault sets. These tests drive both engines through the
//! full save → load cycle and compare delivered/blocked sets exactly.

use std::sync::Arc;

use edn_core::{EdnParams, FaultSet, PriorityArbiter, RandomArbiter, RouteRequest, RoutingEngine};
use edn_fabric::Fabric;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params(a: u64, b: u64, c: u64, l: u32) -> EdnParams {
    EdnParams::new(a, b, c, l).unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("edn_fabric_rt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic full-load request batch with tag collisions.
fn batch(p: &EdnParams, salt: u64) -> Vec<RouteRequest> {
    let outputs = p.outputs();
    (0..p.inputs())
        .map(|s| RouteRequest::new(s, (s.wrapping_mul(7) + salt) % outputs))
        .collect()
}

fn round_trip(p: EdnParams, dir: &std::path::Path) -> Fabric {
    let path = Fabric::path_in(dir, &p);
    Fabric::build(p).unwrap().save(&path).unwrap();
    Fabric::load(&path).unwrap()
}

#[test]
fn loaded_fabric_routes_identically_across_shapes_and_arbiters() {
    let dir = temp_dir("shapes");
    // Square, rectangular, and bucketed shapes; both arbiter policies.
    for p in [
        params(16, 4, 4, 3),
        params(16, 4, 2, 2),
        params(8, 4, 2, 4),
        params(4, 4, 1, 4),
    ] {
        let fabric = round_trip(p, &dir);
        let mut wired = RoutingEngine::from_params(p);
        let mut loaded = RoutingEngine::with_wiring(Arc::clone(fabric.wiring()));
        for salt in 0..4u64 {
            let requests = batch(&p, salt);
            let a = wired
                .route(&requests, &mut PriorityArbiter::new())
                .to_outcome();
            let b = loaded
                .route(&requests, &mut PriorityArbiter::new())
                .to_outcome();
            assert_eq!(a, b, "{p} priority salt {salt}");
            let a = wired
                .route(
                    &requests,
                    &mut RandomArbiter::new(StdRng::seed_from_u64(0xED0 + salt)),
                )
                .to_outcome();
            let b = loaded
                .route(
                    &requests,
                    &mut RandomArbiter::new(StdRng::seed_from_u64(0xED0 + salt)),
                )
                .to_outcome();
            assert_eq!(a, b, "{p} random salt {salt}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loaded_fabric_routes_identically_under_faults() {
    let dir = temp_dir("faults");
    for p in [params(16, 4, 4, 3), params(8, 4, 2, 4)] {
        let fabric = round_trip(p, &dir);
        let mut wired = RoutingEngine::from_params(p);
        let mut loaded = RoutingEngine::with_wiring(Arc::clone(fabric.wiring()));
        for (seed, fraction) in [(1u64, 0.02), (2, 0.05), (3, 0.10)] {
            let faults = FaultSet::random(&p, fraction, seed);
            let requests = batch(&p, seed);
            let a = wired
                .route_faulty(&requests, &faults, &mut PriorityArbiter::new())
                .to_outcome();
            let b = loaded
                .route_faulty(&requests, &faults, &mut PriorityArbiter::new())
                .to_outcome();
            assert_eq!(a, b, "{p} fault seed {seed}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wiring_handles_compare_equal_to_in_process_compilation() {
    let dir = temp_dir("equality");
    for p in [params(16, 4, 4, 2), params(16, 4, 2, 2)] {
        let fabric = round_trip(p, &dir);
        let compiled = edn_core::compile_shared(p);
        assert_eq!(fabric.wiring().as_ref(), compiled.as_ref(), "{p}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
