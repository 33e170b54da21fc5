//! Per-worker state for engine-level sweeps.
//!
//! A sweep worker lives for the duration of one worker thread and is
//! handed every grid point that thread executes. It caches the expensive
//! build-once artifacts — wired [`RoutingEngine`]s keyed by network shape,
//! [`SessionState`]s cached alongside them for resident multi-cycle runs,
//! [`FaultSet`]s keyed by (shape, fraction, seed) — plus one reusable
//! request buffer, so a thread measuring hundreds of grid points routes
//! allocation-free after warm-up, whether the measurement is a single
//! cycle or a whole resubmission run. Engines borrow their interstage
//! wiring from the process-global [`crate::fabric`] cache, so each
//! distinct shape is compiled (or loaded from a `--fabric` database)
//! exactly once per process, not once per worker.

use edn_core::{EdnParams, FaultSet, RouteRequest, RoutingEngine, SessionState};

/// Cached per-worker state: engines, fault sets, and a request buffer.
///
/// # Examples
///
/// ```
/// use edn_core::{EdnParams, PriorityArbiter, RouteRequest};
/// use edn_sweep::SweepWorker;
///
/// # fn main() -> Result<(), edn_core::EdnError> {
/// let params = EdnParams::new(16, 4, 4, 2)?;
/// let mut worker = SweepWorker::new();
/// let (engine, requests) = worker.engine_and_requests(&params);
/// requests.clear();
/// requests.push(RouteRequest::new(3, 42));
/// let outcome = engine.route(requests, &mut PriorityArbiter::new());
/// assert_eq!(outcome.delivered(), &[(3, 42)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SweepWorker {
    /// One cache entry per distinct shape: the wired engine plus its
    /// session buffers, so a worker running multi-cycle sessions
    /// (resubmission runs, cluster drains) at a recurring shape reuses
    /// every resident buffer with a single cache lookup.
    engines: Vec<(EdnParams, RoutingEngine, SessionState)>,
    faults: Vec<((EdnParams, u64, u64), FaultSet)>,
    requests: Vec<RouteRequest>,
}

impl SweepWorker {
    /// An empty worker; caches fill on first use.
    pub fn new() -> Self {
        SweepWorker::default()
    }

    /// Cache-resolves the engine (and its session buffers) for `params`,
    /// returning the entry's position.
    fn ensure_engine(&mut self, params: &EdnParams) -> usize {
        match self.engines.iter().position(|(p, _, _)| p == params) {
            Some(position) => position,
            None => {
                self.engines.push((
                    *params,
                    RoutingEngine::with_wiring(crate::fabric::wiring_for(params)),
                    SessionState::new(),
                ));
                self.engines.len() - 1
            }
        }
    }

    /// Cache-resolves the fault set for `(params, fraction, seed)`,
    /// returning its position.
    fn ensure_faults(&mut self, params: &EdnParams, fraction: f64, seed: u64) -> usize {
        let key = (*params, fraction.to_bits(), seed);
        match self.faults.iter().position(|(k, _)| *k == key) {
            Some(position) => position,
            None => {
                let set = if fraction == 0.0 {
                    FaultSet::none(params)
                } else {
                    FaultSet::random(params, fraction, seed)
                };
                self.faults.push((key, set));
                self.faults.len() - 1
            }
        }
    }

    /// The cached engine for `params`, wiring the fabric on first request.
    pub fn engine(&mut self, params: &EdnParams) -> &mut RoutingEngine {
        let position = self.ensure_engine(params);
        &mut self.engines[position].1
    }

    /// The cached engine for `params` together with its cached session
    /// state and the shared request buffer (split borrows) — everything a
    /// grid point needs to run a resident multi-cycle session via
    /// [`RoutingEngine::begin_session`] /
    /// [`RoutingEngine::begin_cluster_session`] with zero steady-state
    /// allocations.
    pub fn engine_session_requests(
        &mut self,
        params: &EdnParams,
    ) -> (
        &mut RoutingEngine,
        &mut SessionState,
        &mut Vec<RouteRequest>,
    ) {
        let position = self.ensure_engine(params);
        let (_, engine, session) = &mut self.engines[position];
        (engine, session, &mut self.requests)
    }

    /// The cached engine for `params` together with the shared request
    /// buffer (split borrows, so the buffer can be filled while the
    /// engine is held).
    pub fn engine_and_requests(
        &mut self,
        params: &EdnParams,
    ) -> (&mut RoutingEngine, &mut Vec<RouteRequest>) {
        let position = self.ensure_engine(params);
        (&mut self.engines[position].1, &mut self.requests)
    }

    /// The cached random [`FaultSet`] for `(params, fraction, seed)`,
    /// drawn on first request. A `fraction` of `0.0` returns the healthy
    /// set without sampling.
    pub fn faults(&mut self, params: &EdnParams, fraction: f64, seed: u64) -> &FaultSet {
        let position = self.ensure_faults(params, fraction, seed);
        &self.faults[position].1
    }

    /// The cached engine, request buffer, and fault set for one faulty
    /// grid point, as disjoint borrows — so a measurement can hold all
    /// three without cloning the fault set.
    pub fn engine_requests_faults(
        &mut self,
        params: &EdnParams,
        fraction: f64,
        seed: u64,
    ) -> (&mut RoutingEngine, &mut Vec<RouteRequest>, &FaultSet) {
        let engine_position = self.ensure_engine(params);
        let fault_position = self.ensure_faults(params, fraction, seed);
        (
            &mut self.engines[engine_position].1,
            &mut self.requests,
            &self.faults[fault_position].1,
        )
    }

    /// As [`SweepWorker::engine_session_requests`], additionally
    /// resolving the cached fault set for `(params, fraction, seed)` —
    /// for faulty multi-cycle sessions
    /// ([`edn_core::RouteSession::with_faults`]).
    pub fn engine_session_requests_faults(
        &mut self,
        params: &EdnParams,
        fraction: f64,
        seed: u64,
    ) -> (
        &mut RoutingEngine,
        &mut SessionState,
        &mut Vec<RouteRequest>,
        &FaultSet,
    ) {
        let engine_position = self.ensure_engine(params);
        let fault_position = self.ensure_faults(params, fraction, seed);
        let (_, engine, session) = &mut self.engines[engine_position];
        (
            engine,
            session,
            &mut self.requests,
            &self.faults[fault_position].1,
        )
    }

    /// Number of distinct fabrics this worker has wired (each entry
    /// carries the engine and its session buffers).
    pub fn engines_built(&self) -> usize {
        self.engines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{NullProbe, PriorityArbiter};

    fn params(a: u64, b: u64, c: u64, l: u32) -> EdnParams {
        EdnParams::new(a, b, c, l).unwrap()
    }

    #[test]
    fn engines_are_cached_per_shape() {
        let mut worker = SweepWorker::new();
        let a = params(16, 4, 4, 2);
        let b = params(8, 4, 2, 2);
        worker.engine(&a);
        worker.engine(&b);
        worker.engine(&a);
        assert_eq!(worker.engines_built(), 2);
    }

    #[test]
    fn cached_engine_routes_like_a_fresh_one() {
        let p = params(16, 4, 4, 2);
        let mut worker = SweepWorker::new();
        // Warm the cache with unrelated traffic first.
        let (engine, requests) = worker.engine_and_requests(&p);
        requests.clear();
        requests.extend((0..16).map(|s| RouteRequest::new(s, 0)));
        engine.route(requests, &mut PriorityArbiter::new());

        let batch: Vec<RouteRequest> = (0..64).map(|s| RouteRequest::new(s, s)).collect();
        let cached = worker
            .engine(&p)
            .route(&batch, &mut PriorityArbiter::new())
            .to_outcome();
        let fresh = RoutingEngine::from_params(p)
            .route(&batch, &mut PriorityArbiter::new())
            .to_outcome();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn fault_sets_are_cached_per_key() {
        let p = params(16, 4, 4, 2);
        let mut worker = SweepWorker::new();
        let count = worker.faults(&p, 0.2, 9).count();
        assert_eq!(worker.faults(&p, 0.2, 9).count(), count);
        assert_eq!(worker.faults(&p, 0.0, 9).count(), 0);
        assert_eq!(worker.faults.len(), 2);
        // Same key, different seed: a distinct cached draw.
        let _ = worker.faults(&p, 0.2, 10);
        assert_eq!(worker.faults.len(), 3);
    }

    #[test]
    fn cached_session_runs_like_a_fresh_one() {
        use edn_core::{Resubmit, SessionState};
        let p = params(16, 4, 4, 2);
        let mut worker = SweepWorker::new();
        // Warm the caches with an unrelated resident run first.
        {
            let (engine, session, requests) = worker.engine_session_requests(&p);
            requests.clear();
            requests.extend((0..p.inputs()).map(|s| RouteRequest::new(s, 0)));
            engine
                .begin_session(
                    session,
                    requests,
                    Resubmit::SameTag,
                    &mut PriorityArbiter::new(),
                )
                .run_to_completion(1 << 20);
        }
        assert_eq!(worker.engines_built(), 1);
        let batch: Vec<RouteRequest> = (0..p.inputs())
            .map(|s| RouteRequest::new(s, (s * 7 + 3) % p.outputs()))
            .collect();
        let (engine, session, _) = worker.engine_session_requests(&p);
        let cached_cycles = engine
            .begin_session(
                session,
                &batch,
                Resubmit::SameTag,
                &mut PriorityArbiter::new(),
            )
            .run_to_completion(1 << 20);
        let cached_counts = session.delivered_per_cycle().to_vec();
        let mut fresh_engine = RoutingEngine::from_params(p);
        let mut fresh_session = SessionState::new();
        let fresh_cycles = fresh_engine
            .begin_session(
                &mut fresh_session,
                &batch,
                Resubmit::SameTag,
                &mut PriorityArbiter::new(),
            )
            .run_to_completion(1 << 20);
        assert_eq!(cached_cycles, fresh_cycles);
        assert_eq!(cached_counts, fresh_session.delivered_per_cycle());
    }

    #[test]
    fn split_borrow_hands_out_all_three_without_cloning() {
        let p = params(16, 4, 4, 2);
        let mut worker = SweepWorker::new();
        let expected = worker.faults(&p, 0.2, 9).clone();
        let (engine, requests, faults) = worker.engine_requests_faults(&p, 0.2, 9);
        assert_eq!(*faults, expected);
        requests.clear();
        requests.extend((0..16).map(|s| RouteRequest::new(s, s)));
        let outcome = engine.route_with(
            requests,
            Some(faults),
            &mut PriorityArbiter::new(),
            &mut NullProbe,
        );
        assert_eq!(outcome.offered(), 16);
        assert_eq!(worker.engines_built(), 1);
    }
}
