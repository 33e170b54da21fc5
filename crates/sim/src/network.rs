//! The seeded, arbitrated network simulator.

use edn_core::{
    compile_shared, Arbiter, BatchOutcomeView, ClusterSchedule, CompiledWiring, CycleDriver,
    EdnParams, EdnTopology, PriorityArbiter, RandomArbiter, Resubmit, RoundRobinArbiter,
    RouteRequest, RoutingEngine, SessionState,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which bucket-arbitration policy the simulated switches use.
///
/// The analytic model is policy-agnostic (it only counts *how many* win,
/// never *which*); the simulator defaults to [`ArbiterKind::Random`],
/// which also removes the low-label bias of the paper's Figure 2 priority
/// scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterKind {
    /// Lowest input label wins (the paper's Figure 2 illustration).
    Priority,
    /// Uniformly random winners (default).
    #[default]
    Random,
    /// Rotating priority.
    RoundRobin,
}

impl ArbiterKind {
    /// Instantiates the policy, seeding its RNG (only [`ArbiterKind::Random`]
    /// uses it).
    pub fn build(self, seed: u64) -> Box<dyn Arbiter + Send> {
        match self {
            ArbiterKind::Priority => Box::new(PriorityArbiter::new()),
            ArbiterKind::Random => Box::new(RandomArbiter::new(StdRng::seed_from_u64(seed))),
            ArbiterKind::RoundRobin => Box::new(RoundRobinArbiter::new()),
        }
    }
}

/// A stateful network simulator: a reused [`RoutingEngine`] plus an
/// arbitration policy, routing one batch per call.
///
/// The engine (and with it the wired [`EdnTopology`] and every per-cycle
/// buffer) is built once at construction; steady-state cycles through
/// [`NetworkSim::route_cycle_view`] perform no heap allocations.
///
/// # Examples
///
/// ```
/// use edn_core::{EdnParams, RouteRequest};
/// use edn_sim::{ArbiterKind, NetworkSim};
///
/// # fn main() -> Result<(), edn_core::EdnError> {
/// let params = EdnParams::new(16, 4, 4, 2)?;
/// let mut sim = NetworkSim::new(params, ArbiterKind::Random, 7);
/// let outcome = sim.route_cycle_view(&[RouteRequest::new(3, 42)]);
/// assert_eq!(outcome.delivered(), &[(3, 42)]);
/// # Ok(())
/// # }
/// ```
pub struct NetworkSim {
    engine: RoutingEngine,
    arbiter: Box<dyn Arbiter + Send>,
    kind: ArbiterKind,
    cycles_routed: u64,
}

impl std::fmt::Debug for NetworkSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSim")
            .field("params", self.engine.params())
            .field("arbiter", &self.kind)
            .field("cycles_routed", &self.cycles_routed)
            .finish()
    }
}

impl NetworkSim {
    /// Creates a simulator for `params` with the given arbitration policy.
    /// `seed` drives random arbitration (and nothing else).
    pub fn new(params: EdnParams, arbiter: ArbiterKind, seed: u64) -> Self {
        Self::with_wiring(compile_shared(params), arbiter, seed)
    }

    /// As [`NetworkSim::new`], on an already-compiled `wiring` — the
    /// cheap constructor for many simulators of one shape (one per seed
    /// of a seed axis), which then share one set of wiring tables instead
    /// of compiling and validating their own.
    pub fn with_wiring(wiring: Arc<CompiledWiring>, arbiter: ArbiterKind, seed: u64) -> Self {
        NetworkSim {
            engine: RoutingEngine::with_wiring(wiring),
            arbiter: arbiter.build(seed),
            kind: arbiter,
            cycles_routed: 0,
        }
    }

    /// The wired fabric being simulated.
    pub fn topology(&self) -> &EdnTopology {
        self.engine.topology()
    }

    /// The network parameters.
    pub fn params(&self) -> &EdnParams {
        self.engine.params()
    }

    /// The arbitration policy in use.
    pub fn arbiter_kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Total cycles routed so far.
    pub fn cycles_routed(&self) -> u64 {
        self.cycles_routed
    }

    /// Routes one circuit-switched cycle allocation-free, returning a view
    /// into the engine's reused buffers (overwritten by the next cycle;
    /// [`BatchOutcomeView::to_outcome`] keeps a copy).
    ///
    /// # Panics
    ///
    /// As [`edn_core::RoutingEngine::route`]: panics on duplicate sources
    /// or out-of-range indices.
    pub fn route_cycle_view(&mut self, requests: &[RouteRequest]) -> &BatchOutcomeView {
        self.cycles_routed += 1;
        self.engine.route(requests, self.arbiter.as_mut())
    }

    /// Runs a resident-batch session (`requests` stay inside the engine;
    /// blocked ones resubmit per `resubmit`) to completion; returns the
    /// cycle count. Results are read out of `state`.
    ///
    /// This is the multi-cycle replacement for calling
    /// [`NetworkSim::route_cycle_view`] in a loop: the whole run is one
    /// engine call and is allocation-free once `state` has warmed up.
    ///
    /// # Panics
    ///
    /// As [`edn_core::RoutingEngine::begin_session`] and
    /// [`edn_core::RouteSession::run_to_completion`].
    pub fn run_resident(
        &mut self,
        state: &mut SessionState,
        requests: &[RouteRequest],
        resubmit: Resubmit<'_>,
        limit: u64,
    ) -> u64 {
        let cycles = self
            .engine
            .begin_session(state, requests, resubmit, self.arbiter.as_mut())
            .run_to_completion(limit);
        self.cycles_routed += cycles;
        cycles
    }

    /// Runs a clustered session (`(cluster, tag)` messages drained under
    /// `schedule`, one submission per non-empty cluster per cycle) to
    /// completion; returns the cycle count. Results are read out of
    /// `state`.
    ///
    /// # Panics
    ///
    /// As [`edn_core::RoutingEngine::begin_cluster_session`] and
    /// [`edn_core::RouteSession::run_to_completion`].
    pub fn run_cluster_session(
        &mut self,
        state: &mut SessionState,
        clusters: u64,
        messages: impl IntoIterator<Item = (u64, u64)>,
        schedule: ClusterSchedule,
        rng: &mut StdRng,
        limit: u64,
    ) -> u64 {
        let cycles = self
            .engine
            .begin_cluster_session(
                state,
                clusters,
                messages,
                schedule,
                rng,
                self.arbiter.as_mut(),
            )
            .run_to_completion(limit);
        self.cycles_routed += cycles;
        cycles
    }

    /// Steps a driver-backed session for exactly `cycles` cycles —
    /// the open-ended multi-cycle entry point (MIMD processor models,
    /// Monte-Carlo workloads). Returns total `(offered, delivered)`.
    pub fn run_session(
        &mut self,
        state: &mut SessionState,
        driver: &mut dyn CycleDriver,
        cycles: u64,
    ) -> (u64, u64) {
        let totals = self
            .engine
            .begin_session_with(state, driver, self.arbiter.as_mut())
            .step_n(cycles);
        self.cycles_routed += state.cycles();
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> EdnParams {
        EdnParams::new(16, 4, 4, 2).unwrap()
    }

    #[test]
    fn all_policies_route_conflict_free_batches_fully() {
        for kind in [
            ArbiterKind::Priority,
            ArbiterKind::Random,
            ArbiterKind::RoundRobin,
        ] {
            let mut sim = NetworkSim::new(params(), kind, 1);
            // A displacement permutation has no output conflicts; some
            // internal blocking may still occur, but a single request never
            // blocks.
            let outcome = sim.route_cycle_view(&[RouteRequest::new(5, 6)]);
            assert_eq!(outcome.delivered_count(), 1, "{kind:?}");
        }
    }

    #[test]
    fn random_arbiter_is_reproducible_by_seed() {
        let requests: Vec<RouteRequest> = (0..64)
            .map(|s| RouteRequest::new(s, (s * 31 + 3) % 64))
            .collect();
        let mut a = NetworkSim::new(params(), ArbiterKind::Random, 99);
        let mut b = NetworkSim::new(params(), ArbiterKind::Random, 99);
        for _ in 0..5 {
            assert_eq!(
                a.route_cycle_view(&requests).to_outcome(),
                b.route_cycle_view(&requests).to_outcome()
            );
        }
        let mut c = NetworkSim::new(params(), ArbiterKind::Random, 100);
        let differs = (0..5).any(|_| {
            c.route_cycle_view(&requests).to_outcome() != b.route_cycle_view(&requests).to_outcome()
        });
        assert!(differs, "different seeds should eventually diverge");
    }

    #[test]
    fn view_and_owned_outcomes_agree() {
        let requests: Vec<RouteRequest> = (0..64)
            .map(|s| RouteRequest::new(s, (s * 13 + 5) % 64))
            .collect();
        let mut sim = NetworkSim::new(params(), ArbiterKind::Random, 7);
        for _ in 0..4 {
            let view = sim.route_cycle_view(&requests);
            let owned = view.to_outcome();
            assert_eq!(owned.delivered(), view.delivered());
            assert_eq!(owned.blocked(), view.blocked());
            assert_eq!(owned.offered(), view.offered());
            assert_eq!(owned.survivors(), view.survivors());
        }
    }

    #[test]
    fn cycle_counter_advances() {
        let mut sim = NetworkSim::new(params(), ArbiterKind::Priority, 0);
        assert_eq!(sim.cycles_routed(), 0);
        sim.route_cycle_view(&[]);
        sim.route_cycle_view(&[]);
        assert_eq!(sim.cycles_routed(), 2);
    }

    #[test]
    fn debug_is_informative() {
        let sim = NetworkSim::new(params(), ArbiterKind::RoundRobin, 0);
        let text = format!("{sim:?}");
        assert!(text.contains("RoundRobin"));
        assert!(text.contains("EdnParams"));
    }
}
