//! Resident multi-cycle stepping: the session layer over [`RoutingEngine`].
//!
//! Every long-running scenario in this repository — MIMD resubmission runs
//! (Section 4), RA-EDN permutation completions (Section 5), Monte-Carlo
//! acceptance estimation (Eq. 4) — is inherently multi-cycle: a blocked
//! request waits and resubmits every cycle until delivered. Before this
//! module the per-cycle loop lived in the *caller*: `MimdSystem::step` and
//! `RaEdnSystem::route_permutation_scheduled` rebuilt the request slice
//! and round-tripped through [`RoutingEngine::route`] once per cycle.
//!
//! A [`RouteSession`] keeps the request population **resident inside the
//! engine layer** instead. [`RoutingEngine::begin_session`] installs a
//! resident batch (delivered-mask + waiting queue, with per-cycle
//! resubmission that optionally re-randomizes addresses — [`Resubmit`]);
//! [`RoutingEngine::begin_cluster_session`] installs per-cluster message
//! queues drained under an RA-EDN [`ClusterSchedule`]
//! ([`ClusterSchedule::Random`] is the paper's model,
//! [`ClusterSchedule::GreedyDistinct`] the cheap conflict-avoiding
//! alternative its reference \[31\] gestures at); and
//! [`RoutingEngine::begin_session_with`] accepts any caller-supplied
//! [`CycleDriver`] (the MIMD processor model and the Monte-Carlo workload
//! drivers in `edn-sim` plug in here). [`RouteSession::step_n`] and
//! [`RouteSession::run_to_completion`] then drive the whole run in one
//! call, **allocation-free after construction**: all resident buffers live
//! in a reusable [`SessionState`], so a cached `(engine, state)` pair (the
//! `SweepWorker` arrangement) routes entire multi-cycle runs without
//! touching the allocator once warmed up.
//!
//! The session layer is oracle-checked, not trusted: property tests assert
//! the session outcome — delivered set, per-cycle counts, total cycles —
//! is bit-identical to caller-driven loops across shapes, loads,
//! schedules, and fault masks. For driver-backed sessions that loop is
//! [`crate::reference::step_driver`], which routes every cycle with the
//! pre-engine [`crate::reference::route_batch`].
//!
//! # Examples
//!
//! Route a full permutation to completion with persistent retries:
//!
//! ```
//! use edn_core::{EdnParams, PriorityArbiter, Resubmit, RouteRequest};
//! use edn_core::{RoutingEngine, SessionState};
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let mut engine = RoutingEngine::from_params(EdnParams::new(16, 4, 4, 2)?);
//! let mut state = SessionState::new();
//! let mut arbiter = PriorityArbiter::new();
//! let n = engine.params().inputs();
//! let requests: Vec<RouteRequest> = (0..n)
//!     .map(|s| RouteRequest::new(s, (s * 7 + 1) % n))
//!     .collect();
//! let cycles = engine
//!     .begin_session(&mut state, &requests, Resubmit::SameTag, &mut arbiter)
//!     .run_to_completion(1024);
//! assert!(cycles >= 1);
//! assert_eq!(state.delivered(), n);
//! # Ok(())
//! # }
//! ```

use crate::engine::{BatchOutcomeView, RoutingEngine};
use crate::faults::FaultSet;
use crate::hyperbar::Arbiter;
use crate::params::EdnParams;
use crate::routing::RouteRequest;
use crate::telemetry::{NullProbe, Probe};
use rand::rngs::StdRng;
use rand::Rng;

/// What a resident request does with its destination when it resubmits.
///
/// The paper's Markov analysis assumes blocked requests re-address
/// uniformly; real hardware retries the same module. Both live here so the
/// session layer can serve either model.
#[derive(Debug)]
pub enum Resubmit<'r> {
    /// Retry the same destination tag every cycle (physically faithful).
    SameTag,
    /// Re-randomize the tag uniformly over the outputs on every
    /// submission (the paper's independence assumption), drawing from the
    /// supplied RNG in waiting-queue order.
    Redraw(&'r mut StdRng),
}

/// Which pending message each cluster submits per cycle in a cluster
/// session.
///
/// The paper assumes [`ClusterSchedule::Random`] ("we assume a random
/// schedule where at every cycle, any processor whose message is not yet
/// delivered is chosen from each cluster at random") and notes that
/// conflict-free schedules "can be very expensive to compute".
/// [`ClusterSchedule::GreedyDistinct`] is the cheap middle ground its
/// reference \[31\] gestures at: clusters (scanned from a rotating start)
/// prefer a pending message whose destination cluster no earlier cluster
/// has claimed this cycle, eliminating most output contention for the
/// price of one membership mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterSchedule {
    /// Uniformly random pending message per cluster (the paper's model).
    #[default]
    Random,
    /// Greedy distinct-destination selection with rotating scan order.
    GreedyDistinct,
}

/// A caller-supplied per-cycle population model for
/// [`RoutingEngine::begin_session_with`].
///
/// The session owns the loop; the driver owns the population. Each cycle
/// the session calls [`CycleDriver::fill_cycle`] to collect submissions,
/// routes them, then hands the outcome to [`CycleDriver::absorb`]. A
/// driver that models a finite population reports drain via
/// [`CycleDriver::finished`]; open-ended drivers (Monte-Carlo workloads)
/// keep the default `false` and are driven with
/// [`RouteSession::step_n`].
pub trait CycleDriver {
    /// Appends this cycle's submissions to `requests` (already cleared).
    fn fill_cycle(&mut self, cycle: u64, requests: &mut Vec<RouteRequest>);

    /// Observes the routed outcome of cycle `cycle` (delivered requests
    /// should leave the population; blocked ones stay and resubmit).
    fn absorb(&mut self, cycle: u64, outcome: &BatchOutcomeView);

    /// `true` once the population is fully delivered. Default: never.
    fn finished(&self) -> bool {
        false
    }
}

/// The resident batch of a [`RoutingEngine::begin_session`] session:
/// waiting queue plus delivered-mask.
#[derive(Debug, Default, Clone)]
struct ResidentSet {
    /// Undelivered requests, in stable submission order.
    waiting: Vec<RouteRequest>,
    /// `delivered[source]` once the request from `source` completed.
    delivered: Vec<bool>,
    /// Undelivered count; the session completes at zero.
    remaining: usize,
    /// Output count, for [`Resubmit::Redraw`] draws.
    outputs: u64,
}

impl ResidentSet {
    fn reset(&mut self, params: &EdnParams, requests: &[RouteRequest]) {
        self.waiting.clear();
        self.waiting.extend_from_slice(requests);
        self.delivered.clear();
        self.delivered.resize(params.inputs() as usize, false);
        self.remaining = requests.len();
        self.outputs = params.outputs();
    }

    fn fill(&mut self, resubmit: &mut Resubmit<'_>, requests: &mut Vec<RouteRequest>) {
        match resubmit {
            Resubmit::SameTag => requests.extend_from_slice(&self.waiting),
            Resubmit::Redraw(rng) => {
                for entry in &mut self.waiting {
                    entry.tag = rng.gen_range(0..self.outputs);
                    requests.push(*entry);
                }
            }
        }
    }

    fn absorb(&mut self, outcome: &BatchOutcomeView) {
        if outcome.delivered_count() == 0 {
            return;
        }
        for &(source, _) in outcome.delivered() {
            self.delivered[source as usize] = true;
        }
        self.remaining -= outcome.delivered_count();
        let delivered = &self.delivered;
        self.waiting.retain(|r| !delivered[r.source as usize]);
    }
}

/// The per-cluster message queues of a
/// [`RoutingEngine::begin_cluster_session`] session.
#[derive(Debug, Default, Clone)]
struct ClusterSet {
    /// Pending destination tags, grouped by source cluster.
    queues: Vec<Vec<u64>>,
    /// Queue index each cluster submitted this cycle.
    selected: Vec<usize>,
    /// Destination tags claimed this cycle (greedy schedule), as a dense
    /// mask plus a touched-list for allocation-free clearing.
    claimed: Vec<bool>,
    touched: Vec<u64>,
    /// Undelivered message count; the session completes at zero.
    remaining: u64,
}

impl ClusterSet {
    fn reset(
        &mut self,
        clusters: usize,
        outputs: usize,
        messages: impl IntoIterator<Item = (u64, u64)>,
    ) {
        self.queues.truncate(clusters);
        for queue in &mut self.queues {
            queue.clear();
        }
        while self.queues.len() < clusters {
            self.queues.push(Vec::new());
        }
        self.selected.clear();
        self.selected.resize(clusters, 0);
        self.claimed.clear();
        self.claimed.resize(outputs, false);
        self.touched.clear();
        self.remaining = 0;
        for (cluster, tag) in messages {
            assert!(
                (cluster as usize) < clusters,
                "cluster {cluster} out of range (clusters = {clusters})"
            );
            self.queues[cluster as usize].push(tag);
            self.remaining += 1;
        }
    }

    fn fill(
        &mut self,
        schedule: ClusterSchedule,
        cycle: u64,
        rng: &mut StdRng,
        requests: &mut Vec<RouteRequest>,
    ) {
        match schedule {
            ClusterSchedule::Random => {
                for (cluster, queue) in self.queues.iter().enumerate() {
                    if queue.is_empty() {
                        continue;
                    }
                    let pick = rng.gen_range(0..queue.len());
                    self.selected[cluster] = pick;
                    requests.push(RouteRequest::new(cluster as u64, queue[pick]));
                }
            }
            ClusterSchedule::GreedyDistinct => {
                for &tag in &self.touched {
                    self.claimed[tag as usize] = false;
                }
                self.touched.clear();
                // Rotate the scan start so no cluster is permanently
                // advantaged.
                let ports = self.queues.len();
                let start = (cycle % ports as u64) as usize;
                for offset in 0..ports {
                    let cluster = (start + offset) % ports;
                    let queue = &self.queues[cluster];
                    if queue.is_empty() {
                        continue;
                    }
                    let pick = queue
                        .iter()
                        .position(|&tag| !self.claimed[tag as usize])
                        .unwrap_or_else(|| rng.gen_range(0..queue.len()));
                    self.selected[cluster] = pick;
                    let tag = queue[pick];
                    if !self.claimed[tag as usize] {
                        self.claimed[tag as usize] = true;
                        self.touched.push(tag);
                    }
                    requests.push(RouteRequest::new(cluster as u64, tag));
                }
            }
        }
    }

    fn absorb(&mut self, outcome: &BatchOutcomeView) {
        for &(cluster, _) in outcome.delivered() {
            self.queues[cluster as usize].swap_remove(self.selected[cluster as usize]);
        }
        self.remaining -= outcome.delivered_count() as u64;
    }
}

/// Reusable resident buffers for multi-cycle sessions.
///
/// One `SessionState` backs any number of sequential sessions (each
/// `begin_*` call re-initializes it); keeping it alive across runs — as
/// `MimdSystem`, `RaEdnSystem`, and `SweepWorker` do — means repeated
/// sessions at the same shape reuse every buffer at its high-water
/// capacity and never touch the allocator (asserted by the
/// counting-allocator test alongside the engine's per-cycle guarantee).
#[derive(Debug, Default, Clone)]
pub struct SessionState {
    /// The per-cycle submission buffer handed to the engine.
    requests: Vec<RouteRequest>,
    /// Messages delivered in each cycle of the current session.
    per_cycle: Vec<u64>,
    offered: u64,
    delivered: u64,
    cycles: u64,
    resident: ResidentSet,
    clusters: ClusterSet,
}

impl SessionState {
    /// An empty state; buffers grow to their high-water marks on first
    /// use.
    pub fn new() -> Self {
        SessionState::default()
    }

    fn reset(&mut self) {
        self.per_cycle.clear();
        self.offered = 0;
        self.delivered = 0;
        self.cycles = 0;
        // Clear the resident set here (not only in `begin_session`) so a
        // cluster- or driver-backed session on a reused state never
        // exposes the previous resident run's delivered-mask.
        self.resident.waiting.clear();
        self.resident.delivered.clear();
        self.resident.remaining = 0;
    }

    /// Cycles stepped in the current session.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total requests offered across the session (fresh + resubmitted).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Total requests delivered across the session.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Requests delivered in each cycle, index 0 first.
    pub fn delivered_per_cycle(&self) -> &[u64] {
        &self.per_cycle
    }

    /// The delivered-mask of the most recent resident session, indexed by
    /// source (empty for cluster- or driver-backed sessions).
    pub fn delivered_mask(&self) -> &[bool] {
        &self.resident.delivered
    }
}

/// How a [`RouteSession`] evolves its resident population each cycle.
enum SessionMode<'s> {
    /// Fixed batch in the state's resident set: blocked requests
    /// resubmit per [`Resubmit`] until the delivered-mask is full.
    Resident(Resubmit<'s>),
    /// Cluster queues in the state's cluster set, drained under a
    /// [`ClusterSchedule`].
    Cluster {
        schedule: ClusterSchedule,
        rng: &'s mut StdRng,
    },
    /// A caller-supplied population model.
    Driver(&'s mut dyn CycleDriver),
}

/// A multi-cycle routing run resident inside the engine layer.
///
/// Created by [`RoutingEngine::begin_session`],
/// [`RoutingEngine::begin_cluster_session`], or
/// [`RoutingEngine::begin_session_with`]; dropped when the run's result
/// has been read out of the [`SessionState`].
pub struct RouteSession<'s, A: Arbiter + ?Sized, P: Probe = NullProbe> {
    engine: &'s mut RoutingEngine,
    state: &'s mut SessionState,
    mode: SessionMode<'s>,
    arbiter: &'s mut A,
    faults: Option<&'s FaultSet>,
    probe: Option<&'s mut P>,
}

impl<'s, A: Arbiter + ?Sized, P: Probe> RouteSession<'s, A, P> {
    /// Routes the session through a fabric with broken wires instead of
    /// the healthy one.
    ///
    /// # Panics
    ///
    /// Panics if `faults` was built for different parameters.
    pub fn with_faults(mut self, faults: &'s FaultSet) -> Self {
        assert_eq!(
            faults.params(),
            self.engine.params(),
            "fault set was built for {} but the fabric is {}",
            faults.params(),
            self.engine.params()
        );
        self.faults = Some(faults);
        self
    }

    /// Attaches a [`Probe`] observing every cycle of this session: the
    /// engine's per-stage hooks plus a resubmission-queue-depth sample
    /// at the top of each cycle. Outcomes are unchanged (bit-identity is
    /// property-asserted); only the probe's counters differ.
    pub fn with_probe<P2: Probe>(self, probe: &'s mut P2) -> RouteSession<'s, A, P2> {
        RouteSession {
            engine: self.engine,
            state: self.state,
            mode: self.mode,
            arbiter: self.arbiter,
            faults: self.faults,
            probe: Some(probe),
        }
    }

    /// `true` once the resident population is fully delivered
    /// (driver-backed sessions report their driver's answer).
    pub fn finished(&self) -> bool {
        match &self.mode {
            SessionMode::Resident(_) => self.state.resident.remaining == 0,
            SessionMode::Cluster { .. } => self.state.clusters.remaining == 0,
            SessionMode::Driver(driver) => (**driver).finished(),
        }
    }

    /// The accumulated session measurements so far.
    pub fn state(&self) -> &SessionState {
        self.state
    }

    /// Advances one network cycle; returns `(offered, delivered)`.
    // edn-lint: hot-path
    pub fn step(&mut self) -> (usize, usize) {
        let SessionState {
            requests,
            per_cycle,
            offered,
            delivered,
            cycles,
            resident,
            clusters,
        } = &mut *self.state;
        let cycle = *cycles;
        if P::ENABLED {
            if let Some(probe) = self.probe.as_deref_mut() {
                match &self.mode {
                    SessionMode::Resident(_) => probe.queue_depth(resident.waiting.len()),
                    SessionMode::Cluster { .. } => probe.queue_depth(clusters.remaining as usize),
                    SessionMode::Driver(_) => {}
                }
            }
        }
        requests.clear();
        match &mut self.mode {
            SessionMode::Resident(resubmit) => resident.fill(resubmit, requests),
            SessionMode::Cluster { schedule, rng } => {
                clusters.fill(*schedule, cycle, rng, requests)
            }
            SessionMode::Driver(driver) => driver.fill_cycle(cycle, requests),
        }
        if P::ENABLED && cycle > 0 {
            if let (Some(probe), SessionMode::Resident(_)) = (self.probe.as_deref_mut(), &self.mode)
            {
                // Everything a resident session offers after cycle 0 is a
                // resubmission of a previously blocked request.
                for request in requests.iter() {
                    probe.event_resubmit(request.source, request.tag);
                }
            }
        }
        let outcome = match &mut self.probe {
            Some(probe) => {
                self.engine
                    .route_with(requests, self.faults, &mut *self.arbiter, &mut **probe)
            }
            None => {
                self.engine
                    .route_with(requests, self.faults, &mut *self.arbiter, &mut NullProbe)
            }
        };
        match &mut self.mode {
            SessionMode::Resident(_) => resident.absorb(outcome),
            SessionMode::Cluster { .. } => clusters.absorb(outcome),
            SessionMode::Driver(driver) => driver.absorb(cycle, outcome),
        }
        let counts = (outcome.offered(), outcome.delivered_count());
        per_cycle.push(counts.1 as u64);
        *offered += counts.0 as u64;
        *delivered += counts.1 as u64;
        *cycles += 1;
        counts
    }

    /// Steps exactly `n` cycles (the open-ended entry point for
    /// driver-backed sessions); returns total `(offered, delivered)` over
    /// those cycles.
    pub fn step_n(&mut self, n: u64) -> (u64, u64) {
        let mut offered = 0u64;
        let mut delivered = 0u64;
        for _ in 0..n {
            let (o, d) = self.step();
            offered += o as u64;
            delivered += d as u64;
        }
        (offered, delivered)
    }

    /// Steps until the population is fully delivered; returns the cycle
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if completion takes `limit` cycles or more — with a sane
    /// limit that indicates a livelock (e.g. a request whose only fabric
    /// bucket is fully faulted under [`Resubmit::SameTag`]), not a
    /// workload property.
    pub fn run_to_completion(&mut self, limit: u64) -> u64 {
        while !self.finished() {
            assert!(
                self.state.cycles < limit,
                "no forward progress after {} cycles",
                self.state.cycles
            );
            self.step();
        }
        self.state.cycles
    }
}

impl RoutingEngine {
    /// Begins a resident-batch session: `requests` stay inside the engine
    /// layer and blocked ones resubmit every cycle (per `resubmit`) until
    /// the delivered-mask is full.
    ///
    /// `state` is re-initialized; keep it alive across runs for
    /// allocation-free steady state.
    ///
    /// # Panics
    ///
    /// As [`RoutingEngine::route`], per cycle (duplicate sources,
    /// out-of-range indices).
    pub fn begin_session<'s, A: Arbiter + ?Sized>(
        &'s mut self,
        state: &'s mut SessionState,
        requests: &[RouteRequest],
        resubmit: Resubmit<'s>,
        arbiter: &'s mut A,
    ) -> RouteSession<'s, A> {
        state.reset();
        let params = *self.params();
        state.resident.reset(&params, requests);
        RouteSession {
            engine: self,
            state,
            mode: SessionMode::Resident(resubmit),
            arbiter,
            faults: None,
            probe: None,
        }
    }

    /// Begins a clustered session: `messages` is an iterator of
    /// `(cluster, tag)` pairs loaded into per-cluster queues; every cycle
    /// each non-empty cluster submits one pending message chosen by
    /// `schedule`, until all queues drain.
    ///
    /// This is the RA-EDN arrangement (Section 5): `clusters` must equal
    /// the network's input count, and tags address outputs as usual.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` differs from the input count or a message
    /// names a cluster out of range; per-cycle panics as
    /// [`RoutingEngine::route`].
    pub fn begin_cluster_session<'s, A: Arbiter + ?Sized>(
        &'s mut self,
        state: &'s mut SessionState,
        clusters: u64,
        messages: impl IntoIterator<Item = (u64, u64)>,
        schedule: ClusterSchedule,
        rng: &'s mut StdRng,
        arbiter: &'s mut A,
    ) -> RouteSession<'s, A> {
        let params = *self.params();
        assert_eq!(
            clusters,
            params.inputs(),
            "cluster sessions submit one request per input port"
        );
        state.reset();
        state
            .clusters
            .reset(clusters as usize, params.outputs() as usize, messages);
        RouteSession {
            engine: self,
            state,
            mode: SessionMode::Cluster { schedule, rng },
            arbiter,
            faults: None,
            probe: None,
        }
    }

    /// Begins a session over a caller-supplied [`CycleDriver`] — the
    /// escape hatch the `edn-sim` system models (MIMD processors,
    /// Monte-Carlo workloads) plug into.
    pub fn begin_session_with<'s, A: Arbiter + ?Sized>(
        &'s mut self,
        state: &'s mut SessionState,
        driver: &'s mut dyn CycleDriver,
        arbiter: &'s mut A,
    ) -> RouteSession<'s, A> {
        state.reset();
        RouteSession {
            engine: self,
            state,
            mode: SessionMode::Driver(driver),
            arbiter,
            faults: None,
            probe: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperbar::{PriorityArbiter, RandomArbiter};
    use rand::SeedableRng;

    fn engine(a: u64, b: u64, c: u64, l: u32) -> RoutingEngine {
        RoutingEngine::from_params(EdnParams::new(a, b, c, l).unwrap())
    }

    fn full_load(params: &EdnParams, seed: u64) -> Vec<RouteRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..params.inputs())
            .map(|s| RouteRequest::new(s, rng.gen_range(0..params.outputs())))
            .collect()
    }

    #[test]
    fn same_tag_session_delivers_everything_once() {
        let mut eng = engine(16, 4, 4, 2);
        let params = *eng.params();
        let requests = full_load(&params, 3);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        let cycles = eng
            .begin_session(&mut state, &requests, Resubmit::SameTag, &mut arbiter)
            .run_to_completion(10_000);
        assert_eq!(state.cycles(), cycles);
        assert_eq!(state.delivered(), params.inputs());
        assert_eq!(
            state.delivered_per_cycle().iter().sum::<u64>(),
            params.inputs()
        );
        assert!(state.delivered_mask().iter().all(|&d| d));
    }

    #[test]
    fn redraw_session_completes_under_contention() {
        let mut eng = engine(8, 4, 2, 3);
        let params = *eng.params();
        // Everyone wants output 0: only redraw can finish quickly.
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, 0))
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        let cycles = eng
            .begin_session(
                &mut state,
                &requests,
                Resubmit::Redraw(&mut rng),
                &mut arbiter,
            )
            .run_to_completion(100_000);
        assert_eq!(state.delivered(), params.inputs());
        assert!(cycles < 100_000);
    }

    #[test]
    fn step_n_then_completion_matches_single_run() {
        let mut eng = engine(16, 4, 4, 2);
        let params = *eng.params();
        let requests = full_load(&params, 11);
        let mut arbiter_a = RandomArbiter::new(StdRng::seed_from_u64(5));
        let mut arbiter_b = RandomArbiter::new(StdRng::seed_from_u64(5));
        let mut state_a = SessionState::new();
        let mut state_b = SessionState::new();
        let cycles_a = eng
            .begin_session(&mut state_a, &requests, Resubmit::SameTag, &mut arbiter_a)
            .run_to_completion(10_000);
        let mut eng2 = engine(16, 4, 4, 2);
        let mut session =
            eng2.begin_session(&mut state_b, &requests, Resubmit::SameTag, &mut arbiter_b);
        session.step_n(2);
        let cycles_b = session.run_to_completion(10_000);
        assert_eq!(cycles_a, cycles_b);
        assert_eq!(state_a.delivered_per_cycle(), state_b.delivered_per_cycle());
    }

    #[test]
    fn cluster_session_random_drains_all_queues() {
        let mut eng = engine(8, 4, 2, 1); // square 8x8
        let params = *eng.params();
        let clusters = params.inputs();
        let q = 3u64;
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        let messages: Vec<(u64, u64)> = (0..clusters * q)
            .map(|m| (m / q, (m * 5 + 1) % params.outputs()))
            .collect();
        let cycles = eng
            .begin_cluster_session(
                &mut state,
                clusters,
                messages.iter().copied(),
                ClusterSchedule::Random,
                &mut rng,
                &mut arbiter,
            )
            .run_to_completion(100_000);
        assert!(cycles >= q);
        assert_eq!(state.delivered(), clusters * q);
        assert_eq!(
            state.delivered_per_cycle().iter().sum::<u64>(),
            clusters * q
        );
    }

    #[test]
    fn cluster_session_greedy_drains_all_queues() {
        let mut eng = engine(8, 4, 2, 1);
        let params = *eng.params();
        let clusters = params.inputs();
        let q = 4u64;
        let mut rng = StdRng::seed_from_u64(2);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        let messages: Vec<(u64, u64)> = (0..clusters * q)
            .map(|m| (m / q, (m * 3 + 2) % params.outputs()))
            .collect();
        let cycles = eng
            .begin_cluster_session(
                &mut state,
                clusters,
                messages.iter().copied(),
                ClusterSchedule::GreedyDistinct,
                &mut rng,
                &mut arbiter,
            )
            .run_to_completion(100_000);
        assert_eq!(state.delivered(), clusters * q);
        assert!(cycles >= q);
    }

    #[test]
    fn faulty_session_step_n_counts_are_consistent() {
        let mut eng = engine(16, 4, 4, 2);
        let params = *eng.params();
        let faults = FaultSet::random(&params, 0.15, 5);
        let requests = full_load(&params, 21);
        let mut rng = StdRng::seed_from_u64(4);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        let (offered, delivered) = eng
            .begin_session(
                &mut state,
                &requests,
                Resubmit::Redraw(&mut rng),
                &mut arbiter,
            )
            .with_faults(&faults)
            .step_n(16);
        assert!(delivered <= offered);
        assert_eq!(state.cycles(), 16);
        assert_eq!(state.delivered(), delivered);
    }

    #[test]
    fn session_state_reuse_is_observationally_pure() {
        let mut eng = engine(16, 4, 4, 2);
        let params = *eng.params();
        let batch_a = full_load(&params, 1);
        let batch_b = full_load(&params, 2);
        let mut arbiter = PriorityArbiter::new();
        // Fresh state per run.
        let mut fresh = SessionState::new();
        eng.begin_session(&mut fresh, &batch_a, Resubmit::SameTag, &mut arbiter)
            .run_to_completion(10_000);
        let fresh_cycles = fresh.cycles();
        let fresh_per_cycle = fresh.delivered_per_cycle().to_vec();
        // Reused state after an unrelated run.
        let mut reused = SessionState::new();
        eng.begin_session(&mut reused, &batch_b, Resubmit::SameTag, &mut arbiter)
            .run_to_completion(10_000);
        eng.begin_session(&mut reused, &batch_a, Resubmit::SameTag, &mut arbiter)
            .run_to_completion(10_000);
        assert_eq!(reused.cycles(), fresh_cycles);
        assert_eq!(reused.delivered_per_cycle(), fresh_per_cycle.as_slice());
    }

    #[test]
    fn delivered_mask_does_not_leak_across_session_kinds() {
        // A cluster session on a reused state must not expose the
        // previous resident run's delivered-mask.
        let mut eng = engine(8, 4, 2, 1);
        let params = *eng.params();
        let requests = full_load(&params, 5);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        eng.begin_session(&mut state, &requests, Resubmit::SameTag, &mut arbiter)
            .run_to_completion(10_000);
        assert!(state.delivered_mask().iter().any(|&d| d));
        let mut rng = StdRng::seed_from_u64(1);
        let messages: Vec<(u64, u64)> = (0..params.inputs())
            .map(|c| (c, (c + 1) % params.outputs()))
            .collect();
        eng.begin_cluster_session(
            &mut state,
            params.inputs(),
            messages.iter().copied(),
            ClusterSchedule::Random,
            &mut rng,
            &mut arbiter,
        )
        .run_to_completion(10_000);
        assert!(state.delivered_mask().is_empty());
    }

    #[test]
    #[should_panic(expected = "no forward progress")]
    fn completion_limit_panics() {
        let mut eng = engine(16, 4, 4, 2);
        // Two sources demand the same output forever; limit 1 must trip.
        let requests = vec![RouteRequest::new(0, 5), RouteRequest::new(1, 5)];
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        eng.begin_session(&mut state, &requests, Resubmit::SameTag, &mut arbiter)
            .run_to_completion(1);
    }

    #[test]
    #[should_panic(expected = "cluster sessions submit one request per input port")]
    fn wrong_cluster_count_panics() {
        let mut eng = engine(8, 4, 2, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = SessionState::new();
        let mut arbiter = PriorityArbiter::new();
        let _ = eng.begin_cluster_session(
            &mut state,
            3,
            std::iter::empty(),
            ClusterSchedule::Random,
            &mut rng,
            &mut arbiter,
        );
    }
}
