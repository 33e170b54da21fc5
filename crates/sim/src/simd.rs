//! The clustered RA-EDN SIMD system simulator — Section 5 / Figure 12.
//!
//! `p = b^l * c` clusters of `q` processing elements share a square
//! `EDN(bc, b, c, l)`: one input port and one output port per cluster. To
//! route a permutation of all `p*q` messages, every cluster submits one
//! not-yet-delivered message per network cycle (the paper's *random
//! schedule*); messages that lose arbitration anywhere retry in a later
//! cycle. The run ends when every message has been delivered.
//!
//! The analytic expectation (`edn_analytic::simd`) for the MasPar-shaped
//! `RA-EDN(16,4,2,16)` is `16 / 0.544 + 5 ≈ 34.4` cycles; this simulator
//! measures the real distribution.

use crate::network::{ArbiterKind, NetworkSim};
use crate::stats::RunningStats;
use edn_core::{EdnError, EdnParams, RouteRequest, SessionState};
use edn_traffic::Permutation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Which message each cluster submits per cycle.
///
/// Since the session refactor this is [`edn_core::ClusterSchedule`]: the
/// schedule hooks live in the engine-resident session layer
/// ([`edn_core::RoutingEngine::begin_cluster_session`]), and this alias
/// keeps the simulator API stable. [`Schedule::Random`] is the paper's
/// model; [`Schedule::GreedyDistinct`] the cheap conflict-avoiding
/// alternative its reference \[31\] gestures at.
pub use edn_core::ClusterSchedule as Schedule;

/// The result of routing one permutation to completion.
///
/// Produced by [`RaEdnSystem::route_permutation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationRun {
    /// Network cycles needed to deliver every message.
    pub cycles: u32,
    /// Messages delivered in each cycle (sums to `total_messages`).
    pub delivered_per_cycle: Vec<u64>,
    /// Total messages routed (`p * q` for a full permutation).
    pub total_messages: u64,
}

impl PermutationRun {
    /// Mean delivered messages per cycle.
    pub fn mean_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.cycles as f64
        }
    }
}

/// A restricted-access EDN system: `p` clusters of `q` PEs on a square EDN.
///
/// # Examples
///
/// ```
/// use edn_sim::{ArbiterKind, RaEdnSystem};
///
/// # fn main() -> Result<(), edn_core::EdnError> {
/// // A small sibling of the MasPar router: 32 clusters of 4 PEs.
/// let mut system = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 7)?;
/// assert_eq!(system.ports(), 32);
/// let run = system.route_random_permutation();
/// assert_eq!(run.delivered_per_cycle.iter().sum::<u64>(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RaEdnSystem {
    sim: NetworkSim,
    q: u64,
    rng: StdRng,
    /// Per-cycle request buffer for the caller-driven oracle path,
    /// reused so steady-state cycles never allocate.
    requests: Vec<RouteRequest>,
    /// Resident session buffers (cluster queues, per-cycle counts) for
    /// the session path, reused across permutation runs.
    session: SessionState,
}

impl RaEdnSystem {
    /// Creates an `RA-EDN(b, c, l, q)` system simulator.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid network parameters or `q == 0`.
    pub fn new(
        b: u64,
        c: u64,
        l: u32,
        q: u64,
        arbiter: ArbiterKind,
        seed: u64,
    ) -> Result<Self, EdnError> {
        Self::from_params(EdnParams::ra_edn(b, c, l)?, q, arbiter, seed)
    }

    /// Wraps an existing square network.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::NotSquare`] for rectangular networks and
    /// [`EdnError::ZeroParameter`] if `q == 0`.
    pub fn from_params(
        params: EdnParams,
        q: u64,
        arbiter: ArbiterKind,
        seed: u64,
    ) -> Result<Self, EdnError> {
        if !params.is_square() {
            return Err(EdnError::NotSquare {
                inputs: params.inputs(),
                outputs: params.outputs(),
            });
        }
        if q == 0 {
            return Err(EdnError::ZeroParameter { name: "q" });
        }
        Ok(RaEdnSystem {
            sim: NetworkSim::new(params, arbiter, seed ^ 0x5EED_CAFE),
            q,
            rng: StdRng::seed_from_u64(seed),
            requests: Vec::with_capacity(params.inputs() as usize),
            session: SessionState::new(),
        })
    }

    /// Clusters / network ports `p`.
    pub fn ports(&self) -> u64 {
        self.sim.params().inputs()
    }

    /// PEs per cluster `q`.
    pub fn cluster_size(&self) -> u64 {
        self.q
    }

    /// Total PEs, `p * q`.
    pub fn processors(&self) -> u64 {
        self.ports() * self.q
    }

    /// Routes `permutation` (over all `p * q` PEs) to completion under the
    /// random schedule; message `i` (PE `i`) is delivered to PE
    /// `permutation.apply(i)`'s cluster port.
    ///
    /// # Panics
    ///
    /// Panics if `permutation.len() != processors()`, or if the run fails
    /// to finish within a very generous safety bound (which would indicate
    /// a livelock bug, not a workload property).
    pub fn route_permutation(&mut self, permutation: &Permutation) -> PermutationRun {
        self.route_permutation_scheduled(permutation, Schedule::Random)
    }

    /// Routes `permutation` to completion under an explicit [`Schedule`].
    ///
    /// The whole run is **one cluster-session call** on the routing
    /// engine ([`edn_core::RouteSession::run_to_completion`]): the
    /// per-cluster message queues stay resident in the session layer
    /// instead of round-tripping through the caller once per cycle, and
    /// repeated runs reuse every buffer. Bit-identical to the
    /// caller-driven [`RaEdnSystem::route_permutation_caller_driven`]
    /// oracle (asserted by the differential tests).
    ///
    /// # Panics
    ///
    /// As [`RaEdnSystem::route_permutation`].
    pub fn route_permutation_scheduled(
        &mut self,
        permutation: &Permutation,
        schedule: Schedule,
    ) -> PermutationRun {
        assert_eq!(
            permutation.len(),
            self.processors(),
            "permutation must cover all p*q processors"
        );
        let q = self.q;
        let total = self.processors();
        // Safety bound: even a pathological schedule delivers at least one
        // message per cycle, so p*q cycles times a wide margin suffices.
        let limit = (total * 64).max(1024);
        let clusters = self.ports();
        let cycles = self.sim.run_cluster_session(
            &mut self.session,
            clusters,
            // Message i (PE i) enters at its cluster's port, addressed to
            // its destination PE's cluster.
            (0..total).map(|pe| (pe / q, permutation.apply(pe) / q)),
            schedule,
            &mut self.rng,
            limit,
        );
        PermutationRun {
            cycles: u32::try_from(cycles).expect("cycle count bounded by p*q*64 safety limit"),
            delivered_per_cycle: self.session.delivered_per_cycle().to_vec(),
            total_messages: total,
        }
    }

    /// The pre-session `route_permutation_scheduled`: the caller owns the
    /// pending queues and drives one engine cycle per iteration. Retained
    /// as the differential oracle — given identically seeded systems,
    /// [`RaEdnSystem::route_permutation_scheduled`] must reproduce this
    /// loop's run bit-for-bit.
    ///
    /// # Panics
    ///
    /// As [`RaEdnSystem::route_permutation`].
    pub fn route_permutation_caller_driven(
        &mut self,
        permutation: &Permutation,
        schedule: Schedule,
    ) -> PermutationRun {
        assert_eq!(
            permutation.len(),
            self.processors(),
            "permutation must cover all p*q processors"
        );
        let q = self.q;
        let ports = self.ports();
        // Undelivered destination PEs, grouped by source cluster.
        let mut pending: Vec<Vec<u64>> =
            (0..ports).map(|_| Vec::with_capacity(q as usize)).collect();
        for pe in 0..self.processors() {
            pending[(pe / q) as usize].push(permutation.apply(pe));
        }

        let mut delivered_per_cycle = Vec::new();
        let mut remaining = self.processors();
        // Safety bound: even a pathological schedule delivers at least one
        // message per cycle, so p*q cycles times a wide margin suffices.
        let cycle_limit = (self.processors() * 64).max(1024);
        let mut selected: Vec<usize> = vec![0; ports as usize];
        let mut claimed: BTreeSet<u64> = BTreeSet::new();
        while remaining > 0 {
            let cycle_index = delivered_per_cycle.len() as u64;
            assert!(
                cycle_index < cycle_limit,
                "no forward progress after {cycle_index} cycles"
            );
            self.requests.clear();
            match schedule {
                Schedule::Random => {
                    for (cluster, queue) in pending.iter().enumerate() {
                        if queue.is_empty() {
                            continue;
                        }
                        let pick = self.rng.gen_range(0..queue.len());
                        selected[cluster] = pick;
                        // The routing header x_i is the destination cluster.
                        self.requests
                            .push(RouteRequest::new(cluster as u64, queue[pick] / q));
                    }
                }
                Schedule::GreedyDistinct => {
                    claimed.clear();
                    // Rotate the scan start so no cluster is permanently
                    // advantaged.
                    let start = (cycle_index % ports) as usize;
                    for offset in 0..ports as usize {
                        let cluster = (start + offset) % ports as usize;
                        let queue = &pending[cluster];
                        if queue.is_empty() {
                            continue;
                        }
                        let pick = queue
                            .iter()
                            .position(|&pe| !claimed.contains(&(pe / q)))
                            .unwrap_or_else(|| self.rng.gen_range(0..queue.len()));
                        selected[cluster] = pick;
                        claimed.insert(queue[pick] / q);
                        self.requests
                            .push(RouteRequest::new(cluster as u64, queue[pick] / q));
                    }
                }
            }
            let outcome = self.sim.route_cycle_view(&self.requests);
            let mut delivered = 0u64;
            for &(cluster, _) in outcome.delivered() {
                pending[cluster as usize].swap_remove(selected[cluster as usize]);
                delivered += 1;
            }
            remaining -= delivered;
            delivered_per_cycle.push(delivered);
        }
        PermutationRun {
            cycles: u32::try_from(delivered_per_cycle.len())
                .expect("cycle count bounded by p*q*64 safety limit"),
            delivered_per_cycle,
            total_messages: self.processors(),
        }
    }

    /// Routes a fresh uniform random permutation to completion.
    pub fn route_random_permutation(&mut self) -> PermutationRun {
        let perm = Permutation::random(self.processors(), &mut self.rng);
        self.route_permutation(&perm)
    }

    /// Mean and standard error of the completion time over `trials`
    /// independent random permutations.
    pub fn measure_mean_cycles(&mut self, trials: u32) -> (f64, f64) {
        self.measure_mean_cycles_scheduled(trials, Schedule::Random)
    }

    /// As [`RaEdnSystem::measure_mean_cycles`], under an explicit
    /// [`Schedule`].
    pub fn measure_mean_cycles_scheduled(&mut self, trials: u32, schedule: Schedule) -> (f64, f64) {
        let mut stats = RunningStats::new();
        for _ in 0..trials {
            let perm = Permutation::random(self.processors(), &mut self.rng);
            stats.push(self.route_permutation_scheduled(&perm, schedule).cycles as f64);
        }
        (stats.mean(), stats.std_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_is_delivered_exactly_once() {
        let mut system = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 11).unwrap();
        let run = system.route_random_permutation();
        assert_eq!(run.total_messages, 128);
        assert_eq!(run.delivered_per_cycle.iter().sum::<u64>(), 128);
        assert!(run.cycles >= 4, "at least q cycles are needed");
    }

    #[test]
    fn identity_permutation_completes_too() {
        let mut system = RaEdnSystem::new(4, 2, 1, 2, ArbiterKind::Random, 3).unwrap();
        let n = system.processors();
        let run = system.route_permutation(&Permutation::identity(n));
        assert_eq!(run.delivered_per_cycle.iter().sum::<u64>(), n);
    }

    #[test]
    fn maspar_router_time_matches_section5_estimate() {
        // RA-EDN(16,4,2,16): the paper predicts ~34.4 cycles. The random
        // schedule in the real fabric lands in the same band; allow a
        // generous margin for the approximations in the analytic model.
        let mut system = RaEdnSystem::new(16, 4, 2, 16, ArbiterKind::Random, 2024).unwrap();
        assert_eq!(system.processors(), 16384);
        let (mean, _se) = system.measure_mean_cycles(5);
        assert!(
            (25.0..50.0).contains(&mean),
            "measured {mean} cycles, expected ~34"
        );
    }

    #[test]
    fn throughput_cannot_exceed_ports() {
        let mut system = RaEdnSystem::new(4, 2, 2, 8, ArbiterKind::Random, 5).unwrap();
        let run = system.route_random_permutation();
        for &delivered in &run.delivered_per_cycle {
            assert!(delivered <= system.ports());
        }
        assert!(run.mean_throughput() <= system.ports() as f64);
    }

    #[test]
    fn more_pes_per_cluster_take_proportionally_longer() {
        let mut small = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 6).unwrap();
        let mut large = RaEdnSystem::new(4, 2, 2, 16, ArbiterKind::Random, 6).unwrap();
        let (t_small, _) = small.measure_mean_cycles(4);
        let (t_large, _) = large.measure_mean_cycles(4);
        let ratio = t_large / t_small;
        assert!(
            (2.0..8.0).contains(&ratio),
            "4x the PEs should take ~4x the cycles, got {ratio}"
        );
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(RaEdnSystem::new(4, 2, 2, 0, ArbiterKind::Random, 0).is_err());
        let rect = EdnParams::new(8, 4, 4, 2).unwrap();
        assert!(matches!(
            RaEdnSystem::from_params(rect, 4, ArbiterKind::Random, 0),
            Err(EdnError::NotSquare { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "permutation must cover")]
    fn wrong_permutation_size_panics() {
        let mut system = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 0).unwrap();
        system.route_permutation(&Permutation::identity(4));
    }

    #[test]
    fn greedy_schedule_delivers_everything() {
        let mut system = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 21).unwrap();
        let n = system.processors();
        let perm = Permutation::random(n, &mut rand::rngs::StdRng::seed_from_u64(9));
        let run = system.route_permutation_scheduled(&perm, Schedule::GreedyDistinct);
        assert_eq!(run.delivered_per_cycle.iter().sum::<u64>(), n);
    }

    #[test]
    fn greedy_schedule_is_no_slower_than_random() {
        let mut random = RaEdnSystem::new(4, 2, 2, 8, ArbiterKind::Random, 33).unwrap();
        let mut greedy = RaEdnSystem::new(4, 2, 2, 8, ArbiterKind::Random, 33).unwrap();
        let (t_random, _) = random.measure_mean_cycles_scheduled(6, Schedule::Random);
        let (t_greedy, _) = greedy.measure_mean_cycles_scheduled(6, Schedule::GreedyDistinct);
        assert!(
            t_greedy <= t_random + 1.0,
            "greedy {t_greedy} vs random {t_random}"
        );
    }

    #[test]
    fn session_run_is_bit_identical_to_caller_driven_loop() {
        // The cluster-session path must reproduce the legacy per-cycle
        // loop exactly: same picks, same claims, same per-cycle counts.
        for schedule in [Schedule::Random, Schedule::GreedyDistinct] {
            for (b, c, l, q, seed) in [(4u64, 2u64, 2u32, 4u64, 31u64), (4, 2, 1, 3, 32)] {
                let mut session = RaEdnSystem::new(b, c, l, q, ArbiterKind::Random, seed).unwrap();
                let mut legacy = RaEdnSystem::new(b, c, l, q, ArbiterKind::Random, seed).unwrap();
                let perm = Permutation::random(
                    session.processors(),
                    &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D),
                );
                assert_eq!(
                    session.route_permutation_scheduled(&perm, schedule),
                    legacy.route_permutation_caller_driven(&perm, schedule),
                    "schedule {schedule:?} RA-EDN({b},{c},{l},{q})"
                );
                // Back-to-back runs on the same systems: queue/buffer
                // reuse must not perturb the streams.
                assert_eq!(
                    session.route_permutation_scheduled(&perm, schedule),
                    legacy.route_permutation_caller_driven(&perm, schedule),
                    "second run, schedule {schedule:?} RA-EDN({b},{c},{l},{q})"
                );
            }
        }
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let mut a = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 77).unwrap();
        let mut b = RaEdnSystem::new(4, 2, 2, 4, ArbiterKind::Random, 77).unwrap();
        assert_eq!(a.route_random_permutation(), b.route_random_permutation());
    }
}
