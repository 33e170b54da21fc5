//! The shared-memory MIMD system simulator — Section 4 / Figures 9–10.
//!
//! `N` processors share `N` memory modules through a (usually square) EDN.
//! At each cycle an *active* processor issues a fresh request with
//! probability `r` to a uniformly random module; a processor whose request
//! was rejected is *waiting* and resubmits every cycle until accepted.
//!
//! The paper's Markov analysis assumes resubmitted requests re-address the
//! modules uniformly ([`ResubmitPolicy::Redraw`]); a real blocked processor
//! retries the *same* module ([`ResubmitPolicy::SameDestination`]). The
//! simulator supports both so the `TAB-SIMVAL` experiment can quantify how
//! much that modelling shortcut matters.

use crate::network::{ArbiterKind, NetworkSim};
use crate::stats::RunningStats;
use edn_core::{BatchOutcomeView, CycleDriver, EdnError, EdnParams, RouteRequest, SessionState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a waiting processor does with its destination when it retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResubmitPolicy {
    /// Retry the same memory module (physically faithful).
    #[default]
    SameDestination,
    /// Draw a fresh uniform module (the paper's independence assumption).
    Redraw,
}

/// Steady-state measurements from [`MimdSystem::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct MimdReport {
    /// Measured cycles (after warm-up).
    pub cycles: u32,
    /// Total requests offered to the network (fresh + resubmitted).
    pub offered: u64,
    /// Total requests delivered.
    pub delivered: u64,
    /// Delivered / offered — the measured `PA'(r)`.
    pub acceptance: f64,
    /// Mean fraction of processors in the Waiting state (measured `q_W`).
    pub waiting_fraction: f64,
    /// Mean per-cycle network load, offered / (cycles * N) — the measured
    /// effective rate `r'`.
    pub effective_rate: f64,
    /// Mean requests delivered per cycle (the measured bandwidth).
    pub bandwidth: f64,
    /// Standard error of the per-cycle acceptance.
    pub acceptance_std_error: f64,
}

/// The processor–memory system of Figure 9.
///
/// # Examples
///
/// ```
/// use edn_core::EdnParams;
/// use edn_sim::{ArbiterKind, MimdSystem, ResubmitPolicy};
///
/// # fn main() -> Result<(), edn_core::EdnError> {
/// let params = EdnParams::new(16, 4, 4, 2)?; // 64 processors, 64 modules
/// let mut system =
///     MimdSystem::new(params, 0.5, ArbiterKind::Random, ResubmitPolicy::Redraw, 42)?;
/// let report = system.run(200, 400);
/// assert!(report.acceptance > 0.5 && report.acceptance <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MimdSystem {
    sim: NetworkSim,
    rng: StdRng,
    rate: f64,
    policy: ResubmitPolicy,
    /// `pending[i] = Some(module)` while processor `i` waits on `module`.
    pending: Vec<Option<u64>>,
    /// Resident session buffers for [`MimdSystem::run`] and
    /// [`MimdSystem::step`], reused across runs.
    session: SessionState,
}

/// The arbiter stream of seed `s` is seeded with `s ^ ARBITER_SALT`, so it
/// never coincides with the processor stream seeded with `s`.
const ARBITER_SALT: u64 = 0x00C0_FFEE;

/// The processor population as a [`CycleDriver`]: per-cycle fresh-request
/// injection plus resubmission of waiting processors, with measured-window
/// statistics accumulated in place. Both [`MimdSystem::run`] and
/// [`MimdSystem::step`] drive it.
struct MimdDriver<'a> {
    pending: &'a mut [Option<u64>],
    rng: &'a mut StdRng,
    rate: f64,
    policy: ResubmitPolicy,
    modules: u64,
    processors: f64,
    /// Cycles before this index are warm-up: routed but unmeasured.
    warmup: u64,
    /// Processors with `pending[i].is_some()`, kept in step with
    /// `pending` so sampling it costs O(1) instead of a recount.
    waiting_now: usize,
    waiting: RunningStats,
    acceptance: RunningStats,
    offered: u64,
    delivered: u64,
}

impl MimdDriver<'_> {
    /// The measured window's report (`cycles` measured cycles).
    fn report(&self, cycles: u32) -> MimdReport {
        let acceptance = if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        };
        MimdReport {
            cycles,
            offered: self.offered,
            delivered: self.delivered,
            acceptance,
            waiting_fraction: self.waiting.mean(),
            effective_rate: self.offered as f64 / (cycles as f64 * self.processors),
            bandwidth: self.delivered as f64 / cycles as f64,
            acceptance_std_error: self.acceptance.std_error(),
        }
    }
}

impl CycleDriver for MimdDriver<'_> {
    fn fill_cycle(&mut self, cycle: u64, requests: &mut Vec<RouteRequest>) {
        if cycle >= self.warmup {
            // Waiting fraction sampled *before* the cycle, matching q_W.
            self.waiting.push(self.waiting_now as f64 / self.processors);
        }
        for (proc_id, pending) in self.pending.iter_mut().enumerate() {
            let destination = match (*pending, self.policy) {
                (Some(module), ResubmitPolicy::SameDestination) => Some(module),
                (Some(_), ResubmitPolicy::Redraw) => Some(self.rng.gen_range(0..self.modules)),
                (None, _) => {
                    if self.rate > 0.0 && self.rng.gen_bool(self.rate) {
                        Some(self.rng.gen_range(0..self.modules))
                    } else {
                        None
                    }
                }
            };
            if let Some(module) = destination {
                self.waiting_now += usize::from(pending.is_none());
                *pending = Some(module);
                requests.push(RouteRequest::new(proc_id as u64, module));
            }
        }
    }

    fn absorb(&mut self, cycle: u64, outcome: &BatchOutcomeView) {
        for &(source, _) in outcome.delivered() {
            self.pending[source as usize] = None;
        }
        self.waiting_now -= outcome.delivered_count();
        if cycle >= self.warmup {
            let (offered, delivered) = (outcome.offered(), outcome.delivered_count());
            self.offered += offered as u64;
            self.delivered += delivered as u64;
            if offered > 0 {
                self.acceptance.push(delivered as f64 / offered as f64);
            }
        }
    }
}

impl MimdSystem {
    /// Creates the system: one processor per network input, one module per
    /// output, fresh-request probability `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::IndexOutOfRange`] if `rate` is outside `[0, 1]`
    /// (reported against a percent scale).
    pub fn new(
        params: EdnParams,
        rate: f64,
        arbiter: ArbiterKind,
        policy: ResubmitPolicy,
        seed: u64,
    ) -> Result<Self, EdnError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(EdnError::IndexOutOfRange {
                kind: "request rate (percent)",
                index: (rate * 100.0) as u64,
                limit: 101,
            });
        }
        Ok(MimdSystem {
            sim: NetworkSim::new(params, arbiter, seed ^ ARBITER_SALT),
            rng: StdRng::seed_from_u64(seed),
            rate,
            policy,
            pending: vec![None; params.inputs() as usize],
            session: SessionState::new(),
        })
    }

    /// The number of processors (network inputs).
    pub fn processors(&self) -> u64 {
        self.sim.params().inputs()
    }

    /// The number of memory modules (network outputs).
    pub fn modules(&self) -> u64 {
        self.sim.params().outputs()
    }

    /// Count of processors currently waiting on a rejected request.
    pub fn waiting_now(&self) -> usize {
        self.pending.iter().filter(|p| p.is_some()).count()
    }

    /// The processor population as a driver whose cycles before `warmup`
    /// are routed but unmeasured, next to the simulator and session
    /// buffers that route it.
    fn driver(&mut self, warmup: u64) -> (MimdDriver<'_>, &mut NetworkSim, &mut SessionState) {
        let driver = MimdDriver {
            modules: self.modules(),
            processors: self.processors() as f64,
            waiting_now: self.waiting_now(),
            pending: &mut self.pending,
            rng: &mut self.rng,
            rate: self.rate,
            policy: self.policy,
            warmup,
            waiting: RunningStats::new(),
            acceptance: RunningStats::new(),
            offered: 0,
            delivered: 0,
        };
        (driver, &mut self.sim, &mut self.session)
    }

    /// Advances one network cycle; returns `(offered, delivered)`.
    ///
    /// This is one unmeasured cycle of the session [`MimdSystem::run`]
    /// steps, so it draws from the same streams in the same order.
    pub fn step(&mut self) -> (usize, usize) {
        let (mut driver, sim, session) = self.driver(1);
        let (offered, delivered) = sim.run_session(session, &mut driver, 1);
        (offered as usize, delivered as usize)
    }

    /// Runs `warmup` unmeasured cycles followed by `cycles` measured ones.
    ///
    /// The whole run is **one resident session call** on the routing
    /// engine ([`edn_core::RouteSession::step_n`]): the processor
    /// population stays inside the session layer instead of
    /// round-tripping through the caller once per cycle, and repeated
    /// runs reuse every buffer. The differential tests assert it is
    /// bit-identical to the same processor model stepped by
    /// [`edn_core::reference::step_driver`].
    pub fn run(&mut self, warmup: u32, cycles: u32) -> MimdReport {
        let (mut driver, sim, session) = self.driver(warmup as u64);
        sim.run_session(session, &mut driver, warmup as u64 + cycles as u64);
        driver.report(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_analytic::mimd::resubmission_fixed_point;

    fn params() -> EdnParams {
        EdnParams::new(16, 4, 4, 2).unwrap() // 64 x 64
    }

    #[test]
    fn redraw_policy_matches_markov_model() {
        // The paper's model assumes redraw; the simulator under the same
        // assumption must land near its fixed point.
        let p = EdnParams::new(16, 4, 4, 3).unwrap(); // 256 processors
        for rate in [0.3, 0.5] {
            let model = resubmission_fixed_point(&p, rate, 1e-12, 100_000);
            let mut system =
                MimdSystem::new(p, rate, ArbiterKind::Random, ResubmitPolicy::Redraw, 1234)
                    .unwrap();
            let report = system.run(300, 600);
            assert!(
                (report.acceptance - model.pa_prime).abs() < 0.04,
                "r={rate}: measured PA' {} vs model {}",
                report.acceptance,
                model.pa_prime
            );
            assert!(
                (report.effective_rate - model.effective_rate).abs() < 0.04,
                "r={rate}: measured r' {} vs model {}",
                report.effective_rate,
                model.effective_rate
            );
            assert!(
                (report.waiting_fraction - model.q_waiting).abs() < 0.05,
                "r={rate}: measured qW {} vs model {}",
                report.waiting_fraction,
                model.q_waiting
            );
        }
    }

    #[test]
    fn same_destination_is_no_better_than_redraw() {
        // Persistent retries pile onto contended modules, so acceptance
        // should not improve.
        let mut redraw = MimdSystem::new(
            params(),
            0.7,
            ArbiterKind::Random,
            ResubmitPolicy::Redraw,
            5,
        )
        .unwrap();
        let mut same = MimdSystem::new(
            params(),
            0.7,
            ArbiterKind::Random,
            ResubmitPolicy::SameDestination,
            5,
        )
        .unwrap();
        let r1 = redraw.run(200, 500);
        let r2 = same.run(200, 500);
        assert!(
            r2.acceptance <= r1.acceptance + 0.02,
            "same-dest {} vs redraw {}",
            r2.acceptance,
            r1.acceptance
        );
    }

    #[test]
    fn zero_rate_stays_idle() {
        let mut system = MimdSystem::new(
            params(),
            0.0,
            ArbiterKind::Random,
            ResubmitPolicy::Redraw,
            9,
        )
        .unwrap();
        let report = system.run(10, 50);
        assert_eq!(report.offered, 0);
        assert_eq!(report.acceptance, 1.0);
        assert_eq!(report.waiting_fraction, 0.0);
    }

    #[test]
    fn flow_conservation() {
        let mut system = MimdSystem::new(
            params(),
            0.8,
            ArbiterKind::Random,
            ResubmitPolicy::SameDestination,
            3,
        )
        .unwrap();
        let report = system.run(100, 300);
        // Delivered never exceeds offered; waiting processors exist under load.
        assert!(report.delivered <= report.offered);
        assert!(report.waiting_fraction > 0.0);
        // Bandwidth = delivered per cycle <= N.
        assert!(report.bandwidth <= system.processors() as f64);
    }

    #[test]
    fn rejects_bad_rate() {
        assert!(MimdSystem::new(
            params(),
            1.5,
            ArbiterKind::Random,
            ResubmitPolicy::Redraw,
            0
        )
        .is_err());
    }

    /// `system.run(warmup, cycles)` with every cycle routed by the
    /// caller-driven [`edn_core::reference::step_driver`] over `arbiter`
    /// instead of the system's session.
    fn run_on_reference(
        system: &mut MimdSystem,
        arbiter: &mut dyn edn_core::Arbiter,
        warmup: u32,
        cycles: u32,
    ) -> MimdReport {
        let (mut driver, sim, _) = system.driver(warmup as u64);
        edn_core::reference::step_driver(
            sim.topology(),
            &mut driver,
            arbiter,
            warmup as u64 + cycles as u64,
        );
        driver.report(cycles)
    }

    #[test]
    fn session_run_is_bit_identical_to_caller_driven_loop() {
        // The resident-session path must reproduce the same processor
        // model stepped cycle by cycle over the reference router with an
        // identically seeded arbiter: same RNG draws, same stats
        // accumulation order, hence a bit-for-bit equal report (f64
        // fields included).
        for (policy, rate, seed) in [
            (ResubmitPolicy::Redraw, 0.6, 11u64),
            (ResubmitPolicy::SameDestination, 0.9, 12),
            (ResubmitPolicy::Redraw, 0.0, 13),
            (ResubmitPolicy::SameDestination, 1.0, 14),
        ] {
            for arbiter in [
                ArbiterKind::Random,
                ArbiterKind::Priority,
                ArbiterKind::RoundRobin,
            ] {
                let mut session = MimdSystem::new(params(), rate, arbiter, policy, seed).unwrap();
                let mut legacy = MimdSystem::new(params(), rate, arbiter, policy, seed).unwrap();
                let mut legacy_arbiter = arbiter.build(seed ^ ARBITER_SALT);
                let a = session.run(40, 110);
                let b = run_on_reference(&mut legacy, legacy_arbiter.as_mut(), 40, 110);
                assert_eq!(a, b, "policy {policy:?} rate {rate} arbiter {arbiter:?}");
                // And again on the same systems: buffer reuse must not
                // perturb the streams. A single `step` in between is one
                // cycle of the same model on both sides.
                session.step();
                run_on_reference(&mut legacy, legacy_arbiter.as_mut(), 1, 0);
                assert_eq!(
                    session.run(10, 60),
                    run_on_reference(&mut legacy, legacy_arbiter.as_mut(), 10, 60),
                    "second run, policy {policy:?} rate {rate} arbiter {arbiter:?}"
                );
            }
        }
    }

    #[test]
    fn waiting_count_reflects_blocked_processors() {
        let mut system = MimdSystem::new(
            params(),
            1.0,
            ArbiterKind::Random,
            ResubmitPolicy::SameDestination,
            7,
        )
        .unwrap();
        assert_eq!(system.waiting_now(), 0);
        system.step();
        // At full load on a blocking network some processors must be waiting.
        assert!(system.waiting_now() > 0);
    }
}
