//! Monte-Carlo estimators for the paper's analytic quantities.

use crate::network::{ArbiterKind, NetworkSim};
use crate::stats::RunningStats;
use edn_core::{BatchOutcomeView, CycleDriver, EdnParams, RouteRequest, SessionState};
use edn_traffic::{Permutation, UniformTraffic, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A measured acceptance probability with its sampling uncertainty.
///
/// Produced by [`estimate_pa`] and [`estimate_pa_permutation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceEstimate {
    /// Ratio of all delivered to all offered requests.
    pub mean: f64,
    /// Standard error of the per-cycle acceptance ratios.
    pub std_error: f64,
    /// Cycles simulated.
    pub cycles: u32,
    /// Total requests offered across all cycles.
    pub offered: u64,
    /// Total requests delivered across all cycles.
    pub delivered: u64,
}

impl AcceptanceEstimate {
    /// Normal-approximation 95% confidence interval for the mean.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_error;
        (self.mean - half, self.mean + half)
    }

    /// `true` if `value` lies within the 95% confidence interval widened
    /// by `slack` on each side (for model-vs-measurement comparisons where
    /// the model itself carries approximation error).
    pub fn is_consistent_with(&self, value: f64, slack: f64) -> bool {
        let (lo, hi) = self.ci95();
        value >= lo - slack && value <= hi + slack
    }
}

/// Measures acceptance for an arbitrary [`Workload`] over `cycles`
/// independent network cycles — the generic engine behind
/// [`estimate_pa`] and [`estimate_pa_permutation`], public so experiments
/// can plug in non-uniform traffic (e.g. hot-spot / NUTS workloads).
///
/// The whole measurement is **one driver-backed session call** on the
/// routing engine ([`edn_core::RouteSession::step_n`]): the workload
/// plugs into the session layer as a [`CycleDriver`], so the per-cycle
/// loop no longer round-trips through this caller. One [`NetworkSim`]
/// (hence one routing engine) and one session request buffer are reused
/// across all cycles, so the measurement loop performs no steady-state
/// allocations. Bit-identical to the caller-driven
/// [`estimate_pa_with_reference`] oracle (asserted by the differential
/// tests).
pub fn estimate_pa_with<W: Workload>(
    params: &EdnParams,
    workload: &mut W,
    arbiter: ArbiterKind,
    cycles: u32,
    seed: u64,
) -> AcceptanceEstimate {
    /// A [`Workload`] as a session driver: refill the batch every cycle,
    /// fold per-cycle acceptance into running statistics.
    struct WorkloadDriver<'a, W> {
        workload: &'a mut W,
        rng: &'a mut StdRng,
        per_cycle: RunningStats,
        offered: u64,
        delivered: u64,
    }
    impl<W: Workload> CycleDriver for WorkloadDriver<'_, W> {
        fn fill_cycle(&mut self, _cycle: u64, requests: &mut Vec<RouteRequest>) {
            self.workload.fill_batch(requests, self.rng);
        }
        fn absorb(&mut self, _cycle: u64, outcome: &BatchOutcomeView) {
            if outcome.offered() == 0 {
                // An empty cycle is vacuously perfect (and routes nothing,
                // so the arbiter streams are untouched — exactly the
                // legacy loop's `continue`).
                self.per_cycle.push(1.0);
                return;
            }
            self.offered += outcome.offered() as u64;
            self.delivered += outcome.delivered_count() as u64;
            self.per_cycle.push(outcome.acceptance_rate());
        }
    }

    let mut sim = NetworkSim::new(*params, arbiter, seed ^ 0xA5A5_5A5A_A5A5_5A5A);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = SessionState::new();
    let mut driver = WorkloadDriver {
        workload,
        rng: &mut rng,
        per_cycle: RunningStats::new(),
        offered: 0,
        delivered: 0,
    };
    sim.run_session(&mut state, &mut driver, cycles as u64);
    let mean = if driver.offered == 0 {
        1.0
    } else {
        driver.delivered as f64 / driver.offered as f64
    };
    AcceptanceEstimate {
        mean,
        std_error: driver.per_cycle.std_error(),
        cycles,
        offered: driver.offered,
        delivered: driver.delivered,
    }
}

/// The pre-session `estimate_pa_with`: the caller drives
/// [`NetworkSim::route_cycle_view`] once per cycle. Retained as the
/// differential oracle — [`estimate_pa_with`] must reproduce this loop's
/// estimate bit-for-bit for any workload and seed.
pub fn estimate_pa_with_reference<W: Workload>(
    params: &EdnParams,
    workload: &mut W,
    arbiter: ArbiterKind,
    cycles: u32,
    seed: u64,
) -> AcceptanceEstimate {
    let mut sim = NetworkSim::new(*params, arbiter, seed ^ 0xA5A5_5A5A_A5A5_5A5A);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(params.inputs() as usize);
    let mut per_cycle = RunningStats::new();
    let mut offered_total = 0u64;
    let mut delivered_total = 0u64;
    for _ in 0..cycles {
        workload.fill_batch(&mut batch, &mut rng);
        if batch.is_empty() {
            per_cycle.push(1.0);
            continue;
        }
        let outcome = sim.route_cycle_view(&batch);
        offered_total += outcome.offered() as u64;
        delivered_total += outcome.delivered_count() as u64;
        per_cycle.push(outcome.acceptance_rate());
    }
    let mean = if offered_total == 0 {
        1.0
    } else {
        delivered_total as f64 / offered_total as f64
    };
    AcceptanceEstimate {
        mean,
        std_error: per_cycle.std_error(),
        cycles,
        offered: offered_total,
        delivered: delivered_total,
    }
}

/// Measures acceptance once per seed of a seed axis: `workload_for(seed)`
/// builds each seed's workload, and each returned estimate is
/// **bit-identical** — `f64` fields included — to [`estimate_pa_with`]
/// called with that workload and seed alone (each seed keeps its own
/// workload RNG `seed` and arbiter stream
/// `seed ^ 0xA5A5_5A5A_A5A5_5A5A`, the [`NetworkSim`] scheme).
pub fn estimate_pa_seeds_with<W, F>(
    params: &EdnParams,
    mut workload_for: F,
    arbiter: ArbiterKind,
    cycles: u32,
    seeds: &[u64],
) -> Vec<AcceptanceEstimate>
where
    W: Workload,
    F: FnMut(u64) -> W,
{
    seeds
        .iter()
        .map(|&seed| {
            let mut workload = workload_for(seed);
            estimate_pa_with(params, &mut workload, arbiter, cycles, seed)
        })
        .collect()
}

/// [`estimate_pa`] over a whole seed axis: one estimate per seed, each
/// bit-identical to the `estimate_pa(params, rate, arbiter, cycles, seed)`
/// call it stands for. This is the entry point the sweep binaries use for
/// their seed axes.
pub fn estimate_pa_seeds(
    params: &EdnParams,
    rate: f64,
    arbiter: ArbiterKind,
    cycles: u32,
    seeds: &[u64],
) -> Vec<AcceptanceEstimate> {
    estimate_pa_seeds_with(
        params,
        |_seed| UniformTraffic::new(params.inputs(), params.outputs(), rate),
        arbiter,
        cycles,
        seeds,
    )
}

/// Measures `PA(r)` under uniform independent traffic (the Eq. 4 setting)
/// by simulating `cycles` independent network cycles.
pub fn estimate_pa(
    params: &EdnParams,
    rate: f64,
    arbiter: ArbiterKind,
    cycles: u32,
    seed: u64,
) -> AcceptanceEstimate {
    let mut workload = UniformTraffic::new(params.inputs(), params.outputs(), rate);
    estimate_pa_with(params, &mut workload, arbiter, cycles, seed)
}

/// Measures `PA_p(r)` under (partial) permutation traffic (the Eq. 5
/// setting): each cycle draws a fresh random permutation and offers each
/// pair with probability `rate`.
///
/// # Panics
///
/// Panics if the network is not square (`inputs != outputs`).
pub fn estimate_pa_permutation(
    params: &EdnParams,
    rate: f64,
    arbiter: ArbiterKind,
    cycles: u32,
    seed: u64,
) -> AcceptanceEstimate {
    assert!(
        params.is_square(),
        "permutation traffic needs a square network, got {} x {}",
        params.inputs(),
        params.outputs()
    );

    struct PermutationWorkload {
        /// Reshuffled in place every cycle — no per-cycle allocation.
        perm: Permutation,
        rate: f64,
    }
    impl Workload for PermutationWorkload {
        fn next_batch(&mut self, rng: &mut StdRng) -> Vec<edn_core::RouteRequest> {
            let mut batch = Vec::new();
            self.fill_batch(&mut batch, rng);
            batch
        }
        fn fill_batch(&mut self, batch: &mut Vec<edn_core::RouteRequest>, rng: &mut StdRng) {
            self.perm.randomize_in_place(rng);
            if self.rate >= 1.0 {
                self.perm.fill_requests(batch);
            } else {
                self.perm.fill_partial_requests(self.rate, rng, batch);
            }
        }
        fn inputs(&self) -> u64 {
            self.perm.len()
        }
        fn outputs(&self) -> u64 {
            self.perm.len()
        }
    }

    let mut workload = PermutationWorkload {
        perm: Permutation::identity(params.inputs()),
        rate,
    };
    estimate_pa_with(params, &mut workload, arbiter, cycles, seed)
}

/// Runs `f(seed)` for every seed on the work-stealing sweep pool,
/// preserving order. For embarrassingly parallel Monte-Carlo sweeps.
///
/// # Examples
///
/// ```
/// use edn_sim::map_seeds;
///
/// let squares = map_seeds(&[1, 2, 3, 4], |seed| seed * seed);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    map_seeds_with(seeds, || (), |(), seed| f(seed))
}

/// As [`map_seeds`], but each pool worker first builds private state with
/// `init` and hands `f` a mutable reference to it for every seed it
/// executes.
///
/// This is how Monte-Carlo sweeps amortize engine construction: `init`
/// builds one [`NetworkSim`] (or bare
/// [`RoutingEngine`](edn_core::RoutingEngine)) per worker, and every seed
/// routed on that worker reuses its buffers instead of re-wiring the
/// fabric per seed.
///
/// Execution delegates to [`edn_sweep::pool`]: idle workers *steal*
/// pending seeds from busy ones, so uneven per-seed costs (an RA-EDN
/// permutation run over 16K PEs next to a 128-PE one) no longer
/// serialize the sweep on its slowest fixed chunk. Results are returned
/// in seed order and are identical for every worker count, provided
/// `f`'s result depends only on the seed (state is scratch, not an
/// accumulator). The worker count is
/// [`edn_sweep::default_threads`] (all cores, or `EDN_SWEEP_THREADS`).
///
/// # Examples
///
/// ```
/// use edn_sim::map_seeds_with;
///
/// // One scratch Vec per worker, reused across seeds.
/// let sums = map_seeds_with(
///     &[1, 2, 3, 4],
///     Vec::<u64>::new,
///     |scratch, seed| {
///         scratch.clear();
///         scratch.extend(0..seed);
///         scratch.iter().sum::<u64>()
///     },
/// );
/// assert_eq!(sums, vec![0, 1, 3, 6]);
/// ```
pub fn map_seeds_with<S, T, I, F>(seeds: &[u64], init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    edn_sweep::map_slice_with(0, seeds, init, |state, &seed| f(state, seed))
}

/// The pre-pool `map_seeds_with`: fixed contiguous chunks, one OS thread
/// per chunk, no stealing.
///
/// Retained as the differential baseline: the `seed_sweep` Criterion
/// bench and the equivalence tests below pit the work-stealing pool
/// against it. A sweep whose cost is concentrated in one chunk (the
/// RA-EDN pathology) serializes here on that chunk's thread; new code
/// should call [`map_seeds_with`].
pub fn map_seeds_chunked_with<S, T, I, F>(seeds: &[u64], threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    if seeds.is_empty() {
        return Vec::new();
    }
    let threads = if threads == 0 {
        edn_sweep::default_threads()
    } else {
        threads
    };
    let chunk = seeds.len().div_ceil(threads);
    let mut results: Vec<Option<T>> = Vec::with_capacity(seeds.len());
    results.resize_with(seeds.len(), || None);
    let init = &init;
    let f = &f;
    std::thread::scope(|scope| {
        for (seed_chunk, out_chunk) in seeds.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut state = init();
                for (&seed, slot) in seed_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(&mut state, seed));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every slot is filled by its thread"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_analytic::pa::probability_of_acceptance;
    use edn_analytic::permutation::permutation_pa;

    #[test]
    fn uniform_traffic_matches_analytic_pa() {
        // The independence model is an approximation; allow a small slack
        // beyond the Monte-Carlo CI.
        for (a, b, c, l, rate) in [
            (16u64, 4u64, 4u64, 2u32, 1.0),
            (16, 4, 4, 2, 0.5),
            (8, 2, 4, 3, 1.0),
            (8, 8, 1, 2, 0.75),
        ] {
            let params = EdnParams::new(a, b, c, l).unwrap();
            let estimate = estimate_pa(&params, rate, ArbiterKind::Random, 150, 42);
            let model = probability_of_acceptance(&params, rate);
            assert!(
                estimate.is_consistent_with(model, 0.03),
                "{params} r={rate}: measured {} +- {}, model {model}",
                estimate.mean,
                estimate.std_error
            );
        }
    }

    #[test]
    fn permutation_traffic_matches_analytic_pa_p() {
        for (a, b, c, l) in [(16u64, 4u64, 4u64, 2u32), (8, 4, 2, 3)] {
            let params = EdnParams::new(a, b, c, l).unwrap();
            let estimate = estimate_pa_permutation(&params, 1.0, ArbiterKind::Random, 150, 7);
            let model = permutation_pa(&params, 1.0);
            assert!(
                estimate.is_consistent_with(model, 0.04),
                "{params}: measured {} +- {}, model {model}",
                estimate.mean,
                estimate.std_error
            );
        }
    }

    #[test]
    fn permutation_on_crossbar_never_blocks() {
        let params = EdnParams::crossbar(32).unwrap();
        let estimate = estimate_pa_permutation(&params, 1.0, ArbiterKind::Priority, 20, 3);
        assert_eq!(estimate.mean, 1.0);
        assert_eq!(estimate.delivered, estimate.offered);
    }

    #[test]
    fn zero_rate_is_vacuously_perfect() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let estimate = estimate_pa(&params, 0.0, ArbiterKind::Random, 10, 5);
        assert_eq!(estimate.mean, 1.0);
        assert_eq!(estimate.offered, 0);
    }

    #[test]
    fn estimates_are_seed_reproducible() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let a = estimate_pa(&params, 1.0, ArbiterKind::Random, 30, 11);
        let b = estimate_pa(&params, 1.0, ArbiterKind::Random, 30, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn session_estimate_is_bit_identical_to_caller_driven_loop() {
        // The session-backed estimator must reproduce the legacy
        // route_cycle_view loop exactly, f64 fields included, for uniform
        // and hot-spot workloads, partial loads, and every arbiter.
        use edn_traffic::{HotSpotTraffic, UniformTraffic};
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        for arbiter in [
            ArbiterKind::Random,
            ArbiterKind::Priority,
            ArbiterKind::RoundRobin,
        ] {
            for (rate, seed) in [(1.0, 1u64), (0.4, 2), (0.0, 3)] {
                let mut a = UniformTraffic::new(params.inputs(), params.outputs(), rate);
                let mut b = UniformTraffic::new(params.inputs(), params.outputs(), rate);
                assert_eq!(
                    estimate_pa_with(&params, &mut a, arbiter, 40, seed),
                    estimate_pa_with_reference(&params, &mut b, arbiter, 40, seed),
                    "uniform rate {rate} seed {seed} arbiter {arbiter:?}"
                );
            }
            let mut a = HotSpotTraffic::new(params.inputs(), params.outputs(), 1.0, 7, 0.25);
            let mut b = HotSpotTraffic::new(params.inputs(), params.outputs(), 1.0, 7, 0.25);
            assert_eq!(
                estimate_pa_with(&params, &mut a, arbiter, 40, 9),
                estimate_pa_with_reference(&params, &mut b, arbiter, 40, 9),
                "hot-spot arbiter {arbiter:?}"
            );
        }
    }

    #[test]
    fn seed_axis_estimates_are_bit_identical_to_scalar_per_seed() {
        // estimate_pa_seeds must reproduce the per-seed estimate_pa calls
        // exactly, f64 fields included, for every arbiter: on a small
        // EDN(16,4,4,2) with a 70-seed axis, and on the wide-switch
        // EDN(128,64,2,1).
        let shapes = [
            (EdnParams::new(16, 4, 4, 2).unwrap(), 70u64, 25),
            (EdnParams::new(128, 64, 2, 1).unwrap(), 3, 10),
        ];
        for (params, seed_count, cycles) in shapes {
            let seeds: Vec<u64> = (0..seed_count).map(|s| s * 17 + 3).collect();
            for arbiter in [
                ArbiterKind::Random,
                ArbiterKind::Priority,
                ArbiterKind::RoundRobin,
            ] {
                for rate in [1.0, 0.4] {
                    let axis = estimate_pa_seeds(&params, rate, arbiter, cycles, &seeds);
                    let scalar: Vec<AcceptanceEstimate> = seeds
                        .iter()
                        .map(|&seed| estimate_pa(&params, rate, arbiter, cycles, seed))
                        .collect();
                    assert_eq!(axis, scalar, "{params} rate {rate} arbiter {arbiter:?}");
                }
            }
        }
    }

    #[test]
    fn seed_axis_estimates_carry_arbitrary_workloads() {
        // The generic entry point: one hot-spot workload per seed, again
        // bit-identical to per-seed estimate_pa_with.
        use edn_traffic::HotSpotTraffic;
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let seeds: Vec<u64> = (0..12).collect();
        let hot_spot = || HotSpotTraffic::new(params.inputs(), params.outputs(), 1.0, 7, 0.25);
        let axis =
            estimate_pa_seeds_with(&params, |_seed| hot_spot(), ArbiterKind::Random, 30, &seeds);
        let scalar: Vec<AcceptanceEstimate> = seeds
            .iter()
            .map(|&seed| {
                let mut workload = hot_spot();
                estimate_pa_with(&params, &mut workload, ArbiterKind::Random, 30, seed)
            })
            .collect();
        assert_eq!(axis, scalar);
    }

    #[test]
    fn map_seeds_preserves_order_and_covers_all() {
        let seeds: Vec<u64> = (0..37).collect();
        let out = map_seeds(&seeds, |s| s + 1);
        assert_eq!(out, (1..38).collect::<Vec<u64>>());
        assert!(map_seeds(&[], |s| s).is_empty());
    }

    #[test]
    fn pool_and_chunked_sweeps_agree() {
        // The work-stealing pool must return exactly what the fixed-chunk
        // baseline returns, for any thread count.
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let seeds: Vec<u64> = (0..9).collect();
        let measure =
            |(): &mut (), seed: u64| estimate_pa(&params, 1.0, ArbiterKind::Random, 15, seed).mean;
        let pooled = map_seeds_with(&seeds, || (), measure);
        for threads in [1, 3] {
            let chunked = map_seeds_chunked_with(&seeds, threads, || (), measure);
            assert_eq!(pooled, chunked, "threads {threads}");
        }
    }

    #[test]
    fn map_seeds_with_reuses_one_sim_per_thread() {
        // A sweep holding one NetworkSim per thread must agree with the
        // same sweep constructing a fresh simulator per seed: the engine's
        // state never leaks between seeds.
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let seeds: Vec<u64> = (0..12).collect();
        let reused = map_seeds_with(
            &seeds,
            || (),
            |(), seed| estimate_pa(&params, 1.0, ArbiterKind::Random, 20, seed).mean,
        );
        let fresh: Vec<f64> = seeds
            .iter()
            .map(|&seed| estimate_pa(&params, 1.0, ArbiterKind::Random, 20, seed).mean)
            .collect();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn ci_brackets_mean() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let estimate = estimate_pa(&params, 1.0, ArbiterKind::Random, 50, 13);
        let (lo, hi) = estimate.ci95();
        assert!(lo <= estimate.mean && estimate.mean <= hi);
        assert!(estimate.is_consistent_with(estimate.mean, 0.0));
    }
}
