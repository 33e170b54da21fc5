//! Zero-cost routing telemetry: the [`Probe`] trait and its two
//! implementations.
//!
//! The paper's central quantities — blocking probability per stage
//! (Eq. 4's recursion), resubmission queue behaviour (Section 4), wire
//! utilization under hot spots — were previously visible only as
//! end-of-run aggregates: a [`crate::BatchOutcomeView`] says *how many*
//! requests died, not *where* in the fabric or *how contended* the
//! arbiters were. A [`Probe`] is threaded through the hot loops of
//! [`crate::RoutingEngine`] and [`crate::RouteSession`] as a
//! monomorphized type parameter, so
//! instrumentation obeys the repository's two iron rules:
//!
//! * **Zero cost when off.** [`NullProbe`] sets
//!   [`Probe::ENABLED`]` = false`; every call site is guarded by
//!   `if P::ENABLED`, a compile-time constant, so the default engines
//!   compile to exactly the uninstrumented code — the counting-allocator
//!   and differential-oracle suites hold with no probe in sight.
//! * **Observation never perturbs.** Probes only *read* the routing
//!   state; outcomes are property-tested bit-identical with [`NullProbe`]
//!   vs. the counting [`StageProbe`] across shapes × arbiters × faults.
//!
//! [`StageProbe`] pre-sizes every counter at construction, so counting
//! stays allocation-free in steady state too — sessions run with the
//! probe on are covered by the same counting-allocator tests as the
//! default path. [`StageProbe::snapshot`] freezes the counters into a
//! [`RunMetrics`] value that `edn_sweep` serializes into the `metrics`
//! JSONL artifact written next to every sweep table.
//!
//! # Examples
//!
//! ```
//! use edn_core::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine, StageProbe};
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let params = EdnParams::new(16, 4, 4, 2)?;
//! let mut engine = RoutingEngine::from_params(params);
//! let mut probe = StageProbe::new(&params);
//! let requests: Vec<RouteRequest> = (0..params.inputs())
//!     .map(|s| RouteRequest::new(s, (s * 7 + 3) % params.outputs()))
//!     .collect();
//! engine.route_probed(&requests, &mut PriorityArbiter::new(), &mut probe);
//! let metrics = probe.snapshot();
//! assert_eq!(metrics.offered, params.inputs());
//! // Offered = delivered + blocked + fault drops, stage by stage.
//! let lost: u64 = metrics.stages.iter().map(|s| s.blocked + s.fault_drops).sum();
//! assert_eq!(metrics.offered, metrics.delivered + lost);
//! # Ok(())
//! # }
//! ```

use crate::params::EdnParams;

/// A routing-telemetry sink, monomorphized into the engine hot loops.
///
/// All methods default to empty bodies; implementors override what they
/// need. Every engine call site is guarded by `if P::ENABLED`, so an
/// implementation with [`Probe::ENABLED`]` = false` ([`NullProbe`])
/// compiles to nothing at all.
///
/// Stage numbering follows the engine: hyperbar stages are `1..=l`, and
/// the final `c x c` crossbar stage is reported as stage `l + 1`.
pub trait Probe {
    /// `false` folds every probe call out of the generated code.
    const ENABLED: bool;

    /// A routing pass begins with `offered` requests. Called once per
    /// engine pass.
    #[inline(always)]
    fn cycle_start(&mut self, offered: usize) {
        let _ = offered;
    }

    /// One bucket was arbitrated at `stage`: `contenders` requests
    /// competed for `capacity` healthy wires of `full` physical wires
    /// (`capacity < full` iff faults disabled some).
    #[inline(always)]
    fn arbitrated(&mut self, stage: u32, contenders: usize, capacity: usize, full: usize) {
        let _ = (stage, contenders, capacity, full);
    }

    /// A request was granted stage-`stage` exit wire `wire` (an index in
    /// `0..wires_after_stage(stage)`, or `0..outputs()` for the crossbar
    /// pseudo-stage `l + 1`).
    #[inline(always)]
    fn wire_granted(&mut self, stage: u32, wire: u64) {
        let _ = (stage, wire);
    }

    /// A request lost arbitration at `stage` and left the fabric.
    #[inline(always)]
    fn request_lost(&mut self, stage: u32) {
        let _ = stage;
    }

    /// The pass ended with `delivered` requests reaching their outputs.
    #[inline(always)]
    fn cycle_end(&mut self, delivered: usize) {
        let _ = delivered;
    }

    /// A session observed `depth` undelivered requests waiting to
    /// (re)submit at the top of a cycle (the resubmission queue depth;
    /// cluster sessions report total pending messages).
    #[inline(always)]
    fn queue_depth(&mut self, depth: usize) {
        let _ = depth;
    }

    /// Request `(source, tag)` entered the fabric this pass (flight
    /// recorder: one inject per request per routed cycle).
    #[inline(always)]
    fn event_inject(&mut self, source: u64, tag: u64) {
        let _ = (source, tag);
    }

    /// Request `(source, tag)` was granted stage-`stage` exit wire
    /// `wire` — the identity-carrying companion of
    /// [`Probe::wire_granted`].
    #[inline(always)]
    fn event_hop(&mut self, stage: u32, source: u64, tag: u64, wire: u64) {
        let _ = (stage, source, tag, wire);
    }

    /// Request `(source, tag)` lost arbitration at `stage`; `losers` is
    /// the total loser count of its bucket this pass (how crowded the
    /// block site was).
    #[inline(always)]
    fn event_block(&mut self, stage: u32, source: u64, tag: u64, losers: usize) {
        let _ = (stage, source, tag, losers);
    }

    /// Request `(source, tag)` died at `stage` because faults disabled
    /// wires its contention level would otherwise have won.
    #[inline(always)]
    fn event_fault_drop(&mut self, stage: u32, source: u64, tag: u64) {
        let _ = (stage, source, tag);
    }

    /// Request `(source, tag)` re-entered a session's submission queue
    /// after losing an earlier cycle (resident resubmission).
    #[inline(always)]
    fn event_resubmit(&mut self, source: u64, tag: u64) {
        let _ = (source, tag);
    }

    /// Request `(source, tag)` was delivered to `output`.
    #[inline(always)]
    fn event_deliver(&mut self, source: u64, tag: u64, output: u64) {
        let _ = (source, tag, output);
    }
}

/// Fans every hook out to two probes — `(&mut StageProbe, &mut
/// TraceProbe)` runs aggregate counters and the flight recorder in one
/// pass, which is how `tab_nuts --trace` reconciles its trace against
/// its `RunMetrics` without routing twice.
// edn-lint: hot-path
impl<A: Probe, B: Probe> Probe for (&mut A, &mut B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn cycle_start(&mut self, offered: usize) {
        self.0.cycle_start(offered);
        self.1.cycle_start(offered);
    }

    #[inline(always)]
    fn arbitrated(&mut self, stage: u32, contenders: usize, capacity: usize, full: usize) {
        self.0.arbitrated(stage, contenders, capacity, full);
        self.1.arbitrated(stage, contenders, capacity, full);
    }

    #[inline(always)]
    fn wire_granted(&mut self, stage: u32, wire: u64) {
        self.0.wire_granted(stage, wire);
        self.1.wire_granted(stage, wire);
    }

    #[inline(always)]
    fn request_lost(&mut self, stage: u32) {
        self.0.request_lost(stage);
        self.1.request_lost(stage);
    }

    #[inline(always)]
    fn cycle_end(&mut self, delivered: usize) {
        self.0.cycle_end(delivered);
        self.1.cycle_end(delivered);
    }

    #[inline(always)]
    fn queue_depth(&mut self, depth: usize) {
        self.0.queue_depth(depth);
        self.1.queue_depth(depth);
    }

    #[inline(always)]
    fn event_inject(&mut self, source: u64, tag: u64) {
        self.0.event_inject(source, tag);
        self.1.event_inject(source, tag);
    }

    #[inline(always)]
    fn event_hop(&mut self, stage: u32, source: u64, tag: u64, wire: u64) {
        self.0.event_hop(stage, source, tag, wire);
        self.1.event_hop(stage, source, tag, wire);
    }

    #[inline(always)]
    fn event_block(&mut self, stage: u32, source: u64, tag: u64, losers: usize) {
        self.0.event_block(stage, source, tag, losers);
        self.1.event_block(stage, source, tag, losers);
    }

    #[inline(always)]
    fn event_fault_drop(&mut self, stage: u32, source: u64, tag: u64) {
        self.0.event_fault_drop(stage, source, tag);
        self.1.event_fault_drop(stage, source, tag);
    }

    #[inline(always)]
    fn event_resubmit(&mut self, source: u64, tag: u64) {
        self.0.event_resubmit(source, tag);
        self.1.event_resubmit(source, tag);
    }

    #[inline(always)]
    fn event_deliver(&mut self, source: u64, tag: u64, output: u64) {
        self.0.event_deliver(source, tag, output);
        self.1.event_deliver(source, tag, output);
    }
}

/// The default probe: compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

/// A counting probe resolving routing behaviour per stage and per wire.
///
/// All counters are pre-sized at construction from the shape, so
/// accumulation is allocation-free; [`StageProbe::snapshot`] clones them
/// into a [`RunMetrics`]. Reuse one probe across runs (or
/// [`StageProbe::reset`] it) exactly like an engine.
#[derive(Debug, Clone)]
pub struct StageProbe {
    params: EdnParams,
    cycles: u64,
    offered: u64,
    delivered: u64,
    /// Requests lost per stage (index `stage - 1`; the crossbar is the
    /// last entry). Includes fault-induced drops.
    lost: Vec<u64>,
    /// The fault-induced subset of `lost` per stage: losers a healthy
    /// bucket of the same contention would have carried.
    fault_drops: Vec<u64>,
    /// Arbitration events per stage.
    arb_events: Vec<u64>,
    /// Sum of contender counts over those events.
    arb_contenders: Vec<u64>,
    /// Deepest contention seen per stage.
    arb_max_depth: Vec<u64>,
    /// Grants per exit wire, all stages flattened via `wire_base`.
    wire_hits: Vec<u64>,
    /// `wire_base[stage - 1]` is stage `stage`'s offset into `wire_hits`.
    wire_base: Vec<usize>,
    queue_sum: u64,
    queue_samples: u64,
    queue_max: u64,
}

impl StageProbe {
    /// A zeroed probe sized for `params`: one counter set per stage
    /// (hyperbars `1..=l` plus the crossbar stage) and one grant counter
    /// per exit wire of every stage.
    pub fn new(params: &EdnParams) -> Self {
        let stages = params.l() as usize + 1;
        let mut wire_base = Vec::with_capacity(stages);
        let mut total = 0usize;
        for stage in 1..=params.l() {
            wire_base.push(total);
            total += params.wires_after_stage(stage) as usize;
        }
        wire_base.push(total);
        total += params.outputs() as usize;
        StageProbe {
            params: *params,
            cycles: 0,
            offered: 0,
            delivered: 0,
            lost: vec![0; stages],
            fault_drops: vec![0; stages],
            arb_events: vec![0; stages],
            arb_contenders: vec![0; stages],
            arb_max_depth: vec![0; stages],
            wire_hits: vec![0; total],
            wire_base,
            queue_sum: 0,
            queue_samples: 0,
            queue_max: 0,
        }
    }

    /// The shape this probe was sized for.
    pub fn params(&self) -> &EdnParams {
        &self.params
    }

    /// Zeroes every counter without touching capacities.
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.offered = 0;
        self.delivered = 0;
        self.lost.fill(0);
        self.fault_drops.fill(0);
        self.arb_events.fill(0);
        self.arb_contenders.fill(0);
        self.arb_max_depth.fill(0);
        self.wire_hits.fill(0);
        self.queue_sum = 0;
        self.queue_samples = 0;
        self.queue_max = 0;
    }

    /// Routing passes observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total requests offered across all passes.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Total requests delivered across all passes.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Requests entering stage `stage` (`1..=l + 1`), derived by peeling
    /// losses off the offered total stage by stage.
    pub fn stage_offered(&self, stage: u32) -> u64 {
        debug_assert!(stage >= 1 && stage as usize <= self.lost.len());
        let mut alive = self.offered;
        for s in 0..(stage as usize - 1) {
            alive -= self.lost[s];
        }
        alive
    }

    /// Requests lost at stage `stage`, fault drops included.
    pub fn stage_lost(&self, stage: u32) -> u64 {
        self.lost[stage as usize - 1]
    }

    /// The fault-induced subset of [`StageProbe::stage_lost`].
    pub fn stage_fault_drops(&self, stage: u32) -> u64 {
        self.fault_drops[stage as usize - 1]
    }

    /// Grant counts per exit wire of `stage`, in wire order.
    pub fn wire_grants(&self, stage: u32) -> &[u64] {
        let index = stage as usize - 1;
        let base = self.wire_base[index];
        let width = if stage <= self.params.l() {
            self.params.wires_after_stage(stage) as usize
        } else {
            self.params.outputs() as usize
        };
        &self.wire_hits[base..base + width]
    }

    /// Folds another probe's counters into this one (shapes must match) —
    /// how per-worker probes aggregate into one run snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `other` was sized for a different shape.
    pub fn absorb(&mut self, other: &StageProbe) {
        assert_eq!(
            self.params, other.params,
            "cannot absorb a probe sized for a different shape"
        );
        self.cycles += other.cycles;
        self.offered += other.offered;
        self.delivered += other.delivered;
        for (dst, src) in self.lost.iter_mut().zip(&other.lost) {
            *dst += src;
        }
        for (dst, src) in self.fault_drops.iter_mut().zip(&other.fault_drops) {
            *dst += src;
        }
        for (dst, src) in self.arb_events.iter_mut().zip(&other.arb_events) {
            *dst += src;
        }
        for (dst, src) in self.arb_contenders.iter_mut().zip(&other.arb_contenders) {
            *dst += src;
        }
        for (dst, src) in self.arb_max_depth.iter_mut().zip(&other.arb_max_depth) {
            *dst = (*dst).max(*src);
        }
        for (dst, src) in self.wire_hits.iter_mut().zip(&other.wire_hits) {
            *dst += src;
        }
        self.queue_sum += other.queue_sum;
        self.queue_samples += other.queue_samples;
        self.queue_max = self.queue_max.max(other.queue_max);
    }

    /// Freezes the counters into an owned [`RunMetrics`].
    pub fn snapshot(&self) -> RunMetrics {
        let stages = (1..=self.params.l() + 1)
            .map(|stage| {
                let index = stage as usize - 1;
                let grants = self.wire_grants(stage);
                let granted: u64 = grants.iter().sum();
                let events = self.arb_events[index];
                StageMetrics {
                    stage,
                    offered: self.stage_offered(stage),
                    granted,
                    blocked: self.lost[index] - self.fault_drops[index],
                    fault_drops: self.fault_drops[index],
                    arb_events: events,
                    arb_mean_depth: if events == 0 {
                        0.0
                    } else {
                        self.arb_contenders[index] as f64 / events as f64
                    },
                    arb_max_depth: self.arb_max_depth[index],
                    wires: grants.len() as u64,
                    wire_min_grants: grants.iter().copied().min().unwrap_or(0),
                    wire_max_grants: grants.iter().copied().max().unwrap_or(0),
                }
            })
            .collect();
        RunMetrics {
            cycles: self.cycles,
            offered: self.offered,
            delivered: self.delivered,
            stages,
            queue_samples: self.queue_samples,
            queue_mean_depth: if self.queue_samples == 0 {
                0.0
            } else {
                self.queue_sum as f64 / self.queue_samples as f64
            },
            queue_max_depth: self.queue_max,
        }
    }
}

// edn-lint: hot-path
impl Probe for StageProbe {
    const ENABLED: bool = true;

    #[inline]
    fn cycle_start(&mut self, offered: usize) {
        self.cycles += 1;
        self.offered += offered as u64;
    }

    #[inline]
    fn arbitrated(&mut self, stage: u32, contenders: usize, capacity: usize, full: usize) {
        let index = stage as usize - 1;
        self.arb_events[index] += 1;
        self.arb_contenders[index] += contenders as u64;
        self.arb_max_depth[index] = self.arb_max_depth[index].max(contenders as u64);
        // Losers a healthy bucket would have carried: min(n, full) wins
        // shrink to min(n, capacity) when faults disable wires.
        let drops = contenders.min(full) - contenders.min(capacity);
        self.fault_drops[index] += drops as u64;
    }

    #[inline]
    fn wire_granted(&mut self, stage: u32, wire: u64) {
        self.wire_hits[self.wire_base[stage as usize - 1] + wire as usize] += 1;
    }

    #[inline]
    fn request_lost(&mut self, stage: u32) {
        self.lost[stage as usize - 1] += 1;
    }

    #[inline]
    fn cycle_end(&mut self, delivered: usize) {
        self.delivered += delivered as u64;
    }

    #[inline]
    fn queue_depth(&mut self, depth: usize) {
        self.queue_sum += depth as u64;
        self.queue_samples += 1;
        self.queue_max = self.queue_max.max(depth as u64);
    }
}

/// Per-stage counters of a [`RunMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Stage number: hyperbars `1..=l`, the crossbar stage `l + 1`.
    pub stage: u32,
    /// Requests that entered this stage.
    pub offered: u64,
    /// Requests granted an exit wire of this stage.
    pub granted: u64,
    /// Requests lost to contention at this stage.
    pub blocked: u64,
    /// Requests lost because faults disabled wires their contention
    /// level would otherwise have won.
    pub fault_drops: u64,
    /// Bucket arbitrations performed at this stage.
    pub arb_events: u64,
    /// Mean contenders per arbitration.
    pub arb_mean_depth: f64,
    /// Deepest contention seen in one arbitration.
    pub arb_max_depth: u64,
    /// Exit wires of this stage.
    pub wires: u64,
    /// Grants carried by the least-used exit wire.
    pub wire_min_grants: u64,
    /// Grants carried by the most-used exit wire.
    pub wire_max_grants: u64,
}

/// An owned snapshot of a [`StageProbe`]'s counters.
///
/// Plain data: `edn_sweep` serializes it into the `metrics` JSONL
/// artifact (this crate stays free of serialization concerns).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Routing passes observed.
    pub cycles: u64,
    /// Total requests offered.
    pub offered: u64,
    /// Total requests delivered.
    pub delivered: u64,
    /// Per-stage counters, stage ascending (crossbar last).
    pub stages: Vec<StageMetrics>,
    /// Queue-depth observations recorded by sessions.
    pub queue_samples: u64,
    /// Mean resubmission-queue depth over those observations.
    pub queue_mean_depth: f64,
    /// Deepest queue observed.
    pub queue_max_depth: u64,
}

impl RunMetrics {
    /// `true` if the ledger balances: every offered request is accounted
    /// for as delivered, blocked, or fault-dropped, stage by stage.
    pub fn reconciles(&self) -> bool {
        let lost: u64 = self.stages.iter().map(|s| s.blocked + s.fault_drops).sum();
        if self.offered != self.delivered + lost {
            return false;
        }
        // Stage handoff: granted at stage s == offered at stage s + 1,
        // and the crossbar's grants are the delivered total.
        let mut alive = self.offered;
        for stage in &self.stages {
            if stage.offered != alive || stage.granted != alive - stage.blocked - stage.fault_drops
            {
                return false;
            }
            alive = stage.granted;
        }
        alive == self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutingEngine;
    use crate::hyperbar::PriorityArbiter;
    use crate::routing::RouteRequest;

    #[test]
    fn null_probe_is_disabled() {
        // Compile-time facts, checked in a const block so a flipped
        // ENABLED fails the build rather than this test.
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(StageProbe::ENABLED) };
    }

    #[test]
    fn stage_probe_counts_match_the_outcome() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut probe = StageProbe::new(&params);
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, s))
            .collect();
        let outcome = engine.route_probed(&requests, &mut PriorityArbiter::new(), &mut probe);
        let delivered = outcome.delivered_count() as u64;
        let survivors = outcome.survivors().to_vec();
        let metrics = probe.snapshot();
        assert_eq!(metrics.cycles, 1);
        assert_eq!(metrics.offered, params.inputs());
        assert_eq!(metrics.delivered, delivered);
        assert!(metrics.reconciles(), "{metrics:?}");
        // Per-stage grants are the outcome's survivor counts.
        for (stage, &alive) in metrics.stages.iter().zip(&survivors[1..]) {
            assert_eq!(stage.granted, alive as u64, "stage {}", stage.stage);
            assert_eq!(stage.fault_drops, 0);
        }
    }

    #[test]
    fn hot_spot_blocking_lands_in_the_crossbar_stage() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut probe = StageProbe::new(&params);
        // Everyone wants output 0: c^l paths reach the final crossbar,
        // which can deliver exactly one.
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, 0))
            .collect();
        engine.route_probed(&requests, &mut PriorityArbiter::new(), &mut probe);
        let metrics = probe.snapshot();
        assert_eq!(metrics.delivered, 1);
        assert!(metrics.reconciles(), "{metrics:?}");
        let crossbar = metrics.stages.last().unwrap();
        assert_eq!(crossbar.stage, params.l() + 1);
        assert_eq!(crossbar.granted, 1);
    }

    #[test]
    fn absorb_sums_counters() {
        let params = EdnParams::new(8, 4, 2, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let requests: Vec<RouteRequest> = (0..params.inputs())
            .map(|s| RouteRequest::new(s, (s * 3 + 1) % params.outputs()))
            .collect();
        let mut one = StageProbe::new(&params);
        engine.route_probed(&requests, &mut PriorityArbiter::new(), &mut one);
        let mut two = StageProbe::new(&params);
        engine.route_probed(&requests, &mut PriorityArbiter::new(), &mut two);
        two.absorb(&one);
        let single = one.snapshot();
        let merged = two.snapshot();
        assert_eq!(merged.cycles, 2 * single.cycles);
        assert_eq!(merged.offered, 2 * single.offered);
        assert_eq!(merged.delivered, 2 * single.delivered);
        assert!(merged.reconciles());
    }

    #[test]
    fn reset_zeroes_without_reallocating() {
        let params = EdnParams::new(8, 4, 2, 2).unwrap();
        let mut probe = StageProbe::new(&params);
        probe.cycle_start(5);
        probe.request_lost(1);
        probe.queue_depth(3);
        let cap = probe.wire_hits.capacity();
        probe.reset();
        assert_eq!(probe.cycles(), 0);
        assert_eq!(probe.stage_lost(1), 0);
        assert_eq!(probe.wire_hits.capacity(), cap);
        assert_eq!(probe.snapshot().queue_samples, 0);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn absorb_rejects_mismatched_shapes() {
        let a = StageProbe::new(&EdnParams::new(8, 4, 2, 2).unwrap());
        let mut b = StageProbe::new(&EdnParams::new(16, 4, 4, 2).unwrap());
        b.absorb(&a);
    }
}
