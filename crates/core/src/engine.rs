//! The reusable, zero-allocation routing core.
//!
//! Every experiment in this repository ultimately reduces to calling the
//! one-cycle circuit-switched router millions of times: Monte-Carlo
//! estimation of `PA(r)` (Eq. 4), MIMD resubmission runs (Section 4), and
//! RA-EDN permutation scheduling (Section 5) all hammer the same per-cycle
//! hot path. [`RoutingEngine`] is built once: it owns the wired
//! [`EdnTopology`] *and* all per-cycle scratch state, so routing performs
//! **zero heap allocations in steady state** (after the first few cycles
//! have grown the per-switch buffers to their high-water marks).
//!
//! There is one entry point per operation: [`RoutingEngine::route`]
//! routes a healthy cycle, [`RoutingEngine::route_with`] adds an optional
//! [`FaultSet`] and a [`Probe`], and [`RoutingEngine::route_reordered`]
//! routes under a Corollary 2 retirement order. All three, and every
//! session, run through the one traversal below. The arbiter parameter is generic
//! (`A: Arbiter + ?Sized`), so callers holding a concrete policy get fully
//! monomorphized dispatch; the simulators in `edn-sim` pass a
//! runtime-selected `&mut dyn Arbiter` through the same API.
//!
//! # The traversal
//!
//! Every stage boundary is an occupancy bitmap over its lines (one bit per
//! line, `u64` words) plus a line-indexed `[source, tag]` slot array, both
//! double-buffered between consecutive stages. A stage scans the set bits
//! of its input boundary in ascending order. Lines `switch * a + port`
//! make that exactly the `(switch, port)` order in which arbitration
//! must visit requests, so nothing is ever sorted. Each switch's live
//! ports are peeled off the occupancy words as one port mask (`a <= 64`)
//! or a run of whole words (`a > 64`). Its buckets are arbitrated in
//! ascending order and each winner is written onto the next boundary
//! through the compiled interstage table. Switch, port, bucket and exit
//! are per-stage shifts and masks, because every parameter is a power of
//! two. Words are zeroed as they are consumed, so a stage costs
//! `O(lines / 64 + live requests)`: a session at 10% occupancy pays a
//! word scan, not per-line slot work. Every request's fate lands in
//! per-source bitmaps, and walking them emits `delivered` and `blocked`
//! already sorted by source.
//!
//! With a static arbiter ([`Arbiter::is_static`]) on a healthy fabric
//! and no probe, a contender wins iff fewer than `c` lower ports of its
//! switch share its bucket, so grants come from per-bucket ranks without
//! `select` calls. Every other combination calls `select` and `advance`
//! in exactly the order the reference does.
//!
//! The engine is the oracle-checked replacement, not a fork: property
//! tests assert its outcomes are bit-identical to the pre-engine
//! implementation preserved in [`crate::reference`].
//!
//! # Examples
//!
//! ```
//! use edn_core::{EdnParams, PriorityArbiter, RouteRequest, RoutingEngine};
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let mut engine = RoutingEngine::from_params(EdnParams::new(64, 16, 4, 2)?);
//! let mut arbiter = PriorityArbiter::new();
//! // Reuse the engine across cycles: no allocation after warm-up.
//! for cycle in 0..100u64 {
//!     let requests: Vec<RouteRequest> = (0..engine.params().inputs())
//!         .map(|s| RouteRequest::new(s, (s + cycle) % engine.params().outputs()))
//!         .collect();
//!     let outcome = engine.route(&requests, &mut arbiter);
//!     assert_eq!(outcome.delivered_count() + outcome.blocked().len(), outcome.offered());
//! }
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::address::RetirementOrder;
use crate::faults::FaultSet;
use crate::hyperbar::Arbiter;
use crate::params::EdnParams;
use crate::routing::{BatchOutcome, BlockReason, RouteRequest};
use crate::telemetry::{NullProbe, Probe};
use crate::topology::EdnTopology;
use crate::wiring::{compile_shared, CompiledWiring};

/// The result of the engine's most recent cycle, viewed in place.
///
/// Mirrors the accessors of [`BatchOutcome`], but the underlying buffers
/// belong to the [`RoutingEngine`] and are overwritten by the next call to
/// [`RoutingEngine::route`]; call [`BatchOutcomeView::to_outcome`] to keep
/// a cycle's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcomeView {
    pub(crate) delivered: Vec<(u64, u64)>,
    pub(crate) blocked: Vec<(u64, BlockReason)>,
    pub(crate) offered: usize,
    pub(crate) survivors: Vec<usize>,
}

impl BatchOutcomeView {
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

    /// Clones this view into an owned [`BatchOutcome`] that survives the
    /// engine's next cycle.
    pub fn to_outcome(&self) -> BatchOutcome {
        BatchOutcome::from_parts(
            self.delivered.clone(),
            self.blocked.clone(),
            self.offered,
            self.survivors.clone(),
        )
    }
}

/// Compile-time fault dispatch: the healthy-fabric path must not pay for
/// per-wire fault lookups.
trait FaultView {
    /// `true` if no wire can be disabled.
    const HEALTHY: bool = false;

    /// `true` if the stage-`stage` exit line `wire` is usable.
    fn wire_ok(&self, stage: u32, wire: u64) -> bool;
}

/// The healthy fabric: every check folds to a constant.
struct NoFaults;

impl FaultView for NoFaults {
    const HEALTHY: bool = true;

    #[inline(always)]
    fn wire_ok(&self, _stage: u32, _wire: u64) -> bool {
        true
    }
}

impl FaultView for &FaultSet {
    #[inline]
    fn wire_ok(&self, stage: u32, wire: u64) -> bool {
        !self.is_disabled(stage, wire)
    }
}

/// Exclusive upper bound on every line, source and tag the traversal
/// stores: slots and fates are `u32`.
const MAX_LINES: u64 = 1 << 32;

/// The set bits of one bitmap word, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// The requests standing on one stage boundary, indexed by line.
#[derive(Debug)]
struct Boundary {
    /// Bit `line % 64` of word `line / 64` is set iff `line` carries a
    /// request. The traversal zeroes each word as it consumes it, so a
    /// boundary is all-zero again once its stage has been routed.
    occupied: Vec<u64>,
    /// `[source, tag]` of the request on each occupied line; stale (and
    /// never read) elsewhere.
    slots: Vec<[u32; 2]>,
}

impl Boundary {
    /// A boundary of `lines` lines, zeroed by the allocator: pages a
    /// sparse load never touches are never made resident.
    fn new(lines: usize) -> Self {
        Boundary {
            occupied: vec![0; lines.div_ceil(64)],
            slots: vec![[0; 2]; lines],
        }
    }

    #[inline(always)]
    fn place(&mut self, line: usize, source: u32, tag: u32) {
        self.occupied[line >> 6] |= 1 << (line & 63);
        self.slots[line] = [source, tag];
    }
}

/// The live ports of one switch: occupancy masks (port `64 * i + bit` of
/// `masks[i]`) over the switch's `[source, tag]` slot row.
struct Switch<'a> {
    index: u64,
    masks: &'a [u64],
    row: &'a [[u32; 2]],
}

impl Switch<'_> {
    /// Calls `f(port, source, tag)` for every live port, ascending.
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize, u32, u32)) {
        for (i, &mask) in self.masks.iter().enumerate() {
            for bit in SetBits(mask) {
                let port = i << 6 | bit;
                let [source, tag] = self.row[port];
                f(port, source, tag);
            }
        }
    }
}

/// Per-stage constants hoisted out of the traversal loop. Every
/// parameter is a power of two, so switch, port, bucket and exit are
/// shifts and masks. The crossbar stage is the degenerate case of one
/// wire per bucket, `c` buckets per switch, and no table.
struct StageShape<'a, F> {
    stage: u32,
    /// `true` for the final crossbar stage (`l + 1`).
    crossbar: bool,
    /// `true` when grants need no `select` call: the arbiter is static
    /// ([`Arbiter::is_static`]) and the fabric healthy, so a contender
    /// wins iff fewer than `c` lower ports of its switch share its bucket.
    static_grants: bool,
    /// `log2` of the ports per switch.
    port_bits: u32,
    /// The bucket is `(tag >> digit_shift) & digit_mask`.
    digit_shift: u32,
    digit_mask: u64,
    /// `log2` of the wires per bucket, and of the wires per switch: the
    /// exit line is `switch << exit_bits | bucket << width_bits | k`.
    width_bits: u32,
    exit_bits: u32,
    /// The interstage table (empty at the crossbar).
    lut: &'a [u32],
    faults: &'a F,
}

impl<F> StageShape<'_, F> {
    #[inline(always)]
    fn bucket(&self, tag: u32) -> u64 {
        (u64::from(tag) >> self.digit_shift) & self.digit_mask
    }
}

/// Per-switch arbitration buffers plus the per-source fates of the
/// cycle.
#[derive(Debug)]
struct Scratch {
    /// Per-bucket contender ports of the switch being arbitrated.
    contenders: Vec<Vec<usize>>,
    /// Bitmap of the buckets holding at least one contender; scanning it
    /// visits them in ascending order, as `Hyperbar::route` does.
    used_buckets: Vec<u64>,
    /// Per-bucket count of the contenders granted so far, on the
    /// static-grant path; back to zero after every switch.
    ranks: Vec<usize>,
    /// Per-port wire grant (within the switch) of the current switch
    /// (`None` = lost or idle).
    port_wire: Vec<Option<u64>>,
    /// Per-bucket losing-contender count of the switch most recently
    /// arbitrated; written only when a probe is enabled, consumed by the
    /// loser walk to label `event_block` records with contention depth.
    bucket_losers: Vec<usize>,
    /// Per-bucket fault-induced drop quota of the switch most recently
    /// arbitrated (`contenders.min(full) - contenders.min(capacity)`);
    /// the loser walk consumes it to tell `event_fault_drop` from
    /// `event_block`. Probe-enabled paths only.
    bucket_fault_quota: Vec<usize>,
    /// Per-source bitmaps of the sources delivered and blocked this
    /// cycle; walking their set bits emits both outcome lists already
    /// sorted by source.
    delivered: Vec<u64>,
    blocked: Vec<u64>,
    /// Per source: the output it reached, or the stage that blocked it.
    fate: Vec<u32>,
}

impl Scratch {
    /// Clears every bit a pass that unwound part-way may have left.
    fn wipe(&mut self) {
        self.contenders.iter_mut().for_each(Vec::clear);
        self.used_buckets.fill(0);
        self.ranks.fill(0);
        self.delivered.fill(0);
        self.blocked.fill(0);
    }

    /// Moves a request granted stage exit `exit` onto `next` or, at the
    /// crossbar, delivers it to output `exit`.
    #[inline(always)]
    fn grant<F, P: Probe>(
        &mut self,
        shape: &StageShape<'_, F>,
        exit: u64,
        [source, tag]: [u32; 2],
        next: &mut Boundary,
        probe: &mut P,
    ) {
        if P::ENABLED {
            if shape.crossbar {
                probe.event_deliver(u64::from(source), u64::from(tag), exit);
            } else {
                probe.event_hop(shape.stage, u64::from(source), u64::from(tag), exit);
            }
        }
        if shape.crossbar {
            let at = source as usize;
            self.delivered[at >> 6] |= 1 << (at & 63);
            self.fate[at] = u32::try_from(exit).expect("outputs are bounded by MAX_LINES");
        } else {
            next.place(shape.lut[exit as usize] as usize, source, tag);
        }
    }

    /// Records that `source` was blocked at `stage`.
    #[inline(always)]
    fn block(&mut self, stage: u32, source: u32) {
        let at = source as usize;
        self.blocked[at >> 6] |= 1 << (at & 63);
        self.fate[at] = stage;
    }

    /// Routes one switch: arbitrates its buckets in ascending order,
    /// moves the winners on (see [`Scratch::grant`]) and records the
    /// losers' fates, both in port order. Returns the winner count.
    // edn-lint: hot-path
    #[inline(always)]
    fn route_switch<F: FaultView, A: Arbiter + ?Sized, P: Probe>(
        &mut self,
        shape: &StageShape<'_, F>,
        switch: &Switch<'_>,
        next: &mut Boundary,
        arbiter: &mut A,
        probe: &mut P,
    ) -> usize {
        let stage = shape.stage;
        let width = 1u64 << shape.width_bits;
        let switch_base = switch.index << shape.exit_bits;
        let mut winners = 0;
        if shape.static_grants && !P::ENABLED {
            // `select` would keep each bucket's `c` lowest ports, and
            // `advance` is a no-op: rank the contenders instead.
            switch.for_each(|_, source, tag| {
                let bucket = shape.bucket(tag);
                let rank = self.ranks[bucket as usize];
                self.ranks[bucket as usize] = rank + 1;
                if (rank as u64) < width {
                    winners += 1;
                    let exit = switch_base | bucket << shape.width_bits | rank as u64;
                    self.grant(shape, exit, [source, tag], next, probe);
                } else {
                    self.block(stage, source);
                }
            });
            switch.for_each(|_, _, tag| self.ranks[shape.bucket(tag) as usize] = 0);
            return winners;
        }

        switch.for_each(|port, _, tag| {
            self.port_wire[port] = None;
            let bucket = shape.bucket(tag);
            self.used_buckets[(bucket >> 6) as usize] |= 1 << (bucket & 63);
            self.contenders[bucket as usize].push(port);
        });
        for w in 0..=(shape.digit_mask >> 6) as usize {
            for bit in SetBits(std::mem::take(&mut self.used_buckets[w])) {
                let bucket = w << 6 | bit;
                let base = (bucket as u64) << shape.width_bits;
                let contenders = &mut self.contenders[bucket];
                // The crossbar's wires are the network outputs: always healthy.
                let healthy = (0..width).filter(|&k| {
                    shape.crossbar || shape.faults.wire_ok(stage, switch_base | base | k)
                });
                // edn-lint: allow(hot-path-alloc) -- Range+filter iterator clone is a Copy of two u64s, no heap
                let capacity = healthy.clone().count();
                let offered = contenders.len();
                if P::ENABLED {
                    probe.arbitrated(stage, offered, capacity, width as usize);
                }
                arbiter.select(contenders, capacity);
                debug_assert!(contenders.len() <= capacity);
                if P::ENABLED {
                    self.bucket_losers[bucket] = offered - contenders.len();
                    self.bucket_fault_quota[bucket] =
                        offered.min(width as usize) - offered.min(capacity);
                }
                for (&port, k) in contenders.iter().zip(healthy) {
                    self.port_wire[port] = Some(base | k);
                }
                contenders.clear();
            }
        }
        arbiter.advance();

        switch.for_each(|port, source, tag| match self.port_wire[port] {
            Some(wire) => {
                winners += 1;
                self.grant(shape, switch_base | wire, [source, tag], next, probe);
            }
            None => {
                if P::ENABLED {
                    let bucket = shape.bucket(tag) as usize;
                    // Attribute the bucket's fault-induced drop quota to
                    // its first losers in port order; the rest lost to
                    // contention.
                    if self.bucket_fault_quota[bucket] > 0 {
                        self.bucket_fault_quota[bucket] -= 1;
                        probe.event_fault_drop(stage, u64::from(source), u64::from(tag));
                    } else {
                        probe.event_block(
                            stage,
                            u64::from(source),
                            u64::from(tag),
                            self.bucket_losers[bucket],
                        );
                    }
                }
                self.block(stage, source);
            }
        });
        winners
    }

    /// Walks the fate bitmaps, emitting `delivered` and `blocked` sorted
    /// by source, and zeroes them for the next cycle.
    fn emit(
        &mut self,
        crossbar_stage: u32,
        delivered: &mut Vec<(u64, u64)>,
        blocked: &mut Vec<(u64, BlockReason)>,
    ) {
        for w in 0..self.delivered.len() {
            let (won, lost) = (self.delivered[w], self.blocked[w]);
            if won | lost == 0 {
                continue;
            }
            self.delivered[w] = 0;
            self.blocked[w] = 0;
            for bit in SetBits(won) {
                let source = w << 6 | bit;
                delivered.push((source as u64, u64::from(self.fate[source])));
            }
            for bit in SetBits(lost) {
                let source = w << 6 | bit;
                let reason = match self.fate[source] {
                    stage if stage == crossbar_stage => BlockReason::CrossbarOutput,
                    stage => BlockReason::HyperbarStage(stage),
                };
                blocked.push((source as u64, reason));
            }
        }
    }
}

/// A build-once router: the wired fabric plus every per-cycle buffer,
/// reused across calls.
///
/// Each stage boundary is a dense occupancy bitmap plus a line-indexed
/// `[source, tag]` slot array, double-buffered between consecutive
/// stages; a stage costs `O(lines / 64 + live requests)` and nothing is
/// ever sorted (see the [module docs](self) for the traversal).
///
/// Construction sizes every dense buffer (zeroed by the allocator, so
/// untouched pages stay non-resident); after a few warm-up cycles the
/// remaining per-switch buffers have reached their high-water capacity
/// and [`RoutingEngine::route`] no longer touches the allocator. The
/// routing semantics — arbitration call sequence, probe event order,
/// panic behaviour, outcome contents — are exactly those of
/// [`crate::reference`] (asserted bit-for-bit by the
/// `engine_equivalence` property tests).
#[derive(Debug)]
pub struct RoutingEngine {
    topology: EdnTopology,
    /// The compiled interstage tables, shared by reference: engines
    /// built from one handle ([`RoutingEngine::with_wiring`]) borrow a
    /// single physical table instead of owning per-instance copies.
    wiring: Arc<CompiledWiring>,
    /// The boundary entering the stage being routed, and the one its
    /// winners land on; swapped after every stage.
    lines: Boundary,
    next_lines: Boundary,
    scratch: Scratch,
    /// `false` while a pass is in flight: a pass that unwound (a panic on
    /// an invalid batch) leaves bits behind for the next pass to wipe.
    clean: bool,
    /// Scratch for reorder-compensated routing.
    reordered: Vec<RouteRequest>,
    /// The most recent retirement order routed and its inverse, so
    /// repeated [`RoutingEngine::route_reordered`] calls with the same
    /// order (the steady state of every reordered experiment) skip the
    /// allocating `order.inverse()` recomputation.
    order_cache: Option<(RetirementOrder, RetirementOrder)>,
    outcome: BatchOutcomeView,
}

impl RoutingEngine {
    /// Builds an engine owning `topology`, compiling (and deeply
    /// validating) its own wiring tables — the re-wiring cost every
    /// process pays without a shared fabric.
    ///
    /// # Panics
    ///
    /// Panics if the shape's wire ids exceed the `u32` compiled-wiring
    /// representation (see [`crate::wiring::compile_shared`]).
    pub fn new(topology: EdnTopology) -> Self {
        let wiring = compile_shared(*topology.params());
        Self::with_topology_and_wiring(topology, wiring)
    }

    /// Builds an engine borrowing an already-compiled `wiring` — the
    /// near-zero-cost constructor used when a fabric database (or a
    /// sibling engine) has the tables in memory already.
    pub fn with_wiring(wiring: Arc<CompiledWiring>) -> Self {
        let topology = EdnTopology::new(*wiring.params());
        Self::with_topology_and_wiring(topology, wiring)
    }

    fn with_topology_and_wiring(topology: EdnTopology, wiring: Arc<CompiledWiring>) -> Self {
        assert_eq!(
            wiring.params(),
            topology.params(),
            "wiring was compiled for {} but the fabric is {}",
            wiring.params(),
            topology.params()
        );
        let p = *topology.params();
        let lines = (1..=p.l() + 1)
            .map(|stage| p.wires_before_stage(stage))
            .max()
            .expect("at least one stage");
        assert!(
            lines <= MAX_LINES && p.outputs() <= MAX_LINES,
            "{p} has {lines} lines on a stage boundary; the engine stores lines as u32"
        );
        let lines = lines as usize;
        let inputs = p.inputs() as usize;
        let ports = p.a() as usize;
        let buckets = p.b().max(p.c()) as usize;
        RoutingEngine {
            topology,
            wiring,
            lines: Boundary::new(lines),
            next_lines: Boundary::new(lines),
            scratch: Scratch {
                contenders: vec![Vec::new(); buckets],
                used_buckets: vec![0; buckets.div_ceil(64)],
                ranks: vec![0; buckets],
                port_wire: vec![None; ports],
                bucket_losers: vec![0; buckets],
                bucket_fault_quota: vec![0; buckets],
                delivered: vec![0; inputs.div_ceil(64)],
                blocked: vec![0; inputs.div_ceil(64)],
                fate: vec![0; inputs],
            },
            clean: true,
            reordered: Vec::new(),
            order_cache: None,
            outcome: BatchOutcomeView {
                delivered: Vec::with_capacity(inputs),
                blocked: Vec::with_capacity(inputs),
                offered: 0,
                survivors: Vec::with_capacity(p.l() as usize + 2),
            },
        }
    }

    /// Convenience constructor wiring the fabric from parameters.
    pub fn from_params(params: EdnParams) -> Self {
        Self::new(EdnTopology::new(params))
    }

    /// The wired fabric this engine routes through.
    pub fn topology(&self) -> &EdnTopology {
        &self.topology
    }

    /// The shared compiled wiring handle — clone it to build sibling
    /// engines without recompiling the tables.
    pub fn wiring(&self) -> &Arc<CompiledWiring> {
        &self.wiring
    }

    /// The network parameters.
    pub fn params(&self) -> &EdnParams {
        self.topology.params()
    }

    /// The outcome of the most recent cycle (empty before the first call).
    pub fn last_outcome(&self) -> &BatchOutcomeView {
        &self.outcome
    }

    /// Routes one batch through the healthy fabric:
    /// `route_with(requests, None, arbiter, &mut NullProbe)`.
    ///
    /// # Panics
    ///
    /// Panics if two requests share a source (an input wire carries one
    /// request per cycle), or if any source or tag is out of range. These
    /// are programming errors in workload construction, not runtime
    /// conditions; the duplicate check is one bit test on the input
    /// boundary's occupancy bitmap instead of the `HashSet` insert the
    /// reference pays.
    pub fn route<A: Arbiter + ?Sized>(
        &mut self,
        requests: &[RouteRequest],
        arbiter: &mut A,
    ) -> &BatchOutcomeView {
        self.route_inner(requests, NoFaults, arbiter, &mut NullProbe);
        &self.outcome
    }

    /// Routes one batch, through a fabric with broken wires when `faults`
    /// is given, with a [`Probe`] observing the pass.
    ///
    /// Each hyperbar's bucket capacity shrinks to its healthy-wire count;
    /// the final crossbar stage is assumed healthy (its wires are the
    /// network outputs), and the probe sees fault-induced drops apart
    /// from contention. The healthy and faulty paths are separate
    /// monomorphizations, so `None` pays no per-wire fault lookup. The
    /// probe is a monomorphized parameter too: with [`NullProbe`] the
    /// healthy call is exactly [`RoutingEngine::route`]; with a counting
    /// probe the outcome is bit-identical and only the probe's counters
    /// differ (property-asserted by the `probe_identity` suite).
    ///
    /// # Panics
    ///
    /// As [`RoutingEngine::route`]; additionally panics if `faults` was
    /// built for different parameters.
    pub fn route_with<A: Arbiter + ?Sized, P: Probe>(
        &mut self,
        requests: &[RouteRequest],
        faults: Option<&FaultSet>,
        arbiter: &mut A,
        probe: &mut P,
    ) -> &BatchOutcomeView {
        match faults {
            None => self.route_inner(requests, NoFaults, arbiter, probe),
            Some(faults) => {
                assert_eq!(
                    faults.params(),
                    self.topology.params(),
                    "fault set was built for {} but the fabric is {}",
                    faults.params(),
                    self.topology.params()
                );
                self.route_inner(requests, faults, arbiter, probe);
            }
        }
        &self.outcome
    }

    /// Routes a batch whose *desired* outputs are reordered through
    /// `order` before entering the network, then compensated with
    /// `order.inverse()` at the outputs (Corollary 2 / Figure 6).
    ///
    /// Each request's `tag` here is the *desired output*: the engine
    /// presents `order.apply(tag)` to the network and maps every delivered
    /// physical output back through `order.inverse()`, so delivered pairs
    /// again read `(source, desired_output)`.
    ///
    /// The request buffer is reused and the inverse of `order` is cached
    /// keyed on the order itself, so the first call for a given order
    /// allocates (clone + inverse) and every further call with that order
    /// joins the zero-allocation steady state of
    /// [`RoutingEngine::route`] and [`RoutingEngine::route_with`].
    ///
    /// # Panics
    ///
    /// As [`RoutingEngine::route`]; additionally panics if `order.bits()`
    /// differs from the network's output label width.
    pub fn route_reordered<A: Arbiter + ?Sized>(
        &mut self,
        requests: &[RouteRequest],
        order: &RetirementOrder,
        arbiter: &mut A,
    ) -> &BatchOutcomeView {
        assert_eq!(
            order.bits(),
            self.params().output_bits(),
            "retirement order width must match the network's output label width"
        );
        let mut reordered = std::mem::take(&mut self.reordered);
        reordered.clear();
        reordered.extend(
            requests
                .iter()
                .map(|r| RouteRequest::new(r.source, order.apply(r.tag))),
        );
        self.route_inner(&reordered, NoFaults, arbiter, &mut NullProbe);
        self.reordered = reordered;
        if !matches!(&self.order_cache, Some((cached, _)) if cached == order) {
            self.order_cache = Some((order.clone(), order.inverse()));
        }
        let (_, inverse) = self.order_cache.as_ref().expect("cache just populated");
        for (_, output) in &mut self.outcome.delivered {
            *output = inverse.apply(*output);
        }
        // Sources are unique and `delivered` arrives sorted by source, so
        // remapping outputs cannot reorder it.
        debug_assert!(self.outcome.delivered.is_sorted());
        &self.outcome
    }

    /// Checks one request and places it on its input line.
    ///
    /// # Panics
    ///
    /// On an out-of-range source or tag, or a source already placed this
    /// cycle (line `source` of the input boundary is occupied).
    #[inline(always)]
    fn inject(&mut self, request: &RouteRequest) {
        let p = self.topology.params();
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
        let line = request.source as usize;
        assert!(
            self.lines.occupied[line >> 6] & (1 << (line & 63)) == 0,
            "duplicate request on source {}",
            request.source
        );
        let source = u32::try_from(request.source).expect("inputs are bounded by MAX_LINES");
        let tag = u32::try_from(request.tag).expect("outputs are bounded by MAX_LINES");
        self.lines.place(line, source, tag);
    }

    // edn-lint: hot-path
    fn route_inner<F: FaultView, A: Arbiter + ?Sized, P: Probe>(
        &mut self,
        requests: &[RouteRequest],
        faults: F,
        arbiter: &mut A,
        probe: &mut P,
    ) {
        if !self.clean {
            self.lines.occupied.fill(0);
            self.next_lines.occupied.fill(0);
            self.scratch.wipe();
        }
        self.clean = false;
        for request in requests {
            self.inject(request);
        }
        let p = *self.topology.params();
        if P::ENABLED {
            for request in requests {
                probe.event_inject(request.source, request.tag);
            }
        }
        self.outcome.delivered.clear();
        self.outcome.blocked.clear();
        self.outcome.survivors.clear();
        self.outcome.offered = requests.len();
        self.outcome.survivors.push(requests.len());

        let static_grants = F::HEALTHY && arbiter.is_static();
        for stage in 1..=p.l() + 1 {
            let crossbar = stage > p.l();
            let shape = if crossbar {
                StageShape {
                    stage,
                    crossbar,
                    port_bits: p.log2_c(),
                    digit_shift: 0,
                    digit_mask: p.c() - 1,
                    width_bits: 0,
                    exit_bits: p.log2_c(),
                    lut: &[],
                    faults: &faults,
                    static_grants,
                }
            } else {
                StageShape {
                    stage,
                    crossbar,
                    port_bits: p.log2_a(),
                    digit_shift: p.log2_c() + (p.l() - stage) * p.log2_b(),
                    digit_mask: p.b() - 1,
                    width_bits: p.log2_c(),
                    exit_bits: p.log2_b() + p.log2_c(),
                    // One load against the compiled table replaces the
                    // shift/rotate math of `Gamma::apply` per winner.
                    lut: self.wiring.stage_lut(stage),
                    faults: &faults,
                    static_grants,
                }
            };
            let ports = 1usize << shape.port_bits;
            let words = p.wires_before_stage(stage).div_ceil(64) as usize;
            let mut winners = 0;
            if ports <= 64 {
                // Each occupancy word holds whole switches: peel them off
                // one port mask at a time.
                let all = if ports == 64 { !0 } else { (1u64 << ports) - 1 };
                for w in 0..words {
                    let mut bits = std::mem::take(&mut self.lines.occupied[w]);
                    while bits != 0 {
                        let shift = bits.trailing_zeros() as usize & !(ports - 1);
                        let first = w << 6 | shift;
                        let switch = Switch {
                            index: (first >> shape.port_bits) as u64,
                            masks: &[(bits >> shift) & all],
                            row: &self.lines.slots[first..first + ports],
                        };
                        bits &= !(all << shift);
                        winners += self.scratch.route_switch(
                            &shape,
                            &switch,
                            &mut self.next_lines,
                            arbiter,
                            probe,
                        );
                    }
                }
            } else {
                // Each switch spans `ports / 64` whole words.
                let occupied = &mut self.lines.occupied[..words];
                for (index, masks) in occupied.chunks_exact_mut(ports >> 6).enumerate() {
                    if masks.iter().all(|&mask| mask == 0) {
                        continue;
                    }
                    let first = index * ports;
                    let switch = Switch {
                        index: index as u64,
                        masks,
                        row: &self.lines.slots[first..first + ports],
                    };
                    winners += self.scratch.route_switch(
                        &shape,
                        &switch,
                        &mut self.next_lines,
                        arbiter,
                        probe,
                    );
                    masks.fill(0);
                }
            }
            std::mem::swap(&mut self.lines, &mut self.next_lines);
            if crossbar {
                if P::ENABLED {
                    probe.cycle_end(winners);
                }
                self.scratch.emit(
                    stage,
                    &mut self.outcome.delivered,
                    &mut self.outcome.blocked,
                );
            }
            self.outcome.survivors.push(winners);
        }
        self.clean = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperbar::{PriorityArbiter, RandomArbiter, RoundRobinArbiter};
    use crate::reference::{route_batch, route_batch_with};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine(a: u64, b: u64, c: u64, l: u32) -> RoutingEngine {
        RoutingEngine::from_params(EdnParams::new(a, b, c, l).unwrap())
    }

    fn uniform_batch(p: &EdnParams, seed: u64, rate: f64) -> Vec<RouteRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = Vec::new();
        for s in 0..p.inputs() {
            if rng.gen_bool(rate) {
                batch.push(RouteRequest::new(s, rng.gen_range(0..p.outputs())));
            }
        }
        batch
    }

    #[test]
    fn matches_route_batch_on_full_load() {
        let mut engine = engine(16, 4, 4, 2);
        let p = *engine.params();
        for seed in 0..8 {
            let batch = uniform_batch(&p, seed, 1.0);
            let legacy = route_batch(engine.topology(), &batch, &mut PriorityArbiter::new());
            let view = engine.route(&batch, &mut PriorityArbiter::new());
            assert_eq!(view.to_outcome(), legacy);
        }
    }

    #[test]
    fn matches_route_batch_with_random_arbiter_streams() {
        let mut engine = engine(8, 4, 2, 3);
        let p = *engine.params();
        for seed in 0..8 {
            let batch = uniform_batch(&p, seed, 0.7);
            let mut a1 = RandomArbiter::new(StdRng::seed_from_u64(seed * 31));
            let mut a2 = RandomArbiter::new(StdRng::seed_from_u64(seed * 31));
            let legacy = route_batch(engine.topology(), &batch, &mut a1);
            let view = engine.route(&batch, &mut a2);
            assert_eq!(view.to_outcome(), legacy, "seed {seed}");
        }
    }

    #[test]
    fn reuse_does_not_leak_state_between_cycles() {
        let mut engine = engine(16, 4, 4, 2);
        let p = *engine.params();
        let batch_a = uniform_batch(&p, 1, 1.0);
        let batch_b = uniform_batch(&p, 2, 0.3);
        // Route batch_a fresh vs. after a different batch: identical.
        let fresh = engine
            .route(&batch_a, &mut PriorityArbiter::new())
            .to_outcome();
        engine.route(&batch_b, &mut PriorityArbiter::new());
        let reused = engine
            .route(&batch_a, &mut PriorityArbiter::new())
            .to_outcome();
        assert_eq!(fresh, reused);
        // An empty batch after a full one reports a clean slate.
        let empty = engine.route(&[], &mut PriorityArbiter::new());
        assert_eq!(empty.offered(), 0);
        assert_eq!(empty.delivered_count(), 0);
        assert_eq!(empty.acceptance_rate(), 1.0);
    }

    #[test]
    fn round_robin_arbiter_parity_with_legacy() {
        let mut engine = engine(16, 4, 4, 2);
        let p = *engine.params();
        // Run several cycles so the rotating offset matters.
        let mut legacy_arbiter = RoundRobinArbiter::new();
        let mut engine_arbiter = RoundRobinArbiter::new();
        for seed in 0..6 {
            let batch = uniform_batch(&p, seed, 1.0);
            let legacy = route_batch(engine.topology(), &batch, &mut legacy_arbiter);
            let view = engine.route(&batch, &mut engine_arbiter);
            assert_eq!(view.to_outcome(), legacy, "cycle {seed}");
        }
    }

    #[test]
    fn fault_mask_matches_reference() {
        let mut eng = engine(16, 4, 4, 2);
        let p = *eng.params();
        for seed in 0..6 {
            let faults = FaultSet::random(&p, 0.2, seed);
            let batch = uniform_batch(&p, seed + 100, 0.9);
            let legacy = route_batch_with(
                eng.topology(),
                &batch,
                Some(&faults),
                &mut PriorityArbiter::new(),
            );
            let view = eng.route_with(
                &batch,
                Some(&faults),
                &mut PriorityArbiter::new(),
                &mut NullProbe,
            );
            assert_eq!(view.to_outcome(), legacy, "seed {seed}");
        }
    }

    /// The reference outcome of routing `requests` (tags = desired
    /// outputs) with their tags reordered through `order`, delivered
    /// outputs mapped back through `order.inverse()`.
    fn compensated_reference(
        topology: &EdnTopology,
        requests: &[RouteRequest],
        order: &RetirementOrder,
    ) -> BatchOutcome {
        let reordered: Vec<RouteRequest> = requests
            .iter()
            .map(|r| RouteRequest::new(r.source, order.apply(r.tag)))
            .collect();
        let mut outcome =
            route_batch(topology, &reordered, &mut PriorityArbiter::new()).into_view();
        let inverse = order.inverse();
        for (_, output) in &mut outcome.delivered {
            *output = inverse.apply(*output);
        }
        outcome.to_outcome()
    }

    #[test]
    fn reordered_matches_compensated_reference() {
        let mut eng = engine(64, 16, 4, 2);
        let p = *eng.params();
        let order = RetirementOrder::rotate_left(p.output_bits(), p.log2_b()).unwrap();
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, s)).collect();
        let legacy = compensated_reference(eng.topology(), &requests, &order);
        let view = eng.route_reordered(&requests, &order, &mut PriorityArbiter::new());
        assert_eq!(view.to_outcome(), legacy);
        assert_eq!(view.delivered_count(), p.inputs() as usize);
    }

    #[test]
    fn reordered_inverse_cache_survives_order_changes() {
        // Alternating between two orders must re-key the cache each time
        // and still compensate correctly.
        let mut eng = engine(64, 16, 4, 2);
        let p = *eng.params();
        let rot = RetirementOrder::rotate_left(p.output_bits(), p.log2_b()).unwrap();
        let ident = RetirementOrder::identity(p.output_bits()).unwrap();
        let requests: Vec<RouteRequest> =
            (0..p.inputs()).map(|s| RouteRequest::new(s, s)).collect();
        for _ in 0..3 {
            for order in [&rot, &ident] {
                let legacy = compensated_reference(eng.topology(), &requests, order);
                let view = eng.route_reordered(&requests, order, &mut PriorityArbiter::new());
                assert_eq!(view.to_outcome(), legacy);
            }
        }
    }

    #[test]
    fn steady_state_capacities_are_stable() {
        // Capacity-stability check: after warm-up, ten more cycles at the
        // same load leave every buffer capacity untouched.
        let mut engine = engine(64, 16, 4, 2);
        let p = *engine.params();
        let batch = uniform_batch(&p, 7, 1.0);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(3));
        for _ in 0..5 {
            engine.route(&batch, &mut arbiter);
        }
        let caps = (
            engine.scratch.ranks.capacity(),
            engine.lines.slots.capacity() + engine.next_lines.slots.capacity(),
            engine.outcome.delivered.capacity(),
            engine.outcome.blocked.capacity(),
            engine.outcome.survivors.capacity(),
            engine
                .scratch
                .contenders
                .iter()
                .map(Vec::capacity)
                .collect::<Vec<_>>(),
        );
        for _ in 0..10 {
            engine.route(&batch, &mut arbiter);
        }
        let after = (
            engine.scratch.ranks.capacity(),
            engine.lines.slots.capacity() + engine.next_lines.slots.capacity(),
            engine.outcome.delivered.capacity(),
            engine.outcome.blocked.capacity(),
            engine.outcome.survivors.capacity(),
            engine
                .scratch
                .contenders
                .iter()
                .map(Vec::capacity)
                .collect::<Vec<_>>(),
        );
        assert_eq!(caps, after);
    }

    #[test]
    #[should_panic(expected = "duplicate request")]
    fn duplicate_sources_panic() {
        let mut engine = engine(16, 4, 4, 2);
        let batch = [RouteRequest::new(1, 2), RouteRequest::new(1, 3)];
        engine.route(&batch, &mut PriorityArbiter::new());
    }

    #[test]
    fn a_rejected_batch_leaves_no_bits_behind() {
        // The duplicate is detected after the first requests were placed
        // on the input boundary; the next pass must not see them.
        let mut engine = engine(16, 4, 4, 2);
        let p = *engine.params();
        let rejected = [
            RouteRequest::new(3, 7),
            RouteRequest::new(9, 1),
            RouteRequest::new(3, 8),
        ];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.route(&rejected, &mut PriorityArbiter::new());
        }));
        assert!(unwound.is_err());
        let batch = uniform_batch(&p, 4, 0.5);
        let expected = route_batch(engine.topology(), &batch, &mut PriorityArbiter::new());
        let view = engine.route(&batch, &mut PriorityArbiter::new());
        assert_eq!(view.to_outcome(), expected);
    }

    #[test]
    fn duplicate_detection_resets_between_cycles() {
        let mut engine = engine(16, 4, 4, 2);
        let batch = [RouteRequest::new(5, 9)];
        for _ in 0..4 {
            // The same source every cycle is legal; duplicates only matter
            // within one batch.
            let outcome = engine.route(&batch, &mut PriorityArbiter::new());
            assert_eq!(outcome.delivered(), &[(5, 9)]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tag_panics() {
        let mut engine = engine(16, 4, 4, 2);
        engine.route(&[RouteRequest::new(0, 64)], &mut PriorityArbiter::new());
    }

    #[test]
    #[should_panic(expected = "fault set was built for")]
    fn mismatched_fault_set_panics() {
        let mut engine = engine(16, 4, 4, 2);
        let other = EdnParams::new(8, 4, 2, 3).unwrap();
        let faults = FaultSet::none(&other);
        engine.route_with(
            &[],
            Some(&faults),
            &mut PriorityArbiter::new(),
            &mut NullProbe,
        );
    }
}
