//! Expanded Delta Networks (EDN) — topology, routing and cost model.
//!
//! This crate implements the primary contribution of Alleyne & Scherson,
//! *"Expanded Delta Networks for Very Large Parallel Computers"* (UC Irvine
//! ICS TR 92-02 / ISCA 1992): a family of multistage interconnection
//! networks built from **hyperbar** switches that generalizes Patel's delta
//! network and the crossbar.
//!
//! An [`EdnParams`]`(a, b, c, l)` network has `l` stages of
//! `H(a -> b x c)` [`Hyperbar`] switches followed by one stage of `c x c`
//! crossbars. Each hyperbar routes `a` inputs to `b` output *buckets* of
//! capacity `c` using one base-`b` digit of the destination tag; within a
//! bucket a message may ride any of the `c` wires, which is why an EDN has
//! `c^l` distinct paths between any input/output pair (Theorem 2 of the
//! paper) while a delta network (`c = 1`) has exactly one.
//!
//! # Quick start
//!
//! Route a full permutation through the MasPar-shaped `EDN(64, 16, 4, 2)`:
//!
//! ```
//! use edn_core::{EdnParams, EdnTopology, RouteRequest, route_batch, PriorityArbiter};
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let params = EdnParams::new(64, 16, 4, 2)?;
//! let topo = EdnTopology::new(params);
//! // Send every input to the bit-reversed output.
//! let n = params.inputs();
//! let bits = params.output_bits();
//! let requests: Vec<RouteRequest> = (0..n)
//!     .map(|s| RouteRequest::new(s, s.reverse_bits() >> (64 - bits)))
//!     .collect();
//! let outcome = route_batch(&topo, &requests, &mut PriorityArbiter::new());
//! assert!(outcome.delivered_count() > 0);
//! for (source, output) in outcome.delivered() {
//!     assert_eq!(*output, source.reverse_bits() >> (64 - bits));
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Module map
//!
//! * [`params`] — validated network parameters and derived quantities.
//! * [`gamma`] — the interstage permutation `gamma_{j,k}` (Definition 3).
//! * [`address`] — destination tags, source addresses, digit retirement
//!   orders (Corollary 2).
//! * [`hyperbar`] — the `H(a -> b x c)` switch and arbitration policies.
//! * [`topology`] — stage/wire maps, Lemma-1 line tracing, Theorem-2 path
//!   enumeration.
//! * [`routing`] — one-pass circuit-switched routing of request batches
//!   through the wired fabric (compatibility wrappers over the engine).
//! * [`engine`] — [`RoutingEngine`]: the build-once, zero-allocation
//!   routing core every simulator runs on.
//! * [`session`] — [`RouteSession`]: resident multi-cycle stepping
//!   (resubmission, cluster schedules, caller-supplied drivers) so whole
//!   runs are one engine call instead of one per cycle.
//! * [`telemetry`] — [`Probe`]: monomorphized routing telemetry
//!   ([`NullProbe`] compiles to nothing; [`StageProbe`] resolves
//!   blocking, contention, and wire utilization per stage).
//! * [`trace`] — [`TraceProbe`]: the flight recorder; per-event request
//!   lifecycles (inject, hop, block, fault drop, resubmit, deliver)
//!   timestamped in simulated cycles into a pre-sized ring buffer.
//! * [`wiring`] — [`CompiledWiring`]: the flattened, `Arc`-shared
//!   struct-of-arrays form of the interstage permutations; compiled and
//!   deeply validated once, borrowed by every engine, and serialized by
//!   the `edn_fabric` on-disk database.
//! * [`reference`](mod@reference) — the pre-engine implementations, kept
//!   as the differential-testing oracle and benchmark baseline.
//! * [`cost`] — crosspoint and wire cost, Eqs. (2)–(3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod address;
pub mod cost;
pub mod engine;
pub mod error;
pub mod faults;
pub mod gamma;
pub mod hyperbar;
pub mod params;
pub mod reference;
pub mod routing;
pub mod session;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod wiring;

pub use address::{DestTag, RetirementOrder, SourceAddress};
pub use cost::{crosspoint_cost, crosspoint_cost_closed_form, wire_cost, wire_cost_closed_form};
pub use engine::{BatchOutcomeView, RoutingEngine};
pub use error::EdnError;
pub use faults::{route_batch_faulty, route_one_with_faults, FaultRouting, FaultSet};
pub use gamma::Gamma;
pub use hyperbar::{
    Arbiter, Hyperbar, HyperbarOutcome, PriorityArbiter, RandomArbiter, RoundRobinArbiter,
};
pub use params::{EdnParams, NetworkClass};
pub use routing::{route_batch, route_batch_reordered, BatchOutcome, BlockReason, RouteRequest};
pub use session::{ClusterSchedule, CycleDriver, Resubmit, RouteSession, SessionState};
pub use telemetry::{NullProbe, Probe, RunMetrics, StageMetrics, StageProbe};
pub use topology::{EdnTopology, PathTrace};
pub use trace::{TraceEvent, TraceEventKind, TraceFilter, TraceProbe};
pub use wiring::{compile_shared, CompiledWiring, LutProvider};
