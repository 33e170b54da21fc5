//! Facade crate for the Expanded Delta Network (EDN) reproduction.
//!
//! This crate re-exports the whole workspace under one roof so that
//! examples and downstream users can write `use edn::...` without tracking
//! the individual sub-crates:
//!
//! * [`core`] — topology, digit-controlled routing, and cost model
//!   (`edn-core`).
//! * [`analytic`] — the paper's probabilistic performance models
//!   (`edn-analytic`).
//! * [`sim`] — the cycle-level circuit-switched simulator (`edn-sim`).
//! * [`traffic`] — workload generators (`edn-traffic`).
//! * [`sweep`] — the work-stealing sweep executor and structured
//!   emission behind every experiment binary (`edn-sweep`).
//! * [`store`] — the content-addressed row cache that lets re-runs and
//!   extended grids replay already-measured cells (`edn-store`).
//!
//! The most common types are additionally re-exported at the crate root.
//!
//! # Examples
//!
//! ```
//! use edn::{EdnParams, EdnTopology};
//!
//! # fn main() -> Result<(), edn::core::EdnError> {
//! // The MasPar MP-1 router shape analyzed in the paper's Section 5.
//! let params = EdnParams::ra_edn(16, 4, 2)?;
//! let topology = EdnTopology::new(params);
//! assert_eq!(topology.params().inputs(), 1024);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use edn_analytic as analytic;
pub use edn_core as core;
pub use edn_sim as sim;
pub use edn_store as store;
pub use edn_sweep as sweep;
pub use edn_traffic as traffic;

pub use edn_core::{
    BatchOutcome, BatchOutcomeView, DestTag, EdnError, EdnParams, EdnTopology, Gamma, Hyperbar,
    PriorityArbiter, RandomArbiter, RetirementOrder, RouteRequest, RoutingEngine, SourceAddress,
};
