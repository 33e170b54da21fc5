//! Cycle-level circuit-switched simulation of Expanded Delta Networks.
//!
//! The paper's evaluation is analytical; this crate is the measurement
//! substrate that *checks* it. Every quantity the models of `edn-analytic`
//! predict — probability of acceptance (Eq. 4), the degraded MIMD
//! acceptance under resubmission (Section 4), the clustered RA-EDN
//! permutation time (Section 5) — can be measured here by Monte-Carlo
//! simulation of the actual wired fabric, switch by switch.
//!
//! * [`network`] — [`NetworkSim`]: a seeded, arbitrated network that
//!   routes one request batch per cycle and accumulates acceptance
//!   statistics.
//! * [`montecarlo`] — one-call estimators for `PA(r)` under uniform or
//!   permutation traffic, plus a multi-threaded seed sweep.
//! * [`mimd`] — [`MimdSystem`]: processors that block on rejected memory
//!   requests and resubmit (Figure 9/10 of the paper).
//! * [`simd`] — [`RaEdnSystem`]: `p` clusters of `q` PEs sharing a square
//!   EDN, routing permutations under a random schedule (Figure 12).
//! * [`stats`] — small running-statistics helpers used throughout.
//!
//! Every multi-cycle model runs as one session on the routing engine
//! ([`edn_core::RouteSession`]). The MIMD and Monte-Carlo models are
//! [`edn_core::CycleDriver`]s, and their differential tests step the
//! same driver through [`edn_core::reference::step_driver`], the
//! caller-driven loop over the pre-engine router, and assert
//! bit-identical reports.
//!
//! # Quick start
//!
//! Measure the full-load acceptance of the MasPar-shaped network and
//! compare with the paper's 0.544:
//!
//! ```
//! use edn_core::EdnParams;
//! use edn_sim::montecarlo::estimate_pa;
//! use edn_sim::ArbiterKind;
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let params = EdnParams::ra_edn(16, 4, 2)?;
//! let estimate = estimate_pa(&params, 1.0, ArbiterKind::Random, 40, 0xED17);
//! assert!((estimate.mean - 0.544).abs() < 0.03);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mimd;
pub mod montecarlo;
pub mod network;
pub mod simd;
pub mod stats;

pub use mimd::{MimdReport, MimdSystem, ResubmitPolicy};
pub use montecarlo::{
    estimate_pa, estimate_pa_permutation, estimate_pa_seeds, estimate_pa_seeds_with,
    estimate_pa_with, map_seeds, map_seeds_with, AcceptanceEstimate,
};
pub use network::{ArbiterKind, NetworkSim};
pub use simd::{PermutationRun, RaEdnSystem, Schedule};
pub use stats::RunningStats;
