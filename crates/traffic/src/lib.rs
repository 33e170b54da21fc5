//! Workload generators for EDN experiments.
//!
//! The paper's analysis (Sections 3–5) uses three traffic families, all
//! provided here as deterministic, seedable generators:
//!
//! * [`uniform`] — Bernoulli-`r` uniform random traffic (the Eq. 4 model):
//!   every input independently requests a uniformly random output.
//! * [`permutations`] — full and partial permutations (the Section 3.2.1
//!   and Section 5 model), including the structured permutations
//!   (identity, bit reversal, perfect shuffle, ...) that make multistage
//!   networks shine or collapse.
//! * [`hotspot`] — non-uniform traffic with a hot output, the classic
//!   source of the "NUTS" (Non-Uniform Traffic Spots) contention the
//!   paper's multipath design targets.
//!
//! All generators produce batches of [`edn_core::RouteRequest`] ready for
//! `edn_core::RoutingEngine::route` or the `edn-sim` system simulators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hotspot;
pub mod permutations;
pub mod uniform;

pub use hotspot::HotSpotTraffic;
pub use permutations::Permutation;
pub use uniform::UniformTraffic;

use edn_core::RouteRequest;
use rand::rngs::StdRng;

/// A source of per-cycle request batches.
///
/// Implementations are deterministic given the RNG: replaying the same
/// seed replays the same workload.
pub trait Workload {
    /// Writes the next cycle's batch into `batch` (cleared first), reusing
    /// its capacity.
    ///
    /// This is the hot-path entry: Monte-Carlo drivers call it with one
    /// long-lived buffer so steady-state cycles never allocate.
    fn fill_batch(&mut self, batch: &mut Vec<RouteRequest>, rng: &mut StdRng);

    /// Produces the next cycle's batch of requests in a fresh `Vec`,
    /// drawing the same RNG stream as [`Workload::fill_batch`].
    fn next_batch(&mut self, rng: &mut StdRng) -> Vec<RouteRequest> {
        let mut batch = Vec::new();
        self.fill_batch(&mut batch, rng);
        batch
    }

    /// The number of network inputs this workload drives.
    fn inputs(&self) -> u64;

    /// The number of network outputs this workload addresses.
    fn outputs(&self) -> u64;
}
