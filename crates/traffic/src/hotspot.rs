//! Hot-spot traffic — Non-Uniform Traffic Spots (NUTS).
//!
//! The paper motivates the EDN's multiple paths as a way to "reduce
//! conflicts or Non Uniform Traffic Spots (NUTS) that occur within the
//! network" (citing Lang & Kurisaki). The standard NUTS workload overlays
//! uniform traffic with a fraction of requests all aimed at one hot
//! output (a shared lock, a reduction root, a busy memory bank).

use crate::Workload;
use edn_core::RouteRequest;
use rand::rngs::StdRng;
use rand::Rng;

/// Uniform traffic with a hot output: every generated request goes to
/// `hot_output` with probability `hot_fraction`, otherwise to a uniformly
/// random output.
///
/// # Examples
///
/// ```
/// use edn_traffic::{HotSpotTraffic, Workload};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut traffic = HotSpotTraffic::new(64, 64, 1.0, 7, 0.25);
/// let mut rng = StdRng::seed_from_u64(1);
/// let batch = traffic.next_batch(&mut rng);
/// let hot = batch.iter().filter(|r| r.tag == 7).count();
/// assert!(hot >= 8, "about a quarter of 64 requests should hit the spot");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpotTraffic {
    inputs: u64,
    outputs: u64,
    rate: f64,
    hot_output: u64,
    hot_fraction: f64,
}

impl HotSpotTraffic {
    /// Creates a hot-spot workload.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `hot_fraction` is not in `[0, 1]`, if the
    /// dimensions are zero, or if `hot_output` is out of range.
    pub fn new(inputs: u64, outputs: u64, rate: f64, hot_output: u64, hot_fraction: f64) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "network dimensions must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&rate),
            "rate = {rate} is not a probability"
        );
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction = {hot_fraction} is not a probability"
        );
        assert!(hot_output < outputs, "hot output {hot_output} out of range");
        HotSpotTraffic {
            inputs,
            outputs,
            rate,
            hot_output,
            hot_fraction,
        }
    }

    /// The hot output index.
    pub fn hot_output(&self) -> u64 {
        self.hot_output
    }

    /// The fraction of requests aimed at the hot output.
    pub fn hot_fraction(&self) -> f64 {
        self.hot_fraction
    }
}

impl Workload for HotSpotTraffic {
    fn fill_batch(&mut self, batch: &mut Vec<RouteRequest>, rng: &mut StdRng) {
        batch.clear();
        for source in 0..self.inputs {
            if !rng.gen_bool(self.rate) {
                continue;
            }
            let tag = if rng.gen_bool(self.hot_fraction) {
                self.hot_output
            } else {
                rng.gen_range(0..self.outputs)
            };
            batch.push(RouteRequest::new(source, tag));
        }
    }

    fn inputs(&self) -> u64 {
        self.inputs
    }

    fn outputs(&self) -> u64 {
        self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hot_fraction_zero_is_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut traffic = HotSpotTraffic::new(128, 128, 1.0, 0, 0.0);
        let batch = traffic.next_batch(&mut rng);
        assert_eq!(batch.len(), 128);
        // Output 0 should receive about 1 request, certainly not dozens.
        let to_zero = batch.iter().filter(|r| r.tag == 0).count();
        assert!(to_zero < 10);
    }

    #[test]
    fn hot_fraction_one_is_single_output() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut traffic = HotSpotTraffic::new(64, 64, 1.0, 13, 1.0);
        let batch = traffic.next_batch(&mut rng);
        assert!(batch.iter().all(|r| r.tag == 13));
    }

    #[test]
    fn empirical_hot_share_matches() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut traffic = HotSpotTraffic::new(256, 256, 1.0, 99, 0.2);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..100 {
            for request in traffic.next_batch(&mut rng) {
                total += 1;
                if request.tag == 99 {
                    hot += 1;
                }
            }
        }
        // Hot share = fraction + uniform leakage 0.8/256 ~ 0.203.
        let share = hot as f64 / total as f64;
        assert!((share - 0.203).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn respects_request_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut traffic = HotSpotTraffic::new(512, 512, 0.25, 0, 0.5);
        let mut total = 0usize;
        for _ in 0..100 {
            total += traffic.next_batch(&mut rng).len();
        }
        let rate = total as f64 / (100.0 * 512.0);
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_hot_output() {
        HotSpotTraffic::new(8, 8, 1.0, 8, 0.5);
    }
}
