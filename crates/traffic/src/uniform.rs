//! Bernoulli-`r` uniform random traffic — the Section 3.2 request model.

use crate::Workload;
use edn_core::RouteRequest;
use rand::rngs::StdRng;
use rand::Rng;

/// Uniform independent traffic: at each cycle every input issues a request
/// with probability `rate`, addressed to an output drawn uniformly at
/// random (independently of everything else).
///
/// # Examples
///
/// ```
/// use edn_traffic::{UniformTraffic, Workload};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut traffic = UniformTraffic::new(64, 64, 0.5);
/// let mut rng = StdRng::seed_from_u64(1);
/// let batch = traffic.next_batch(&mut rng);
/// assert!(batch.len() <= 64);
/// for request in &batch {
///     assert!(request.source < 64 && request.tag < 64);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UniformTraffic {
    inputs: u64,
    outputs: u64,
    rate: f64,
}

impl UniformTraffic {
    /// Creates a uniform workload over `inputs x outputs` with request
    /// probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or either dimension is zero.
    pub fn new(inputs: u64, outputs: u64, rate: f64) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "network dimensions must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&rate),
            "rate = {rate} is not a probability"
        );
        UniformTraffic {
            inputs,
            outputs,
            rate,
        }
    }

    /// The per-input request probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Workload for UniformTraffic {
    fn fill_batch(&mut self, batch: &mut Vec<RouteRequest>, rng: &mut StdRng) {
        batch.clear();
        for source in 0..self.inputs {
            if rng.gen_bool(self.rate) {
                batch.push(RouteRequest::new(source, rng.gen_range(0..self.outputs)));
            }
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
    fn rate_zero_and_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut silent = UniformTraffic::new(32, 32, 0.0);
        assert!(silent.next_batch(&mut rng).is_empty());
        let mut saturated = UniformTraffic::new(32, 32, 1.0);
        let batch = saturated.next_batch(&mut rng);
        assert_eq!(batch.len(), 32);
        // Sources are distinct and in order.
        for (i, request) in batch.iter().enumerate() {
            assert_eq!(request.source, i as u64);
        }
    }

    #[test]
    fn empirical_rate_matches() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut traffic = UniformTraffic::new(256, 256, 0.3);
        let mut total = 0usize;
        let cycles = 200;
        for _ in 0..cycles {
            total += traffic.next_batch(&mut rng).len();
        }
        let empirical = total as f64 / (cycles * 256) as f64;
        assert!((empirical - 0.3).abs() < 0.02, "empirical rate {empirical}");
    }

    #[test]
    fn destinations_cover_the_output_space() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut traffic = UniformTraffic::new(64, 16, 1.0);
        let mut seen = [false; 16];
        for _ in 0..50 {
            for request in traffic.next_batch(&mut rng) {
                seen[request.tag as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "all outputs should be hit eventually"
        );
    }

    #[test]
    fn same_seed_same_workload() {
        let mut a = UniformTraffic::new(128, 128, 0.5);
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            assert_eq!(a.next_batch(&mut rng_a), b.next_batch(&mut rng_b));
        }
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn rejects_bad_rate() {
        UniformTraffic::new(8, 8, -0.1);
    }
}
