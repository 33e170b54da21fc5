//! The hyperbar switch `H(a -> b x c)` and its arbitration policies.
//!
//! A hyperbar (Definition 1 of the paper; the MasPar MP-1 router switch)
//! connects `a` inputs to `b` output *buckets* of `c` wires each. Every
//! occupied input presents one base-`b` control digit naming its bucket.
//! When more than `c` inputs want the same bucket, exactly `c` win and the
//! rest are rejected — *which* `c` win is the arbitration policy's choice.
//! The paper's Figure 2 prioritizes by ascending input label;
//! [`PriorityArbiter`] reproduces that, while [`RandomArbiter`] and
//! [`RoundRobinArbiter`] provide the fairness policies a real router would
//! consider.

use crate::error::EdnError;
use crate::params::EdnParams;
use rand::Rng;

/// Selects which contenders win a full bucket.
///
/// `contenders` arrives sorted by ascending input label and must be reduced
/// in place to at most `capacity` winners (still sorted ascending).
/// Implementations must not add or duplicate elements.
pub trait Arbiter {
    /// Reduces `contenders` to at most `capacity` winners, in place.
    fn select(&mut self, contenders: &mut Vec<usize>, capacity: usize);

    /// Called once per routed switch, letting stateful policies advance
    /// (e.g. rotate a round-robin pointer). Default: no-op.
    fn advance(&mut self) {}

    /// `true` iff this policy is pure truncation: [`Arbiter::select`]
    /// always keeps the `capacity` lowest-labelled contenders and
    /// [`Arbiter::advance`] is a no-op. Such a policy makes the same
    /// decision in every replica, so the lane engine
    /// ([`crate::lanes::LaneEngine`]) arbitrates all 64 lanes with one
    /// mask operation instead of per-lane `select` calls, and the scalar
    /// [`crate::RoutingEngine`] grants a healthy fabric's buckets by port
    /// rank without calling `select` at all. Default: `false` (stateful
    /// policies get the exact reference call sequence).
    fn is_static(&self) -> bool {
        false
    }
}

impl<A: Arbiter + ?Sized> Arbiter for Box<A> {
    fn select(&mut self, contenders: &mut Vec<usize>, capacity: usize) {
        (**self).select(contenders, capacity)
    }

    fn advance(&mut self) {
        (**self).advance()
    }

    fn is_static(&self) -> bool {
        (**self).is_static()
    }
}

impl<A: Arbiter + ?Sized> Arbiter for &mut A {
    fn select(&mut self, contenders: &mut Vec<usize>, capacity: usize) {
        (**self).select(contenders, capacity)
    }

    fn advance(&mut self) {
        (**self).advance()
    }

    fn is_static(&self) -> bool {
        (**self).is_static()
    }
}

/// Fixed-priority arbitration: the `capacity` lowest-labelled inputs win.
///
/// This is the policy of the paper's Figure 2 ("inputs are prioritized
/// according to their input label").
///
/// # Examples
///
/// ```
/// use edn_core::{Arbiter, PriorityArbiter};
///
/// let mut contenders = vec![0, 2, 7];
/// PriorityArbiter::new().select(&mut contenders, 2);
/// assert_eq!(contenders, [0, 2]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityArbiter;

impl PriorityArbiter {
    /// Creates the fixed-priority policy.
    pub fn new() -> Self {
        PriorityArbiter
    }
}

impl Arbiter for PriorityArbiter {
    fn select(&mut self, contenders: &mut Vec<usize>, capacity: usize) {
        contenders.truncate(capacity);
    }

    fn is_static(&self) -> bool {
        true
    }
}

/// Uniform random arbitration: each subset of `capacity` contenders is
/// equally likely to win.
///
/// The analytic model of Section 3.2 is agnostic to the policy; random
/// arbitration removes the systematic bias against high-labelled inputs
/// that [`PriorityArbiter`] introduces, and is what the simulator uses by
/// default for fairness experiments.
#[derive(Debug, Clone)]
pub struct RandomArbiter<R> {
    rng: R,
}

impl<R: Rng> RandomArbiter<R> {
    /// Creates a random policy driven by `rng`.
    pub fn new(rng: R) -> Self {
        RandomArbiter { rng }
    }

    /// Gives access to the underlying RNG (e.g. to reseed between runs).
    pub fn rng_mut(&mut self) -> &mut R {
        &mut self.rng
    }
}

impl<R: Rng> Arbiter for RandomArbiter<R> {
    fn select(&mut self, contenders: &mut Vec<usize>, capacity: usize) {
        let n = contenders.len();
        if n <= capacity {
            return;
        }
        // Partial Fisher-Yates: move a uniform `capacity`-subset to the front.
        for slot in 0..capacity {
            let pick = self.rng.gen_range(slot..n);
            contenders.swap(slot, pick);
        }
        contenders.truncate(capacity);
        contenders.sort_unstable();
    }
}

/// Rotating-priority arbitration: the starting label advances every switch
/// routing, giving every input equal long-run priority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    offset: usize,
}

impl RoundRobinArbiter {
    /// Creates a rotating-priority policy starting at label 0.
    pub fn new() -> Self {
        RoundRobinArbiter { offset: 0 }
    }

    /// Current highest-priority label.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl Arbiter for RoundRobinArbiter {
    fn select(&mut self, contenders: &mut Vec<usize>, capacity: usize) {
        let n = contenders.len();
        if n <= capacity {
            return;
        }
        // Winners are the first `capacity` contenders at or after `offset`,
        // wrapping around — computed in place so arbitration never touches
        // the allocator (the routing engine's zero-allocation steady state
        // depends on it).
        let start = contenders.partition_point(|&label| label < self.offset);
        contenders.rotate_left(start % n);
        contenders.truncate(capacity);
        contenders.sort_unstable();
    }

    fn advance(&mut self) {
        self.offset = self.offset.wrapping_add(1);
    }
}

/// The outcome of routing one batch of control digits through a hyperbar.
///
/// Produced by [`Hyperbar::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperbarOutcome {
    assignments: Vec<Option<u64>>,
    offered: usize,
    accepted: usize,
}

impl HyperbarOutcome {
    /// For each input, the output wire it was granted (bucket-major:
    /// `bucket * c + slot`), or `None` if idle or rejected.
    pub fn assignments(&self) -> &[Option<u64>] {
        &self.assignments
    }

    /// Number of inputs that presented a request.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Number of requests granted an output wire.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Inputs that presented a request but were rejected.
    pub fn rejected_inputs<'a>(
        &'a self,
        requests: &'a [Option<u64>],
    ) -> impl Iterator<Item = usize> + 'a {
        self.assignments
            .iter()
            .zip(requests)
            .enumerate()
            .filter(|(_, (granted, wanted))| wanted.is_some() && granted.is_none())
            .map(|(input, _)| input)
    }
}

/// The `H(a -> b x c)` switch.
///
/// # Examples
///
/// The paper's Figure 2: an `H(8 -> 4 x 2)` with control digits
/// `[3,2,3,1,2,2,0,3]` discards inputs 5 and 7 under priority arbitration.
///
/// ```
/// use edn_core::{Hyperbar, PriorityArbiter};
///
/// # fn main() -> Result<(), edn_core::EdnError> {
/// let switch = Hyperbar::new(8, 4, 2)?;
/// let digits: Vec<Option<u64>> =
///     [3, 2, 3, 1, 2, 2, 0, 3].iter().map(|&d| Some(d)).collect();
/// let outcome = switch.route(&digits, &mut PriorityArbiter::new())?;
/// let rejected: Vec<usize> = outcome.rejected_inputs(&digits).collect();
/// assert_eq!(rejected, [5, 7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hyperbar {
    a: u64,
    b: u64,
    c: u64,
}

impl Hyperbar {
    /// Creates an `H(a -> b x c)` switch.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero or not a power of two.
    pub fn new(a: u64, b: u64, c: u64) -> Result<Self, EdnError> {
        for (name, value) in [("a", a), ("b", b), ("c", c)] {
            if value == 0 {
                return Err(EdnError::ZeroParameter { name });
            }
            if !value.is_power_of_two() {
                return Err(EdnError::NotPowerOfTwo { name, value });
            }
        }
        Ok(Hyperbar { a, b, c })
    }

    /// The hyperbar used at every non-final stage of `params`' network.
    pub fn from_params(params: &EdnParams) -> Self {
        Hyperbar {
            a: params.a(),
            b: params.b(),
            c: params.c(),
        }
    }

    /// The `c x c` crossbar used at the final stage of `params`' network,
    /// expressed as the degenerate hyperbar `H(c -> c x 1)`.
    pub fn final_stage_crossbar(params: &EdnParams) -> Self {
        Hyperbar {
            a: params.c(),
            b: params.c(),
            c: 1,
        }
    }

    /// Inputs (`a`).
    pub fn inputs(&self) -> u64 {
        self.a
    }

    /// Output buckets (`b`).
    pub fn buckets(&self) -> u64 {
        self.b
    }

    /// Wires per bucket (`c`).
    pub fn capacity(&self) -> u64 {
        self.c
    }

    /// Total output wires, `b * c`.
    pub fn outputs(&self) -> u64 {
        self.b * self.c
    }

    /// Crosspoint count `a * b * c` — the switch's silicon cost (Section 3.1).
    pub fn crosspoints(&self) -> u64 {
        self.a * self.b * self.c
    }

    /// `true` if this switch is a plain `a x b` crossbar (`c == 1`).
    pub fn is_crossbar(&self) -> bool {
        self.c == 1
    }

    /// Routes one batch of control digits.
    ///
    /// `requests[i]` is `Some(digit)` if input `i` requests bucket `digit`,
    /// `None` if idle. Returns the wire assignment for every input.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::LengthMismatch`] if `requests.len() != a` and
    /// [`EdnError::DigitOutOfRange`] if any digit is `>= b`.
    pub fn route(
        &self,
        requests: &[Option<u64>],
        arbiter: &mut dyn Arbiter,
    ) -> Result<HyperbarOutcome, EdnError> {
        self.route_with_disabled(requests, &[], arbiter)
    }

    /// Routes one batch through a switch some of whose output wires are
    /// broken.
    ///
    /// `disabled_wires` lists unusable output wires of *this* switch
    /// (indices in `0..b*c`, sorted or not, duplicates ignored). A bucket's
    /// effective capacity is its count of healthy wires; winners are
    /// assigned to the healthy wires in ascending order. With
    /// `disabled_wires` empty this is exactly [`Hyperbar::route`].
    ///
    /// This is the switch-level primitive behind the fault-tolerance
    /// analysis (`edn_core::faults`): an EDN bucket survives until *all*
    /// `c` of its wires fail, while a delta network (`c = 1`) loses the
    /// bucket on the first fault.
    ///
    /// # Errors
    ///
    /// As [`Hyperbar::route`], plus [`EdnError::IndexOutOfRange`] if a
    /// disabled wire index is `>= b*c`.
    pub fn route_with_disabled(
        &self,
        requests: &[Option<u64>],
        disabled_wires: &[u64],
        arbiter: &mut dyn Arbiter,
    ) -> Result<HyperbarOutcome, EdnError> {
        if requests.len() != self.a as usize {
            return Err(EdnError::LengthMismatch {
                expected: self.a as usize,
                actual: requests.len(),
            });
        }
        let mut healthy = vec![true; (self.b * self.c) as usize];
        for &wire in disabled_wires {
            if wire >= self.b * self.c {
                return Err(EdnError::IndexOutOfRange {
                    kind: "disabled wire",
                    index: wire,
                    limit: self.b * self.c,
                });
            }
            healthy[wire as usize] = false;
        }

        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.b as usize];
        let mut offered = 0usize;
        for (input, request) in requests.iter().enumerate() {
            if let Some(digit) = *request {
                if digit >= self.b {
                    return Err(EdnError::DigitOutOfRange {
                        // edn-lint: allow(cast-audit) -- error path; input indexes <= 2^32 switch ports
                        position: input as u32,
                        digit,
                        base: self.b,
                    });
                }
                buckets[digit as usize].push(input);
                offered += 1;
            }
        }

        let mut assignments: Vec<Option<u64>> = vec![None; self.a as usize];
        let mut accepted = 0usize;
        for (bucket, contenders) in buckets.iter_mut().enumerate() {
            if contenders.is_empty() {
                continue;
            }
            let base = bucket as u64 * self.c;
            let healthy_wires: Vec<u64> = (base..base + self.c)
                .filter(|&wire| healthy[wire as usize])
                .collect();
            arbiter.select(contenders, healthy_wires.len());
            debug_assert!(contenders.len() <= healthy_wires.len());
            for (&input, &wire) in contenders.iter().zip(&healthy_wires) {
                assignments[input] = Some(wire);
                accepted += 1;
            }
        }
        arbiter.advance();
        Ok(HyperbarOutcome {
            assignments,
            offered,
            accepted,
        })
    }
}

impl std::fmt::Display for Hyperbar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H({} -> {} x {})", self.a, self.b, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_some(digits: &[u64]) -> Vec<Option<u64>> {
        digits.iter().map(|&d| Some(d)).collect()
    }

    #[test]
    fn figure2_discards_inputs_5_and_7() {
        let h = Hyperbar::new(8, 4, 2).unwrap();
        let requests = all_some(&[3, 2, 3, 1, 2, 2, 0, 3]);
        let outcome = h.route(&requests, &mut PriorityArbiter::new()).unwrap();
        let rejected: Vec<usize> = outcome.rejected_inputs(&requests).collect();
        assert_eq!(rejected, [5, 7]);
        assert_eq!(outcome.offered(), 8);
        assert_eq!(outcome.accepted(), 6);
        // Winners land on their requested bucket's wires.
        for (input, (&granted, &wanted)) in outcome
            .assignments()
            .iter()
            .zip(requests.iter())
            .enumerate()
        {
            if let Some(wire) = granted {
                assert_eq!(wire / 2, wanted.unwrap(), "input {input}");
            }
        }
    }

    #[test]
    fn degenerate_capacity_one_is_crossbar() {
        let h = Hyperbar::new(4, 4, 1).unwrap();
        assert!(h.is_crossbar());
        assert_eq!(h.crosspoints(), 16);
        // Two inputs fighting for one bucket: only one wins.
        let requests = all_some(&[2, 2, 0, 1]);
        let outcome = h.route(&requests, &mut PriorityArbiter::new()).unwrap();
        assert_eq!(outcome.accepted(), 3);
        assert_eq!(outcome.assignments()[0], Some(2));
        assert_eq!(outcome.assignments()[1], None);
    }

    #[test]
    fn idle_inputs_are_ignored() {
        let h = Hyperbar::new(8, 4, 2).unwrap();
        let mut requests = vec![None; 8];
        requests[3] = Some(1);
        let outcome = h.route(&requests, &mut PriorityArbiter::new()).unwrap();
        assert_eq!(outcome.offered(), 1);
        assert_eq!(outcome.accepted(), 1);
        assert_eq!(outcome.assignments()[3], Some(2));
        assert_eq!(outcome.rejected_inputs(&requests).count(), 0);
    }

    #[test]
    fn never_accepts_more_than_capacity_per_bucket() {
        let h = Hyperbar::new(16, 2, 4).unwrap();
        let requests = all_some(&[0; 16]);
        let outcome = h.route(&requests, &mut PriorityArbiter::new()).unwrap();
        assert_eq!(outcome.accepted(), 4);
    }

    #[test]
    fn random_arbiter_accepts_exactly_capacity_and_valid_wires() {
        let h = Hyperbar::new(16, 4, 2).unwrap();
        let requests = all_some(&[1; 16]);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(7));
        for _ in 0..32 {
            let outcome = h.route(&requests, &mut arbiter).unwrap();
            assert_eq!(outcome.accepted(), 2);
            for granted in outcome.assignments().iter().flatten() {
                assert!((2..4).contains(granted), "wire {granted} not in bucket 1");
            }
        }
    }

    #[test]
    fn random_arbiter_is_roughly_fair() {
        let h = Hyperbar::new(4, 2, 1).unwrap();
        let requests = all_some(&[0, 0, 0, 0]);
        let mut arbiter = RandomArbiter::new(StdRng::seed_from_u64(42));
        let mut wins = [0u32; 4];
        let trials = 4000;
        for _ in 0..trials {
            let outcome = h.route(&requests, &mut arbiter).unwrap();
            for (input, granted) in outcome.assignments().iter().enumerate() {
                if granted.is_some() {
                    wins[input] += 1;
                }
            }
        }
        for &w in &wins {
            // Each input should win about 1/4 of the time; allow wide slack.
            assert!((800..1200).contains(&w), "wins = {wins:?}");
        }
    }

    #[test]
    fn round_robin_rotates_priority() {
        let h = Hyperbar::new(4, 1, 1).unwrap();
        let requests = all_some(&[0, 0, 0, 0]);
        let mut arbiter = RoundRobinArbiter::new();
        let mut winners = Vec::new();
        for _ in 0..4 {
            let outcome = h.route(&requests, &mut arbiter).unwrap();
            let winner = outcome
                .assignments()
                .iter()
                .position(|granted| granted.is_some())
                .unwrap();
            winners.push(winner);
        }
        assert_eq!(winners, [0, 1, 2, 3]);
    }

    #[test]
    fn rejects_bad_requests() {
        let h = Hyperbar::new(8, 4, 2).unwrap();
        assert!(matches!(
            h.route(&[Some(0); 4], &mut PriorityArbiter::new()),
            Err(EdnError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
        let mut requests = vec![None; 8];
        requests[0] = Some(4);
        assert!(matches!(
            h.route(&requests, &mut PriorityArbiter::new()),
            Err(EdnError::DigitOutOfRange {
                digit: 4,
                base: 4,
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(Hyperbar::new(0, 4, 2).is_err());
        assert!(Hyperbar::new(8, 3, 2).is_err());
        assert!(Hyperbar::new(8, 4, 3).is_err());
    }

    #[test]
    fn from_params_matches_stage_switches() {
        let p = EdnParams::new(16, 4, 4, 2).unwrap();
        let h = Hyperbar::from_params(&p);
        assert_eq!(h.inputs(), 16);
        assert_eq!(h.buckets(), 4);
        assert_eq!(h.capacity(), 4);
        let xbar = Hyperbar::final_stage_crossbar(&p);
        assert_eq!(xbar.inputs(), 4);
        assert!(xbar.is_crossbar());
    }

    #[test]
    fn display_shows_shape() {
        let h = Hyperbar::new(8, 4, 2).unwrap();
        assert_eq!(h.to_string(), "H(8 -> 4 x 2)");
    }
}
