//! Permutation workloads — the SIMD routing model of Sections 3.2.1 and 5.
//!
//! In an SIMD machine all processors communicate at once, so the router's
//! job is to realize an arbitrary *permutation* quickly. [`Permutation`]
//! wraps a validated one-to-one destination map together with the named
//! structured permutations that classically stress multistage networks
//! (identity — the paper's Figure 5 worst case —, bit reversal, perfect
//! shuffle, transpose, butterfly, displacement).

use edn_core::RouteRequest;
use rand::seq::SliceRandom;
use rand::Rng;

/// A validated permutation of `0..n`, usable as a one-cycle workload.
///
/// # Examples
///
/// ```
/// use edn_traffic::Permutation;
///
/// let p = Permutation::bit_reversal(8).unwrap();
/// assert_eq!(p.apply(1), 4); // 001 -> 100
/// assert!(p.then(&p).unwrap().is_identity()); // self-inverse
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<u64>,
}

impl Permutation {
    /// Wraps an explicit destination map after validating it is a
    /// permutation of `0..map.len()`.
    ///
    /// Returns `None` if `map` is not a permutation.
    pub fn from_map(map: Vec<u64>) -> Option<Self> {
        let n = map.len() as u64;
        let mut seen = vec![false; map.len()];
        for &dest in &map {
            if dest >= n || seen[dest as usize] {
                return None;
            }
            seen[dest as usize] = true;
        }
        Some(Permutation { map })
    }

    /// The identity permutation of `0..n` — the paper's Figure 5 stress
    /// case for EDNs whose first-stage switches span many inputs.
    pub fn identity(n: u64) -> Self {
        Permutation {
            map: (0..n).collect(),
        }
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn random<R: Rng>(n: u64, rng: &mut R) -> Self {
        let mut map: Vec<u64> = (0..n).collect();
        map.shuffle(rng);
        Permutation { map }
    }

    /// Re-randomizes this permutation in place over the same domain,
    /// drawing the identical RNG stream as [`Permutation::random`] but
    /// without allocating.
    ///
    /// This is the per-cycle primitive behind the Monte-Carlo permutation
    /// workloads: one `Permutation` is built once and reshuffled every
    /// cycle.
    pub fn randomize_in_place<R: Rng>(&mut self, rng: &mut R) {
        for (i, slot) in self.map.iter_mut().enumerate() {
            *slot = i as u64;
        }
        self.map.shuffle(rng);
    }

    /// Bit reversal on `log2(n)`-bit labels. Requires `n` to be a power of
    /// two; returns `None` otherwise.
    pub fn bit_reversal(n: u64) -> Option<Self> {
        if n == 0 || !n.is_power_of_two() {
            return None;
        }
        let bits = n.trailing_zeros();
        let map = (0..n)
            .map(|x| {
                if bits == 0 {
                    x
                } else {
                    x.reverse_bits() >> (64 - bits)
                }
            })
            .collect();
        Some(Permutation { map })
    }

    /// The perfect shuffle (left cyclic shift of the label bits by one).
    /// Requires `n` to be a power of two; returns `None` otherwise.
    pub fn perfect_shuffle(n: u64) -> Option<Self> {
        if n == 0 || !n.is_power_of_two() {
            return None;
        }
        let bits = n.trailing_zeros();
        let map = (0..n)
            .map(|x| {
                if bits <= 1 {
                    x
                } else {
                    ((x << 1) | (x >> (bits - 1))) & (n - 1)
                }
            })
            .collect();
        Some(Permutation { map })
    }

    /// Matrix transpose: swaps the high and low halves of the label bits.
    /// Requires `n = 4^k`; returns `None` otherwise.
    pub fn transpose(n: u64) -> Option<Self> {
        if n == 0 || !n.is_power_of_two() || !n.trailing_zeros().is_multiple_of(2) {
            return None;
        }
        let bits = n.trailing_zeros();
        let half = bits / 2;
        let low_mask = (1u64 << half) - 1;
        let map = (0..n)
            .map(|x| ((x & low_mask) << half) | (x >> half))
            .collect();
        Some(Permutation { map })
    }

    /// Butterfly: swaps the most and least significant label bits.
    /// Requires `n` to be a power of two; returns `None` otherwise.
    pub fn butterfly(n: u64) -> Option<Self> {
        if n == 0 || !n.is_power_of_two() {
            return None;
        }
        let bits = n.trailing_zeros();
        if bits < 2 {
            return Some(Permutation::identity(n));
        }
        let top = bits - 1;
        let map = (0..n)
            .map(|x| {
                let lsb = x & 1;
                let msb = (x >> top) & 1;
                (x & !(1 | (1 << top))) | (lsb << top) | msb
            })
            .collect();
        Some(Permutation { map })
    }

    /// Uniform displacement: `x -> (x + k) mod n`.
    pub fn displacement(n: u64, k: u64) -> Self {
        Permutation {
            map: (0..n).map(|x| (x + k) % n).collect(),
        }
    }

    /// Vector reversal: `x -> n - 1 - x`.
    pub fn reversal(n: u64) -> Self {
        Permutation {
            map: (0..n).map(|x| n - 1 - x).collect(),
        }
    }

    /// Domain size `n`.
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `true` if every element maps to itself.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &d)| i as u64 == d)
    }

    /// The image of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn apply(&self, x: u64) -> u64 {
        self.map[x as usize]
    }

    /// The underlying destination map.
    pub fn as_map(&self) -> &[u64] {
        &self.map
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u64; self.map.len()];
        for (i, &d) in self.map.iter().enumerate() {
            inv[d as usize] = i as u64;
        }
        Permutation { map: inv }
    }

    /// Composition `other ∘ self` (apply `self` first).
    ///
    /// Returns `None` if the domains differ.
    pub fn then(&self, other: &Permutation) -> Option<Permutation> {
        if self.map.len() != other.map.len() {
            return None;
        }
        Some(Permutation {
            map: self.map.iter().map(|&d| other.map[d as usize]).collect(),
        })
    }

    /// This permutation as a full one-cycle request batch.
    pub fn to_requests(&self) -> Vec<RouteRequest> {
        let mut batch = Vec::new();
        self.fill_requests(&mut batch);
        batch
    }

    /// Writes the full one-cycle request batch into `batch` (cleared
    /// first), reusing its capacity.
    pub fn fill_requests(&self, batch: &mut Vec<RouteRequest>) {
        batch.clear();
        batch.extend(
            self.map
                .iter()
                .enumerate()
                .map(|(source, &tag)| RouteRequest::new(source as u64, tag)),
        );
    }

    /// A partial batch: each source participates with probability `rate`
    /// (still conflict-free on outputs, being a sub-permutation).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn to_partial_requests<R: Rng>(&self, rate: f64, rng: &mut R) -> Vec<RouteRequest> {
        let mut batch = Vec::new();
        self.fill_partial_requests(rate, rng, &mut batch);
        batch
    }

    /// As [`Permutation::to_partial_requests`], writing into `batch`
    /// (cleared first) and reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn fill_partial_requests<R: Rng>(
        &self,
        rate: f64,
        rng: &mut R,
        batch: &mut Vec<RouteRequest>,
    ) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "rate = {rate} is not a probability"
        );
        batch.clear();
        batch.extend(
            self.map
                .iter()
                .enumerate()
                .filter(|_| rng.gen_bool(rate))
                .map(|(source, &tag)| RouteRequest::new(source as u64, tag)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_is_permutation(p: &Permutation) {
        let mut sorted: Vec<u64> = p.as_map().to_vec();
        sorted.sort_unstable();
        let expected: Vec<u64> = (0..p.len()).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn named_permutations_are_bijections() {
        let n = 64;
        let all = [
            Permutation::identity(n),
            Permutation::bit_reversal(n).unwrap(),
            Permutation::perfect_shuffle(n).unwrap(),
            Permutation::transpose(n).unwrap(),
            Permutation::butterfly(n).unwrap(),
            Permutation::displacement(n, 17),
            Permutation::reversal(n),
            Permutation::random(n, &mut StdRng::seed_from_u64(5)),
        ];
        for p in &all {
            assert_is_permutation(p);
            assert_eq!(p.len(), n);
        }
    }

    #[test]
    fn bit_reversal_is_self_inverse() {
        let p = Permutation::bit_reversal(256).unwrap();
        assert!(p.then(&p).unwrap().is_identity());
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn butterfly_is_self_inverse() {
        let p = Permutation::butterfly(128).unwrap();
        assert!(p.then(&p).unwrap().is_identity());
    }

    #[test]
    fn transpose_is_self_inverse() {
        let p = Permutation::transpose(256).unwrap();
        assert!(p.then(&p).unwrap().is_identity());
        // 16x16 matrix: element (row 3, col 5) goes to (row 5, col 3).
        assert_eq!(p.apply(3 * 16 + 5), 5 * 16 + 3);
    }

    #[test]
    fn shuffle_inverse_composes_to_identity() {
        let p = Permutation::perfect_shuffle(64).unwrap();
        assert!(p.then(&p.inverse()).unwrap().is_identity());
        // log2(64) = 6 applications of the shuffle is the identity.
        let mut acc = Permutation::identity(64);
        for _ in 0..6 {
            acc = acc.then(&p).unwrap();
        }
        assert!(acc.is_identity());
    }

    #[test]
    fn displacement_wraps() {
        let p = Permutation::displacement(10, 3);
        assert_eq!(p.apply(9), 2);
        assert_eq!(p.apply(0), 3);
        assert_is_permutation(&p);
    }

    #[test]
    fn from_map_validates() {
        assert!(Permutation::from_map(vec![1, 0, 2]).is_some());
        assert!(Permutation::from_map(vec![1, 1, 2]).is_none());
        assert!(Permutation::from_map(vec![0, 3]).is_none());
        assert!(Permutation::from_map(Vec::new()).is_some());
    }

    #[test]
    fn power_of_two_constructors_reject_other_sizes() {
        assert!(Permutation::bit_reversal(12).is_none());
        assert!(Permutation::perfect_shuffle(0).is_none());
        assert!(Permutation::transpose(8).is_none()); // 8 is not 4^k
        assert!(Permutation::butterfly(6).is_none());
    }

    #[test]
    fn requests_carry_the_map() {
        let p = Permutation::reversal(8);
        let requests = p.to_requests();
        assert_eq!(requests.len(), 8);
        for request in &requests {
            assert_eq!(request.tag, 7 - request.source);
        }
    }

    #[test]
    fn partial_requests_subsample_without_conflicts() {
        let p = Permutation::random(128, &mut StdRng::seed_from_u64(11));
        let mut rng = StdRng::seed_from_u64(12);
        let batch = p.to_partial_requests(0.5, &mut rng);
        assert!(batch.len() < 128 && !batch.is_empty());
        let mut tags: Vec<u64> = batch.iter().map(|r| r.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags.len(),
            batch.len(),
            "sub-permutation must stay conflict-free"
        );
    }

    #[test]
    fn randomize_in_place_matches_random_and_keeps_capacity() {
        let mut a = Permutation::identity(128);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        a.randomize_in_place(&mut rng_a);
        let b = Permutation::random(128, &mut rng_b);
        assert_eq!(a, b, "in-place reshuffle must draw the same stream");
        assert_is_permutation(&a);
        // Reshuffling again yields a fresh (different) permutation.
        a.randomize_in_place(&mut rng_a);
        assert_is_permutation(&a);
        assert_ne!(a, b);
    }

    #[test]
    fn fill_requests_reuses_buffer() {
        let p = Permutation::reversal(16);
        let mut batch = Vec::new();
        p.fill_requests(&mut batch);
        assert_eq!(batch, p.to_requests());
        let capacity = batch.capacity();
        p.fill_requests(&mut batch);
        assert_eq!(batch.capacity(), capacity);
        let mut rng = StdRng::seed_from_u64(5);
        p.fill_partial_requests(0.5, &mut rng, &mut batch);
        assert!(batch.len() <= 16);
    }

    #[test]
    fn random_permutations_differ_across_seeds() {
        let a = Permutation::random(64, &mut StdRng::seed_from_u64(1));
        let b = Permutation::random(64, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
        let c = Permutation::random(64, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, c, "same seed must reproduce the permutation");
    }

    #[test]
    fn tiny_domains() {
        assert!(Permutation::identity(0).is_identity());
        assert!(Permutation::bit_reversal(1).unwrap().is_identity());
        assert!(Permutation::bit_reversal(2).unwrap().is_identity());
        assert!(Permutation::perfect_shuffle(2).unwrap().is_identity());
        assert!(Permutation::butterfly(2).unwrap().is_identity());
    }
}
