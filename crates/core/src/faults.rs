//! Wire-fault modelling — the payoff of the EDN's multiple paths.
//!
//! The paper motivates capacity `c > 1` by contention, but the same
//! redundancy buys fault tolerance: all `c` wires of a bucket lead to the
//! *same* next-stage switch (the interstage `gamma` fixes the low
//! `log2(c)` bits), so a source/destination pair stays connected until an
//! entire bucket on its switch sequence is dead. A delta network (`c = 1`)
//! is severed by the first fault on its unique path.
//!
//! [`FaultSet`] records broken output wires of hyperbar stages;
//! [`route_batch_faulty`] routes a batch through the degraded fabric, and
//! [`EdnTopology::trace_path_with_faults`](crate::topology) (via
//! [`route_one_with_faults`]) answers point-to-point connectivity.

use crate::engine::RoutingEngine;
use crate::error::EdnError;
use crate::hyperbar::Arbiter;
use crate::params::EdnParams;
use crate::routing::{BatchOutcome, RouteRequest};
use crate::topology::{EdnTopology, PathTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set of broken output wires, per hyperbar stage.
///
/// Wires are identified by their *exit-line* index at a stage's output
/// (before the interstage permutation), stage `1..=l`. Final-stage
/// crossbar outputs are network outputs; breaking those disconnects a
/// destination outright and is modelled separately by callers if needed.
///
/// Storage is a dense bitmask per stage (one bit per wire), so the
/// per-wire membership probe on the engine's faulty routing path is a
/// shift-and-mask instead of a hash lookup, and a `FaultSet` for a
/// million-wire fabric is ~128 KiB regardless of how many wires are
/// broken.
///
/// # Examples
///
/// ```
/// use edn_core::{EdnParams, FaultSet};
///
/// # fn main() -> Result<(), edn_core::EdnError> {
/// let params = EdnParams::new(16, 4, 4, 2)?;
/// let mut faults = FaultSet::none(&params);
/// faults.disable(1, 7)?; // stage 1, exit line 7
/// assert!(faults.is_disabled(1, 7));
/// assert_eq!(faults.count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    params: EdnParams,
    /// `by_stage[i - 1]` is the disabled-wire bitmask of stage `i`: bit
    /// `w % 64` of word `w / 64` is set iff exit line `w` is broken.
    by_stage: Vec<Vec<u64>>,
    /// Total set bits, maintained by [`FaultSet::disable`].
    count: usize,
}

impl FaultSet {
    /// A healthy fabric for `params`.
    pub fn none(params: &EdnParams) -> Self {
        FaultSet {
            params: *params,
            by_stage: (1..=params.l())
                .map(|stage| vec![0u64; params.wires_after_stage(stage).div_ceil(64) as usize])
                .collect(),
            count: 0,
        }
    }

    /// Breaks each hyperbar-stage output wire independently with
    /// probability `fraction`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn random(params: &EdnParams, fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction = {fraction} is not a probability"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = FaultSet::none(params);
        for stage in 1..=params.l() {
            for wire in 0..params.wires_after_stage(stage) {
                if rng.gen_bool(fraction) {
                    faults.set_bit(stage, wire);
                }
            }
        }
        faults
    }

    /// Sets one bit, keeping the fault count in sync.
    fn set_bit(&mut self, stage: u32, wire: u64) {
        let word = &mut self.by_stage[(stage - 1) as usize][(wire / 64) as usize];
        let mask = 1u64 << (wire % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
        }
    }

    /// Marks one exit line of stage `stage` (`1..=l`) as broken.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::IndexOutOfRange`] for an invalid stage or wire.
    pub fn disable(&mut self, stage: u32, wire: u64) -> Result<(), EdnError> {
        if stage == 0 || stage > self.params.l() {
            return Err(EdnError::IndexOutOfRange {
                kind: "stage",
                index: stage as u64,
                limit: self.params.l() as u64 + 1,
            });
        }
        if wire >= self.params.wires_after_stage(stage) {
            return Err(EdnError::IndexOutOfRange {
                kind: "wire",
                index: wire,
                limit: self.params.wires_after_stage(stage),
            });
        }
        self.set_bit(stage, wire);
        Ok(())
    }

    /// `true` if the exit line is broken.
    #[inline]
    pub fn is_disabled(&self, stage: u32, wire: u64) -> bool {
        if stage < 1 || stage > self.params.l() {
            return false;
        }
        let words = &self.by_stage[(stage - 1) as usize];
        match words.get((wire / 64) as usize) {
            Some(word) => word >> (wire % 64) & 1 == 1,
            None => false,
        }
    }

    /// Total broken wires.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The network parameters this fault set was built for.
    pub fn params(&self) -> &EdnParams {
        &self.params
    }

    /// The broken wires of one switch at `stage`, as switch-local wire
    /// indices (`0..b*c`), sorted ascending.
    pub fn switch_local_disabled(&self, stage: u32, switch: u64) -> Vec<u64> {
        let width = self.params.b() * self.params.c();
        let base = switch * width;
        (0..width)
            .filter(|local| self.is_disabled(stage, base + local))
            .collect()
    }
}

/// How one message fared on a faulty fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRouting {
    /// A healthy path exists; the witness trace uses, at every stage, the
    /// lowest-numbered healthy wire of the required bucket.
    Delivered(PathTrace),
    /// Every wire of the required bucket at `stage` is broken: the pair is
    /// disconnected, no matter the wire choices elsewhere.
    Severed {
        /// The stage whose bucket is entirely dead.
        stage: u32,
    },
}

/// Contention-free routability of a single `(source, tag)` pair on a
/// faulty fabric.
///
/// Because all `c` wires of a bucket reach the same next-stage switch,
/// the switch sequence of a pair is unique, and connectivity reduces to
/// "does every bucket on that sequence keep at least one healthy wire".
///
/// # Errors
///
/// Returns an error for out-of-range `source`/`tag` (as
/// [`EdnTopology::trace_path`]).
pub fn route_one_with_faults(
    topology: &EdnTopology,
    faults: &FaultSet,
    source: u64,
    tag: u64,
) -> Result<FaultRouting, EdnError> {
    let p = *topology.params();
    // Walk stage by stage, picking the first healthy wire per bucket.
    let mut choices = Vec::with_capacity(p.l() as usize);
    let mut line = source;
    if source >= p.inputs() {
        return Err(EdnError::IndexOutOfRange {
            kind: "input",
            index: source,
            limit: p.inputs(),
        });
    }
    if tag >= p.outputs() {
        return Err(EdnError::IndexOutOfRange {
            kind: "output",
            index: tag,
            limit: p.outputs(),
        });
    }
    for stage in 1..=p.l() {
        let switch = line / p.a();
        let digit = p.tag_digit_for_stage(tag, stage);
        let base = switch * (p.b() * p.c()) + digit * p.c();
        let healthy = (0..p.c()).find(|&k| !faults.is_disabled(stage, base + k));
        match healthy {
            Some(k) => {
                choices.push(k);
                line = topology.interstage_gamma(stage).apply(base + k);
            }
            None => return Ok(FaultRouting::Severed { stage }),
        }
    }
    let trace = topology.trace_path(source, tag, &choices)?;
    Ok(FaultRouting::Delivered(trace))
}

/// Routes one circuit-switched cycle through a fabric with broken wires.
///
/// Identical to [`crate::route_batch`] except that each hyperbar's bucket
/// capacity shrinks to its healthy-wire count. The final crossbar stage is
/// assumed healthy (its wires are the network outputs).
///
/// This is a compatibility wrapper over
/// [`RoutingEngine::route_faulty`], which consults the fault mask inline
/// instead of materializing per-switch disabled-wire lists; hold a reused
/// engine when routing more than one cycle.
///
/// # Panics
///
/// As [`crate::route_batch`]; additionally panics if `faults` was built
/// for different parameters.
pub fn route_batch_faulty(
    topology: &EdnTopology,
    requests: &[RouteRequest],
    faults: &FaultSet,
    arbiter: &mut dyn Arbiter,
) -> BatchOutcome {
    let mut engine = RoutingEngine::new(topology.clone());
    engine.route_faulty(requests, faults, arbiter).to_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperbar::PriorityArbiter;
    use crate::routing::route_batch;

    fn topo(a: u64, b: u64, c: u64, l: u32) -> EdnTopology {
        EdnTopology::new(EdnParams::new(a, b, c, l).unwrap())
    }

    #[test]
    fn no_faults_matches_plain_routing() {
        let t = topo(16, 4, 4, 2);
        let p = *t.params();
        let faults = FaultSet::none(&p);
        let requests: Vec<RouteRequest> = (0..p.inputs())
            .map(|s| RouteRequest::new(s, (s * 13 + 7) % p.outputs()))
            .collect();
        let plain = route_batch(&t, &requests, &mut PriorityArbiter::new());
        let faulty = route_batch_faulty(&t, &requests, &faults, &mut PriorityArbiter::new());
        assert_eq!(plain, faulty);
    }

    #[test]
    fn delta_is_severed_by_a_single_fault_on_its_path() {
        let t = topo(4, 4, 1, 2); // 16-port delta, unique paths
        let p = *t.params();
        let healthy = t.trace_path(3, 9, &[0, 0]).unwrap();
        let mut faults = FaultSet::none(&p);
        faults.disable(1, healthy.exit_lines()[0]).unwrap();
        match route_one_with_faults(&t, &faults, 3, 9).unwrap() {
            FaultRouting::Severed { stage } => assert_eq!(stage, 1),
            FaultRouting::Delivered(_) => panic!("delta pair should be severed"),
        }
        // Other pairs not using that wire stay connected.
        let other = route_one_with_faults(&t, &faults, 0, 0).unwrap();
        assert!(matches!(other, FaultRouting::Delivered(_)));
    }

    #[test]
    fn edn_survives_partial_bucket_failures() {
        let t = topo(16, 4, 4, 2); // c = 4: buckets have 4 wires
        let p = *t.params();
        let healthy = t.trace_path(5, 42, &[0, 0]).unwrap();
        let bucket_base = (healthy.exit_lines()[0] / p.c()) * p.c();
        // Break 3 of the 4 wires of the stage-1 bucket.
        let mut faults = FaultSet::none(&p);
        for k in 0..3 {
            faults.disable(1, bucket_base + k).unwrap();
        }
        match route_one_with_faults(&t, &faults, 5, 42).unwrap() {
            FaultRouting::Delivered(trace) => {
                assert_eq!(trace.output(), 42);
                assert_eq!(trace.choices()[0], 3, "only the last wire survives");
            }
            FaultRouting::Severed { .. } => panic!("one healthy wire remains"),
        }
        // Break the last wire too: now the pair is severed.
        faults.disable(1, bucket_base + 3).unwrap();
        assert!(matches!(
            route_one_with_faults(&t, &faults, 5, 42).unwrap(),
            FaultRouting::Severed { stage: 1 }
        ));
    }

    #[test]
    fn batch_routing_avoids_broken_wires() {
        let t = topo(16, 4, 4, 2);
        let p = *t.params();
        let faults = FaultSet::random(&p, 0.3, 99);
        let requests: Vec<RouteRequest> = (0..p.inputs())
            .map(|s| RouteRequest::new(s, (s * 29 + 3) % p.outputs()))
            .collect();
        let outcome = route_batch_faulty(&t, &requests, &faults, &mut PriorityArbiter::new());
        // Conservation and correct delivery still hold.
        assert_eq!(
            outcome.delivered_count() + outcome.blocked().len(),
            outcome.offered()
        );
        for &(source, output) in outcome.delivered() {
            assert_eq!(output, (source * 29 + 3) % p.outputs());
        }
        // Faults strictly reduce capacity versus the healthy fabric.
        let plain = route_batch(&t, &requests, &mut PriorityArbiter::new());
        assert!(outcome.delivered_count() <= plain.delivered_count());
    }

    #[test]
    fn multipath_keeps_more_pairs_connected_than_delta() {
        // Equal 256-port networks, equal fault fraction.
        let edn = topo(16, 4, 4, 3);
        let delta = topo(4, 4, 1, 4);
        assert_eq!(edn.params().inputs(), delta.params().inputs());
        let fraction = 0.05;
        let edn_faults = FaultSet::random(edn.params(), fraction, 7);
        let delta_faults = FaultSet::random(delta.params(), fraction, 7);
        let mut edn_ok = 0u32;
        let mut delta_ok = 0u32;
        let samples = 400u64;
        for i in 0..samples {
            let source = (i * 37) % 256;
            let tag = (i * 101 + 13) % 256;
            if matches!(
                route_one_with_faults(&edn, &edn_faults, source, tag).unwrap(),
                FaultRouting::Delivered(_)
            ) {
                edn_ok += 1;
            }
            if matches!(
                route_one_with_faults(&delta, &delta_faults, source, tag).unwrap(),
                FaultRouting::Delivered(_)
            ) {
                delta_ok += 1;
            }
        }
        assert!(
            edn_ok > delta_ok,
            "EDN connected {edn_ok}/{samples}, delta {delta_ok}/{samples}"
        );
        // With c = 4 and 5% faults, bucket death (p^4) is ~6e-6 per
        // bucket: virtually everything stays connected.
        assert!(edn_ok as f64 / samples as f64 > 0.99);
    }

    #[test]
    fn fault_set_validation() {
        let p = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut faults = FaultSet::none(&p);
        assert!(faults.disable(0, 0).is_err());
        assert!(faults.disable(3, 0).is_err());
        assert!(faults.disable(1, 64).is_err());
        assert!(faults.disable(2, 63).is_ok());
        assert_eq!(faults.count(), 1);
        assert!(!faults.is_disabled(1, 63));
        assert!(faults.is_disabled(2, 63));
    }

    #[test]
    fn switch_local_view() {
        let p = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut faults = FaultSet::none(&p);
        // Stage 1, switch 1 owns wires 16..32.
        faults.disable(1, 17).unwrap();
        faults.disable(1, 31).unwrap();
        faults.disable(1, 5).unwrap(); // switch 0
        assert_eq!(faults.switch_local_disabled(1, 1), vec![1, 15]);
        assert_eq!(faults.switch_local_disabled(1, 0), vec![5]);
        assert!(faults.switch_local_disabled(1, 2).is_empty());
    }

    #[test]
    fn bitmask_backend_counts_without_double_counting() {
        let p = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut faults = FaultSet::none(&p);
        faults.disable(1, 63).unwrap();
        faults.disable(1, 63).unwrap(); // idempotent
        faults.disable(2, 0).unwrap();
        assert_eq!(faults.count(), 2);
        // Probes beyond the stage's wire range (and bogus stages) read as
        // healthy instead of panicking.
        assert!(!faults.is_disabled(1, 1 << 40));
        assert!(!faults.is_disabled(0, 0));
        assert!(!faults.is_disabled(9, 0));
        // Equality is structural on the masks.
        let mut twin = FaultSet::none(&p);
        twin.disable(2, 0).unwrap();
        twin.disable(1, 63).unwrap();
        assert_eq!(faults, twin);
    }

    #[test]
    fn random_fault_fraction_is_roughly_respected() {
        let p = EdnParams::new(16, 4, 4, 3).unwrap();
        let faults = FaultSet::random(&p, 0.1, 42);
        let total_wires: u64 = (1..=p.l()).map(|i| p.wires_after_stage(i)).sum();
        let fraction = faults.count() as f64 / total_wires as f64;
        assert!((fraction - 0.1).abs() < 0.04, "fraction {fraction}");
    }
}
