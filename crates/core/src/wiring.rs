//! Compiled interstage wiring: the struct-of-arrays form of the fabric.
//!
//! [`EdnTopology`] stores each interstage permutation as a
//! [`crate::Gamma`] descriptor and evaluates `gamma.apply(exit)` per
//! winner — a handful of shifts and rotates on the routing hot path,
//! recomputed by every engine instance. [`CompiledWiring`] is the
//! flattened alternative: one contiguous `u32` table per stage
//! (cache-conscious stage strides, all stages packed into a single
//! allocation), compiled once and shared by reference — every
//! [`crate::RoutingEngine`] borrows it through an [`Arc`] instead of
//! owning a per-instance copy, and the `edn_fabric` on-disk database
//! serializes exactly this table so shard processes can load a pre-built
//! fabric instead of re-wiring it.
//!
//! Compilation is the *validated* step (the build-once/validate-deeply
//! split of FPGA interconnect databases): besides filling the table from
//! [`crate::Gamma::apply`], [`CompiledWiring::compile`] proves every
//! stage is a bijection (occupancy bitmap) and round-trips every entry
//! through [`crate::Gamma::inverse`]. Consumers of an already-validated
//! table (an engine cloning an [`Arc`], a hash-checked `edn_fabric` load)
//! skip all of that and pay only a length check.
//!
//! # Examples
//!
//! ```
//! use edn_core::{CompiledWiring, EdnParams, EdnTopology};
//!
//! # fn main() -> Result<(), edn_core::EdnError> {
//! let params = EdnParams::new(16, 4, 4, 2)?;
//! let topology = EdnTopology::new(params);
//! let wiring = CompiledWiring::compile(&topology)?;
//! // Stage 1's table maps each exit wire to its next-stage line.
//! let gamma = topology.interstage_gamma(1);
//! for exit in 0..params.wires_after_stage(1) {
//!     assert_eq!(wiring.stage_lut(1)[exit as usize] as u64, gamma.apply(exit));
//! }
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::error::EdnError;
use crate::params::EdnParams;
use crate::topology::EdnTopology;

/// Exclusive upper bound on per-stage wire ids: entries are `u32`.
const MAX_WIRE_ID: u64 = 1 << 32;

/// Read-only external backing for an already-validated table.
///
/// This is the zero-copy hook for integrity-checked table sources: the
/// `edn_fabric` loader memory-maps a database file and hands the payload
/// to [`CompiledWiring::from_validated_provider`] through this trait, so
/// the router indexes the mapped pages directly — no 37 MiB copy at
/// million-port scale, and shard processes on one host share a single
/// physical copy through the page cache.
///
/// The slice a provider returns must be stable for the provider's whole
/// life: engines hold stage sub-slices of it across routing calls.
pub trait LutProvider: Send + Sync + 'static {
    /// The full flattened table, all stages concatenated in stage order.
    fn lut(&self) -> &[u32];
}

/// The table bytes behind a [`CompiledWiring`]: owned by the process
/// (the compile path) or borrowed from a provider (the mapped-database
/// path). Routing is identical either way — both collapse to one
/// contiguous `&[u32]`.
enum LutStore {
    Owned(Vec<u32>),
    Provided(Box<dyn LutProvider>),
}

impl LutStore {
    fn as_slice(&self) -> &[u32] {
        match self {
            LutStore::Owned(lut) => lut,
            LutStore::Provided(provider) => provider.lut(),
        }
    }
}

/// The flattened per-stage interstage permutation tables of one fabric.
///
/// Stage `s` (for `1 <= s <= l`) owns the half-open entry range
/// `offset(s) .. offset(s + 1)` of the backing table; entry `e` of that
/// range is the next-stage line reached from exit wire `e` of stage `s`
/// — the precomputed value of `topology.interstage_gamma(s).apply(e)`,
/// stored as a `u32` wire id. The final crossbar stage needs no table
/// (its outputs are the network outputs).
///
/// Instances are immutable after construction and are meant to be shared
/// via [`Arc`]: cloning the handle is free, and every engine built from
/// the same handle routes through the same physical table. The table
/// itself is either owned (compiled in-process) or borrowed zero-copy
/// from a [`LutProvider`] (loaded from a mapped `edn_fabric` database);
/// equality compares the entries, not the storage.
pub struct CompiledWiring {
    params: EdnParams,
    /// `l + 1` cumulative entry offsets; stage `s` spans
    /// `offsets[s - 1] .. offsets[s]`.
    offsets: Vec<usize>,
    /// All stages' tables, concatenated in stage order.
    store: LutStore,
}

impl std::fmt::Debug for CompiledWiring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The table is up to tens of millions of entries; print its
        // frame, not its contents.
        f.debug_struct("CompiledWiring")
            .field("params", &self.params)
            .field("offsets", &self.offsets)
            .field(
                "storage",
                &match self.store {
                    LutStore::Owned(_) => "owned",
                    LutStore::Provided(_) => "provided",
                },
            )
            .field("entries", &self.entries())
            .finish()
    }
}

impl PartialEq for CompiledWiring {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.offsets == other.offsets && self.lut() == other.lut()
    }
}

impl Eq for CompiledWiring {}

impl CompiledWiring {
    /// The per-stage entry offsets for `params`, or an error if any
    /// stage's wire ids would not fit the `u32` representation.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::IndexOutOfRange`] (kind `"compiled wire id"`)
    /// when a stage has `2^32` wires or more — the checked form of what
    /// would otherwise be a silent narrowing cast.
    fn layout(params: &EdnParams) -> Result<Vec<usize>, EdnError> {
        let l = params.l();
        let mut offsets = Vec::with_capacity(l as usize + 1);
        offsets.push(0usize);
        for stage in 1..=l {
            let wires = params.wires_after_stage(stage);
            if wires > MAX_WIRE_ID {
                return Err(EdnError::IndexOutOfRange {
                    kind: "compiled wire id",
                    index: wires - 1,
                    limit: MAX_WIRE_ID,
                });
            }
            let last = *offsets.last().expect("offsets starts non-empty");
            offsets.push(last + wires as usize);
        }
        Ok(offsets)
    }

    /// Total entries a compiled table for `params` holds (the sum of
    /// per-stage wire counts), or the same error as compilation would
    /// produce for an unrepresentable shape.
    ///
    /// # Errors
    ///
    /// As [`CompiledWiring::compile`].
    pub fn expected_entries(params: &EdnParams) -> Result<u64, EdnError> {
        let offsets = Self::layout(params)?;
        Ok(*offsets.last().expect("layout is non-empty") as u64)
    }

    /// Compiles and deeply validates the wiring of `topology`.
    ///
    /// Each stage's table is filled from [`crate::Gamma::apply`], then
    /// proven to be a bijection onto `0..wires` (occupancy bitmap) and
    /// round-tripped entry-by-entry through [`crate::Gamma::inverse`].
    /// This is the expensive, run-once step every shard process pays
    /// when it re-wires a fabric at startup; the `edn_fabric` database
    /// exists so they can load this table instead.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::IndexOutOfRange`] (kind `"compiled wire id"`)
    /// when a stage's wire ids exceed `u32`.
    pub fn compile(topology: &EdnTopology) -> Result<Self, EdnError> {
        let params = *topology.params();
        let offsets = Self::layout(&params)?;
        let total = *offsets.last().expect("layout is non-empty");
        let mut lut = Vec::with_capacity(total);
        for stage in 1..=params.l() {
            let gamma = topology.interstage_gamma(stage);
            for exit in 0..params.wires_after_stage(stage) {
                // edn-lint: allow(cast-audit) -- wire ids fit u32 (compiled fabrics cap at 2^32 ports)
                lut.push(gamma.apply(exit) as u32);
            }
        }
        let wiring = CompiledWiring {
            params,
            offsets,
            store: LutStore::Owned(lut),
        };
        wiring.validate_deep(topology);
        Ok(wiring)
    }

    /// As [`CompiledWiring::compile`], wiring the topology from
    /// parameters.
    ///
    /// # Errors
    ///
    /// As [`CompiledWiring::compile`].
    pub fn compile_params(params: EdnParams) -> Result<Self, EdnError> {
        Self::compile(&EdnTopology::new(params))
    }

    /// Asserts every stage table is the bijection its [`crate::Gamma`]
    /// describes. Internal invariants, so failures panic: a freshly
    /// filled table that disagrees with its own generator is a bug, not
    /// a runtime condition.
    fn validate_deep(&self, topology: &EdnTopology) {
        let mut seen: Vec<u64> = Vec::new();
        for stage in 1..=self.params.l() {
            let table = self.stage_lut(stage);
            let wires = table.len();
            seen.clear();
            seen.resize(wires.div_ceil(64), 0);
            let inverse = topology.interstage_gamma(stage).inverse();
            for (exit, &line) in table.iter().enumerate() {
                let line = line as usize;
                assert!(
                    line < wires,
                    "stage {stage} entry {exit} maps outside its {wires}-wire space"
                );
                let word = &mut seen[line >> 6];
                let bit = 1u64 << (line & 63);
                assert!(
                    *word & bit == 0,
                    "stage {stage} is not a bijection: line {line} hit twice"
                );
                *word |= bit;
                assert!(
                    inverse.apply(line as u64) == exit as u64,
                    "stage {stage} entry {exit} does not round-trip through gamma inverse"
                );
            }
        }
    }

    /// Wraps an already-validated table — the entry point for
    /// integrity-checked sources (the `edn_fabric` loader, whose content
    /// hash certifies the bytes are exactly those of a validated build).
    /// Only the structural frame is re-checked: the table length must
    /// match the shape's layout. Entries are trusted; a forged table
    /// with in-range ids routes wrong and an out-of-range id panics at
    /// the indexing site (safe, but late) — callers must gate this on a
    /// real integrity check.
    ///
    /// # Errors
    ///
    /// Returns [`EdnError::LengthMismatch`] when `lut` disagrees with
    /// the layout of `params`, or the layout error for unrepresentable
    /// shapes.
    pub fn from_validated_lut(params: EdnParams, lut: Vec<u32>) -> Result<Self, EdnError> {
        let offsets = Self::layout(&params)?;
        let total = *offsets.last().expect("layout is non-empty");
        if lut.len() != total {
            return Err(EdnError::LengthMismatch {
                expected: total,
                actual: lut.len(),
            });
        }
        Ok(CompiledWiring {
            params,
            offsets,
            store: LutStore::Owned(lut),
        })
    }

    /// As [`CompiledWiring::from_validated_lut`], but borrowing the
    /// table zero-copy from a [`LutProvider`] instead of taking an
    /// owned buffer — the entry point for the memory-mapped `edn_fabric`
    /// load path. The same trust rule applies: callers must gate this on
    /// a real integrity check of the provider's bytes.
    ///
    /// # Errors
    ///
    /// As [`CompiledWiring::from_validated_lut`].
    pub fn from_validated_provider(
        params: EdnParams,
        provider: Box<dyn LutProvider>,
    ) -> Result<Self, EdnError> {
        let offsets = Self::layout(&params)?;
        let total = *offsets.last().expect("layout is non-empty");
        if provider.lut().len() != total {
            return Err(EdnError::LengthMismatch {
                expected: total,
                actual: provider.lut().len(),
            });
        }
        Ok(CompiledWiring {
            params,
            offsets,
            store: LutStore::Provided(provider),
        })
    }

    /// The shape this wiring was compiled for.
    pub fn params(&self) -> &EdnParams {
        &self.params
    }

    /// Stage `stage`'s table (`1 <= stage <= l`): index by exit wire,
    /// read the next-stage line.
    pub fn stage_lut(&self, stage: u32) -> &[u32] {
        let (lo, hi) = self.stage_bounds(stage);
        &self.store.as_slice()[lo..hi]
    }

    /// The offset of stage `stage`'s table inside [`CompiledWiring::lut`]
    /// — for hot loops that index the flat table directly.
    pub fn stage_offset(&self, stage: u32) -> usize {
        self.stage_bounds(stage).0
    }

    /// The whole flattened table, all stages concatenated.
    pub fn lut(&self) -> &[u32] {
        self.store.as_slice()
    }

    /// Total entries across all stages.
    pub fn entries(&self) -> usize {
        self.store.as_slice().len()
    }

    fn stage_bounds(&self, stage: u32) -> (usize, usize) {
        assert!(
            stage >= 1 && stage <= self.params.l(),
            "stage {stage} out of range 1..={}",
            self.params.l()
        );
        (
            self.offsets[(stage - 1) as usize],
            self.offsets[stage as usize],
        )
    }
}

/// Compiles a shareable handle in one call — the common constructor for
/// engine builders.
///
/// # Panics
///
/// Panics when the shape's wire ids exceed `u32` (a per-stage table of
/// 2^32 entries — 16 GiB and up — which no supported workload reaches);
/// use [`CompiledWiring::compile`] for the fallible form.
pub fn compile_shared(params: EdnParams) -> Arc<CompiledWiring> {
    Arc::new(
        CompiledWiring::compile_params(params)
            .unwrap_or_else(|err| panic!("cannot compile wiring for {params}: {err}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(a: u64, b: u64, c: u64, l: u32) -> EdnParams {
        EdnParams::new(a, b, c, l).unwrap()
    }

    #[test]
    fn tables_match_gamma_apply_across_shapes() {
        for p in [
            params(16, 4, 4, 2),
            params(8, 4, 2, 3),
            params(4, 4, 1, 4),
            params(64, 16, 4, 2),
            params(16, 4, 2, 2), // rectangular: per-stage widths differ
        ] {
            let topology = EdnTopology::new(p);
            let wiring = CompiledWiring::compile(&topology).unwrap();
            for stage in 1..=p.l() {
                let gamma = topology.interstage_gamma(stage);
                let table = wiring.stage_lut(stage);
                assert_eq!(table.len() as u64, p.wires_after_stage(stage), "{p}");
                for exit in 0..p.wires_after_stage(stage) {
                    assert_eq!(table[exit as usize] as u64, gamma.apply(exit), "{p}");
                }
            }
        }
    }

    #[test]
    fn rectangular_shapes_get_per_stage_strides() {
        let p = params(16, 4, 2, 2);
        let wiring = CompiledWiring::compile_params(p).unwrap();
        let widths: Vec<u64> = (1..=p.l()).map(|s| p.wires_after_stage(s)).collect();
        assert_ne!(widths[0], widths[1], "shape chosen to be rectangular");
        assert_eq!(wiring.stage_lut(1).len() as u64, widths[0]);
        assert_eq!(wiring.stage_lut(2).len() as u64, widths[1]);
        assert_eq!(wiring.entries() as u64, widths.iter().sum::<u64>());
        assert_eq!(
            CompiledWiring::expected_entries(&p).unwrap(),
            wiring.entries() as u64
        );
    }

    #[test]
    fn from_validated_lut_round_trips() {
        let p = params(8, 4, 2, 3);
        let compiled = CompiledWiring::compile_params(p).unwrap();
        let rebuilt = CompiledWiring::from_validated_lut(p, compiled.lut().to_vec()).unwrap();
        assert_eq!(compiled, rebuilt);
    }

    #[test]
    fn from_validated_provider_routes_like_owned_storage() {
        #[derive(Debug)]
        struct VecProvider(Vec<u32>);
        impl LutProvider for VecProvider {
            fn lut(&self) -> &[u32] {
                &self.0
            }
        }
        let p = params(8, 4, 2, 3);
        let compiled = CompiledWiring::compile_params(p).unwrap();
        let provided = CompiledWiring::from_validated_provider(
            p,
            Box::new(VecProvider(compiled.lut().to_vec())),
        )
        .unwrap();
        assert_eq!(compiled, provided);
        for stage in 1..=p.l() {
            assert_eq!(compiled.stage_lut(stage), provided.stage_lut(stage));
            assert_eq!(compiled.stage_offset(stage), provided.stage_offset(stage));
        }
        let mut short = compiled.lut().to_vec();
        short.pop();
        assert!(matches!(
            CompiledWiring::from_validated_provider(p, Box::new(VecProvider(short))),
            Err(EdnError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn from_validated_lut_rejects_wrong_length() {
        let p = params(8, 4, 2, 3);
        let compiled = CompiledWiring::compile_params(p).unwrap();
        let mut short = compiled.lut().to_vec();
        short.pop();
        assert!(matches!(
            CompiledWiring::from_validated_lut(p, short),
            Err(EdnError::LengthMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_zero_panics() {
        let wiring = CompiledWiring::compile_params(params(16, 4, 4, 2)).unwrap();
        wiring.stage_lut(0);
    }
}
