//! The compiled on-disk fabric database.
//!
//! A fabric at million-port scale is tens of MiB of interstage wiring
//! tables; re-wiring it in every shard process at startup repeats the
//! same expensive compile-and-validate step N times per sweep. This
//! crate is the build-once alternative, modeled on the interconnect
//! database / expanded-grid split of FPGA toolchains: `edn_fabric build`
//! compiles a shape's [`CompiledWiring`] once (with the deep bijectivity
//! and inverse-round-trip validation that step performs), stamps it with
//! an FNV-1a content hash, and writes a compact little-endian binary;
//! every later process opens the file, checks the magic/version header
//! and the hash, and routes straight from the file's pages: on
//! little-endian Unix the table section is memory-mapped read-only and
//! handed to the router zero-copy (shard processes mapping the same
//! database share one physical copy through the page cache), elsewhere
//! it is read once into an aligned `u32` buffer — either way, no
//! per-entry recomputation and no re-validation beyond the integrity
//! check the hash provides.
//!
//! # File format (`EDNF`, version 1)
//!
//! A 64-byte header of eight little-endian `u64` words, then the raw
//! table:
//!
//! | offset | field                                                    |
//! |--------|----------------------------------------------------------|
//! | 0      | magic `"EDNF"` (bytes) + format version (`u32` LE)       |
//! | 8      | `a`                                                      |
//! | 16     | `b`                                                      |
//! | 24     | `c`                                                      |
//! | 32     | `l`                                                      |
//! | 40     | entry count (number of `u32` table entries)              |
//! | 48     | content hash (striped word-wise FNV-1a, [`content_hash`])|
//! | 56     | reserved, must be zero                                   |
//! | 64     | table: entry count × `u32` LE wire ids, stage-major      |
//!
//! The table is exactly [`CompiledWiring::lut`]: per-stage permutation
//! tables concatenated in stage order, entry `e` of stage `s` holding
//! the next-stage line reached from exit wire `e`.
//!
//! # Trust model
//!
//! The hash certifies that the bytes are exactly those written by a
//! build whose table passed deep validation, so a clean load skips
//! re-proving bijectivity ([`CompiledWiring::from_validated_provider`]
//! on the mapped path, [`CompiledWiring::from_validated_lut`] on the
//! copying path).
//! Truncated files, flipped bytes, wrong versions, and undersized
//! headers are all rejected with a descriptive [`FabricError`] — a
//! corrupt database is never trusted, matching the row-store's rule.
//!
//! # Examples
//!
//! ```
//! use edn_core::EdnParams;
//! use edn_fabric::Fabric;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join("edn_fabric_doc");
//! std::fs::create_dir_all(&dir)?;
//! let params = EdnParams::new(16, 4, 4, 2)?;
//! let path = Fabric::path_in(&dir, &params);
//! Fabric::build(params)?.save(&path)?;
//! let loaded = Fabric::load(&path)?;
//! assert_eq!(loaded.params(), &params);
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use edn_core::{CompiledWiring, EdnError, EdnParams, EdnTopology};

mod mmap;

/// The four magic bytes opening every fabric file.
pub const FABRIC_MAGIC: [u8; 4] = *b"EDNF";

/// The on-disk format version this crate reads and writes.
pub const FABRIC_VERSION: u32 = 1;

/// Bytes in the fixed header (eight `u64` words).
pub const HEADER_BYTES: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Why a fabric file was rejected.
///
/// Every variant names the check that failed; none of them is ever
/// downgraded to a warning — a database that fails to open is not used.
#[derive(Debug)]
#[non_exhaustive]
pub enum FabricError {
    /// The underlying read or metadata call failed.
    Io(std::io::Error),
    /// The file does not start with [`FABRIC_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The format version is one this crate does not read.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The header's shape parameters are not a valid EDN shape.
    BadShape(EdnError),
    /// The header's reserved word was nonzero.
    ReservedNonzero,
    /// The entry count disagrees with the shape, or the file is not
    /// exactly header + table bytes long (truncation or trailing junk).
    SizeMismatch {
        /// Bytes (or entries) the header/shape promise.
        expected: u64,
        /// Bytes (or entries) actually present.
        actual: u64,
    },
    /// The table bytes do not hash to the header's content hash.
    HashMismatch {
        /// Hash recorded in the header.
        stored: u64,
        /// Hash of the bytes actually read.
        computed: u64,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Io(err) => write!(f, "fabric i/o error: {err}"),
            FabricError::BadMagic { found } => {
                write!(f, "not a fabric file: magic {found:?} != {FABRIC_MAGIC:?}")
            }
            FabricError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "fabric format version {found} unsupported (this build reads {FABRIC_VERSION})"
                )
            }
            FabricError::BadShape(err) => write!(f, "fabric header shape invalid: {err}"),
            FabricError::ReservedNonzero => {
                write!(f, "fabric header reserved word is nonzero")
            }
            FabricError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "fabric size mismatch: expected {expected}, found {actual} \
                     (truncated or trailing bytes)"
                )
            }
            FabricError::HashMismatch { stored, computed } => {
                write!(
                    f,
                    "fabric content hash mismatch: header {stored:#018x}, \
                     table hashes to {computed:#018x} — file is corrupt"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Io(err) => Some(err),
            FabricError::BadShape(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FabricError {
    fn from(err: std::io::Error) -> Self {
        FabricError::Io(err)
    }
}

/// Independent FNV lanes each chunk hash stripes its words across.
const HASH_LANES: usize = 8;

/// Table entries per hash chunk (4 MiB) — a fixed parameter of the
/// format, not a load-time tuning knob: the content hash is defined
/// over these chunks, so every reader and writer must agree on the
/// size. A multiple of `2 * HASH_LANES`, so the round-robin lane
/// assignment inside a chunk never straddles a chunk boundary.
const HASH_CHUNK_ENTRIES: usize = 1 << 20;

fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The FNV-1a seed covering the shape words (`a`, `b`, `c`, `l`, entry
/// count); every chunk hash and the final fold start from it.
fn shape_seed(params: &EdnParams, entries: u64) -> u64 {
    [
        params.a(),
        params.b(),
        params.c(),
        params.l() as u64,
        entries,
    ]
    .into_iter()
    .fold(FNV_OFFSET, fnv_fold)
}

/// The striped FNV-1a hash of one [`HASH_CHUNK_ENTRIES`]-sized chunk
/// (the last chunk may be shorter). Words — little-endian `u64` pairs
/// of adjacent `u32` entries, an odd trailing entry pairing with zero —
/// go round-robin over [`HASH_LANES`] accumulators seeded from the
/// shape seed and the chunk index; the lanes fold serially into the
/// chunk hash.
fn chunk_hash(seed: u64, index: u64, words: &[u32]) -> u64 {
    let chunk_seed = fnv_fold(seed, index);
    let mut lanes = [0u64; HASH_LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = fnv_fold(chunk_seed, i as u64 + 1);
    }
    // One stripe = HASH_LANES u64 words = 2 * HASH_LANES entries.
    let mut stripes = words.chunks_exact(2 * HASH_LANES);
    for stripe in &mut stripes {
        for (lane, pair) in lanes.iter_mut().zip(stripe.chunks_exact(2)) {
            *lane = fnv_fold(*lane, pair[0] as u64 | (pair[1] as u64) << 32);
        }
    }
    let mut tail = stripes.remainder().chunks_exact(2);
    let mut cursor = 0;
    for pair in &mut tail {
        lanes[cursor] = fnv_fold(lanes[cursor], pair[0] as u64 | (pair[1] as u64) << 32);
        cursor += 1;
    }
    if let [odd] = tail.remainder() {
        lanes[cursor] = fnv_fold(lanes[cursor], *odd as u64);
    }
    lanes.into_iter().fold(chunk_seed, fnv_fold)
}

/// The chunked, striped FNV-1a content hash of a fabric.
///
/// The shape words (`a`, `b`, `c`, `l`, entry count) fold into a seed;
/// the table is split into fixed 4 MiB chunks, each hashed
/// independently (`chunk_hash`: word-wise FNV-1a striped over
/// `HASH_LANES` lanes, seeded by the chunk's index); the per-chunk
/// hashes fold serially, in order, into the result.
///
/// The structure is chosen for the load path, where the hash verifies
/// tables tens of MiB long: word-wise folding moves eight bytes per
/// multiply instead of one, the lanes break FNV's serial xor-multiply
/// dependency chain inside a chunk, and the independent chunks let
/// [`Fabric::load`] read and verify the table on multiple threads.
/// Every word still feeds exactly one lane of exactly one chunk, every
/// lane feeds its chunk hash, and every chunk hash feeds the result at
/// a fixed position, so any flipped bit — or any reordering — changes
/// the hash just as in plain FNV-1a.
pub fn content_hash(params: &EdnParams, lut: &[u32]) -> u64 {
    let seed = shape_seed(params, lut.len() as u64);
    lut.chunks(HASH_CHUNK_ENTRIES)
        .enumerate()
        .map(|(index, words)| chunk_hash(seed, index as u64, words))
        .fold(seed, fnv_fold)
}

/// [`content_hash`] over an already-resident table, chunks hashed on up
/// to `available_parallelism` scoped threads — the verify pass of the
/// zero-copy (memory-mapped) load path, where there is no read to fuse
/// the hash into.
#[cfg(all(unix, target_endian = "little"))]
fn content_hash_parallel(seed: u64, lut: &[u32]) -> u64 {
    let chunk_count = lut.len().div_ceil(HASH_CHUNK_ENTRIES);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(chunk_count);
    if workers <= 1 {
        return lut
            .chunks(HASH_CHUNK_ENTRIES)
            .enumerate()
            .map(|(index, words)| chunk_hash(seed, index as u64, words))
            .fold(seed, fnv_fold);
    }
    let mut hashes = vec![0u64; chunk_count];
    // Round-robin chunk assignment over shared (read-only) table
    // chunks; each worker owns disjoint hash slots.
    let mut work: Vec<Vec<(usize, &[u32], &mut u64)>> = (0..workers).map(|_| Vec::new()).collect();
    for (index, (chunk, hash)) in lut
        .chunks(HASH_CHUNK_ENTRIES)
        .zip(hashes.iter_mut())
        .enumerate()
    {
        work[index % workers].push((index, chunk, hash));
    }
    std::thread::scope(|scope| {
        for items in work {
            scope.spawn(move || {
                for (index, chunk, hash) in items {
                    *hash = chunk_hash(seed, index as u64, chunk);
                }
            });
        }
    });
    hashes.into_iter().fold(seed, fnv_fold)
}

/// A loaded (or freshly built) fabric: a shape plus its validated,
/// shareable compiled wiring.
#[derive(Debug, Clone)]
pub struct Fabric {
    wiring: Arc<CompiledWiring>,
}

impl Fabric {
    /// Compiles (and deeply validates) the fabric for `params` — the
    /// expensive build step the database exists to amortize.
    ///
    /// # Errors
    ///
    /// As [`CompiledWiring::compile`].
    pub fn build(params: EdnParams) -> Result<Self, EdnError> {
        let wiring = CompiledWiring::compile(&EdnTopology::new(params))?;
        Ok(Fabric {
            wiring: Arc::new(wiring),
        })
    }

    /// Wraps an already-compiled wiring handle.
    pub fn from_wiring(wiring: Arc<CompiledWiring>) -> Self {
        Fabric { wiring }
    }

    /// The shape this fabric was built for.
    pub fn params(&self) -> &EdnParams {
        self.wiring.params()
    }

    /// The shared wiring handle — what engines borrow.
    pub fn wiring(&self) -> &Arc<CompiledWiring> {
        &self.wiring
    }

    /// Unwraps into the shared wiring handle.
    pub fn into_wiring(self) -> Arc<CompiledWiring> {
        self.wiring
    }

    /// The canonical file name for a shape: `edn_{a}_{b}_{c}_{l}.ednf`.
    /// Shared-directory consumers (`--fabric PATH`) look shapes up by
    /// this name.
    pub fn file_name(params: &EdnParams) -> String {
        format!(
            "edn_{}_{}_{}_{}.ednf",
            params.a(),
            params.b(),
            params.c(),
            params.l()
        )
    }

    /// `dir` joined with the canonical file name for `params`.
    pub fn path_in(dir: &Path, params: &EdnParams) -> PathBuf {
        dir.join(Self::file_name(params))
    }

    /// Serializes the fabric to `path` (header + raw table, see the
    /// crate docs for the layout).
    ///
    /// # Errors
    ///
    /// Any I/O failure from creating or writing the file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let p = self.params();
        let lut = self.wiring.lut();
        let mut header = [0u8; HEADER_BYTES];
        header[0..4].copy_from_slice(&FABRIC_MAGIC);
        header[4..8].copy_from_slice(&FABRIC_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&p.a().to_le_bytes());
        header[16..24].copy_from_slice(&p.b().to_le_bytes());
        header[24..32].copy_from_slice(&p.c().to_le_bytes());
        header[32..40].copy_from_slice(&(p.l() as u64).to_le_bytes());
        header[40..48].copy_from_slice(&(lut.len() as u64).to_le_bytes());
        header[48..56].copy_from_slice(&content_hash(p, lut).to_le_bytes());
        // Bytes 56..64 stay zero (reserved).
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        if cfg!(target_endian = "little") {
            file.write_all(mmap::lut_bytes(lut))?;
        } else {
            let swapped: Vec<u32> = lut.iter().map(|w| w.to_le()).collect();
            file.write_all(mmap::lut_bytes(&swapped))?;
        }
        file.flush()
    }

    /// Opens, validates, and loads a fabric file.
    ///
    /// On little-endian Unix hosts the table is memory-mapped and
    /// routed from zero-copy; the load cost is the header checks plus
    /// one hash pass over the mapped pages (parallel across cores).
    /// Other hosts read the table once into the aligned `u32` buffer
    /// the router will index. Either way there is deliberately no
    /// per-entry recomputation; see the crate-level trust model.
    ///
    /// # Errors
    ///
    /// [`FabricError`] naming the first check that failed.
    pub fn load(path: &Path) -> Result<Self, FabricError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES as u64 {
            return Err(FabricError::SizeMismatch {
                expected: HEADER_BYTES as u64,
                actual: file_len,
            });
        }
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
        if magic != FABRIC_MAGIC {
            return Err(FabricError::BadMagic { found: magic });
        }
        let word = |range: std::ops::Range<usize>| {
            u64::from_le_bytes(header[range].try_into().expect("8-byte slice"))
        };
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
        if version != FABRIC_VERSION {
            return Err(FabricError::UnsupportedVersion { found: version });
        }
        let (a, b, c) = (word(8..16), word(16..24), word(24..32));
        let l = word(32..40);
        let entries = word(40..48);
        let stored_hash = word(48..56);
        if word(56..64) != 0 {
            return Err(FabricError::ReservedNonzero);
        }
        let l = u32::try_from(l)
            .map_err(|_| FabricError::BadShape(EdnError::LabelWidthOverflow { bits: u32::MAX }))?;
        let params = EdnParams::new(a, b, c, l).map_err(FabricError::BadShape)?;
        let expected_entries =
            CompiledWiring::expected_entries(&params).map_err(FabricError::BadShape)?;
        if entries != expected_entries {
            return Err(FabricError::SizeMismatch {
                expected: expected_entries,
                actual: entries,
            });
        }
        let expected_len = HEADER_BYTES as u64 + entries * 4;
        if file_len != expected_len {
            return Err(FabricError::SizeMismatch {
                expected: expected_len,
                actual: file_len,
            });
        }
        let entries = entries as usize;
        let seed = shape_seed(&params, entries as u64);
        // Preferred path on little-endian Unix: memory-map the file and
        // route from the mapped pages zero-copy. The only work is the
        // hash pass (parallel over chunks on multi-core hosts); there
        // is no table copy at all, and shard processes mapping the same
        // database share one physical copy through the page cache. A
        // mapping failure (some filesystems refuse) falls through to
        // the copying read below.
        #[cfg(all(unix, target_endian = "little"))]
        if let Ok(table) = mmap::MappedTable::map(&file, file_len, entries) {
            let computed = content_hash_parallel(seed, table.table());
            if computed != stored_hash {
                return Err(FabricError::HashMismatch {
                    stored: stored_hash,
                    computed,
                });
            }
            let wiring = CompiledWiring::from_validated_provider(params, Box::new(table))
                .map_err(FabricError::BadShape)?;
            return Ok(Fabric {
                wiring: Arc::new(wiring),
            });
        }
        // Copying path (non-Unix, big-endian, or unmappable file): the
        // table is read into its final buffer in hash-chunk units, each
        // chunk verified while still cache-hot from its read — and, on
        // hosts with the cores for it, chunks go in parallel.
        let (lut, computed) = mmap::read_table(&mut file, entries, seed)?;
        if computed != stored_hash {
            return Err(FabricError::HashMismatch {
                stored: stored_hash,
                computed,
            });
        }
        let wiring =
            CompiledWiring::from_validated_lut(params, lut).map_err(FabricError::BadShape)?;
        Ok(Fabric {
            wiring: Arc::new(wiring),
        })
    }

    /// Loads the canonical file for `params` from `dir`, if present.
    ///
    /// `None` means the directory has no database for this shape (the
    /// caller compiles in-process — a missing entry is not an error);
    /// a present-but-invalid file is an error, never a fallback.
    pub fn load_from_dir(dir: &Path, params: &EdnParams) -> Option<Result<Self, FabricError>> {
        let path = Self::path_in(dir, params);
        if !path.exists() {
            return None;
        }
        Some(Self::load(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(a: u64, b: u64, c: u64, l: u32) -> EdnParams {
        EdnParams::new(a, b, c, l).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("edn_fabric_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_preserves_wiring() {
        let dir = temp_dir("roundtrip");
        for p in [params(16, 4, 4, 2), params(8, 4, 2, 3), params(16, 4, 2, 2)] {
            let built = Fabric::build(p).unwrap();
            let path = Fabric::path_in(&dir, &p);
            built.save(&path).unwrap();
            let loaded = Fabric::load(&path).unwrap();
            assert_eq!(loaded.wiring().as_ref(), built.wiring().as_ref(), "{p}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_from_dir_distinguishes_missing_from_corrupt() {
        let dir = temp_dir("dir");
        let p = params(16, 4, 4, 2);
        assert!(Fabric::load_from_dir(&dir, &p).is_none());
        Fabric::build(p)
            .unwrap()
            .save(&Fabric::path_in(&dir, &p))
            .unwrap();
        assert!(Fabric::load_from_dir(&dir, &p).unwrap().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = temp_dir("trunc");
        let p = params(16, 4, 4, 2);
        let path = Fabric::path_in(&dir, &p);
        Fabric::build(p).unwrap().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [10, HEADER_BYTES, bytes.len() - 4] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(Fabric::load(&path), Err(FabricError::SizeMismatch { .. })),
                "keep {keep}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_table_byte_fails_the_hash() {
        let dir = temp_dir("flip");
        let p = params(16, 4, 4, 2);
        let path = Fabric::path_in(&dir, &p);
        Fabric::build(p).unwrap().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_BYTES + (bytes.len() - HEADER_BYTES) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Fabric::load(&path),
            Err(FabricError::HashMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let dir = temp_dir("version");
        let p = params(16, 4, 4, 2);
        let path = Fabric::path_in(&dir, &p);
        Fabric::build(p).unwrap().save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let mut bumped = pristine.clone();
        bumped[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bumped).unwrap();
        assert!(matches!(
            Fabric::load(&path),
            Err(FabricError::UnsupportedVersion { found: 2 })
        ));

        let mut magicless = pristine.clone();
        magicless[0..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &magicless).unwrap();
        assert!(matches!(
            Fabric::load(&path),
            Err(FabricError::BadMagic { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_shape_is_rejected() {
        // Rewriting the header's shape changes the expected entry count
        // (and the hash input), so a shape/table mismatch cannot load.
        let dir = temp_dir("shape");
        let p = params(16, 4, 4, 2);
        let path = Fabric::path_in(&dir, &p);
        Fabric::build(p).unwrap().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[32..40].copy_from_slice(&3u64.to_le_bytes()); // l: 2 -> 3
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Fabric::load(&path),
            Err(FabricError::SizeMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn content_hash_pairs_words_and_covers_shape() {
        let p = params(16, 4, 4, 2);
        let lut = Fabric::build(p).unwrap().wiring().lut().to_vec();
        let base = content_hash(&p, &lut);
        let mut other = lut.clone();
        other[0] ^= 1;
        assert_ne!(base, content_hash(&p, &other));
        // Odd-length tables take the remainder path.
        assert_ne!(content_hash(&p, &lut[..5]), content_hash(&p, &lut[..4]));
        // A different shape with the same table bytes hashes differently.
        assert_ne!(base, content_hash(&params(16, 4, 4, 3), &lut));
    }

    #[test]
    fn canonical_names_encode_the_shape() {
        assert_eq!(Fabric::file_name(&params(16, 4, 4, 6)), "edn_16_4_4_6.ednf");
    }
}
