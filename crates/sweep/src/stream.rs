//! Sharded, streaming sweep artifacts.
//!
//! Scale-out rung one: a sweep is split across processes (or hosts) with
//! `--shard I/N`, each process computing a contiguous slice of the output
//! rows and **streaming** every JSON row to its artifact as the
//! measurement completes — not dumping them at exit. Because each row is
//! a pure function of its global row index (the per-point
//! [`rng_seed`](crate::SweepPoint::rng_seed) contract from the executor),
//! shard artifacts are *mergeable bit-exactly*: `edn_merge` concatenates
//! them into the byte-identical artifact a single unsharded run writes.
//!
//! The pieces:
//!
//! * [`Shard`] — the `I/N` coordinate (1-based on the CLI, stored
//!   0-based), with [`shard_range`] as the balanced contiguous partition
//!   every consumer shares.
//! * [`SchemaHeader`] — the first line of every artifact: format marker,
//!   binary name, spec hash, row-affecting args, shard coordinate, total
//!   row count, and the schema of every table. Validated by `edn_merge`.
//! * [`RowSink`] — the streaming writer: rows arrive in completion order
//!   from the work-stealing pool, a small reorder buffer holds the
//!   out-of-order tail, and every row is flushed to disk the moment the
//!   in-order prefix extends. Rows replayed from the row cache arrive as
//!   contiguous blocks, flushed once per block. Each row line leads with
//!   a global `"seq"` field, which is what makes gap/overlap detection
//!   and merging exact.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::report::json_string;
use edn_store::fnv1a;

/// The artifact format version stamped into every schema header.
pub const SCHEMA_VERSION: u64 = 1;

/// The marker key that distinguishes a schema header line from row lines.
pub const SCHEMA_KEY: &str = "edn_sweep_schema";

/// One shard coordinate `I/N`: this process computes slice `I` of `N`.
///
/// Stored 0-based; parsed and displayed 1-based (`--shard 1/3` is the
/// first of three shards), matching the CLI surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// The full (unsharded) run: shard `1/1`.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// A shard from a 0-based index and a total count.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count` — shard coordinates are validated at
    /// the CLI boundary, so an out-of-range pair here is a programmer
    /// error.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        Shard { index, count }
    }

    /// The 0-based shard index (`0..count`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total shard count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` when this is the full `1/1` run.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// Parses the CLI form `I/N` with `1 <= I <= N`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed or out-of-range input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("expected I/N, got `{text}`"))?;
        let index: usize = index
            .parse()
            .map_err(|_| format!("shard index `{index}` is not a positive integer"))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("shard count `{count}` is not a positive integer"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index == 0 || index > count {
            return Err(format!("shard index must be in 1..={count}, got {index}"));
        }
        Ok(Shard {
            index: index - 1,
            count,
        })
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// The balanced contiguous partition shared by every sharding consumer:
/// shard `i` of `n` owns rows `[i*total/n, (i+1)*total/n)`.
///
/// The ranges are disjoint, cover `0..total` exactly, preserve order
/// (concatenating the shards in index order reproduces the full
/// sequence), and differ in length by at most one.
///
/// # Examples
///
/// ```
/// use edn_sweep::{shard_range, Shard};
///
/// assert_eq!(shard_range(10, Shard::new(0, 3)), 0..3);
/// assert_eq!(shard_range(10, Shard::new(1, 3)), 3..6);
/// assert_eq!(shard_range(10, Shard::new(2, 3)), 6..10);
/// ```
pub fn shard_range(total: usize, shard: Shard) -> Range<usize> {
    // u128 intermediates: `total * (index + 1)` must not overflow even
    // for absurd row counts.
    let start = (total as u128 * shard.index as u128 / shard.count as u128) as usize;
    let end = (total as u128 * (shard.index as u128 + 1) / shard.count as u128) as usize;
    start..end
}

/// Where an artifact came from: fields recorded for reproducibility but
/// **deliberately excluded from the spec hash** — two artifacts produced
/// on different hosts, at different times, from different checkouts are
/// still shards of the same logical run if their grids agree, and
/// caching/merging stay keyed on the spec alone.
///
/// The values are passed in by the caller through the environment
/// (`EDN_GIT_REV`, `EDN_HOST`, `EDN_RUN_STARTED`); the harness never
/// reads the clock or the repository itself, so byte-reproducibility is
/// in the caller's hands: set the same values (or none) and two runs of
/// one spec write identical artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// The producing checkout's git revision (`EDN_GIT_REV`).
    pub git_rev: Option<String>,
    /// The producing host's name (`EDN_HOST`).
    pub host: Option<String>,
    /// Wall-clock start of the run, caller-formatted (`EDN_RUN_STARTED`).
    pub started_at: Option<String>,
}

impl Provenance {
    /// The environment variables feeding [`Provenance::from_env`], in
    /// field order.
    pub const ENV_VARS: [&'static str; 3] = ["EDN_GIT_REV", "EDN_HOST", "EDN_RUN_STARTED"];

    /// Reads the caller-provided provenance from the environment; unset
    /// variables leave their fields empty.
    pub fn from_env() -> Self {
        let get = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
        Provenance {
            git_rev: get(Self::ENV_VARS[0]),
            host: get(Self::ENV_VARS[1]),
            started_at: get(Self::ENV_VARS[2]),
        }
    }

    /// `true` when no field is set (the header omits the block).
    pub fn is_empty(&self) -> bool {
        self.git_rev.is_none() && self.host.is_none() && self.started_at.is_none()
    }

    /// The `"provenance": {...}` JSON fragment, or `None` when empty.
    fn to_json(&self) -> Option<String> {
        if self.is_empty() {
            return None;
        }
        let mut fields = Vec::new();
        for (name, value) in [
            ("git_rev", &self.git_rev),
            ("host", &self.host),
            ("started_at", &self.started_at),
        ] {
            if let Some(value) = value {
                fields.push(format!("\"{name}\": {}", json_string(value)));
            }
        }
        Some(format!("\"provenance\": {{{}}}", fields.join(", ")))
    }

    /// Parses the optional `provenance` field of a header object.
    fn parse(header: &crate::json::Value) -> Result<Self, String> {
        let Some(block) = header.get("provenance") else {
            return Ok(Provenance::default());
        };
        let field = |name: &str| -> Result<Option<String>, String> {
            match block.get(name) {
                None | Some(crate::json::Value::Null) => Ok(None),
                Some(value) => value
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("`provenance.{name}` must be a string")),
            }
        };
        Ok(Provenance {
            git_rev: field("git_rev")?,
            host: field("host")?,
            started_at: field("started_at")?,
        })
    }
}

/// The schema of one emitted table: title, unsharded row count, columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// The table title (the `"table"` field of its rows).
    pub title: String,
    /// Data rows in the *full* (unsharded) artifact.
    pub rows: usize,
    /// Column headers, in order.
    pub columns: Vec<String>,
}

/// The first line of every sweep artifact: what produced it, its shard
/// coordinate, and the schema of every row that follows.
///
/// Two artifacts are mergeable iff their [`spec_hash`](Self::spec_hash)es
/// agree — the hash covers everything except the shard coordinate, so
/// shards of one logical run share it and runs with different grids,
/// args, or schemas do not. The args recorded (and hashed) are exactly
/// the row-content-affecting ones: `--threads` never changes rows (the
/// executor's determinism contract), and `--out`/`--shard` describe where
/// rows go, not what they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaHeader {
    /// Name of the experiment binary.
    pub binary: String,
    /// `--seeds` as parsed.
    pub seeds: usize,
    /// `--cycles` as parsed (`None` = the binary's default).
    pub cycles: Option<u32>,
    /// This artifact's shard coordinate.
    pub shard: Shard,
    /// Total data rows in the full (unsharded) artifact.
    pub rows: usize,
    /// Schema of every table, in emission order.
    pub tables: Vec<TableSchema>,
    /// Caller-provided provenance (git rev, host, wall-clock start) —
    /// recorded in the header, **never** hashed into the spec.
    pub provenance: Provenance,
}

impl SchemaHeader {
    /// The canonical serialization of everything the spec hash covers:
    /// binary, args, total rows, and table schemas — not the shard.
    fn hashed_fragment(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\"binary\": {}", json_string(&self.binary)));
        out.push_str(&format!(
            ", \"args\": {{\"seeds\": {}, \"cycles\": {}}}",
            self.seeds,
            match self.cycles {
                Some(cycles) => cycles.to_string(),
                None => "null".to_string(),
            }
        ));
        out.push_str(&format!(", \"rows\": {}", self.rows));
        out.push_str(", \"tables\": [");
        for (index, table) in self.tables.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"table\": {}, \"rows\": {}, \"columns\": [",
                json_string(&table.title),
                table.rows
            ));
            for (c, column) in table.columns.iter().enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(column));
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }

    /// The 64-bit spec hash: FNV-1a over the canonical serialization of
    /// the shard-independent header fields.
    pub fn spec_hash(&self) -> u64 {
        fnv1a(self.hashed_fragment().as_bytes())
    }

    /// Renders the header as its one-line JSON form.
    pub fn to_json(&self) -> String {
        let provenance = match self.provenance.to_json() {
            Some(fragment) => format!(", {fragment}"),
            None => String::new(),
        };
        format!(
            "{{\"{SCHEMA_KEY}\": {SCHEMA_VERSION}, \"spec_hash\": \"{:016x}\", \"shard\": \"{}\", {}{provenance}}}",
            self.spec_hash(),
            self.shard,
            self.hashed_fragment()
        )
    }

    /// Parses a header line and validates its recorded spec hash.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found: not a header line,
    /// missing/ill-typed fields, or a spec hash that does not match the
    /// re-hashed content (a corrupted or hand-edited artifact).
    pub fn parse(line: &str) -> Result<Self, String> {
        let value = crate::json::parse(line).map_err(|e| format!("header is not JSON: {e}"))?;
        let version = value
            .get(SCHEMA_KEY)
            .and_then(|v| v.as_usize())
            .ok_or_else(|| format!("first line is not an {SCHEMA_KEY} header"))?;
        if version as u64 != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {version} (this tool reads {SCHEMA_VERSION})"
            ));
        }
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("header is missing `{name}`"))
        };
        let binary = field("binary")?
            .as_str()
            .ok_or("`binary` must be a string")?
            .to_string();
        let args = field("args")?;
        let seeds = args
            .get("seeds")
            .and_then(|v| v.as_usize())
            .ok_or("`args.seeds` must be a non-negative integer")?;
        let cycles = match args.get("cycles") {
            None | Some(crate::json::Value::Null) => None,
            Some(v) => Some(
                v.as_usize()
                    .and_then(|c| u32::try_from(c).ok())
                    .ok_or("`args.cycles` must be null or a u32")?,
            ),
        };
        let shard = Shard::parse(field("shard")?.as_str().ok_or("`shard` must be a string")?)
            .map_err(|e| format!("bad shard field: {e}"))?;
        let rows = field("rows")?
            .as_usize()
            .ok_or("`rows` must be a non-negative integer")?;
        let mut tables = Vec::new();
        for table in field("tables")?
            .as_array()
            .ok_or("`tables` must be an array")?
        {
            let title = table
                .get("table")
                .and_then(|v| v.as_str())
                .ok_or("table schema is missing `table`")?
                .to_string();
            let table_rows = table
                .get("rows")
                .and_then(|v| v.as_usize())
                .ok_or("table schema is missing `rows`")?;
            let columns = table
                .get("columns")
                .and_then(|v| v.as_array())
                .ok_or("table schema is missing `columns`")?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or("table columns must be strings".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?;
            tables.push(TableSchema {
                title,
                rows: table_rows,
                columns,
            });
        }
        let header = SchemaHeader {
            binary,
            seeds,
            cycles,
            shard,
            rows,
            tables,
            provenance: Provenance::parse(&value)?,
        };
        let recorded = field("spec_hash")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("`spec_hash` must be a hex string")?;
        if recorded != header.spec_hash() {
            return Err(format!(
                "spec_hash {recorded:016x} does not match the header content \
                 ({:016x}): corrupted or edited artifact",
                header.spec_hash()
            ));
        }
        if header.tables.iter().map(|t| t.rows).sum::<usize>() != header.rows {
            return Err("table row counts do not sum to `rows`".to_string());
        }
        Ok(header)
    }
}

/// The cache key of one table's rows: FNV-1a over the row-content-
/// affecting spec fields — binary name, row-affecting args, table title,
/// and columns. This is the [spec hash](SchemaHeader::spec_hash)
/// **restricted to what determines a row's cells**: total row counts and
/// the other tables' schemas are deliberately excluded, so extending a
/// grid by **appending** rows (more rows at the end of this table, or a
/// whole new table) leaves the old cells' keys — and their cached
/// entries — intact. The shard coordinate never enters either hash, so
/// shard processes and the unsharded run share one cache.
///
/// The append-only caveat is load-bearing: entries are addressed by
/// in-table row index, so the key is only sound while the binary's
/// index → cells mapping is unchanged for the old indices. An edit that
/// *reshapes* a grid — inserting values into a non-outermost axis,
/// reordering axes — moves old indices onto new coordinates, which the
/// key cannot see (exactly like any other code change that alters row
/// content). After such an edit, point `--cache` at a fresh directory
/// or evict the table's key (`edn_store::Store::evict`).
pub fn row_cache_key(
    binary: &str,
    seeds: usize,
    cycles: Option<u32>,
    title: &str,
    columns: &[String],
) -> u64 {
    let mut canonical = String::new();
    canonical.push_str(&format!("\"binary\": {}", json_string(binary)));
    canonical.push_str(&format!(
        ", \"args\": {{\"seeds\": {seeds}, \"cycles\": {}}}",
        match cycles {
            Some(cycles) => cycles.to_string(),
            None => "null".to_string(),
        }
    ));
    canonical.push_str(&format!(", \"table\": {}", json_string(title)));
    canonical.push_str(", \"columns\": [");
    for (index, column) in columns.iter().enumerate() {
        if index > 0 {
            canonical.push_str(", ");
        }
        canonical.push_str(&json_string(column));
    }
    canonical.push(']');
    fnv1a(canonical.as_bytes())
}

/// The streaming artifact writer.
///
/// Created with the run's [`SchemaHeader`] (written and flushed
/// immediately, so even an empty shard leaves a self-describing file),
/// then fed rows by **global sequence number** in any order. A reorder
/// buffer holds rows that arrive ahead of the in-order frontier; every
/// time the frontier advances, the newly contiguous rows are written and
/// flushed — an observer tailing the file sees measurements land as they
/// complete, which is the whole point for day-long sweeps.
///
/// Rows come in two grains. A freshly measured row arrives alone through
/// [`push`](Self::push) and is flushed on its own, so a tail of the file
/// is never more than one measurement behind. Rows replayed from the row
/// cache are already known before any measurement starts; they arrive as
/// contiguous blocks through `push_block` and each
/// block is written and flushed once.
///
/// The sink accepts rows for one *expected range* at a time
/// ([`begin_range`](Self::begin_range)); tables are emitted sequentially,
/// so each table's shard slice is its own range. [`finish`](Self::finish)
/// fails loudly if any accepted range was left with gaps.
#[derive(Debug)]
pub struct RowSink {
    writer: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    /// Next global sequence number the file is waiting for.
    next: usize,
    /// One past the last sequence number of the current range.
    end: usize,
    /// Out-of-order blocks keyed by their first sequence number.
    pending: BTreeMap<usize, Pending>,
    written: usize,
}

/// A block of consecutive rows held until the frontier reaches it.
#[derive(Debug)]
struct Pending {
    rows: usize,
    /// The rows' lines, each newline-terminated.
    text: String,
}

impl RowSink {
    /// Creates the artifact at `path` and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn create(path: &Path, header: &SchemaHeader) -> std::io::Result<Self> {
        let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(writer, "{}", header.to_json())?;
        writer.flush()?;
        Ok(RowSink {
            writer,
            path: path.to_path_buf(),
            next: 0,
            end: 0,
            pending: BTreeMap::new(),
            written: 0,
        })
    }

    /// The artifact path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows written to disk so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Declares the next contiguous range of sequence numbers this sink
    /// will receive (one table's shard slice).
    ///
    /// # Panics
    ///
    /// Panics if the previous range is not fully drained or the new range
    /// precedes it — ranges are emitted in ascending order.
    pub fn begin_range(&mut self, range: Range<usize>) {
        assert!(
            self.pending.is_empty() && self.next == self.end,
            "{}: previous range not drained (waiting for seq {})",
            self.path.display(),
            self.next
        );
        assert!(
            range.start >= self.end,
            "{}: ranges must ascend (new start {} < previous end {})",
            self.path.display(),
            range.start,
            self.end
        );
        self.next = range.start;
        self.end = range.end;
    }

    /// Accepts the row with global sequence number `seq` (one JSON line,
    /// no trailing newline), writing and flushing every row the in-order
    /// frontier now covers.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects sequence numbers outside the
    /// current range or already seen (both are caller bugs surfaced as
    /// `InvalidInput` rather than silent corruption).
    pub fn push(&mut self, seq: usize, mut row: String) -> std::io::Result<()> {
        self.check_open(seq, 1)?;
        row.push('\n');
        if seq > self.next {
            self.pending.insert(seq, Pending { rows: 1, text: row });
            return Ok(());
        }
        self.advance(&row, 1)
    }

    /// Accepts `rows` consecutive rows starting at sequence number `seq`,
    /// rendered into `text` as newline-terminated lines. A block at the
    /// frontier is written with every now-contiguous successor and
    /// flushed once; a block ahead of it is copied into the reorder
    /// buffer. An empty block is a no-op.
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push), for any row of the block.
    pub(crate) fn push_block(
        &mut self,
        seq: usize,
        rows: usize,
        text: &str,
    ) -> std::io::Result<()> {
        if rows == 0 {
            return Ok(());
        }
        debug_assert_eq!(text.bytes().filter(|&b| b == b'\n').count(), rows);
        debug_assert!(text.ends_with('\n'));
        self.check_open(seq, rows)?;
        if seq > self.next {
            let text = text.to_owned();
            self.pending.insert(seq, Pending { rows, text });
            return Ok(());
        }
        self.advance(text, rows)
    }

    /// Rejects rows `seq..seq + rows` unless they lie in the open range
    /// and overlap no row already accepted.
    fn check_open(&self, seq: usize, rows: usize) -> std::io::Result<()> {
        let invalid = |message: String| {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                message,
            ))
        };
        if seq < self.next || seq.saturating_add(rows) > self.end {
            return invalid(format!(
                "row seqs {seq}..{} outside the open range {}..{} of {}",
                seq.saturating_add(rows),
                self.next,
                self.end,
                self.path.display()
            ));
        }
        // Held blocks never overlap each other, so only the last one
        // starting before this block's end can overlap it.
        if let Some((&start, held)) = self.pending.range(..seq + rows).next_back() {
            if start + held.rows > seq {
                return invalid(format!(
                    "row seq {} pushed twice to {}",
                    start.max(seq),
                    self.path.display()
                ));
            }
        }
        Ok(())
    }

    /// Frontier advance: writes `text` (the `rows` rows at the frontier)
    /// and every now-contiguous held block, then flushes once so the file
    /// is current.
    fn advance(&mut self, text: &str, rows: usize) -> std::io::Result<()> {
        self.writer.write_all(text.as_bytes())?;
        self.next += rows;
        self.written += rows;
        while let Some(held) = self.pending.remove(&self.next) {
            self.writer.write_all(held.text.as_bytes())?;
            self.next += held.rows;
            self.written += held.rows;
        }
        self.writer.flush()
    }

    /// Completes the artifact: verifies every accepted range was fully
    /// drained, then syncs the file to disk. Returns the row count.
    ///
    /// # Errors
    ///
    /// Fails on undrained rows (a measurement never reported — the
    /// artifact would have a silent gap) and propagates I/O errors.
    pub fn finish(mut self) -> std::io::Result<usize> {
        if self.next != self.end || !self.pending.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: rows {}..{} never arrived ({} buffered out of order)",
                    self.path.display(),
                    self.next,
                    self.end,
                    self.pending.values().map(|held| held.rows).sum::<usize>()
                ),
            ));
        }
        self.writer.flush()?;
        self.writer.into_inner()?.sync_all()?;
        Ok(self.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(rows: usize, shard: Shard) -> SchemaHeader {
        SchemaHeader {
            binary: "test_bin".to_string(),
            seeds: 4,
            cycles: Some(10),
            shard,
            rows,
            tables: vec![TableSchema {
                title: "t".to_string(),
                rows,
                columns: vec!["a".to_string(), "b".to_string()],
            }],
            provenance: Provenance::default(),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("edn_sweep_stream_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn shard_parse_round_trips() {
        let shard = Shard::parse("2/3").unwrap();
        assert_eq!(shard.index(), 1);
        assert_eq!(shard.count(), 3);
        assert_eq!(shard.to_string(), "2/3");
        assert!(Shard::parse("0/3").is_err());
        assert!(Shard::parse("4/3").is_err());
        assert!(Shard::parse("1/0").is_err());
        assert!(Shard::parse("x/3").is_err());
        assert!(Shard::parse("12").is_err());
        assert!(Shard::FULL.is_full());
        assert!(!shard.is_full());
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for total in [0usize, 1, 7, 10, 97] {
            for count in 1..=8 {
                let mut covered = 0usize;
                let mut previous_end = 0usize;
                for index in 0..count {
                    let range = shard_range(total, Shard::new(index, count));
                    assert_eq!(range.start, previous_end, "contiguous");
                    previous_end = range.end;
                    covered += range.len();
                    // Balanced: lengths differ by at most one.
                    assert!(range.len() + 1 >= total / count);
                    assert!(range.len() <= total / count + 1);
                }
                assert_eq!(previous_end, total, "covering");
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn header_round_trips_through_json() {
        let header = header(12, Shard::new(1, 3));
        let line = header.to_json();
        let parsed = SchemaHeader::parse(&line).unwrap();
        assert_eq!(parsed, header);
        assert_eq!(parsed.spec_hash(), header.spec_hash());
        // The hash ignores the shard coordinate...
        let full = SchemaHeader {
            shard: Shard::FULL,
            ..header.clone()
        };
        assert_eq!(full.spec_hash(), header.spec_hash());
        // ...but not the content.
        let other = SchemaHeader {
            seeds: 5,
            ..header.clone()
        };
        assert_ne!(other.spec_hash(), header.spec_hash());
    }

    #[test]
    fn provenance_round_trips_without_feeding_the_hash() {
        let bare = header(6, Shard::FULL);
        let mut stamped = bare.clone();
        stamped.provenance = Provenance {
            git_rev: Some("deadbeef".to_string()),
            host: Some("rack-07".to_string()),
            started_at: Some("2026-07-31T12:00:00Z".to_string()),
        };
        // Provenance never feeds the spec hash: shards from different
        // hosts are still shards of one run.
        assert_eq!(stamped.spec_hash(), bare.spec_hash());
        assert_ne!(stamped.to_json(), bare.to_json());
        let parsed = SchemaHeader::parse(&stamped.to_json()).unwrap();
        assert_eq!(parsed, stamped);
        // Empty provenance is omitted from the line entirely, keeping
        // pre-provenance artifacts byte-compatible.
        assert!(!bare.to_json().contains("provenance"));
        assert_eq!(SchemaHeader::parse(&bare.to_json()).unwrap(), bare);
        // Partial provenance round-trips too.
        let mut partial = bare.clone();
        partial.provenance.host = Some("solo".to_string());
        assert_eq!(SchemaHeader::parse(&partial.to_json()).unwrap(), partial);
    }

    #[test]
    fn row_cache_key_ignores_row_counts_and_other_tables() {
        let columns = vec!["a".to_string(), "b".to_string()];
        let key = row_cache_key("bin", 4, Some(10), "t", &columns);
        // Same spec fields, same key — regardless of grid size, which is
        // what lets an extended grid reuse its old cells.
        assert_eq!(key, row_cache_key("bin", 4, Some(10), "t", &columns));
        // Any row-content-affecting field changes the key.
        assert_ne!(key, row_cache_key("other", 4, Some(10), "t", &columns));
        assert_ne!(key, row_cache_key("bin", 5, Some(10), "t", &columns));
        assert_ne!(key, row_cache_key("bin", 4, None, "t", &columns));
        assert_ne!(key, row_cache_key("bin", 4, Some(10), "u", &columns));
        assert_ne!(key, row_cache_key("bin", 4, Some(10), "t", &columns[..1]));
    }

    #[test]
    fn header_parse_rejects_corruption() {
        let line = header(12, Shard::FULL).to_json();
        let tampered = line.replace("\"seeds\": 4", "\"seeds\": 5");
        let error = SchemaHeader::parse(&tampered).unwrap_err();
        assert!(error.contains("spec_hash"), "{error}");
        assert!(SchemaHeader::parse("{\"a\": 1}").is_err());
        assert!(SchemaHeader::parse("not json").is_err());
    }

    #[test]
    fn sink_streams_rows_to_disk_before_finish() {
        let path = temp_path("streams");
        let mut sink = RowSink::create(&path, &header(3, Shard::FULL)).unwrap();
        sink.begin_range(0..3);
        sink.push(0, "{\"seq\": 0}".to_string()).unwrap();
        sink.push(1, "{\"seq\": 1}".to_string()).unwrap();
        // The artifact is already two rows long while row 2 is still
        // outstanding — rows stream, they are not dumped at exit.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + 2 rows");
        sink.push(2, "{\"seq\": 2}".to_string()).unwrap();
        assert_eq!(sink.finish().unwrap(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_reorders_out_of_order_completions() {
        let path = temp_path("reorders");
        let mut sink = RowSink::create(&path, &header(4, Shard::FULL)).unwrap();
        sink.begin_range(0..4);
        sink.push(2, "r2".to_string()).unwrap();
        sink.push(1, "r1".to_string()).unwrap();
        // Nothing written yet: row 0 gates the frontier.
        assert_eq!(sink.written(), 0);
        sink.push(0, "r0".to_string()).unwrap();
        assert_eq!(sink.written(), 3);
        sink.push(3, "r3".to_string()).unwrap();
        assert_eq!(sink.finish().unwrap(), 4);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines, vec!["r0", "r1", "r2", "r3"], "grid order restored");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_rejects_duplicates_and_out_of_range() {
        let path = temp_path("rejects");
        let mut sink = RowSink::create(&path, &header(4, Shard::FULL)).unwrap();
        sink.begin_range(1..3);
        assert!(sink.push(0, "r0".to_string()).is_err(), "before range");
        assert!(sink.push(3, "r3".to_string()).is_err(), "after range");
        sink.push(2, "r2".to_string()).unwrap();
        assert!(sink.push(2, "r2 again".to_string()).is_err(), "duplicate");
        sink.push(1, "r1".to_string()).unwrap();
        // Written duplicate (seq < next) also rejected.
        assert!(sink.push(1, "r1 again".to_string()).is_err());
        assert_eq!(sink.finish().unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_blocks_interleave_with_single_rows() {
        let path = temp_path("blocks");
        let mut sink = RowSink::create(&path, &header(6, Shard::FULL)).unwrap();
        sink.begin_range(0..6);
        // A replayed block behind an unmeasured row is held...
        sink.push_block(3, 2, "r3\nr4\n").unwrap();
        sink.push_block(5, 0, "").unwrap();
        assert_eq!(sink.written(), 0);
        // ...a block at the frontier is written at once...
        sink.push_block(0, 2, "r0\nr1\n").unwrap();
        assert_eq!(sink.written(), 2);
        // ...and the fresh row between them releases the held block.
        sink.push(2, "r2".to_string()).unwrap();
        assert_eq!(sink.written(), 5);
        sink.push(5, "r5".to_string()).unwrap();
        assert_eq!(sink.finish().unwrap(), 6);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines, vec!["r0", "r1", "r2", "r3", "r4", "r5"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_rejects_overlapping_blocks() {
        let path = temp_path("overlaps");
        let mut sink = RowSink::create(&path, &header(8, Shard::FULL)).unwrap();
        sink.begin_range(0..8);
        sink.push_block(2, 3, "r2\nr3\nr4\n").unwrap();
        assert!(
            sink.push(3, "r3 again".to_string()).is_err(),
            "inside a held block"
        );
        assert!(
            sink.push_block(1, 2, "r1\nr2\n").is_err(),
            "overlaps its start"
        );
        assert!(
            sink.push_block(4, 2, "r4\nr5\n").is_err(),
            "overlaps its end"
        );
        assert!(
            sink.push_block(6, 3, "r6\nr7\nr8\n").is_err(),
            "past the range"
        );
        sink.push_block(0, 2, "r0\nr1\n").unwrap();
        assert!(sink.push_block(0, 1, "r0\n").is_err(), "already written");
        sink.push_block(5, 3, "r5\nr6\nr7\n").unwrap();
        assert_eq!(sink.finish().unwrap(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_finish_fails_on_gaps() {
        let path = temp_path("gaps");
        let mut sink = RowSink::create(&path, &header(3, Shard::FULL)).unwrap();
        sink.begin_range(0..3);
        sink.push(0, "r0".to_string()).unwrap();
        sink.push(2, "r2".to_string()).unwrap();
        let error = sink.finish().unwrap_err();
        assert!(error.to_string().contains("never arrived"), "{error}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_ranges_must_drain_and_ascend() {
        let path = temp_path("ranges");
        let mut sink = RowSink::create(&path, &header(4, Shard::FULL)).unwrap();
        sink.begin_range(0..1);
        sink.push(0, "r0".to_string()).unwrap();
        sink.begin_range(2..4);
        sink.push(3, "r3".to_string()).unwrap();
        sink.push(2, "r2".to_string()).unwrap();
        assert_eq!(sink.finish().unwrap(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "not drained")]
    fn sink_begin_range_panics_on_undrained_range() {
        let path = temp_path("undrained");
        let mut sink = RowSink::create(&path, &header(4, Shard::FULL)).unwrap();
        sink.begin_range(0..2);
        sink.push(1, "r1".to_string()).unwrap();
        sink.begin_range(2..4);
    }

    #[test]
    fn empty_shard_still_writes_a_header() {
        let path = temp_path("empty");
        let sink = RowSink::create(&path, &header(0, Shard::FULL)).unwrap();
        assert_eq!(sink.finish().unwrap(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        SchemaHeader::parse(text.lines().next().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
