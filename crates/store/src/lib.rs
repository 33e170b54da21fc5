//! A content-addressed on-disk cache of completed sweep rows.
//!
//! Sweep rows in this workspace are **pure functions of their
//! coordinates**: the executor's determinism contract makes every row's
//! cells reproducible from (binary, row-affecting args, table schema,
//! row index) alone. That is exactly a content address — so once a row
//! has been measured, re-running the same grid (or the same grid with
//! one axis extended, or another shard of the same run) can *replay* the
//! stored cells instead of re-simulating them.
//!
//! This crate is the storage layer only. It knows nothing about sweeps:
//! callers hand it a 64-bit **table key** (hash of everything that
//! affects row content — `edn_sweep` derives it from the binary name,
//! args, table title, and columns, deliberately *excluding* row counts
//! and shard coordinates so extending a grid leaves old keys intact) and
//! a **row index** within that table, and it stores/retrieves the row's
//! cell strings verbatim.
//!
//! # On-disk layout
//!
//! ```text
//! CACHE_DIR/
//!   <table key as 16 hex digits>/
//!     <writer id>.rows        append-only logs, one line per committed row
//! ```
//!
//! Each writing process appends to its **own** log file (the writer id
//! leads with a zero-padded nanosecond timestamp, then the pid, so the
//! lexicographic filename order readers load in is chronological), and
//! concurrent shard processes sharing one cache directory never
//! interleave writes. A reader loads every `*.rows` log in the table's
//! directory.
//!
//! Each log line is `INDEX HASH PAYLOAD` where `PAYLOAD` is the row's
//! cells, backslash-escaped and tab-joined, and `HASH` is the 64-bit
//! FNV-1a of `INDEX PAYLOAD` — the line with its hash field cut out, so
//! a damaged index fails the check just like a damaged cell. **Entries
//! are never trusted**: a line that is not UTF-8, fails to parse, fails
//! its hash, or sits truncated at the end of a log is counted as corrupt
//! and skipped — the caller simply recomputes (and recommits) that row.
//! Lines written before the hash covered the index fail the check the
//! same way and are recomputed once. A later commit of the same index
//! supersedes an earlier one.
//!
//! Loaded rows are kept as compact [`Row`]s — one `String` holding the
//! decoded cells plus the cell boundaries — so a table of many short
//! rows costs two heap blocks per row, not one per cell.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// The filename extension of row log files.
pub const LOG_EXTENSION: &str = "rows";

/// FNV-1a, the 64-bit variant: the workspace's canonical stable hash
/// (also used for artifact spec hashes in `edn_sweep`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into a running FNV-1a hash, so a hash over several
/// slices equals [`fnv1a`] over their concatenation.
fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One row's cells, stored compactly: the decoded cells joined by tabs in
/// one `String`, plus the end offset of every cell (a cell may itself
/// contain tabs; the offsets, not the separators, delimit cells).
///
/// # Examples
///
/// ```
/// use edn_store::Row;
///
/// let row = Row::from_cells(&["EDN(4,2,2,2)", "tab\there", ""]);
/// assert_eq!(row.len(), 3);
/// assert_eq!(row.cell(1), "tab\there");
/// assert_eq!(row.cells().collect::<Vec<_>>(), ["EDN(4,2,2,2)", "tab\there", ""]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row {
    text: String,
    ends: Box<[usize]>,
}

impl Row {
    /// Packs `cells` into one row.
    pub fn from_cells<S: AsRef<str>>(cells: &[S]) -> Row {
        let bytes = cells.iter().map(|c| c.as_ref().len() + 1).sum::<usize>();
        let mut text = String::with_capacity(bytes.saturating_sub(1));
        let mut ends = Vec::with_capacity(cells.len());
        for (index, cell) in cells.iter().enumerate() {
            if index > 0 {
                text.push('\t');
            }
            text.push_str(cell.as_ref());
            ends.push(text.len());
        }
        Row {
            text,
            ends: ends.into_boxed_slice(),
        }
    }

    /// The number of cells.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for a row of zero cells.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cell(&self, index: usize) -> &str {
        let start = match index {
            0 => 0,
            _ => self.ends[index - 1] + 1,
        };
        &self.text[start..self.ends[index]]
    }

    /// The cells in order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.len()).map(|index| self.cell(index))
    }
}

/// A handle on one cache directory.
///
/// Opening is cheap (one `create_dir_all`); per-table entries are loaded
/// by [`Store::table`].
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the root directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding one table key's logs.
    fn table_dir(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}"))
    }

    /// Loads the verified entries of table `key` and opens it for
    /// commits.
    ///
    /// Corrupt log lines are skipped (and counted), never trusted; an
    /// absent directory is an empty table. Each log is read as bytes and
    /// checked line by line, so one damaged byte — a non-UTF-8 line, a
    /// write torn inside a multi-byte character — costs only its own row.
    /// Loading is one pass over the bytes plus a stable sort of the
    /// entries by index, which is linear when the logs hold ascending
    /// runs of indices (as a serial run or a shard writes them).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the directory not existing.
    pub fn table(&self, key: u64) -> io::Result<TableCache> {
        let dir = self.table_dir(key);
        let mut corrupt = 0usize;
        let mut superseded = 0usize;
        let mut scratch = Vec::new();
        let mut logs: Vec<PathBuf> = match fs::read_dir(&dir) {
            Ok(read) => read
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|path| path.extension().is_some_and(|e| e == LOG_EXTENSION))
                .collect(),
            Err(error) if error.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(error) => return Err(error),
        };
        // Deterministic read order so "last commit wins" is stable.
        logs.sort();
        let mut loaded = Vec::new();
        for log in logs {
            let bytes = fs::read(&log)?;
            // Bytes after the last newline were cut off mid-write (crash,
            // full disk): that final line is suspect, skip it.
            let complete = bytes
                .iter()
                .rposition(|&byte| byte == b'\n')
                .map_or(0, |last| last + 1);
            corrupt += usize::from(complete < bytes.len());
            for_each_line(&bytes[..complete], |line| {
                match line.and_then(|line| parse_entry(line, &mut scratch)) {
                    Some(entry) => loaded.push(entry),
                    None => corrupt += 1,
                }
            });
        }
        // "Last commit wins": the stable sort keeps each index's commits
        // in read order, and the dedup swaps the later one into the
        // retained slot before dropping the earlier.
        loaded.sort_by_key(|&(index, _)| index);
        loaded.dedup_by(|later, kept| {
            let duplicate = later.0 == kept.0;
            if duplicate {
                std::mem::swap(later, kept);
                superseded += 1;
            }
            duplicate
        });
        // Sorted, unique keys: the map is bulk-built in linear time.
        let entries: BTreeMap<usize, Row> = loaded.into_iter().collect();
        Ok(TableCache {
            dir,
            entries,
            corrupt,
            superseded,
            writer: None,
        })
    }

    /// Evicts table `key` entirely, removing its directory. Returns
    /// whether anything was there to remove.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the directory not existing.
    pub fn evict(&self, key: u64) -> io::Result<bool> {
        match fs::remove_dir_all(self.table_dir(key)) {
            Ok(()) => Ok(true),
            Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(error) => Err(error),
        }
    }

    /// The table keys currently present in the cache (16-hex-digit
    /// directory names), sorted.
    ///
    /// # Errors
    ///
    /// Propagates the directory listing failure.
    pub fn keys(&self) -> io::Result<Vec<u64>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.len() == 16 {
                    if let Ok(key) = u64::from_str_radix(name, 16) {
                        keys.push(key);
                    }
                }
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

/// The loaded entries of one table key, open for lookups and commits.
#[derive(Debug)]
pub struct TableCache {
    dir: PathBuf,
    entries: BTreeMap<usize, Row>,
    corrupt: usize,
    superseded: usize,
    writer: Option<BufWriter<fs::File>>,
}

impl TableCache {
    /// Verified entries available for replay (rows moved out with
    /// [`take`](Self::take) no longer count).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no verified entries were loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Log lines that failed parsing, hashing, or sat truncated — each
    /// one a row that will be recomputed instead of trusted.
    pub fn corrupt(&self) -> usize {
        self.corrupt
    }

    /// Verified log lines whose index was committed again by a later
    /// line ("last commit wins") — each one dead weight a re-commit or
    /// overlapping shard run left behind, not an error.
    pub fn superseded(&self) -> usize {
        self.superseded
    }

    /// The verified cells of row `index`, if cached.
    pub fn lookup(&self, index: usize) -> Option<&Row> {
        self.entries.get(&index)
    }

    /// Moves the verified cells of row `index` out of the cache, if
    /// cached — the replay path's copy-free [`lookup`](Self::lookup). A
    /// later `lookup` or `take` of the same index finds nothing.
    pub fn take(&mut self, index: usize) -> Option<Row> {
        self.entries.remove(&index)
    }

    /// Appends row `index` to this process's log and flushes, so the
    /// entry survives even if the run dies on the next row.
    ///
    /// # Panics
    ///
    /// Panics on an empty cell list — tables always have at least one
    /// column, and the encoding cannot represent zero cells.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating or writing the log.
    pub fn commit(&mut self, index: usize, cells: &[String]) -> io::Result<()> {
        assert!(!cells.is_empty(), "cannot commit a zero-cell row");
        if self.writer.is_none() {
            fs::create_dir_all(&self.dir)?;
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            // Timestamp first and zero-padded: the loader's filename
            // sort is then chronological, which is what makes "a later
            // commit supersedes an earlier one" hold across writers.
            let name = format!("{nanos:030}-{}.{LOG_EXTENSION}", std::process::id());
            let file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(self.dir.join(name))?;
            self.writer = Some(BufWriter::new(file));
        }
        let writer = self.writer.as_mut().expect("just created");
        writeln!(writer, "{}", render_entry(index, cells))?;
        writer.flush()
    }
}

/// Calls `each` with every line of `bytes` (each newline-terminated),
/// without its newline — or with `None` for a line that is not UTF-8.
/// Validation runs over long valid stretches at once, and the lines are
/// split with `str`'s fast byte search; a bad byte costs one extra pass
/// over its stretch, so the whole walk stays linear.
fn for_each_line<'a>(bytes: &'a [u8], mut each: impl FnMut(Option<&'a str>)) {
    let mut rest = bytes;
    while !rest.is_empty() {
        let (valid, bad_line_end) = match std::str::from_utf8(rest) {
            Ok(text) => (text, None),
            Err(error) => {
                // Keep the lines before the bad byte, drop the one holding it.
                let bad = error.valid_up_to();
                let line_start = rest[..bad]
                    .iter()
                    .rposition(|&byte| byte == b'\n')
                    .map_or(0, |at| at + 1);
                let line_end = rest[bad..]
                    .iter()
                    .position(|&byte| byte == b'\n')
                    .map_or(rest.len(), |at| bad + at + 1);
                let valid = std::str::from_utf8(&rest[..line_start]).unwrap_or_default();
                (valid, Some(line_end))
            }
        };
        valid
            .split_terminator('\n')
            .for_each(|line| each(Some(line)));
        match bad_line_end {
            Some(end) => {
                each(None);
                rest = &rest[end..];
            }
            None => break,
        }
    }
}

/// Renders one log line: `INDEX HASH PAYLOAD`.
fn render_entry(index: usize, cells: &[String]) -> String {
    let index = index.to_string();
    let payload = encode_cells(cells);
    format!("{index} {:016x} {payload}", entry_hash(&index, &payload))
}

/// The hash a log line records: FNV-1a over `INDEX PAYLOAD`, i.e. the
/// line without its hash field.
fn entry_hash(index: &str, payload: &str) -> u64 {
    let hash = fnv1a_continue(fnv1a(index.as_bytes()), b" ");
    fnv1a_continue(hash, payload.as_bytes())
}

/// Parses and verifies one log line; `None` means corrupt. `scratch`
/// is reused across lines for the cell boundaries.
fn parse_entry(line: &str, scratch: &mut Vec<usize>) -> Option<(usize, Row)> {
    let (index_text, rest) = line.split_once(' ')?;
    let (hash_text, payload) = rest.split_once(' ')?;
    let index: usize = index_text.parse().ok()?;
    if hash_text.len() != 16 {
        return None;
    }
    let recorded = u64::from_str_radix(hash_text, 16).ok()?;
    if entry_hash(index_text, payload) != recorded {
        return None;
    }
    Some((index, decode_row(payload, scratch)?))
}

/// Tab-joins the cells after backslash-escaping, so any cell content —
/// tabs, newlines, backslashes — survives the line-oriented log.
fn encode_cells(cells: &[String]) -> String {
    let mut out = String::new();
    for (index, cell) in cells.iter().enumerate() {
        if index > 0 {
            out.push('\t');
        }
        for ch in cell.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                ch => out.push(ch),
            }
        }
    }
    out
}

/// Inverse of [`encode_cells`], straight into a [`Row`]; `None` on an
/// invalid escape (corrupt). `scratch` collects the cell boundaries.
fn decode_row(payload: &str, scratch: &mut Vec<usize>) -> Option<Row> {
    if payload.contains('\\') {
        // Escapes shift the boundaries: take the slow path.
        return decode_escaped(payload);
    }
    // Nothing escaped: the payload is the row text verbatim.
    scratch.clear();
    scratch.extend(payload.match_indices('\t').map(|(at, _)| at));
    scratch.push(payload.len());
    Some(Row {
        text: payload.to_owned(),
        ends: scratch.as_slice().into(),
    })
}

/// [`decode_row`] for a payload holding at least one escape.
fn decode_escaped(payload: &str) -> Option<Row> {
    let mut text = Vec::with_capacity(payload.len());
    let mut ends = Vec::new();
    let mut bytes = payload.bytes();
    while let Some(byte) = bytes.next() {
        match byte {
            b'\t' => {
                ends.push(text.len());
                text.push(b'\t');
            }
            b'\\' => text.push(match bytes.next()? {
                b'\\' => b'\\',
                b't' => b'\t',
                b'n' => b'\n',
                b'r' => b'\r',
                _ => return None,
            }),
            byte => text.push(byte),
        }
    }
    ends.push(text.len());
    // Only ASCII escapes were rewritten, so the text is still UTF-8.
    Some(Row {
        text: String::from_utf8(text).ok()?,
        ends: ends.into_boxed_slice(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> Store {
        let dir = std::env::temp_dir()
            .join("edn_store_unit_tests")
            .join(format!("{name}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        Store::open(dir).unwrap()
    }

    #[test]
    fn commit_lookup_round_trips_awkward_cells() {
        let store = temp_store("round_trip");
        let cells = vec![
            "plain".to_string(),
            "tab\there".to_string(),
            "line\nbreak\r".to_string(),
            "back\\slash".to_string(),
            String::new(),
            "é ∆ 0.5".to_string(),
        ];
        let mut table = store.table(0xA).unwrap();
        table.commit(3, &cells).unwrap();
        table.commit(0, &["x".to_string()]).unwrap();
        // A fresh load sees both entries, verbatim.
        let reloaded = store.table(0xA).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.lookup(3), Some(&Row::from_cells(&cells)));
        assert_eq!(reloaded.lookup(0), Some(&Row::from_cells(&["x"])));
        assert_eq!(reloaded.lookup(1), None);
        assert_eq!(reloaded.corrupt(), 0);
        assert_eq!(reloaded.superseded(), 0);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn tables_are_isolated_by_key() {
        let store = temp_store("keys");
        store
            .table(1)
            .unwrap()
            .commit(0, &["a".to_string()])
            .unwrap();
        store
            .table(2)
            .unwrap()
            .commit(0, &["b".to_string()])
            .unwrap();
        assert_eq!(
            store.table(1).unwrap().lookup(0),
            Some(&Row::from_cells(&["a"]))
        );
        assert_eq!(
            store.table(2).unwrap().lookup(0),
            Some(&Row::from_cells(&["b"]))
        );
        assert_eq!(store.keys().unwrap(), vec![1, 2]);
        assert!(store.evict(1).unwrap());
        assert!(!store.evict(1).unwrap());
        assert!(store.table(1).unwrap().is_empty());
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn truncated_final_line_is_corrupt_not_trusted() {
        let store = temp_store("truncated");
        let mut table = store.table(7).unwrap();
        table.commit(0, &["keep".to_string()]).unwrap();
        table.commit(1, &["lost".to_string()]).unwrap();
        drop(table);
        // Chop the trailing newline plus a byte: a mid-write crash.
        let log = fs::read_dir(store.table_dir(7))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let text = fs::read_to_string(&log).unwrap();
        fs::write(&log, &text[..text.len() - 2]).unwrap();
        let reloaded = store.table(7).unwrap();
        assert_eq!(reloaded.lookup(0), Some(&Row::from_cells(&["keep"])));
        assert_eq!(reloaded.lookup(1), None, "truncated entry must not load");
        assert_eq!(reloaded.corrupt(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn hash_mismatch_is_corrupt_not_trusted() {
        let store = temp_store("hash");
        let mut table = store.table(9).unwrap();
        table.commit(0, &["honest".to_string()]).unwrap();
        drop(table);
        let log = fs::read_dir(store.table_dir(9))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let text = fs::read_to_string(&log).unwrap();
        fs::write(&log, text.replace("honest", "doctor")).unwrap();
        let reloaded = store.table(9).unwrap();
        assert_eq!(reloaded.lookup(0), None, "hash-mismatched entry loaded");
        assert_eq!(reloaded.corrupt(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn garbage_lines_are_counted_and_skipped() {
        let store = temp_store("garbage");
        let dir = store.table_dir(3);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("legacy.rows"),
            "not an entry\n5\n5 zzzz x\n5 0123 \\q\n",
        )
        .unwrap();
        let table = store.table(3).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.corrupt(), 4);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn later_commits_supersede_earlier_ones() {
        let store = temp_store("supersede");
        let mut table = store.table(4).unwrap();
        table.commit(2, &["old".to_string()]).unwrap();
        drop(table);
        let mut table = store.table(4).unwrap();
        table.commit(2, &["new".to_string()]).unwrap();
        drop(table);
        // Two logs now exist; the later one (sorted last by its
        // timestamped name) wins, and the loser is counted superseded.
        let reloaded = store.table(4).unwrap();
        assert_eq!(reloaded.lookup(2), Some(&Row::from_cells(&["new"])));
        assert_eq!(reloaded.superseded(), 1);
        assert_eq!(reloaded.corrupt(), 0);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn later_writers_beat_earlier_ones_regardless_of_pid_digits() {
        // Writer pids must not leak into the ordering: a log stamped
        // later must win even when its pid would sort before the earlier
        // writer's (the reason filenames lead with the padded timestamp).
        let store = temp_store("cross_writer");
        let dir = store.table_dir(8);
        fs::create_dir_all(&dir).unwrap();
        let entry = |cells: &[String]| render_entry(0, cells) + "\n";
        fs::write(
            dir.join(format!("{:030}-999.rows", 1u128)),
            entry(&["old".to_string()]),
        )
        .unwrap();
        fs::write(
            dir.join(format!("{:030}-1000.rows", 2u128)),
            entry(&["new".to_string()]),
        )
        .unwrap();
        let table = store.table(8).unwrap();
        assert_eq!(table.lookup(0), Some(&Row::from_cells(&["new"])));
        assert_eq!(table.superseded(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn concurrent_writers_use_distinct_logs() {
        let store = temp_store("writers");
        store
            .table(6)
            .unwrap()
            .commit(0, &["a".to_string()])
            .unwrap();
        store
            .table(6)
            .unwrap()
            .commit(1, &["b".to_string()])
            .unwrap();
        let logs = fs::read_dir(store.table_dir(6)).unwrap().count();
        assert_eq!(logs, 2, "each open table appends to its own log");
        let merged = store.table(6).unwrap();
        assert_eq!(merged.len(), 2);
        fs::remove_dir_all(store.root()).ok();
    }

    /// The path of the only log in table `key`'s directory.
    fn only_log(store: &Store, key: u64) -> PathBuf {
        let mut logs = fs::read_dir(store.table_dir(key)).unwrap();
        let log = logs.next().unwrap().unwrap().path();
        assert!(logs.next().is_none(), "one log expected");
        log
    }

    #[test]
    fn bad_bytes_cost_only_their_own_rows() {
        let store = temp_store("bad_bytes");
        let mut table = store.table(5).unwrap();
        for row in 0..4 {
            table.commit(row, &[format!("café {row}")]).unwrap();
        }
        drop(table);
        let log = only_log(&store, 5);
        let mut bytes = fs::read(&log).unwrap();
        // Row 1: one invalid byte in the middle of the log (the lead
        // byte of its `é` becomes 0xFF, which is never UTF-8).
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(at, _)| at)
            .collect();
        let row1 = &bytes[lines[0] + 1..lines[1]];
        let lead = lines[0] + 1 + row1.iter().position(|&b| b == 0xC3).unwrap();
        bytes[lead] = 0xFF;
        // Row 3: the write tore inside the final line's `é`, leaving its
        // lead byte without the continuation byte.
        let tail = lines[2] + 1;
        let torn = tail + bytes[tail..].iter().position(|&b| b == 0xC3).unwrap() + 1;
        bytes.truncate(torn);
        fs::write(&log, &bytes).unwrap();
        assert!(std::str::from_utf8(&bytes).is_err(), "log is not UTF-8");

        let reloaded = store.table(5).unwrap();
        assert_eq!(reloaded.lookup(0), Some(&Row::from_cells(&["café 0"])));
        assert_eq!(reloaded.lookup(1), None, "invalid line must not load");
        assert_eq!(reloaded.lookup(2), Some(&Row::from_cells(&["café 2"])));
        assert_eq!(reloaded.lookup(3), None, "torn line must not load");
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.corrupt(), 2);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn the_hash_covers_the_index() {
        let store = temp_store("index_hash");
        let mut table = store.table(11).unwrap();
        table.commit(12, &["twelve".to_string()]).unwrap();
        drop(table);
        let log = only_log(&store, 11);
        let text = fs::read_to_string(&log).unwrap();
        assert!(text.starts_with("12 "));
        // A flipped index digit with the payload intact must not replay
        // the row at the wrong index.
        fs::write(&log, text.replacen("12 ", "13 ", 1)).unwrap();
        let reloaded = store.table(11).unwrap();
        assert_eq!(reloaded.lookup(13), None, "doctored index loaded");
        assert_eq!(reloaded.lookup(12), None);
        assert_eq!(reloaded.corrupt(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn payload_only_hashes_are_recomputed() {
        // The line format before the hash covered the index: such lines
        // fail the check and their rows are recomputed, never trusted.
        let store = temp_store("payload_hash");
        let dir = store.table_dir(12);
        fs::create_dir_all(&dir).unwrap();
        let payload = "old\tformat";
        let line = format!("0 {:016x} {payload}\n", fnv1a(payload.as_bytes()));
        fs::write(dir.join("legacy.rows"), line).unwrap();
        let table = store.table(12).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.corrupt(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn take_moves_rows_out() {
        let store = temp_store("take");
        let mut table = store.table(13).unwrap();
        table
            .commit(4, &["a\tb".to_string(), "c".to_string()])
            .unwrap();
        drop(table);
        let mut reloaded = store.table(13).unwrap();
        let row = reloaded.take(4).unwrap();
        assert_eq!(row.cells().collect::<Vec<_>>(), ["a\tb", "c"]);
        assert_eq!(reloaded.take(4), None, "a row moves out once");
        assert_eq!(reloaded.lookup(4), None);
        assert!(reloaded.is_empty());
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn rows_index_cells_containing_tabs() {
        let cells = ["", "\t", "a\tb\t", "é"];
        let row = Row::from_cells(&cells);
        assert_eq!(row.len(), 4);
        assert!(!row.is_empty());
        assert_eq!(row.cells().collect::<Vec<_>>(), cells);
        assert!(Row::from_cells::<&str>(&[]).is_empty());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn encode_decode_is_total_on_escapes() {
        for cells in [
            vec!["".to_string()],
            vec!["\t".to_string(), "\n".to_string()],
            vec!["\\t literal".to_string()],
            vec!["a".to_string(), "".to_string(), "b".to_string()],
        ] {
            let encoded = encode_cells(&cells);
            assert!(!encoded.contains('\n'), "log stays line-oriented");
            let decoded = decode_row(&encoded, &mut Vec::new());
            assert_eq!(decoded, Some(Row::from_cells(&cells)));
        }
        assert_eq!(
            decode_row("bad\\q", &mut Vec::new()),
            None,
            "unknown escape"
        );
        assert_eq!(decode_row("dangling\\", &mut Vec::new()), None);
    }
}
