//! Structured emission: paper-style text tables and JSON rows.
//!
//! Every experiment binary renders its results twice from the same
//! [`Table`]s: an aligned plain-text table on stdout (the paper-style
//! artifact) and, when `--out` is given, one JSON object per data row
//! (JSON Lines) streamed through a [`RowSink`](crate::stream::RowSink)
//! as measurements complete. Each JSON row leads with its global `"seq"`
//! (the merge key for sharded runs) and a `"table"` field carrying the
//! title; cells that look like JSON numbers are emitted as numbers,
//! non-finite float renderings (`NaN`/`inf`/`-inf`) become `null`, and
//! everything else is an escaped string.

use edn_store::Row;
use std::fmt::Write as _;

/// A minimal aligned-column text table (stdout-oriented; also exportable
/// as CSV and JSON rows). Rows are stored as compact [`Row`]s, so a row
/// replayed from the row cache moves in without being rebuilt.
///
/// # Examples
///
/// ```
/// use edn_sweep::Table;
///
/// let mut table = Table::new("demo", &["n", "value"]);
/// table.row(vec!["1".into(), "0.5".into()]);
/// let text = table.render();
/// assert!(text.contains("demo"));
/// assert!(text.contains("value"));
/// assert_eq!(
///     table.json_row(0, 7),
///     r#"{"seq": 7, "table": "demo", "n": 1, "value": 0.5}"#
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Row>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        self.push_row(Row::from_cells(&cells));
    }

    /// Appends one already-packed row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the header count.
    pub fn push_row(&mut self, row: Row) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table as text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row.cells()) {
                *width = (*width).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .cells()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the table as CSV (headers first), RFC-4180 quoted: cells
    /// containing commas, double quotes, or line breaks are wrapped in
    /// double quotes with embedded quotes doubled, so every cell
    /// round-trips through a conforming CSV reader.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &mut dyn Iterator<Item = &str>| {
            for (index, cell) in cells.enumerate() {
                if index > 0 {
                    out.push(',');
                }
                out.push_str(&csv_field(cell));
            }
            out.push('\n');
        };
        write_row(&mut out, &mut self.headers.iter().map(String::as_str));
        for row in &self.rows {
            write_row(&mut out, &mut row.cells());
        }
        out
    }

    /// Renders one data row as its JSON Lines form: the global sequence
    /// number first (the shard-merge key), then the `"table"` field, then
    /// every cell keyed by column header. Numeric-looking cells become
    /// JSON numbers, non-finite float renderings become `null`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn json_row(&self, index: usize, seq: usize) -> String {
        let mut out = String::new();
        JsonRows::new(&self.title, &self.headers).render_into(
            &mut out,
            seq,
            self.rows[index].cells(),
        );
        out
    }
}

/// Renders one JSON Lines row from raw parts — the same format as
/// [`Table::json_row`], usable from sweep closures before the cells have
/// been appended to a [`Table`].
pub fn render_json_row(seq: usize, title: &str, headers: &[String], cells: &[String]) -> String {
    let mut out = String::new();
    JsonRows::new(title, headers).render_into(&mut out, seq, cells.iter().map(String::as_str));
    out
}

/// One table's JSON row prefixes, escaped once per table: the
/// `, "table": <title>` field and one `, <header>: ` per column. Rows
/// then render into a caller-owned buffer without allocating.
#[derive(Debug)]
pub(crate) struct JsonRows {
    table: String,
    columns: Vec<String>,
}

impl JsonRows {
    pub(crate) fn new(title: &str, headers: &[String]) -> Self {
        let mut table = String::from(", \"table\": ");
        push_json_string(&mut table, title);
        let columns = headers
            .iter()
            .map(|header| {
                let mut prefix = String::from(", ");
                push_json_string(&mut prefix, header);
                prefix.push_str(": ");
                prefix
            })
            .collect();
        JsonRows { table, columns }
    }

    /// Appends row `seq`'s JSON line (no trailing newline) to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub(crate) fn render_into<'c>(
        &self,
        out: &mut String,
        seq: usize,
        cells: impl ExactSizeIterator<Item = &'c str>,
    ) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        write!(out, "{{\"seq\": {seq}").expect("writing to a String cannot fail");
        out.push_str(&self.table);
        for (prefix, cell) in self.columns.iter().zip(cells) {
            out.push_str(prefix);
            push_json_cell(out, cell);
        }
        out.push('}');
    }
}

/// Quotes one CSV field per RFC 4180: fields containing the delimiter, a
/// double quote, or a line break are quoted, embedded quotes doubled.
fn csv_field(cell: &str) -> String {
    if cell.contains(['"', ',', '\n', '\r']) {
        let mut out = String::with_capacity(cell.len() + 2);
        out.push('"');
        for ch in cell.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        cell.to_string()
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_json_string(&mut out, text);
    out
}

/// Appends `text` to `out` as a JSON string literal.
fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so a byte scan finds them;
    // most cells have none and are copied whole.
    if !text.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(text);
        out.push('"');
        return;
    }
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if u32::from(ch) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(ch)).expect("writing to a String cannot fail")
            }
            ch => out.push(ch),
        }
    }
    out.push('"');
}

/// Appends a table cell to `out` as a JSON value: a plain decimal or
/// exponent number when the cell is one, `null` when the cell is a
/// non-finite float rendering (`NaN`/`inf`/`-inf`, as [`fmt_f`] produces
/// for degenerate means — JSON has no spelling for them, and a string
/// would flip the column's type mid-stream), otherwise a string.
fn push_json_cell(out: &mut String, cell: &str) {
    if is_json_number(cell) {
        out.push_str(cell);
    } else if is_nonfinite(cell) {
        out.push_str("null");
    } else {
        push_json_string(out, cell);
    }
}

/// `true` for the strings Rust's float formatting produces on non-finite
/// values.
fn is_nonfinite(cell: &str) -> bool {
    matches!(cell, "NaN" | "-NaN" | "inf" | "-inf")
}

/// `true` if `cell` is already a valid JSON number literal
/// (RFC 8259: optional minus, integer part without leading zeros,
/// optional fraction, optional exponent). One forward pass over the
/// bytes: every row of every artifact runs each cell through it.
fn is_json_number(cell: &str) -> bool {
    let bytes = cell.as_bytes();
    let rest = bytes.strip_prefix(b"-").unwrap_or(bytes);
    let integer = leading_digits(rest);
    // JSON forbids leading zeros on multi-digit integer parts.
    if integer == 0 || (integer > 1 && rest[0] == b'0') {
        return false;
    }
    let mut rest = &rest[integer..];
    if let [b'.', fraction @ ..] = rest {
        let digits = leading_digits(fraction);
        if digits == 0 {
            return false;
        }
        rest = &fraction[digits..];
    }
    if let [b'e' | b'E', exponent @ ..] = rest {
        // Exponents allow a sign and leading zeros (`1e+05` is valid).
        let exponent = match exponent {
            [b'+' | b'-', unsigned @ ..] => unsigned,
            _ => exponent,
        };
        let digits = leading_digits(exponent);
        if digits == 0 {
            return false;
        }
        rest = &exponent[digits..];
    }
    rest.is_empty()
}

/// The length of the run of ASCII digits `bytes` starts with.
fn leading_digits(bytes: &[u8]) -> usize {
    bytes.iter().take_while(|b| b.is_ascii_digit()).count()
}

/// Formats a float with `digits` fractional digits.
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats an optional float, rendering `None` as `-`.
pub fn fmt_opt(x: Option<f64>, digits: usize) -> String {
    match x {
        Some(v) => fmt_f(v, digits),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("x", &["aa", "b"]);
        t.row(vec!["1".into(), "22222".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let text = t.render();
        assert!(text.contains("== x =="));
        let lines: Vec<&str> = text.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new("x", &["n", "pa"]);
        t.row(vec!["8".into(), "0.75".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "n,pa\n8,0.75\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_quotes_delimiters_quotes_and_newlines() {
        let mut t = Table::new("x", &["name", "note"]);
        t.row(vec!["EDN(16,4,4,2)".into(), "plain".into()]);
        t.row(vec!["say \"hi\"".into(), "line1\nline2".into()]);
        t.row(vec!["cr\rcell".into(), ",".into()]);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "name,note\n\
             \"EDN(16,4,4,2)\",plain\n\
             \"say \"\"hi\"\"\",\"line1\nline2\"\n\
             \"cr\rcell\",\",\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn json_rows_type_cells() {
        let mut t = Table::new("tab \"q\"", &["n", "pa", "name", "ci"]);
        t.row(vec![
            "64".into(),
            "0.544".into(),
            "EDN(16,4,4,2)".into(),
            "-".into(),
        ]);
        t.row(vec!["-3".into(), "007".into(), "a\nb".into(), "1.".into()]);
        assert_eq!(
            t.json_row(0, 0),
            r#"{"seq": 0, "table": "tab \"q\"", "n": 64, "pa": 0.544, "name": "EDN(16,4,4,2)", "ci": "-"}"#
        );
        // Leading zeros, trailing dots, and control characters fall back
        // to strings.
        assert_eq!(
            t.json_row(1, 9),
            r#"{"seq": 9, "table": "tab \"q\"", "n": -3, "pa": "007", "name": "a\nb", "ci": "1."}"#
        );
    }

    #[test]
    fn nonfinite_cells_become_null() {
        let mut t = Table::new("t", &["mean", "lo", "hi", "label"]);
        t.row(vec![
            fmt_f(f64::NAN, 3),
            fmt_f(f64::NEG_INFINITY, 3),
            fmt_f(f64::INFINITY, 3),
            "NaN gate".into(), // only exact non-finite renderings null out
        ]);
        assert_eq!(
            t.json_row(0, 2),
            r#"{"seq": 2, "table": "t", "mean": null, "lo": null, "hi": null, "label": "NaN gate"}"#
        );
    }

    #[test]
    fn number_detection_is_strict() {
        for yes in [
            "0", "10", "-1", "3.25", "0.5", "-0.125", "1e3", "1e-3", "1E+5", "2.5e10", "-4.0E-2",
            "0e0", "1e05",
        ] {
            assert!(is_json_number(yes), "{yes}");
        }
        for no in [
            "", "-", "+1", ".5", "1.", "01", "0x1f", "NaN", "1 ", "e3", "1e", "1e+", "1.e3",
            "1e3.5", "inf", "-inf",
        ] {
            assert!(!is_json_number(no), "{no}");
        }
    }

    /// RFC 8259's number grammar written the slow, obvious way: split
    /// off sign, exponent and fraction, then check each part.
    fn is_json_number_by_parts(cell: &str) -> bool {
        let body = cell.strip_prefix('-').unwrap_or(cell);
        let (mantissa, exponent) = match body.split_once(['e', 'E']) {
            Some((mantissa, exponent)) => (mantissa, Some(exponent)),
            None => (body, None),
        };
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let (integer, fraction) = match mantissa.split_once('.') {
            Some((integer, fraction)) => (integer, Some(fraction)),
            None => (mantissa, None),
        };
        let integer_ok = digits(integer) && (integer.len() == 1 || !integer.starts_with('0'));
        let exponent_ok = exponent.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)));
        integer_ok && fraction.is_none_or(digits) && exponent_ok
    }

    #[test]
    fn number_detection_matches_the_grammar_exhaustively() {
        // Every string of up to five symbols over the grammar's alphabet
        // (plus one outsider).
        let alphabet = ['-', '+', '.', 'e', 'E', '0', '1', '9', 'x'];
        let mut cells = vec![String::new()];
        let mut frontier = cells.clone();
        for _ in 0..5 {
            frontier = frontier
                .iter()
                .flat_map(|cell| alphabet.iter().map(move |&ch| format!("{cell}{ch}")))
                .collect();
            cells.extend(frontier.iter().cloned());
        }
        let mut numbers = 0;
        for cell in &cells {
            assert_eq!(
                is_json_number(cell),
                is_json_number_by_parts(cell),
                "{cell:?}"
            );
            numbers += usize::from(is_json_number(cell));
        }
        assert!(numbers > 100, "the sample holds numbers too");
    }

    #[test]
    fn render_json_row_matches_table_form() {
        let headers = vec!["a".to_string(), "b".to_string()];
        let cells = vec!["1".to_string(), "x".to_string()];
        let mut t = Table::new("t", &["a", "b"]);
        t.row(cells.clone());
        assert_eq!(render_json_row(4, "t", &headers, &cells), t.json_row(0, 4));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(0.5444, 3), "0.544");
        assert_eq!(fmt_opt(None, 2), "-");
        assert_eq!(fmt_opt(Some(1.0), 2), "1.00");
    }
}
