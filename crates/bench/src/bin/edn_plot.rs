//! `edn_plot` — regenerate figures from sweep artifacts, no
//! re-simulation.
//!
//! ```text
//! edn_plot run.jsonl                       # every table: text table + ASCII curve
//! edn_plot run.jsonl --table "FIG7..."     # one table only
//! edn_plot run.jsonl --x "hot fraction" --y acceptance
//! edn_plot run.jsonl --svg plots/          # also write one SVG per table
//! ```
//!
//! The PR 4 schema header made every `--out` artifact self-describing:
//! the header names each table and its columns, and every row carries
//! its cells as typed JSON. This tool is the payoff — it reads an
//! artifact back through `edn_sweep::json` (dependency-free, like
//! everything here) and renders, **per declared table**:
//!
//! * the aligned text table, rebuilt from the stored rows;
//! * an ASCII curve of `--y` against `--x` (default: the first two
//!   numeric columns), when the table has one;
//! * with `--svg DIR`, an SVG curve per table.
//!
//! A day-long sweep's figures can therefore be restyled, re-plotted, or
//! re-examined forever without touching the simulator — the ROADMAP's
//! "plotting from artifacts" contract.
//!
//! `--heatmap` reads the **metrics sidecar** (`*.metrics.jsonl`)
//! instead: every `{"kind": "routing"}` record — a stage-resolved
//! [`StageProbe`](edn_core::StageProbe) snapshot an experiment recorded —
//! becomes one row of a stage-utilization heatmap (exit-wire grant rate
//! per stage), rendered in ASCII and, with `--svg DIR`, as an SVG grid.

use edn_sweep::json::{self, Value};
use edn_sweep::{SchemaHeader, Table};
use std::path::PathBuf;

const USAGE: &str = "regenerate figures from a sweep artifact (no re-simulation)\n\n\
    Usage: edn_plot ARTIFACT.jsonl [OPTIONS]\n\n\
    Options:\n  \
    --table TITLE  render only the named table (default: all declared)\n  \
    --x COL        x column (default: first numeric column)\n  \
    --y COL        y column (default: next numeric column after x)\n  \
    --width N      ASCII plot width in columns (default: 64)\n  \
    --height N     ASCII plot height in rows (default: 16)\n  \
    --svg DIR      also write DIR/<table>.svg per rendered table\n  \
    --no-curve     text tables only\n  \
    --heatmap      ARTIFACT is a *.metrics.jsonl sidecar: render a\n                 \
    stage-utilization heatmap from its routing records\n  \
    --help         print this message";

struct Options {
    artifact: PathBuf,
    table: Option<String>,
    x: Option<String>,
    y: Option<String>,
    width: usize,
    height: usize,
    svg: Option<PathBuf>,
    curve: bool,
    heatmap: bool,
}

fn parse_options() -> Result<Option<Options>, String> {
    let mut args = std::env::args().skip(1);
    let mut artifact = None;
    let mut table = None;
    let mut x = None;
    let mut y = None;
    let mut width = 64usize;
    let mut height = 16usize;
    let mut svg = None;
    let mut curve = true;
    let mut heatmap = false;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--table" => table = Some(value("--table")?),
            "--x" => x = Some(value("--x")?),
            "--y" => y = Some(value("--y")?),
            "--width" => {
                width = value("--width")?
                    .parse()
                    .ok()
                    .filter(|&w| w >= 8)
                    .ok_or("--width expects an integer >= 8")?;
            }
            "--height" => {
                height = value("--height")?
                    .parse()
                    .ok()
                    .filter(|&h| h >= 4)
                    .ok_or("--height expects an integer >= 4")?;
            }
            "--svg" => svg = Some(PathBuf::from(value("--svg")?)),
            "--no-curve" => curve = false,
            "--heatmap" => heatmap = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if artifact.is_none() => artifact = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let artifact = artifact.ok_or("no artifact given")?;
    Ok(Some(Options {
        artifact,
        table,
        x,
        y,
        width,
        height,
        svg,
        curve,
        heatmap,
    }))
}

/// One table read back from the artifact: header schema plus parsed rows.
struct TableData {
    title: String,
    columns: Vec<String>,
    /// Per row: the display cell and, when numeric, its value.
    rows: Vec<Vec<(String, Option<f64>)>>,
}

/// Renders one JSON value as a table cell (`-` for null, minimal float
/// formatting) plus its numeric reading when it has one.
fn cell_of(value: Option<&Value>) -> (String, Option<f64>) {
    match value {
        Some(Value::Number(x)) => {
            let text = if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{}", *x as i64)
            } else {
                format!("{x}")
            };
            (text, Some(*x))
        }
        Some(Value::String(s)) => (s.clone(), None),
        Some(Value::Bool(b)) => (b.to_string(), None),
        Some(Value::Null) | None => ("-".to_string(), None),
        Some(other) => (format!("{other:?}"), None),
    }
}

fn load(options: &Options) -> Result<Vec<TableData>, String> {
    let text = std::fs::read_to_string(&options.artifact)
        .map_err(|error| format!("{}: {error}", options.artifact.display()))?;
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("artifact is empty")?;
    let header = SchemaHeader::parse(header_line).map_err(|error| format!("header: {error}"))?;
    let mut tables: Vec<TableData> = header
        .tables
        .iter()
        .map(|schema| TableData {
            title: schema.title.clone(),
            columns: schema.columns.clone(),
            rows: Vec::new(),
        })
        .collect();
    for (index, line) in lines.enumerate() {
        let row = json::parse(line).map_err(|error| format!("row {}: {error}", index + 1))?;
        let title = row
            .get("table")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("row {} has no `table` field", index + 1))?;
        let table = tables
            .iter_mut()
            .find(|t| t.title == title)
            .ok_or_else(|| format!("row {} names undeclared table `{title}`", index + 1))?;
        table
            .rows
            .push(table.columns.iter().map(|c| cell_of(row.get(c))).collect());
    }
    if let Some(wanted) = &options.table {
        tables.retain(|t| &t.title == wanted);
        if tables.is_empty() {
            return Err(format!(
                "no table titled `{wanted}` in {} (declared: {})",
                options.artifact.display(),
                header
                    .tables
                    .iter()
                    .map(|t| format!("`{}`", t.title))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    Ok(tables)
}

/// Picks the curve axes: `--x`/`--y` by name, else the first two columns
/// that are numeric on every row that has them.
fn pick_axes(data: &TableData, options: &Options) -> Result<Option<(usize, usize)>, String> {
    let by_name = |name: &str| {
        data.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| format!("table `{}` has no column `{name}`", data.title))
    };
    let numeric = |col: usize| {
        let values = data.rows.iter().filter(|row| row[col].1.is_some()).count();
        values >= 2
    };
    let x = match &options.x {
        Some(name) => Some(by_name(name)?),
        None => (0..data.columns.len()).find(|&c| numeric(c)),
    };
    let Some(x) = x else { return Ok(None) };
    let y = match &options.y {
        Some(name) => Some(by_name(name)?),
        None => (x + 1..data.columns.len()).find(|&c| numeric(c)),
    };
    let Some(y) = y else { return Ok(None) };
    Ok(Some((x, y)))
}

/// The (x, y) points of one curve, in row order.
fn points_of(data: &TableData, x: usize, y: usize) -> Vec<(f64, f64)> {
    data.rows
        .iter()
        .filter_map(|row| row[x].1.zip(row[y].1))
        .collect()
}

fn bounds(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut low = f64::INFINITY;
    let mut high = f64::NEG_INFINITY;
    for v in values {
        low = low.min(v);
        high = high.max(v);
    }
    if low == high {
        // A flat series still needs a non-degenerate axis.
        (low - 0.5, high + 0.5)
    } else {
        (low, high)
    }
}

/// Renders the ASCII curve: a bordered grid with `*` marks, y bounds on
/// the left, x bounds underneath.
fn ascii_curve(points: &[(f64, f64)], x_name: &str, y_name: &str, w: usize, h: usize) -> String {
    let (x_lo, x_hi) = bounds(points.iter().map(|p| p.0));
    let (y_lo, y_hi) = bounds(points.iter().map(|p| p.1));
    let mut grid = vec![vec![' '; w]; h];
    for &(x, y) in points {
        let col = ((x - x_lo) / (x_hi - x_lo) * (w - 1) as f64).round() as usize;
        let row = ((y - y_lo) / (y_hi - y_lo) * (h - 1) as f64).round() as usize;
        grid[h - 1 - row][col.min(w - 1)] = '*';
    }
    let label_lo = format!("{y_lo:.4}");
    let label_hi = format!("{y_hi:.4}");
    let gutter = label_lo.len().max(label_hi.len());
    let mut out = String::new();
    out.push_str(&format!("{y_name} vs {x_name} ({} points)\n", points.len()));
    for (index, line) in grid.iter().enumerate() {
        let label = if index == 0 {
            &label_hi
        } else if index == h - 1 {
            &label_lo
        } else {
            ""
        };
        out.push_str(&format!(
            "{label:>gutter$} |{}|\n",
            line.iter().collect::<String>()
        ));
    }
    out.push_str(&format!(
        "{:>gutter$} +{}+\n{:>gutter$}  {:<width$}{:>right$}\n",
        "",
        "-".repeat(w),
        "",
        format!("{x_lo:.4}"),
        format!("{x_hi:.4}"),
        width = w / 2,
        right = w - w / 2,
    ));
    out
}

/// Renders one SVG curve: axes, polyline, point markers, labels.
fn svg_curve(points: &[(f64, f64)], title: &str, x_name: &str, y_name: &str) -> String {
    const W: f64 = 640.0;
    const H: f64 = 400.0;
    const M: f64 = 48.0; // margin
    let (x_lo, x_hi) = bounds(points.iter().map(|p| p.0));
    let (y_lo, y_hi) = bounds(points.iter().map(|p| p.1));
    let sx = |x: f64| M + (x - x_lo) / (x_hi - x_lo) * (W - 2.0 * M);
    let sy = |y: f64| H - M - (y - y_lo) / (y_hi - y_lo) * (H - 2.0 * M);
    let escape = |text: &str| {
        text.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
    };
    let polyline: Vec<String> = points
        .iter()
        .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
        .collect();
    let markers: String = points
        .iter()
        .map(|&(x, y)| {
            format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"#1f6f8b\"/>",
                sx(x),
                sy(y)
            )
        })
        .collect();
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"monospace\" font-size=\"12\">\n\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n\
         <text x=\"{M}\" y=\"20\" font-size=\"14\">{}</text>\n\
         <line x1=\"{M}\" y1=\"{ax}\" x2=\"{bx}\" y2=\"{ax}\" stroke=\"black\"/>\n\
         <line x1=\"{M}\" y1=\"{M}\" x2=\"{M}\" y2=\"{ax}\" stroke=\"black\"/>\n\
         <text x=\"{M}\" y=\"{lx}\">{x_lo:.4}</text>\n\
         <text x=\"{bx}\" y=\"{lx}\" text-anchor=\"end\">{x_hi:.4}</text>\n\
         <text x=\"{ty}\" y=\"{ay}\" transform=\"rotate(-90 {ty} {ay})\">{}</text>\n\
         <text x=\"{cx}\" y=\"{lx2}\" text-anchor=\"middle\">{}</text>\n\
         <text x=\"{m4}\" y=\"{ya}\" text-anchor=\"end\">{y_hi:.4}</text>\n\
         <text x=\"{m4}\" y=\"{ax}\" text-anchor=\"end\">{y_lo:.4}</text>\n\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#1f6f8b\" stroke-width=\"1.5\"/>\n\
         {markers}\n</svg>\n",
        escape(title),
        escape(y_name),
        escape(x_name),
        polyline.join(" "),
        ax = H - M,
        bx = W - M,
        lx = H - M + 16.0,
        lx2 = H - M + 32.0,
        ty = 14.0,
        ay = H / 2.0,
        cx = W / 2.0,
        m4 = M - 4.0,
        ya = M + 4.0,
    )
}

/// One routing record of a metrics sidecar, reduced to its per-stage
/// exit-wire utilization (grants per wire per cycle).
struct HeatRow {
    label: String,
    utilization: Vec<f64>,
}

/// Reads every `{"kind": "routing"}` record of a metrics sidecar into
/// heatmap rows; other record kinds (`run`, `table`) are skipped.
fn load_heatmap(path: &PathBuf) -> Result<Vec<HeatRow>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("{}: {error}", path.display()))?;
    let mut rows = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let record = json::parse(line).map_err(|error| format!("line {}: {error}", index + 1))?;
        if record.get("kind").and_then(|v| v.as_str()) != Some("routing") {
            continue;
        }
        let field = |name: &str| {
            record
                .get(name)
                .ok_or_else(|| format!("line {}: routing record has no `{name}`", index + 1))
        };
        let label = field("label")?
            .as_str()
            .ok_or_else(|| format!("line {}: `label` is not a string", index + 1))?
            .to_string();
        let cycles = field("cycles")?
            .as_f64()
            .ok_or_else(|| format!("line {}: `cycles` is not a number", index + 1))?;
        let stages = field("stages")?
            .as_array()
            .ok_or_else(|| format!("line {}: `stages` is not an array", index + 1))?;
        let utilization = stages
            .iter()
            .map(|stage| {
                let number = |name: &str| {
                    stage.get(name).and_then(|v| v.as_f64()).ok_or_else(|| {
                        format!("line {}: stage entry has no numeric `{name}`", index + 1)
                    })
                };
                let (granted, wires) = (number("granted")?, number("wires")?);
                if cycles <= 0.0 || wires <= 0.0 {
                    Ok(0.0)
                } else {
                    Ok(granted / (cycles * wires))
                }
            })
            .collect::<Result<Vec<f64>, String>>()?;
        rows.push(HeatRow { label, utilization });
    }
    if rows.is_empty() {
        return Err(format!(
            "{}: no routing records (is this a *.metrics.jsonl sidecar \
             from an experiment that recorded probe snapshots?)",
            path.display()
        ));
    }
    Ok(rows)
}

/// The shade ramp: utilization 0 to 1, dark to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

fn shade(value: f64) -> char {
    let index = (value.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[index] as char
}

/// Renders the ASCII heatmap: one row per routing record, one 4-wide
/// shaded cell per stage (crossbar last), values printed underneath.
fn ascii_heatmap(rows: &[HeatRow]) -> String {
    let gutter = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    let stages = rows.iter().map(|r| r.utilization.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str("stage utilization: exit-wire grants / (cycles x wires)\n\n");
    out.push_str(&format!("{:>gutter$} ", ""));
    for stage in 1..=stages {
        out.push_str(&format!(" s{stage:<3}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:>gutter$} ", row.label));
        for &value in &row.utilization {
            out.push_str(&format!(" {}", shade(value).to_string().repeat(4)));
        }
        out.push('\n');
        out.push_str(&format!("{:>gutter$} ", ""));
        for &value in &row.utilization {
            out.push_str(&format!(" {value:.2}"));
        }
        out.push('\n');
    }
    out.push_str("\nscale:");
    for (index, &byte) in RAMP.iter().enumerate() {
        out.push_str(&format!(
            " '{}'={:.1}",
            byte as char,
            index as f64 / (RAMP.len() - 1) as f64
        ));
    }
    out.push('\n');
    out
}

/// Renders the SVG heatmap: a labeled grid of cells, white (idle) to
/// deep blue (saturated), each carrying its value.
fn svg_heatmap(rows: &[HeatRow], title: &str) -> String {
    const CELL: f64 = 56.0;
    const ROW_H: f64 = 36.0;
    const TOP: f64 = 56.0;
    let gutter = 16.0 + 7.2 * rows.iter().map(|r| r.label.len()).max().unwrap_or(0) as f64;
    let stages = rows.iter().map(|r| r.utilization.len()).max().unwrap_or(0);
    let width = gutter + CELL * stages as f64 + 16.0;
    let height = TOP + ROW_H * rows.len() as f64 + 16.0;
    let escape = |text: &str| {
        text.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
    };
    let mut body = String::new();
    for stage in 0..stages {
        body.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">s{}</text>\n",
            gutter + CELL * (stage as f64 + 0.5),
            TOP - 8.0,
            stage + 1
        ));
    }
    for (index, row) in rows.iter().enumerate() {
        let y = TOP + ROW_H * index as f64;
        body.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            gutter - 6.0,
            y + ROW_H / 2.0 + 4.0,
            escape(&row.label)
        ));
        for (stage, &value) in row.utilization.iter().enumerate() {
            let v = value.clamp(0.0, 1.0);
            // White at 0 to the workspace's plot blue (#1f6f8b) at 1.
            // edn-lint: allow(cast-audit) -- v is clamped to [0,1], so the value is in [0,255]
            let channel = |full: u8| (255.0 - (255.0 - f64::from(full)) * v).round() as u8;
            let (red, green, blue) = (channel(0x1f), channel(0x6f), channel(0x8b));
            let x = gutter + CELL * stage as f64;
            body.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{CELL}\" height=\"{ROW_H}\" \
                 fill=\"rgb({red},{green},{blue})\" stroke=\"white\"/>\n\
                 <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" fill=\"{}\">{v:.2}</text>\n",
                x + CELL / 2.0,
                y + ROW_H / 2.0 + 4.0,
                if v > 0.55 { "white" } else { "black" },
            ));
        }
    }
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"monospace\" font-size=\"12\">\n\
         <rect width=\"{width:.0}\" height=\"{height:.0}\" fill=\"white\"/>\n\
         <text x=\"16\" y=\"24\" font-size=\"14\">{}</text>\n{body}</svg>\n",
        escape(title),
    )
}

/// A filesystem-safe slug of a table title.
fn slug(title: &str) -> String {
    let mut out: String = title
        .chars()
        .map(|ch| if ch.is_ascii_alphanumeric() { ch } else { '_' })
        .collect();
    out.truncate(60);
    out
}

fn main() {
    let options = match parse_options() {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("edn_plot: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if options.heatmap {
        let rows = match load_heatmap(&options.artifact) {
            Ok(rows) => rows,
            Err(message) => {
                eprintln!("edn_plot: {message}");
                std::process::exit(1);
            }
        };
        print!("{}", ascii_heatmap(&rows));
        if let Some(dir) = &options.svg {
            if let Err(error) = std::fs::create_dir_all(dir) {
                eprintln!("edn_plot: creating {}: {error}", dir.display());
                std::process::exit(1);
            }
            let title = format!("stage utilization — {}", options.artifact.display());
            let path = dir.join("stage_utilization.svg");
            if let Err(error) = std::fs::write(&path, svg_heatmap(&rows, &title)) {
                eprintln!("edn_plot: writing {}: {error}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
        return;
    }
    let tables = match load(&options) {
        Ok(tables) => tables,
        Err(message) => {
            eprintln!("edn_plot: {message}");
            std::process::exit(1);
        }
    };
    if let Some(dir) = &options.svg {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("edn_plot: creating {}: {error}", dir.display());
            std::process::exit(1);
        }
    }
    // Distinct tables must never overwrite each other's SVG, even when
    // their titles collapse to one slug (punctuation-only differences,
    // or divergence past the slug length).
    let mut used_slugs = std::collections::HashMap::new();
    for data in &tables {
        // The text table, rebuilt from the artifact alone.
        let column_refs: Vec<&str> = data.columns.iter().map(String::as_str).collect();
        let mut table = Table::new(&data.title, &column_refs);
        for row in &data.rows {
            table.row(row.iter().map(|(text, _)| text.clone()).collect());
        }
        table.print();
        if !options.curve {
            continue;
        }
        let axes = match pick_axes(data, &options) {
            Ok(axes) => axes,
            Err(message) => {
                eprintln!("edn_plot: {message}");
                std::process::exit(1);
            }
        };
        let Some((x, y)) = axes else {
            println!("(no two numeric columns to plot)\n");
            continue;
        };
        let points = points_of(data, x, y);
        if points.len() < 2 {
            println!("(fewer than two plottable points)\n");
            continue;
        }
        print!(
            "{}",
            ascii_curve(
                &points,
                &data.columns[x],
                &data.columns[y],
                options.width,
                options.height
            )
        );
        println!();
        if let Some(dir) = &options.svg {
            let base = slug(&data.title);
            let copies = used_slugs.entry(base.clone()).or_insert(0usize);
            *copies += 1;
            let name = if *copies == 1 {
                format!("{base}.svg")
            } else {
                format!("{base}_{copies}.svg")
            };
            let path = dir.join(name);
            let svg = svg_curve(&points, &data.title, &data.columns[x], &data.columns[y]);
            if let Err(error) = std::fs::write(&path, svg) {
                eprintln!("edn_plot: writing {}: {error}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
}
