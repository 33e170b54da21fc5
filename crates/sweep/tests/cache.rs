//! Cache-correctness properties (vendored proptest): for arbitrary
//! two-table grids, thread counts, shard splits, and grid extensions,
//!
//! * a **cold** run and a **warm** run write byte-identical artifacts,
//!   the warm one measuring nothing;
//! * an **extended-grid** run restricted to the old cells is
//!   byte-identical to the cold run's old cells, measuring only the new
//!   ones — including the second table, whose *global* seqs shift but
//!   whose rows replay (the cache keys on in-table indices);
//! * a cache warmed by **shard** runs serves the full run (the
//!   orchestrator's contract at the library level);
//! * a truncated or doctored cache log — payload, index, or a byte that
//!   is not UTF-8 — is recomputed, never trusted;
//! * awkward cells (tabs, newlines, backslashes, quotes, non-ASCII, empty,
//!   non-finite and exponent numbers) replay byte-identically through any
//!   mix of hits and misses, at one or two threads and under `--shard`,
//!   and the `Table` built from replayed rows renders as the fresh one.

use edn_store::Store;
use edn_sweep::{json, row_cache_key, CacheStats, SweepArgs, Table};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("edn_sweep_cache_props")
        .join(format!(
            "{tag}_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic toy cells of `(table, in-table row)` — stand-ins
/// for a real measurement, expensive only in principle.
fn alpha_cells(row: usize) -> Vec<String> {
    vec![
        row.to_string(),
        format!("{:.3}", (row * 31 % 7) as f64 / 8.0),
    ]
}

fn beta_cells(row: usize) -> Vec<String> {
    vec![format!("label{row}"), (row * 2).to_string()]
}

/// One run of the synthetic two-table experiment: `alpha_rows` rows of
/// `alpha`, then 3 rows of `beta`. Returns the artifact text, the
/// measured (table, row) pairs in order, and the cache stats.
fn run(
    dir: &Path,
    tag: &str,
    alpha_rows: usize,
    threads: usize,
    shard: Option<&str>,
    cached: bool,
) -> (String, Vec<(char, usize)>, CacheStats) {
    let out = dir.join(format!("{tag}.jsonl"));
    let mut flags = vec![
        "--threads".to_string(),
        threads.to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ];
    if cached {
        flags.extend([
            "--cache".to_string(),
            dir.join("cache").display().to_string(),
        ]);
    }
    if let Some(shard) = shard {
        flags.extend(["--shard".to_string(), shard.to_string()]);
    }
    let args = SweepArgs::from_flags("cache_prop_bin", 4, flags)
        .unwrap()
        .unwrap();
    let mut alpha = Table::new("alpha", &["row", "value"]);
    let mut beta = Table::new("beta", &["name", "double"]);
    let measured = Mutex::new(Vec::new());
    let mut emit = args.plan_emit(&[(&alpha, alpha_rows), (&beta, 3)]);
    emit.run_rows(
        &mut alpha,
        || (),
        |(), row| {
            measured.lock().unwrap().push(('a', row));
            alpha_cells(row)
        },
    );
    emit.run_rows(
        &mut beta,
        || (),
        |(), row| {
            measured.lock().unwrap().push(('b', row));
            beta_cells(row)
        },
    );
    let stats = emit.cache_stats();
    emit.finish();
    let mut measured = measured.into_inner().unwrap();
    measured.sort_unstable();
    (std::fs::read_to_string(&out).unwrap(), measured, stats)
}

proptest! {
    #[test]
    fn cold_warm_and_extended_runs_agree_byte_for_byte(
        alpha_rows in 1usize..10,
        extension in 0usize..5,
        threads in 1usize..4,
    ) {
        let dir = temp_dir("cwe");
        let total = alpha_rows + 3;

        // Cold: everything measured, everything committed.
        let (cold, cold_measured, cold_stats) = run(&dir, "cold", alpha_rows, threads, None, true);
        prop_assert_eq!(cold_measured.len(), total);
        prop_assert_eq!(cold_stats.computed, total);
        prop_assert_eq!(cold_stats.committed, total);
        prop_assert_eq!(cold_stats.hits, 0);

        // Warm: nothing measured, artifact byte-identical.
        let (warm, warm_measured, warm_stats) = run(&dir, "warm", alpha_rows, threads, None, true);
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!(warm_measured.len(), 0);
        prop_assert_eq!(warm_stats.hits, total);
        prop_assert_eq!(warm_stats.computed, 0);

        // Uncached reference: the cache changes nothing but the work.
        let (reference, reference_measured, reference_stats) =
            run(&dir, "reference", alpha_rows, threads, None, false);
        prop_assert_eq!(&reference, &cold);
        prop_assert_eq!(reference_measured.len(), total);
        prop_assert_eq!(reference_stats, CacheStats::default());

        // Extended grid: only the new alpha cells are measured; the old
        // alpha rows are byte-identical, and beta replays fully even
        // though its *global* seqs shifted by `extension`.
        let (extended, extended_measured, extended_stats) =
            run(&dir, "extended", alpha_rows + extension, threads, None, true);
        let new_cells: Vec<(char, usize)> =
            (alpha_rows..alpha_rows + extension).map(|r| ('a', r)).collect();
        prop_assert_eq!(extended_measured, new_cells);
        prop_assert_eq!(extended_stats.hits, total);
        prop_assert_eq!(extended_stats.computed, extension);
        let cold_alpha: Vec<&str> = cold.lines().skip(1).take(alpha_rows).collect();
        let extended_alpha: Vec<&str> = extended.lines().skip(1).take(alpha_rows).collect();
        prop_assert_eq!(extended_alpha, cold_alpha, "old cells byte-identical");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_warmed_cache_serves_the_full_run(
        alpha_rows in 1usize..10,
        shards in 2usize..5,
        threads in 1usize..3,
    ) {
        let dir = temp_dir("shards");
        // The reference comes from an uncached unsharded run.
        let (reference, ..) = run(&dir, "reference", alpha_rows, threads, None, false);
        // Warm the cache shard by shard (what edn_orchestrate does with
        // processes), asserting the slices partition the measurements.
        let mut measured_total = 0;
        for index in 1..=shards {
            let coordinate = format!("{index}/{shards}");
            let (_, measured, stats) =
                run(&dir, &format!("part{index}"), alpha_rows, threads, Some(&coordinate), true);
            prop_assert_eq!(measured.len(), stats.computed);
            measured_total += measured.len();
        }
        prop_assert_eq!(measured_total, alpha_rows + 3, "shards partition the grid");
        // The full run is then pure replay and byte-identical.
        let (full, full_measured, full_stats) = run(&dir, "full", alpha_rows, threads, None, true);
        prop_assert_eq!(&full, &reference);
        prop_assert_eq!(full_measured.len(), 0);
        prop_assert_eq!(full_stats.hits, alpha_rows + 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn truncated_cache_logs_recompute_instead_of_trusting() {
    let dir = temp_dir("truncate");
    let (cold, ..) = run(&dir, "cold", 5, 2, None, true);
    // Truncate every log mid-line: the damaged tail entries must be
    // recomputed, and the artifact must come out identical anyway.
    let cache = dir.join("cache");
    let mut truncated = 0;
    for table_dir in std::fs::read_dir(&cache).unwrap() {
        for log in std::fs::read_dir(table_dir.unwrap().path()).unwrap() {
            let log = log.unwrap().path();
            let text = std::fs::read_to_string(&log).unwrap();
            std::fs::write(&log, &text[..text.len() - 3]).unwrap();
            truncated += 1;
        }
    }
    assert!(truncated >= 2, "both tables have logs");
    let (warm, warm_measured, warm_stats) = run(&dir, "warm", 5, 2, None, true);
    assert_eq!(warm, cold, "artifact identical despite damaged cache");
    assert!(!warm_measured.is_empty(), "damaged entries recomputed");
    assert!(warm_stats.corrupt > 0, "corruption counted");
    assert!(warm_stats.hits > 0, "undamaged entries still replay");
    // Third run: the recommitted rows replay again, fully warm.
    let (again, again_measured, _) = run(&dir, "again", 5, 2, None, true);
    assert_eq!(again, cold);
    assert!(again_measured.is_empty(), "recommit healed the cache");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctored_payloads_fail_their_hash_and_recompute() {
    let dir = temp_dir("doctor");
    let (cold, ..) = run(&dir, "cold", 4, 1, None, true);
    let cache = dir.join("cache");
    // Flip one alpha payload ("0.000" for row 0 value) without fixing
    // its recorded hash.
    let mut doctored = 0;
    for table_dir in std::fs::read_dir(&cache).unwrap() {
        for log in std::fs::read_dir(table_dir.unwrap().path()).unwrap() {
            let log = log.unwrap().path();
            let text = std::fs::read_to_string(&log).unwrap();
            let swapped = text.replacen("0\t0.000", "0\t9.999", 1);
            if swapped != text {
                std::fs::write(&log, swapped).unwrap();
                doctored += 1;
            }
        }
    }
    assert_eq!(doctored, 1, "exactly the targeted entry doctored");
    let (warm, warm_measured, warm_stats) = run(&dir, "warm", 4, 1, None, true);
    assert_eq!(warm, cold, "doctored cells never reach the artifact");
    assert_eq!(
        warm_measured,
        vec![('a', 0)],
        "only the doctored row recomputes"
    );
    assert_eq!(warm_stats.corrupt, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctored_indices_fail_their_hash_and_recompute() {
    let dir = temp_dir("doctor_index");
    let (cold, ..) = run(&dir, "cold", 4, 1, None, true);
    let cache = dir.join("cache");
    // Relabel alpha row 3's line as row 2, payload and hash untouched. It
    // sits after row 2's honest line, so if it were trusted it would win
    // ("last commit wins") and replay row 3's cells at row 2.
    let mut doctored = 0;
    for table_dir in std::fs::read_dir(&cache).unwrap() {
        for log in std::fs::read_dir(table_dir.unwrap().path()).unwrap() {
            let log = log.unwrap().path();
            let text = std::fs::read_to_string(&log).unwrap();
            let relabeled: Vec<String> = text
                .lines()
                .map(|line| match line.strip_prefix("3 ") {
                    Some(rest) if rest.ends_with(" 3\t0.250") => format!("2 {rest}"),
                    _ => line.to_string(),
                })
                .collect();
            let swapped = relabeled.join("\n") + "\n";
            if swapped != text {
                std::fs::write(&log, swapped).unwrap();
                doctored += 1;
            }
        }
    }
    assert_eq!(doctored, 1, "exactly the targeted entry doctored");
    let (warm, warm_measured, warm_stats) = run(&dir, "warm", 4, 1, None, true);
    assert_eq!(warm, cold, "a relabeled row never reaches the artifact");
    assert_eq!(
        warm_measured,
        vec![('a', 3)],
        "only the relabeled row recomputes"
    );
    assert_eq!(warm_stats.corrupt, 1);
    std::fs::remove_dir_all(&dir).ok();
}

const AWKWARD_BINARY: &str = "cache_awkward_bin";
const AWKWARD_TITLE: &str = "awkward \"title\"\twith é";
const AWKWARD_HEADERS: [&str; 4] = ["row", "tab\theader", "quo\"te", "é"];

/// Cells that stress every escaping layer: the row log's backslash
/// escapes, the JSON string escapes, the JSON number / `null` typing, and
/// CSV quoting.
const AWKWARD: [&str; 19] = [
    "tab\there",
    "line\nbreak",
    "cr\rcell",
    "back\\slash",
    "\\t literal",
    "say \"hi\"",
    "é ∆ 0.5",
    "日本",
    "",
    "NaN",
    "-inf",
    "inf",
    "1e-3",
    "-4.0E-2",
    "2.5e10",
    "007",
    "ctrl\u{1}char",
    "EDN(16,4,4,2)",
    "a,b",
];

/// Row `row`'s cells under `salt`; the last cell always holds a
/// multi-byte character, so every log line has one to tear.
fn awkward_cells(row: usize, salt: usize) -> Vec<String> {
    let pick = |col: usize| AWKWARD[(row * 7 + col * 5 + salt) % AWKWARD.len()];
    vec![
        row.to_string(),
        pick(1).to_string(),
        format!("{}{}", pick(2), pick(3)),
        format!("{}·{row}", pick(4)),
    ]
}

/// What one awkward-table run leaves behind.
struct AwkwardRun {
    artifact: String,
    measured: Vec<usize>,
    stats: CacheStats,
    render: String,
    csv: String,
}

fn awkward_args(
    out: &Path,
    cache: Option<&Path>,
    threads: usize,
    shard: Option<&str>,
) -> SweepArgs {
    let mut flags = vec![
        "--threads".to_string(),
        threads.to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ];
    if let Some(cache) = cache {
        flags.extend(["--cache".to_string(), cache.display().to_string()]);
    }
    if let Some(shard) = shard {
        flags.extend(["--shard".to_string(), shard.to_string()]);
    }
    SweepArgs::from_flags(AWKWARD_BINARY, 4, flags)
        .unwrap()
        .unwrap()
}

/// One run of the awkward table through `run_table`; the replay closure
/// checks it sees exactly the cells a fresh measurement would produce.
fn run_awkward(
    dir: &Path,
    tag: &str,
    rows: usize,
    threads: usize,
    shard: Option<&str>,
    cached: bool,
    salt: usize,
) -> AwkwardRun {
    let out = dir.join(format!("{tag}.jsonl"));
    let cache = dir.join("cache");
    let args = awkward_args(&out, cached.then_some(cache.as_path()), threads, shard);
    let mut table = Table::new(AWKWARD_TITLE, &AWKWARD_HEADERS);
    let measured = Mutex::new(Vec::new());
    let mut emit = args.plan_emit(&[(&table, rows)]);
    let aux = emit.run_table(
        &mut table,
        || (),
        |(), row| {
            measured.lock().unwrap().push(row);
            (awkward_cells(row, salt), row)
        },
        |cells, row| {
            assert_eq!(
                cells,
                awkward_cells(row, salt),
                "replayed cells of row {row}"
            );
            row
        },
    );
    let stats = emit.cache_stats();
    emit.finish();
    let slice = edn_sweep::shard_range(rows, args.shard);
    assert_eq!(aux, slice.collect::<Vec<_>>(), "aux values in row order");
    let mut measured = measured.into_inner().unwrap();
    measured.sort_unstable();
    AwkwardRun {
        artifact: std::fs::read_to_string(&out).unwrap(),
        measured,
        stats,
        render: table.render(),
        csv: table.to_csv(),
    }
}

/// Commits the rows `hit` selects straight into the cache, as an earlier
/// run would have.
fn prewarm(dir: &Path, rows: usize, salt: usize, hit: impl Fn(usize) -> bool) -> Vec<usize> {
    let args = awkward_args(&dir.join("unused.jsonl"), None, 1, None);
    let headers: Vec<String> = AWKWARD_HEADERS.iter().map(|h| h.to_string()).collect();
    let key = row_cache_key(
        AWKWARD_BINARY,
        args.seeds,
        args.cycles,
        AWKWARD_TITLE,
        &headers,
    );
    let mut table = Store::open(dir.join("cache")).unwrap().table(key).unwrap();
    let mut misses = Vec::new();
    for row in 0..rows {
        if hit(row) {
            table.commit(row, &awkward_cells(row, salt)).unwrap();
        } else {
            misses.push(row);
        }
    }
    misses
}

proptest! {
    #[test]
    fn awkward_cells_replay_byte_for_byte_through_any_hit_pattern(
        rows in 1usize..30,
        hits in proptest::collection::vec(any::<bool>(), 1..12),
        extension in 0usize..4,
        salt in 0usize..19,
        threads in 1usize..3,
        shards in 2usize..4,
    ) {
        let dir = temp_dir("awkward");
        let reference = run_awkward(&dir, "reference", rows, threads, None, false, salt);
        for line in reference.artifact.lines() {
            prop_assert!(json::parse(line).is_ok(), "artifact line is not JSON: {}", line);
        }

        // Mixed: replayed blocks with fresh rows between them.
        let misses = prewarm(&dir, rows, salt, |row| hits[row % hits.len()]);
        let mixed = run_awkward(&dir, "mixed", rows, threads, None, true, salt);
        prop_assert_eq!(&mixed.artifact, &reference.artifact);
        prop_assert_eq!(&mixed.render, &reference.render);
        prop_assert_eq!(&mixed.csv, &reference.csv);
        prop_assert_eq!(&mixed.measured, &misses);
        prop_assert_eq!(mixed.stats.hits, rows - misses.len());

        // Warm: pure replay.
        let warm = run_awkward(&dir, "warm", rows, threads, None, true, salt);
        prop_assert_eq!(&warm.artifact, &reference.artifact);
        prop_assert_eq!(&warm.render, &reference.render);
        prop_assert_eq!(&warm.csv, &reference.csv);
        prop_assert!(warm.measured.is_empty());

        // Extended: the old rows replay, only the appended ones compute.
        let total = rows + extension;
        let extended_reference = run_awkward(&dir, "ext_reference", total, threads, None, false, salt);
        let extended = run_awkward(&dir, "extended", total, threads, None, true, salt);
        prop_assert_eq!(&extended.artifact, &extended_reference.artifact);
        prop_assert_eq!(&extended.render, &extended_reference.render);
        prop_assert_eq!(&extended.csv, &extended_reference.csv);
        prop_assert_eq!(extended.measured, (rows..total).collect::<Vec<_>>());

        // Shards of the now fully warm table replay their slices.
        for index in 1..=shards {
            let coordinate = format!("{index}/{shards}");
            let tag = format!("part{index}");
            let fresh = run_awkward(&dir, &tag, total, threads, Some(&coordinate), false, salt);
            let replayed = run_awkward(&dir, &tag, total, threads, Some(&coordinate), true, salt);
            prop_assert_eq!(&replayed.artifact, &fresh.artifact);
            prop_assert_eq!(&replayed.render, &fresh.render);
            prop_assert_eq!(&replayed.csv, &fresh.csv);
            prop_assert!(replayed.measured.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn bad_bytes_in_a_log_recompute_only_their_rows() {
    let dir = temp_dir("bad_bytes");
    let cold = run_awkward(&dir, "cold", 6, 1, None, true, 0);
    let table_dir = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let log = std::fs::read_dir(table_dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&log).unwrap();
    let starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .map(|(at, _)| at + 1),
        )
        .collect();
    // One serial run commits rows in order, one line each. Row 2: an
    // invalid byte mid-log (the lead byte of a multi-byte character
    // becomes 0xFF). Row 5: the write tore inside a multi-byte character.
    let lead = |start: usize| start + bytes[start..].iter().position(|&b| b >= 0xC0).unwrap();
    let (invalid, torn) = (lead(starts[2]), lead(starts[5]) + 1);
    bytes[invalid] = 0xFF;
    bytes.truncate(torn);
    std::fs::write(&log, &bytes).unwrap();

    let warm = run_awkward(&dir, "warm", 6, 1, None, true, 0);
    assert_eq!(warm.artifact, cold.artifact, "damaged rows never replay");
    assert_eq!(warm.measured, vec![2, 5], "only the damaged rows recompute");
    assert_eq!(warm.stats.hits, 4, "the other rows still replay");
    assert_eq!(warm.stats.corrupt, 2);
    std::fs::remove_dir_all(&dir).ok();
}
