//! A warm replay stays cheap in heap allocations: with a counting global
//! allocator, replaying `N` cached rows through `Emission::run_table` —
//! loading the row cache, rendering and writing the artifact, rebuilding
//! each row's aux value and moving the row into the `Table` — costs at
//! most [`MAX_ALLOCS_PER_ROW`] allocations per row. The measured figure
//! is ~2: each loaded row's text and its cell boundaries, plus the
//! amortized growth of the map and vectors holding them. The replay path
//! before the compact rows cost 55 (one `String` per cell for the
//! cache copy, the rendered line and every escaped JSON fragment).
//!
//! The cost is taken as the difference between a replay of `4N` and of
//! `N` rows, so fixed per-run costs (flags, files, the header) cancel.
//! This file deliberately holds a single `#[test]` so nothing else runs
//! concurrently against the global allocation counter.

// edn-lint: allow-file(unsafe-containment) -- the counting GlobalAlloc that enforces the allocation budget requires unsafe impls
use edn_sweep::{SweepArgs, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocation budget per replayed row.
const MAX_ALLOCS_PER_ROW: f64 = 3.0;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocating entry point.
struct CountingAllocator;

// SAFETY: defers all allocation to `System`, only adding a relaxed
// counter bump; layout contracts are passed through unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Seven cells shaped like a PA sample row.
fn cells(row: usize) -> Vec<String> {
    vec![
        "EDN(8,4,2,2)".to_string(),
        "0.75".to_string(),
        (1_000_000 + row).to_string(),
        "128".to_string(),
        (row % 97).to_string(),
        format!("{:.6}", row as f64 / 7.0),
        "0.627451".to_string(),
    ]
}

/// One run of a `rows`-row table against the cache `dir/cache_<rows>`;
/// returns the allocations made from parsing the flags to finishing the
/// artifact.
fn run(dir: &Path, rows: usize, tag: &str) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let flags = [
        "--threads".to_string(),
        "1".to_string(),
        "--out".to_string(),
        dir.join(format!("{tag}.jsonl")).display().to_string(),
        "--cache".to_string(),
        dir.join(format!("cache_{rows}")).display().to_string(),
    ];
    let args = SweepArgs::from_flags("replay_allocs_bin", 1, flags)
        .unwrap()
        .unwrap();
    let mut table = Table::new("replay", &["network", "r", "seed", "a", "b", "pa", "eq4"]);
    let mut emit = args.plan_emit(&[(&table, rows)]);
    let sum: usize = emit
        .run_table(
            &mut table,
            || (),
            |(), row| (cells(row), row),
            |cells, _| cells[4].parse::<usize>().unwrap(),
        )
        .into_iter()
        .sum();
    std::hint::black_box(sum);
    assert_eq!(table.len(), rows);
    emit.finish();
    drop(table);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_replay_allocations_per_row_are_bounded() {
    let dir = std::env::temp_dir()
        .join("edn_sweep_replay_allocs")
        .join(std::process::id().to_string());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (small, large) = (1_000, 4_000);
    // Cold runs measure and commit every row, one cache per size, so
    // each warm run loads exactly the rows it replays.
    for rows in [small, large] {
        run(&dir, rows, &format!("cold_{rows}"));
    }
    let warm_small = run(&dir, small, "warm_small");
    let warm_large = run(&dir, large, "warm_large");
    let per_row = (warm_large - warm_small) as f64 / (large - small) as f64;
    eprintln!("warm replay: {per_row:.2} allocations per row");
    assert!(
        per_row <= MAX_ALLOCS_PER_ROW,
        "warm replay made {per_row:.2} allocations per row (budget {MAX_ALLOCS_PER_ROW})"
    );
    std::fs::remove_dir_all(&dir).ok();
}
