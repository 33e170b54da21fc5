//! `Store::table` loads in linear time: a log of 4× the rows takes about
//! 4× as long to load. A quadratic step (the strict JSON parser once
//! re-validated UTF-8 per character, 204 s on 4.3 MB) would read ~16×.

use edn_store::Store;
use std::time::{Duration, Instant};

/// A cache whose table `key` holds `rows` rows of seven short cells,
/// shaped like a sweep's PA samples.
fn store_with(rows: usize, tag: &str) -> (Store, u64) {
    let dir = std::env::temp_dir()
        .join("edn_store_linear_time")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(dir).unwrap();
    let key = 0x11AE;
    let mut table = store.table(key).unwrap();
    for row in 0..rows {
        let cells = [
            "EDN(8,4,2,2)".to_string(),
            "0.75".to_string(),
            (1_000_000 + row).to_string(),
            "128".to_string(),
            (row % 97).to_string(),
            format!("{:.6}", row as f64 / 7.0),
            "0.627451".to_string(),
        ];
        table.commit(row, &cells).unwrap();
    }
    (store, key)
}

/// The fastest of several loads (the least host noise), checking that
/// every row loaded.
fn load_time(store: &Store, key: u64, rows: usize) -> Duration {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let table = store.table(key).unwrap();
            let elapsed = started.elapsed();
            assert_eq!(table.len(), rows);
            assert_eq!(table.corrupt(), 0);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn table_load_time_is_linear_in_rows() {
    let (small, key) = store_with(4_000, "small");
    let (large, _) = store_with(16_000, "large");
    let ratio =
        load_time(&large, key, 16_000).as_secs_f64() / load_time(&small, key, 4_000).as_secs_f64();
    assert!(
        (2.0..8.0).contains(&ratio),
        "4x the rows took {ratio:.2}x as long to load (linear is ~4x)"
    );
    for store in [small, large] {
        std::fs::remove_dir_all(store.root()).ok();
    }
}
