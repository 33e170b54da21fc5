//! Fixture-driven self-test: every rule has positive fixtures (each
//! expected finding marked in-line) and negative fixtures (asserted
//! clean), and the engine's findings must match the markers *exactly* —
//! same file, same line, same rule, same multiplicity.
//!
//! Marker grammar, inside any fixture line:
//!
//! * `//~ rule [rule ...]` — expect those findings on this line;
//! * `//~^ rule [rule ...]` — expect them on the previous line (for
//!   findings on lines that are themselves lint directives).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use edn_lint::check_source;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Parses `//~`/`//~^` markers into (line, rule-name) expectations.
fn expected_findings(source: &str) -> Vec<(usize, String)> {
    let mut expected = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let Some(at) = line.find("//~") else {
            continue;
        };
        let rest = &line[at + 3..];
        let (target, names) = match rest.strip_prefix('^') {
            Some(names) => (line_no - 1, names),
            None => (line_no, rest),
        };
        for name in names.split_whitespace() {
            expected.push((target, name.to_string()));
        }
    }
    expected.sort();
    expected
}

#[test]
fn every_fixture_flags_exactly_its_markers() {
    let root = fixtures_root();
    let mut files = Vec::new();
    rs_files(&root, &mut files);
    assert!(
        files.len() >= 14,
        "fixture tree looks truncated: {} files",
        files.len()
    );

    let mut checked_groups: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for file in &files {
        let relative = file.strip_prefix(&root).unwrap();
        let mut parts = relative
            .components()
            .map(|c| c.as_os_str().to_string_lossy());
        let group = parts.next().unwrap().into_owned();
        // The virtual path (what scopes the rules) is the path inside
        // the group directory, e.g. `bad/crates/core/src/hash_order.rs`.
        let virtual_path: Vec<String> = parts.map(|p| p.into_owned()).collect();
        let virtual_path = virtual_path.join("/");

        let source = std::fs::read_to_string(file).unwrap();
        let expected = expected_findings(&source);
        let mut actual: Vec<(usize, String)> = check_source(&virtual_path, &source)
            .into_iter()
            .map(|f| (f.line, f.rule.name().to_string()))
            .collect();
        actual.sort();
        assert_eq!(
            actual,
            expected,
            "fixture {} (virtual path {virtual_path}) disagrees with its markers",
            relative.display()
        );

        let entry = checked_groups.entry(group).or_insert((0, 0));
        if expected.is_empty() {
            entry.1 += 1; // negative fixture
        } else {
            entry.0 += 1; // positive fixture
        }
    }

    // Every rule group ships at least one positive and one negative
    // fixture — the acceptance criterion, enforced here so a deleted
    // fixture cannot silently weaken the suite.
    for group in [
        "determinism",
        "hot_path",
        "cast_audit",
        "unsafe_containment",
        "suppression",
    ] {
        let (positive, negative) = checked_groups
            .get(group)
            .unwrap_or_else(|| panic!("missing fixture group {group}"));
        assert!(
            *positive >= 1 && *negative >= 1,
            "group {group} needs >=1 positive and >=1 negative fixture, \
             has {positive}+/{negative}-"
        );
    }
}

#[test]
fn suppression_requires_reason() {
    // The contract stated directly, independent of fixture files: a
    // reasonless allow is a `suppression` finding AND leaves the
    // underlying finding alive; adding the reason silences both.
    let bad = "use std::collections::HashMap; // edn-lint: allow(determinism)\n";
    let findings = check_source("crates/core/src/x.rs", bad);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.rule.name() == "suppression"));
    assert!(findings.iter().any(|f| f.rule.name() == "determinism"));

    let good =
        "use std::collections::HashMap; // edn-lint: allow(determinism) -- membership only\n";
    assert!(check_source("crates/core/src/x.rs", good).is_empty());
}
