//! Process-level tests of the `edn_lint` binary: exit codes, JSON
//! output, and the seeded-violation behavior CI smoke-tests.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_edn_lint"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("edn_lint runs")
}

#[test]
fn workspace_check_is_clean_and_exits_zero() {
    let out = lint(&["check", "--workspace", "-D", "all"]);
    assert!(
        out.status.success(),
        "workspace not clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn seeded_violations_exit_nonzero_under_deny() {
    for group in [
        "determinism",
        "hot_path",
        "cast_audit",
        "unsafe_containment",
        "suppression",
    ] {
        let dir = format!("crates/lint/fixtures/{group}/bad");
        let out = lint(&["check", &dir, "-D", "all"]);
        assert!(
            !out.status.success(),
            "{group}: seeded violations must fail a -D all run"
        );
        // Without -D, findings are warnings and the exit is zero
        // (except directive-grammar errors, which only deny runs fail).
        let out = lint(&["check", &dir]);
        assert!(out.status.success(), "{group}: warn-only run must pass");
    }
}

#[test]
fn good_fixtures_are_clean() {
    for group in [
        "determinism",
        "hot_path",
        "cast_audit",
        "unsafe_containment",
        "suppression",
    ] {
        let dir = format!("crates/lint/fixtures/{group}/good");
        let out = lint(&["check", &dir, "-D", "all"]);
        assert!(
            out.status.success(),
            "{group}/good must be clean:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn json_output_is_valid_and_locates_findings() {
    let out = lint(&[
        "check",
        "crates/lint/fixtures/cast_audit/bad",
        "--format",
        "json",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Dependency-free sanity parse: balanced object, expected keys,
    // the file:line of a known violation.
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"rule\":\"cast-audit\""), "{stdout}");
    assert!(
        stdout
            .contains("\"file\":\"crates/lint/fixtures/cast_audit/bad/crates/core/src/narrow.rs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"count\":4"), "{stdout}");
}

#[test]
fn unknown_flags_and_rules_are_usage_errors() {
    let out = lint(&["check", "--workspace", "-D", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    let out = lint(&["check", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = lint(&["check"]);
    assert_eq!(out.status.code(), Some(2), "no inputs is a usage error");
}
