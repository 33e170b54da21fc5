//! `edn_lint` — repo-aware static analysis for the EDN workspace.
//!
//! Every guarantee this reproduction makes — byte-identical sweep
//! artifacts at any `--threads`/`--shard` setting,
//! zero-allocation routing hot paths, `unsafe` confined to the fabric
//! mmap module — is enforced at runtime only on the paths tests happen
//! to exercise. This crate enforces them *statically*, over every line
//! of the workspace, with a real Rust lexer (comments, raw strings,
//! lifetimes-vs-chars) feeding a token-stream rule engine.
//!
//! # Rule catalog
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | no `HashMap`/`HashSet`, `SystemTime`/`Instant`, or non-seeded randomness in the artifact-producing crates (`core`, `sim`, `sweep`, `traffic`, `analytic`) |
//! | `hot-path-alloc` | no allocating constructs inside `// edn-lint: hot-path` regions |
//! | `cast-audit` | no unchecked narrowing `as` casts (`as u8/u16/u32/i8/i16/i32`) |
//! | `unsafe-containment` | `unsafe` only in `crates/fabric/src/mmap.rs`; every crate lib root opens with `#![forbid(unsafe_code)]` (fabric: `#![deny(unsafe_op_in_unsafe_fn)]`) |
//!
//! # Suppressions
//!
//! A violation a human has judged safe is silenced *at the site*, with
//! a required reason:
//!
//! ```text
//! // edn-lint: allow(cast-audit) -- stage digit < b <= 2^32 by EdnParams validation
//! let digit = raw as u32;
//! ```
//!
//! A standalone directive comment applies to the next code line; a
//! trailing one to its own line. `allow-file(rule) -- reason` at any
//! point suppresses a rule file-wide (used e.g. by the reference oracle
//! whose `HashSet` is membership-only). A suppression without a reason
//! is itself a finding (`suppression`), and `suppression` findings
//! cannot be suppressed.
//!
//! # Hot-path regions
//!
//! `// edn-lint: hot-path` on its own line marks the next braced block
//! (typically a `fn` body) as allocation-forbidden. The counting-
//! allocator tests assert the same property dynamically; the marker
//! makes it hold for every line of the region, not just the exercised
//! ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lexer;
mod rules;

pub use lexer::{lex, Lexed, Tok, TokKind};
pub use rules::{check_source, Finding, Rule};

use std::path::{Path, PathBuf};

/// Directories never scanned: generated output, vendored stand-in
/// crates (external idiom, not ours to gate), and VCS internals.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// The lint's own fixture tree — deliberately full of violations — is
/// excluded from workspace scans but lintable by explicit path.
const FIXTURE_DIR: &str = "crates/lint/fixtures";

/// Collects every workspace `.rs` file under `root`, sorted, as paths
/// relative to `root`. Skips `SKIP_DIRS` and the fixture tree.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect(root, root, &mut files, true)?;
    files.sort();
    Ok(files)
}

/// Collects `.rs` files under `path` (a file or directory), relative to
/// `root`. Unlike [`workspace_files`], explicit paths descend into the
/// fixture tree — that is how CI smoke-tests the gate itself.
pub fn files_under(root: &Path, path: &Path) -> std::io::Result<Vec<PathBuf>> {
    let absolute = if path.is_absolute() {
        path.to_path_buf()
    } else {
        root.join(path)
    };
    if absolute.is_file() {
        return Ok(vec![relative_to(root, &absolute)]);
    }
    let mut files = Vec::new();
    collect(root, &absolute, &mut files, false)?;
    files.sort();
    Ok(files)
}

fn relative_to(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

fn collect(
    root: &Path,
    dir: &Path,
    files: &mut Vec<PathBuf>,
    skip_fixtures: bool,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            let rel = relative_to(root, &path);
            if skip_fixtures && rel.as_path() == Path::new(FIXTURE_DIR) {
                continue;
            }
            collect(root, &path, files, skip_fixtures)?;
        } else if name.ends_with(".rs") {
            files.push(relative_to(root, &path));
        }
    }
    Ok(())
}

/// Lints one on-disk file, reporting under its `root`-relative path
/// (which is what scopes the rules).
pub fn check_file(root: &Path, relative: &Path) -> std::io::Result<Vec<Finding>> {
    let source = std::fs::read_to_string(root.join(relative))?;
    // Paths in diagnostics (and in rule scoping) are `/`-separated even
    // on hosts with other separators.
    let path = relative
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    Ok(check_source(&path, &source))
}

/// Serializes findings as one stable JSON document (the `--format
/// json` output): `{"findings": [...], "count": N}`.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (idx, finding) in findings.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_str(&finding.file),
            finding.line,
            finding.col,
            json_str(finding.rule.name()),
            json_str(&finding.message),
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // edn-lint: allow(cast-audit) -- char-to-u32 is lossless (chars are scalar values)
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_escapes_and_counts() {
        let findings = vec![Finding {
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            col: 7,
            rule: Rule::Determinism,
            message: "uses \"HashMap\"\n".to_string(),
        }];
        let json = findings_to_json(&findings);
        assert!(json.contains("\\\"HashMap\\\"\\n"), "{json}");
        assert!(json.ends_with("\"count\":1}"), "{json}");
        assert!(json.contains("\"rule\":\"determinism\""), "{json}");
    }

    #[test]
    fn suppression_with_reason_silences_the_site() {
        let src = "\
            use std::collections::HashMap; // edn-lint: allow(determinism) -- test scaffolding\n\
            // edn-lint: allow(determinism) -- standalone form\n\
            use std::collections::HashSet;\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "use std::collections::HashMap; // edn-lint: allow(determinism)\n";
        let findings = check_source("crates/core/src/x.rs", src);
        // The determinism finding survives AND the bad directive is
        // reported.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == Rule::Suppression));
        assert!(findings.iter().any(|f| f.rule == Rule::Determinism));
    }

    #[test]
    fn out_of_scope_crates_skip_determinism() {
        let src = "use std::collections::HashMap;\n";
        assert!(check_source("crates/bench/src/x.rs", src).is_empty());
        assert_eq!(check_source("crates/sweep/src/x.rs", src).len(), 1);
    }
}
