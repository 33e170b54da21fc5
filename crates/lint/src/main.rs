//! `edn_lint` — the workspace's static-analysis gate.
//!
//! ```text
//! edn_lint check --workspace -D all            # the CI gate
//! edn_lint check crates/core --format json     # one subtree, JSON out
//! edn_lint check crates/lint/fixtures/determinism -D all   # must fail
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use edn_lint::{check_file, files_under, findings_to_json, workspace_files, Finding, Rule};

const USAGE: &str = "\
edn_lint — static analysis for the EDN workspace

Usage: edn_lint check [--workspace] [PATH...] [options]

Options:
  --workspace      lint every workspace .rs file under --root
                   (skips target/, vendor/, and the lint fixtures)
  --root DIR       workspace root (default: current directory)
  --format FMT     `text` (default) or `json`
  -D RULE          deny: exit nonzero if RULE has findings; `-D all`
                   denies every rule (what CI runs)
  --help           print this message

Rules: determinism, hot-path-alloc, cast-audit, unsafe-containment
(plus `suppression` for malformed directives, always denied when any
-D is given). Suppress a judged-safe site with
`// edn-lint: allow(rule) -- reason`; see README \"Static analysis\".";

struct Args {
    workspace: bool,
    paths: Vec<PathBuf>,
    root: PathBuf,
    json: bool,
    deny_all: bool,
    deny: Vec<Rule>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // binary name
    match argv.next().as_deref() {
        Some("check") => {}
        Some("--help") | Some("-h") | None => return Err(String::new()),
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
    }
    let mut args = Args {
        workspace: false,
        paths: Vec::new(),
        root: PathBuf::from("."),
        json: false,
        deny_all: false,
        deny: Vec::new(),
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--format" => match value("--format")?.as_str() {
                "json" => args.json = true,
                "text" => args.json = false,
                other => return Err(format!("--format expects `text` or `json`, got `{other}`")),
            },
            "-D" => {
                let rule = value("-D")?;
                if rule == "all" {
                    args.deny_all = true;
                } else {
                    args.deny.push(
                        Rule::from_name(&rule)
                            .ok_or_else(|| format!("-D: unknown rule `{rule}`"))?,
                    );
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if !args.workspace && args.paths.is_empty() {
        return Err("nothing to check: pass --workspace or at least one PATH".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> std::io::Result<Vec<Finding>> {
    let root = &args.root;
    let mut files: Vec<PathBuf> = Vec::new();
    if args.workspace {
        files.extend(workspace_files(root)?);
    }
    for path in &args.paths {
        files.extend(files_under(root, path)?);
    }
    files.sort();
    files.dedup();
    let mut findings = Vec::new();
    for file in &files {
        findings.extend(check_file(root, file)?);
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("edn_lint: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let findings = match run(&args) {
        Ok(findings) => findings,
        Err(error) => {
            eprintln!("edn_lint: {error}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        println!("{}", findings_to_json(&findings));
    } else {
        for finding in &findings {
            println!("{finding}");
        }
        eprintln!(
            "edn_lint: {} finding(s) across {} rule(s)",
            findings.len(),
            findings
                .iter()
                .map(|f| f.rule)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }
    let any_deny = args.deny_all || !args.deny.is_empty();
    let denied = findings.iter().any(|f| {
        args.deny_all
            || args.deny.contains(&f.rule)
            // Malformed directives fail any deny run: a gate whose
            // suppressions don't parse is not a gate.
            || (f.rule == Rule::Suppression && any_deny)
    });
    if denied {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
