//! Runs one workload of the end-to-end benchmark in this process and
//! prints its report as the last line of standard output.
//!
//! ```text
//! edn_e2ebench --workload NAME --seed N --seconds S --scratch DIR
//!              [--trace] [--spans PATH]
//! ```
//!
//! `--trace` records spans and reports per-layer metrics instead of the
//! end-to-end ones; `--spans PATH` writes the spans there as JSON Lines
//! when the run ends. `e2ebench/run.py` builds this
//! binary and runs it.

use edn_e2ebench::{run, span, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: edn_e2ebench --workload {{{}}} --seed N --seconds S --scratch DIR \
         [--trace] [--spans PATH]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Config, Option<PathBuf>), String> {
    let (mut workload, mut seed, mut seconds, mut scratch) = (None, None, None, None);
    let (mut traced, mut spans) = (false, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds expects a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--trace" => traced = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    let cfg = Config {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        traced,
        smoke: false,
        expect_digest: None,
        scratch: scratch.ok_or_else(|| missing("--scratch"))?,
    };
    Ok((cfg, spans))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, spans_path) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("edn_e2ebench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    for failure in &report.failures {
        eprintln!(
            "edn_e2ebench: {}: check failed: {failure}",
            cfg.workload.name()
        );
    }
    if let Some(path) = spans_path {
        if let Err(e) = std::fs::write(&path, span::to_jsonl(&report.spans)) {
            eprintln!("edn_e2ebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.to_json(&cfg));
    ExitCode::SUCCESS
}
