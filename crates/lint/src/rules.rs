//! The token-stream rule engine and the five invariant rules.
//!
//! Every rule is grounded in a guarantee the workspace already makes at
//! runtime; the lint makes it hold for code paths no test exercises.
//! See the README's "Static analysis" section for the catalog and the
//! suppression grammar.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// Rule identifiers — the names used in diagnostics and in
/// `// edn-lint: allow(...)` suppressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-order collections, wall-clock time, or non-seeded
    /// randomness in the artifact-producing crates.
    Determinism,
    /// Allocating constructs inside `// edn-lint: hot-path` regions.
    HotPathAlloc,
    /// Unchecked narrowing `as` casts.
    CastAudit,
    /// `unsafe` outside the fabric mmap module, or a crate lib missing
    /// its `#![forbid(unsafe_code)]` header.
    UnsafeContainment,
    /// A `*_probed` routing entry point without its probe-free twin.
    ProbeDiscipline,
    /// A malformed lint directive (e.g. a suppression without a
    /// reason). Not suppressible.
    Suppression,
}

impl Rule {
    /// Every real rule, in catalog order (`Suppression` is the
    /// directive-grammar meta-rule, always on).
    pub const ALL: [Rule; 5] = [
        Rule::Determinism,
        Rule::HotPathAlloc,
        Rule::CastAudit,
        Rule::UnsafeContainment,
        Rule::ProbeDiscipline,
    ];

    /// The rule's catalog name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::CastAudit => "cast-audit",
            Rule::UnsafeContainment => "unsafe-containment",
            Rule::ProbeDiscipline => "probe-discipline",
            Rule::Suppression => "suppression",
        }
    }

    /// Parses a catalog name (as written inside `allow(...)`).
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "hot-path-alloc" => Some(Rule::HotPathAlloc),
            "cast-audit" => Some(Rule::CastAudit),
            "unsafe-containment" => Some(Rule::UnsafeContainment),
            "probe-discipline" => Some(Rule::ProbeDiscipline),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violated at a position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// The crates whose emitted rows, tables, and narration must be
/// byte-identical across `--threads`/`--shard` settings —
/// the determinism rule's scope. `bench` (timing) and `store`
/// (wall-clock cache file names) are deliberately out of scope, as is
/// the linter itself.
const DETERMINISM_CRATES: [&str; 5] = ["core", "sim", "sweep", "traffic", "analytic"];

/// The one file allowed to contain `unsafe`: the fabric's mmap module.
const UNSAFE_ALLOWED_FILE: &str = "crates/fabric/src/mmap.rs";

/// Identifiers whose presence in a determinism-scoped crate is a
/// finding, with the reason each is banned.
const DETERMINISM_BANNED: [(&str, &str); 6] = [
    (
        "HashMap",
        "iteration order varies run-to-run; use BTreeMap or a sorted Vec",
    ),
    (
        "HashSet",
        "iteration order varies run-to-run; use BTreeSet or a sorted Vec",
    ),
    (
        "SystemTime",
        "wall-clock values differ per host/run and break byte-identity",
    ),
    (
        "Instant",
        "monotonic-clock values differ per run and break byte-identity",
    ),
    (
        "thread_rng",
        "non-seeded randomness; derive seeds from sweep coordinates",
    ),
    (
        "from_entropy",
        "non-seeded randomness; derive seeds from sweep coordinates",
    ),
];

/// Cast targets the cast-audit rule treats as narrowing: the workspace
/// computes in `u64`/`usize`, so an `as` to any of these can silently
/// truncate. Widening (`as u64`, `as f64`, `as u128`) is not flagged,
/// and `as usize` is exempt (ubiquitous indexing; 64-bit hosts).
const NARROWING_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// A parsed `// edn-lint:` directive.
enum Directive {
    /// `allow(rule, ...) -- reason`: suppress findings on the target
    /// line (`own_line` comments target the next code line).
    Allow {
        rules: Vec<Rule>,
        target_line: usize,
    },
    /// `allow-file(rule, ...) -- reason`: suppress the rules for the
    /// whole file.
    AllowFile { rules: Vec<Rule> },
    /// `hot-path`: the next braced block is a hot-path region.
    HotPath { comment_line: usize },
}

/// Everything the per-file rules need: path, tokens, directives.
struct FileCtx<'a> {
    path: &'a str,
    lexed: &'a Lexed,
    findings: Vec<Finding>,
}

impl FileCtx<'_> {
    fn report(&mut self, tok_line: usize, tok_col: usize, rule: Rule, message: String) {
        self.findings.push(Finding {
            file: self.path.to_string(),
            line: tok_line,
            col: tok_col,
            rule,
            message,
        });
    }

    fn toks(&self) -> &[Tok] {
        &self.lexed.tokens
    }

    fn punct_at(&self, idx: usize, text: &str) -> bool {
        self.toks()
            .get(idx)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }
}

/// The crate name (`core`, `sweep`, …) a workspace-relative path
/// belongs to, when it is under `crates/<name>/`. The match is on path
/// *segments*, so fixture trees that embed a `crates/core/src/…` suffix
/// scope the same way the real tree does.
fn crate_of(path: &str) -> Option<&str> {
    // The *last* `crates/` segment wins, so the lint's own fixture tree
    // (`crates/lint/fixtures/…/crates/core/src/x.rs`) scopes by the
    // crate the fixture imitates, from the CLI as well as the harness.
    let mut found = None;
    let mut parts = path.split('/').peekable();
    while let Some(part) = parts.next() {
        if part == "crates" {
            if let Some(next) = parts.peek() {
                found = Some(*next);
            }
        }
    }
    found
}

/// True when `path` is the lib root of a workspace crate (or the
/// facade's `src/lib.rs`) — the files the unsafe-containment rule
/// requires to open with `#![forbid(unsafe_code)]`.
fn is_lib_root(path: &str) -> bool {
    path == "src/lib.rs" || (crate_of(path).is_some() && path.ends_with("/src/lib.rs"))
}

/// Parses the directives out of a file's line comments, reporting
/// malformed ones as `suppression` findings.
fn parse_directives(ctx: &mut FileCtx<'_>) -> Vec<Directive> {
    let mut directives = Vec::new();
    let comments: Vec<Comment> = ctx.lexed.comments.clone();
    for comment in &comments {
        let body = comment.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("edn-lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "hot-path" {
            directives.push(Directive::HotPath {
                comment_line: comment.line,
            });
            continue;
        }
        let (head, reason) = match rest.split_once("--") {
            Some((head, reason)) => (head.trim(), reason.trim()),
            None => (rest, ""),
        };
        let file_scoped = head.starts_with("allow-file(");
        let site_scoped = head.starts_with("allow(");
        if !file_scoped && !site_scoped {
            ctx.report(
                comment.line,
                comment.col,
                Rule::Suppression,
                format!(
                    "unknown edn-lint directive `{rest}`; expected \
                     `allow(rule) -- reason`, `allow-file(rule) -- reason`, or `hot-path`"
                ),
            );
            continue;
        }
        let Some(inner) = head
            .trim_end()
            .strip_suffix(')')
            .and_then(|h| h.split_once('(').map(|(_, inner)| inner))
        else {
            ctx.report(
                comment.line,
                comment.col,
                Rule::Suppression,
                format!("malformed suppression `{rest}`: missing closing `)`"),
            );
            continue;
        };
        if reason.is_empty() {
            ctx.report(
                comment.line,
                comment.col,
                Rule::Suppression,
                "suppression without a reason: write \
                 `// edn-lint: allow(rule) -- why this site is exempt`"
                    .to_string(),
            );
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for name in inner.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match Rule::from_name(name) {
                Some(rule) => rules.push(rule),
                None => {
                    ctx.report(
                        comment.line,
                        comment.col,
                        Rule::Suppression,
                        format!("unknown rule `{name}` in suppression"),
                    );
                    bad = true;
                }
            }
        }
        if bad || rules.is_empty() {
            continue;
        }
        if file_scoped {
            directives.push(Directive::AllowFile { rules });
        } else {
            // A standalone comment suppresses the next code line; a
            // trailing comment suppresses its own line.
            let target_line = if comment.own_line {
                ctx.lexed
                    .tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > comment.line)
                    .unwrap_or(comment.line + 1)
            } else {
                comment.line
            };
            directives.push(Directive::Allow { rules, target_line });
        }
    }
    directives
}

/// The hot-path regions of a file: inclusive line ranges covering the
/// braced block that follows each `// edn-lint: hot-path` marker.
fn hot_regions(ctx: &mut FileCtx<'_>, directives: &[Directive]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for directive in directives {
        let Directive::HotPath { comment_line } = directive else {
            continue;
        };
        // First `{` at or after the marker line, then its match.
        let open = ctx
            .toks()
            .iter()
            .position(|t| t.line > *comment_line && t.kind == TokKind::Punct && t.text == "{");
        let Some(open) = open else {
            ctx.report(
                *comment_line,
                1,
                Rule::Suppression,
                "edn-lint: hot-path marker with no braced block after it".to_string(),
            );
            continue;
        };
        let mut depth = 0usize;
        let mut close = None;
        for (idx, tok) in ctx.toks().iter().enumerate().skip(open) {
            if tok.kind != TokKind::Punct {
                continue;
            }
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(idx);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close_line = match close {
            Some(idx) => ctx.toks()[idx].line,
            None => {
                ctx.report(
                    *comment_line,
                    1,
                    Rule::Suppression,
                    "edn-lint: hot-path region has an unclosed brace".to_string(),
                );
                continue;
            }
        };
        regions.push((ctx.toks()[open].line, close_line));
    }
    regions
}

/// determinism: hash-order collections, wall-clock time, and
/// non-seeded randomness are banned where artifact bytes are made.
fn rule_determinism(ctx: &mut FileCtx<'_>) {
    let scoped = crate_of(ctx.path).is_some_and(|c| DETERMINISM_CRATES.contains(&c));
    if !scoped {
        return;
    }
    let toks = ctx.toks().to_vec();
    for tok in &toks {
        if tok.kind != TokKind::Ident {
            continue;
        }
        if let Some((name, why)) = DETERMINISM_BANNED.iter().find(|(n, _)| *n == tok.text) {
            ctx.report(
                tok.line,
                tok.col,
                Rule::Determinism,
                format!("`{name}` in an artifact-producing crate: {why}"),
            );
        }
    }
}

/// hot-path-alloc: allocating constructs inside marked regions.
fn rule_hot_path_alloc(ctx: &mut FileCtx<'_>, regions: &[(usize, usize)]) {
    if regions.is_empty() {
        return;
    }
    let in_region = |line: usize| regions.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    let toks = ctx.toks().to_vec();
    for (idx, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || !in_region(tok.line) {
            continue;
        }
        let flagged: Option<String> = match tok.text.as_str() {
            // Macro allocators: `vec![…]`, `format!(…)`.
            "vec" | "format" if ctx.punct_at(idx + 1, "!") => Some(format!("{}!", tok.text)),
            // Method allocators. A name reached through `Type::…` for
            // one of the known container types is the constructor
            // pattern's finding, not a second one here.
            "to_string" | "to_owned" | "to_vec" | "collect" | "with_capacity"
                if (ctx.punct_at(idx + 1, "(")
                    || (ctx.punct_at(idx + 1, ":") && ctx.punct_at(idx + 2, ":")))
                    && !(ctx.punct_at(idx.wrapping_sub(1), ":")
                        && ctx.punct_at(idx.wrapping_sub(2), ":")
                        && ctx.toks().get(idx.wrapping_sub(3)).is_some_and(|t| {
                            matches!(
                                t.text.as_str(),
                                "Vec" | "Box" | "String" | "VecDeque" | "BTreeMap" | "BTreeSet"
                            )
                        })) =>
            {
                Some(format!("{}()", tok.text))
            }
            // `.clone()` — flagged even for Copy-cheap clones; suppress
            // with a reason where the clone provably does not allocate.
            "clone" if ctx.punct_at(idx.wrapping_sub(1), ".") && ctx.punct_at(idx + 1, "(") => {
                Some(".clone()".to_string())
            }
            // Constructor allocators: `Vec::new`, `Box::new`, ….
            "Vec" | "Box" | "String" | "VecDeque" | "BTreeMap" | "BTreeSet"
                if ctx.punct_at(idx + 1, ":")
                    && ctx.punct_at(idx + 2, ":")
                    && ctx.toks().get(idx + 3).is_some_and(|t| {
                        t.kind == TokKind::Ident
                            && matches!(t.text.as_str(), "new" | "from" | "with_capacity")
                    }) =>
            {
                let ctor = &ctx.toks()[idx + 3].text;
                Some(format!("{}::{}", tok.text, ctor))
            }
            _ => None,
        };
        if let Some(construct) = flagged {
            ctx.report(
                tok.line,
                tok.col,
                Rule::HotPathAlloc,
                format!(
                    "`{construct}` inside a hot-path region: these loops are \
                     asserted zero-allocation by the counting-allocator tests; \
                     reuse preallocated scratch instead"
                ),
            );
        }
    }
}

/// cast-audit: unchecked narrowing `as` casts.
fn rule_cast_audit(ctx: &mut FileCtx<'_>) {
    let toks = ctx.toks().to_vec();
    for (idx, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text != "as" {
            continue;
        }
        let Some(target) = toks.get(idx + 1) else {
            continue;
        };
        if target.kind == TokKind::Ident && NARROWING_TARGETS.contains(&target.text.as_str()) {
            ctx.report(
                tok.line,
                tok.col,
                Rule::CastAudit,
                format!(
                    "narrowing `as {}` cast: use `{}::try_from(..)` with a \
                     contextful expect, or suppress with the invariant that \
                     bounds the value",
                    target.text, target.text
                ),
            );
        }
    }
}

/// unsafe-containment: `unsafe` lives only in the fabric mmap module,
/// and every crate lib root declares its posture.
fn rule_unsafe_containment(ctx: &mut FileCtx<'_>) {
    if !ctx.path.ends_with(UNSAFE_ALLOWED_FILE) {
        let toks = ctx.toks().to_vec();
        for tok in &toks {
            if tok.kind == TokKind::Ident && tok.text == "unsafe" {
                ctx.report(
                    tok.line,
                    tok.col,
                    Rule::UnsafeContainment,
                    format!(
                        "`unsafe` outside `{UNSAFE_ALLOWED_FILE}`: raw-memory and \
                         FFI code is confined to the fabric mmap module"
                    ),
                );
            }
        }
    }
    if is_lib_root(ctx.path) {
        let (attr, why) = if crate_of(ctx.path) == Some("fabric") {
            (
                ["deny", "unsafe_op_in_unsafe_fn"],
                "fabric is the one unsafe-bearing crate; its lib must open with \
                 `#![deny(unsafe_op_in_unsafe_fn)]`",
            )
        } else {
            (
                ["forbid", "unsafe_code"],
                "crate lib roots must open with `#![forbid(unsafe_code)]`",
            )
        };
        let toks = ctx.toks();
        let found = toks.windows(8).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && w[3].text == attr[0]
                && w[4].text == "("
                && w[5].text == attr[1]
                && w[6].text == ")"
                && w[7].text == "]"
        });
        if !found {
            ctx.report(1, 1, Rule::UnsafeContainment, why.to_string());
        }
    }
}

/// probe-discipline: every `*_probed` routing entry point in
/// `crates/core/src` has a `NullProbe`-defaulted twin (same name with
/// `_probed` removed) in the same file.
fn rule_probe_discipline(ctx: &mut FileCtx<'_>) {
    if crate_of(ctx.path) != Some("core") || !ctx.path.contains("/src/") {
        return;
    }
    let toks = ctx.toks();
    let mut fn_names: BTreeSet<&str> = BTreeSet::new();
    let mut probed: Vec<&Tok> = Vec::new();
    for (idx, tok) in toks.iter().enumerate() {
        if tok.kind == TokKind::Ident && tok.text == "fn" {
            if let Some(name) = toks.get(idx + 1).filter(|t| t.kind == TokKind::Ident) {
                fn_names.insert(&name.text);
                if name.text.contains("_probed") {
                    probed.push(name);
                }
            }
        }
    }
    let missing: Vec<(usize, usize, String, String)> = probed
        .iter()
        .filter_map(|tok| {
            let twin = tok.text.replace("_probed", "");
            if fn_names.contains(twin.as_str()) {
                None
            } else {
                Some((tok.line, tok.col, tok.text.clone(), twin))
            }
        })
        .collect();
    for (line, col, name, twin) in missing {
        ctx.report(
            line,
            col,
            Rule::ProbeDiscipline,
            format!(
                "`{name}` has no probe-free twin `{twin}` in this file: every \
                 probed routing entry point must keep a NullProbe-defaulted \
                 counterpart so probes stay a zero-cost opt-in"
            ),
        );
    }
}

/// Runs every rule over one file and applies its suppressions.
///
/// `path` is the file's workspace-relative path — rules scope by it
/// (crate membership, lib roots, the fabric mmap allowlist), so callers
/// feeding synthetic content (fixtures) choose the scope by choosing
/// the path.
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let mut ctx = FileCtx {
        path,
        lexed: &lexed,
        findings: Vec::new(),
    };
    let directives = parse_directives(&mut ctx);
    let regions = hot_regions(&mut ctx, &directives);

    rule_determinism(&mut ctx);
    rule_hot_path_alloc(&mut ctx, &regions);
    rule_cast_audit(&mut ctx);
    rule_unsafe_containment(&mut ctx);
    rule_probe_discipline(&mut ctx);

    // Apply suppressions: site allows kill findings on their target
    // line, file allows kill findings file-wide. `suppression`
    // findings (directive-grammar errors) are never suppressible.
    let mut site: BTreeSet<(usize, Rule)> = BTreeSet::new();
    let mut file_wide: BTreeSet<Rule> = BTreeSet::new();
    for directive in &directives {
        match directive {
            Directive::Allow { rules, target_line } => {
                for rule in rules {
                    site.insert((*target_line, *rule));
                }
            }
            Directive::AllowFile { rules } => {
                for rule in rules {
                    file_wide.insert(*rule);
                }
            }
            Directive::HotPath { .. } => {}
        }
    }
    let mut findings = ctx.findings;
    findings.retain(|f| {
        f.rule == Rule::Suppression
            || (!file_wide.contains(&f.rule) && !site.contains(&(f.line, f.rule)))
    });
    findings.sort_by_key(|a| (a.line, a.col, a.rule));
    // A single token can satisfy two patterns of the same rule (e.g.
    // `Vec::with_capacity` is both a type-constructor and a banned
    // method call); one site is one finding.
    findings.dedup_by(|a, b| (a.line, a.col, a.rule) == (b.line, b.col, b.rule));
    findings
}
