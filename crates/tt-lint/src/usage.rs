//! The two workspace-wide passes, on the same lexer as the per-file lints.
//!
//! - `unused-edge` flags a `[dependencies]` entry that no path in the
//!   crate's non-test `src/` names (`name::`, `use name`, `name!`,
//!   `extern crate name`), and a `[dev-dependencies]` entry that nothing
//!   in `tests/`, `examples/`, `benches/` or `cfg(test)` code names.
//!   A field (`.tsc`), a submodule (`crate::tsc::`) or a doc line is not a
//!   use. Target tables (`[target.'cfg(…)'.dependencies]`) count as normal.
//! - `test-only-pub` flags a `pub` item in `crates/*/src` that no
//!   non-test code names outside its definition. Non-test code is every
//!   crate's `src/` outside `cfg(test)` code, the root package's `src/` and
//!   `examples/`, and `bench/src` (only read: the benchmark calls the
//!   workspace from its own package). A function counts as named where
//!   it is called (`name(`), turbofished or reached by a path
//!   (`Type::name`); any other item wherever its name appears. A name in
//!   a `use` declaration is not a use: a re-export nobody reads is dead.
//!   Names are not resolved to their `impl`, so two methods that share a
//!   name count as one item: the pass can miss, never invent, a use.
//!
//! Both passes take the workspace as in-memory `(path, text)` pairs, so a
//! fixture builds a tree in a few lines. Exceptions work as for the
//! per-file lints: `# tt-lint: allow(unused-edge) — <why>` on or above the
//! manifest entry, `// tt-lint: allow(test-only-pub) — <why>` on the line
//! above the item, or a `tt-lint.allow` entry for the whole file. Each
//! fails the check as stale once it suppresses nothing.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use crate::allowlist::Entry;
use crate::lexer::{self, Directive, Token};
use crate::lints::lint_by_name;
use crate::{Finding, PolicyError};

/// A pass's result: findings, policy errors, the number of suppressed
/// findings, and the allowlist lines that suppressed them.
pub type Outcome = (Vec<Finding>, Vec<PolicyError>, usize, Vec<usize>);

const MOVE_TO_DEV: &str = "only test code names it: move it to `[dev-dependencies]`";
const DEV_MESSAGE: &str =
    "dev-dependency edge that no test, example or `cfg(test)` code of the crate names";

/// Item keywords: a name right after one is being defined, not used.
const DEF_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod"];

/// Finds `unused-edge` hits in every package manifest of `files`
/// (`Cargo.toml` at the root or in `crates/<name>/`).
pub fn unused_edges(files: &[(String, String)], entries: &[Entry]) -> Outcome {
    let lint = lint_by_name("unused-edge").expect("in the catalog");
    let mut ex = Exceptions::new(lint.name, entries);
    let mut findings = Vec::new();
    let test_files = test_module_files(files);
    for (rel, text) in files {
        let Some(dir) = package_dir(rel) else { continue };
        let (edges, directives) = manifest_edges(text);
        for d in directives {
            ex.add(rel, d);
        }
        let (main, test) = crate_paths(files, &test_files, dir);
        for (name, dev, line) in edges {
            let code = name.replace('-', "_");
            let (message, help) = if dev {
                if test.contains(&code) || main.contains(&code) {
                    continue;
                }
                (DEV_MESSAGE, lint.help)
            } else if main.contains(&code) {
                continue;
            } else if test.contains(&code) {
                (lint.message, MOVE_TO_DEV)
            } else {
                (lint.message, lint.help)
            };
            if !ex.waived(rel, line) {
                findings.push(Finding {
                    file: rel.clone(),
                    line,
                    lint: lint.name,
                    pattern: name,
                    message,
                    help,
                });
            }
        }
    }
    ex.finish(findings)
}

/// Finds `test-only-pub` hits among the `pub` items of `crates/*/src`.
pub fn test_only_pub(files: &[(String, String)], entries: &[Entry]) -> Outcome {
    let lint = lint_by_name("test-only-pub").expect("in the catalog");
    let mut ex = Exceptions::new(lint.name, entries);
    let mut named: BTreeMap<String, usize> = BTreeMap::new();
    let mut called: BTreeMap<String, usize> = BTreeMap::new();
    let mut defs = Vec::new();
    let test_files = test_module_files(files);
    for (rel, text) in files {
        let crate_src = rel.starts_with("crates/") && rel.contains("/src/");
        let reader = ["src/", "examples/", "bench/src/"].iter().any(|p| rel.starts_with(p));
        if !rel.ends_with(".rs") || !(crate_src || reader) || test_files.contains(rel) {
            continue;
        }
        let lexed = lexer::lex(text);
        for d in &lexed.directives {
            ex.add(rel, d.clone());
        }
        let spans = lexed.test_spans();
        let tokens: Vec<Token> =
            lexed.tokens().into_iter().filter(|t| !crate::in_spans(&spans, t.line)).collect();
        count_uses(&tokens, &mut named, &mut called);
        if crate_src {
            defs.extend(
                pub_items(&tokens)
                    .into_iter()
                    .map(|(kind, name, line)| (rel.as_str(), kind, name.to_string(), line)),
            );
        }
    }
    let mut findings = Vec::new();
    for (rel, kind, name, line) in defs {
        let uses = if kind == "fn" { &called } else { &named };
        if uses.contains_key(&name) || ex.waived(rel, line) {
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line,
            lint: lint.name,
            pattern: format!("{kind} {name}"),
            message: lint.message,
            help: lint.help,
        });
    }
    ex.finish(findings)
}

/// The package directory a manifest path belongs to (`""` for the root),
/// or `None` for any other file.
fn package_dir(rel: &str) -> Option<&str> {
    if rel == "Cargo.toml" {
        return Some("");
    }
    let dir = rel.strip_prefix("crates/")?.strip_suffix("/Cargo.toml")?;
    (!dir.contains('/')).then(|| &rel[..rel.len() - "/Cargo.toml".len()])
}

/// The `(name, dev, line)` entries of a manifest's dependency tables and
/// the `# tt-lint:` directives beside them.
fn manifest_edges(text: &str) -> (Vec<(String, bool, usize)>, Vec<Directive>) {
    let mut edges = Vec::new();
    let mut directives = Vec::new();
    let mut pending = Vec::new();
    let mut table: Option<bool> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let (code, comment) = raw.split_once('#').unwrap_or((raw, ""));
        let code = code.trim();
        if let Some(d) = lexer::parse_directive(comment, line) {
            if code.is_empty() {
                pending.push(d);
            } else {
                directives.push(d);
            }
        }
        if code.is_empty() {
            continue;
        }
        directives.extend(pending.drain(..).map(|d| Directive { line, ..d }));
        if code.starts_with('[') {
            table = match code {
                "[dependencies]" => Some(false),
                "[dev-dependencies]" => Some(true),
                t if t.starts_with("[target.") && t.ends_with(".dependencies]") => Some(false),
                _ => None,
            };
        } else if let Some(dev) = table {
            let name = code.split(['=', '.']).next().unwrap_or("").trim();
            edges.push((name.to_string(), dev, line));
        }
    }
    (edges, directives)
}

/// The crate names the package at `dir` reaches by path: in non-test
/// `src/` code, and in its tests, examples, benches and `cfg(test)`
/// code.
fn crate_paths(
    files: &[(String, String)],
    test_files: &BTreeSet<String>,
    dir: &str,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut main, mut test) = (BTreeSet::new(), BTreeSet::new());
    let root = if dir.is_empty() { String::new() } else { format!("{dir}/") };
    for (rel, text) in files {
        let Some(sub) = rel.strip_prefix(&root).filter(|_| rel.ends_with(".rs")) else {
            continue;
        };
        let in_src = sub.starts_with("src/") && !test_files.contains(rel);
        let test_dirs = ["src/", "tests/", "examples/", "benches/"];
        if !in_src && !test_dirs.iter().any(|p| sub.starts_with(p)) {
            continue;
        }
        let lexed = lexer::lex(text);
        let spans = if in_src { lexed.test_spans() } else { Vec::new() };
        let tokens = lexed.tokens();
        for (i, t) in tokens.iter().enumerate() {
            if names_crate(&tokens, i) {
                let into =
                    if in_src && !crate::in_spans(&spans, t.line) { &mut main } else { &mut test };
                into.insert(t.text.to_string());
            }
        }
    }
    (main, test)
}

/// The files that are whole test modules: `x.rs` or `x/mod.rs` beside a
/// parent that declares `mod x;` under `cfg(test)`.
pub(crate) fn test_module_files(files: &[(String, String)]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (rel, text) in files.iter().filter(|(rel, _)| rel.ends_with(".rs")) {
        let lexed = lexer::lex(text);
        let spans = lexed.test_spans();
        let tokens = lexed.tokens();
        let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
        let base = match file {
            "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
            _ => format!("{dir}/{}", file.trim_end_matches(".rs")),
        };
        for w in tokens.windows(3) {
            if w[0].text == "mod" && w[2].text == ";" && crate::in_spans(&spans, w[0].line) {
                out.insert(format!("{base}/{}.rs", w[1].text));
                out.insert(format!("{base}/{}/mod.rs", w[1].text));
            }
        }
    }
    out
}

/// True when `tokens[i]` reaches a crate: `name::`, `name!`, `use name`
/// or `extern crate name`, but not a field (`.name`) or a submodule
/// (`a::name::`).
fn names_crate(tokens: &[Token], i: usize) -> bool {
    let text = |k: Option<usize>| k.and_then(|k| tokens.get(k)).map(|t| t.text);
    let (prev, prev2) = (text(i.checked_sub(1)), text(i.checked_sub(2)));
    let (next, next2) = (text(Some(i + 1)), text(Some(i + 2)));
    if !tokens[i].is_ident() || prev == Some(".") {
        return false;
    }
    let after_path = prev == Some(":")
        && prev2 == Some(":")
        && i.checked_sub(3).is_some_and(|k| tokens[k].is_ident());
    if after_path {
        return false;
    }
    (next == Some(":") && next2 == Some(":"))
        || next == Some("!")
        || prev == Some("use")
        || (prev == Some("crate") && prev2 == Some("extern"))
}

/// Counts, per name, the occurrences that use it (`named`) and those
/// that could reach a function (`called`), skipping definitions and
/// `use` declarations.
fn count_uses(
    tokens: &[Token],
    named: &mut BTreeMap<String, usize>,
    called: &mut BTreeMap<String, usize>,
) {
    let text = |k: Option<usize>| k.and_then(|k| tokens.get(k)).map(|t| t.text);
    let mut in_use = false;
    for (i, t) in tokens.iter().enumerate() {
        match t.text {
            "use" => in_use = true,
            ";" => in_use = false,
            _ => {}
        }
        let prev = text(i.checked_sub(1));
        if in_use || !t.is_ident() || prev.is_some_and(|p| DEF_KEYWORDS.contains(&p)) {
            continue;
        }
        *named.entry(t.text.to_string()).or_default() += 1;
        let next = (text(Some(i + 1)), text(Some(i + 2)), text(Some(i + 3)));
        let call = next.0 == Some("(")
            || next == (Some(":"), Some(":"), Some("<"))
            || (prev == Some(":") && text(i.checked_sub(2)) == Some(":"));
        if call {
            *called.entry(t.text.to_string()).or_default() += 1;
        }
    }
}

/// The `pub` items of a token stream as `(kind, name, line)`: `pub(…)`,
/// `pub use`, fields and modules (reached through `use` paths, so judged
/// by their items) are skipped.
fn pub_items<'a>(tokens: &[Token<'a>]) -> Vec<(&'static str, &'a str, usize)> {
    const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];
    let mut items = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "pub" {
            continue;
        }
        let mut j = i + 1;
        while tokens.get(j).is_some_and(|t| QUALIFIERS.contains(&t.text)) {
            j += 1;
        }
        let (Some(kw), Some(name)) = (tokens.get(j), tokens.get(j + 1)) else { continue };
        let item = match DEF_KEYWORDS.iter().find(|k| **k == kw.text) {
            Some(&"mod") => None,
            Some(kind) if name.is_ident() => Some((*kind, name.text)),
            // `pub const NAME`: the qualifier was the item keyword.
            None if j > i + 1 && tokens[j - 1].text == "const" && kw.is_ident() => {
                Some(("const", kw.text))
            }
            _ => None,
        };
        if let Some((kind, name)) = item {
            items.push((kind, name, t.line));
        }
    }
    items
}

/// One lint's inline directives and allowlist entries across the
/// workspace, with the use counts that expose stale ones.
struct Exceptions<'e> {
    lint: &'static str,
    directives: Vec<(String, Directive, Cell<usize>)>,
    entries: &'e [Entry],
    used_entries: Vec<usize>,
    policy: Vec<PolicyError>,
    suppressed: usize,
}

impl<'e> Exceptions<'e> {
    fn new(lint: &'static str, entries: &'e [Entry]) -> Self {
        Exceptions {
            lint,
            directives: Vec::new(),
            entries,
            used_entries: Vec::new(),
            policy: Vec::new(),
            suppressed: 0,
        }
    }

    /// Takes `d` if it is this lint's; an unjustified one is a policy
    /// error and suppresses nothing.
    fn add(&mut self, file: &str, d: Directive) {
        if d.lint != self.lint {
            return;
        }
        if d.justification.is_empty() {
            self.policy.push(PolicyError {
                file: file.to_string(),
                line: d.at,
                message: format!("tt-lint: allow({}) carries no justification", d.lint),
            });
        } else {
            self.directives.push((file.to_string(), d, Cell::new(0)));
        }
    }

    /// True (and counted) when an exception covers a hit at `file:line`.
    fn waived(&mut self, file: &str, line: usize) -> bool {
        let inline =
            self.directives.iter().find(|(f, d, _)| f == file && (d.whole_file || d.line == line));
        if let Some((_, _, uses)) = inline {
            uses.set(uses.get() + 1);
        } else if let Some(e) = self.entries.iter().find(|e| e.lint == self.lint && e.path == file)
        {
            self.used_entries.push(e.line);
        } else {
            return false;
        }
        self.suppressed += 1;
        true
    }

    fn finish(mut self, findings: Vec<Finding>) -> Outcome {
        for (file, d, uses) in &self.directives {
            if uses.get() == 0 {
                self.policy.push(PolicyError {
                    file: file.clone(),
                    line: d.at,
                    message: format!(
                        "stale tt-lint: allow({}) — it no longer suppresses anything; delete it",
                        d.lint
                    ),
                });
            }
        }
        (findings, self.policy, self.suppressed, self.used_entries)
    }
}
