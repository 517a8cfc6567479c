//! `tt-lint` — the workspace determinism/effect-boundary analyzer.
//!
//! The repo's experimental claims (byte-identical artifacts at any
//! `--jobs N`, sim runs as trustworthy proxies for live runs) rest on
//! conventions no compiler checks: deterministic crates must not touch
//! wall clocks, ambient randomness, `RandomState` collections, or the
//! host environment; `Machine` implementations must reach every platform
//! capability through `proto::Env`; and the wire-decode → machine-input
//! hot path must not panic. This crate turns those conventions into a
//! gated check with rustc-style diagnostics.
//!
//! The build environment vendors no `syn`, so the analyzer is
//! token-level (in the style of rustc's `tidy`): [`lexer`] strips
//! comments/strings and recovers the little structure the lints need
//! (cfg(test) spans, `impl Machine` spans, allow directives), and
//! [`lints`] pattern-matches the remaining code; [`usage`] reads the
//! whole workspace for dead dependency edges and test-only public items.
//! Exceptions are explicit and justified — inline
//! `// tt-lint: allow(<lint>) — <why>` for single lines, a workspace
//! allowlist file for whole files — and both go stale loudly: an
//! exception that no longer suppresses anything fails the check.

pub mod allowlist;
pub mod lexer;
pub mod lints;
pub mod usage;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use allowlist::Entry;
use lints::{Lint, Scope, LINTS};

/// Crates whose entire `src/` must stay deterministic: they feed the
/// seeded simulation and its artifacts.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "attacks",
    "authority",
    "core",
    "crypto",
    "experiments",
    "faults",
    "harness",
    "netsim",
    "proto",
    "resilient",
    "runtime",
    "scenario",
    "search",
    "service",
    "sim",
    "stats",
    "trace",
    "tsc",
    "wire",
];

/// Crates scanned only for scoped lints (Machine impls, hot-path
/// modules): the live runtime legitimately uses wall clocks, threads,
/// and sockets outside those spans.
pub const NON_DETERMINISTIC_CRATES: &[&str] = &["net"];

/// The designated artifact-writing modules, exempt from `ambient-io`:
/// every experiment byte leaves through `trace::sink`, every reproducer
/// file through `search::corpus`.
pub const OUTPUT_MODULES: &[&str] = &["crates/trace/src/sink.rs", "crates/search/src/corpus.rs"];

/// The designated intrinsics module pair, the only files where
/// `unsafe-intrinsics` hits may be waived: the safe-wrapper/detection
/// layer and the kernels themselves. An allow directive (or allowlist
/// entry) for the lint anywhere else is a policy error, not an
/// exception — the point of the lint is that the audit surface for
/// unsafe code cannot silently grow.
pub const INTRINSICS_MODULES: &[&str] =
    &["crates/crypto/src/backend.rs", "crates/crypto/src/clmul.rs"];

/// The message-handling hot path (wire decode → machine input) where
/// `panic-surface` applies.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/wire/src/codec.rs",
    "crates/wire/src/message.rs",
    "crates/runtime/src/machine.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/endpoint.rs",
    "crates/net/src/driver.rs",
];

/// The only modules exempt from `component-model`: the `Machine` adapter
/// and the environment drivers (AEX injection, drift sampling, and the
/// replay of scheduled adversary actions), which act on the simulated
/// world rather than take part in the protocol.
pub const DRIVER_MODULES: &[&str] = &[
    "crates/runtime/src/machine.rs",
    "crates/runtime/src/env.rs",
    "crates/runtime/src/sampler.rs",
    "crates/faults/src/driver.rs",
];

/// One confirmed violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Lint name.
    pub lint: &'static str,
    /// The token that triggered it (the dependency or item it names).
    pub pattern: String,
    /// Diagnostic text.
    pub message: &'static str,
    /// Fix guidance.
    pub help: &'static str,
}

/// A problem with an exception mechanism itself (bad directive, stale
/// entry, malformed allowlist line). These fail the check like findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// Workspace-relative path (the allowlist file for its own errors).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

/// The outcome of a workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations.
    pub findings: Vec<Finding>,
    /// Violations suppressed by a justified exception.
    pub suppressed: usize,
    /// Bad directives, stale exceptions, allowlist parse errors.
    pub policy_errors: Vec<PolicyError>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.policy_errors.is_empty()
    }
}

/// How a single file is classified for linting.
#[derive(Debug, Clone, Copy)]
struct FileClass {
    deterministic: bool,
    output_module: bool,
    hot_path: bool,
    intrinsics_module: bool,
    driver_module: bool,
}

fn classify(rel: &str) -> Option<FileClass> {
    let mut parts = rel.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    let krate = parts.next()?;
    if parts.next() != Some("src") {
        return None; // integration tests/ are out of scope
    }
    let deterministic = DETERMINISTIC_CRATES.contains(&krate);
    if !deterministic && !NON_DETERMINISTIC_CRATES.contains(&krate) {
        return None; // tt-lint itself, or an unknown crate
    }
    Some(FileClass {
        deterministic,
        output_module: OUTPUT_MODULES.contains(&rel),
        hot_path: HOT_PATH_MODULES.contains(&rel),
        intrinsics_module: INTRINSICS_MODULES.contains(&rel),
        driver_module: DRIVER_MODULES.contains(&rel),
    })
}

fn lint_applies(lint: &Lint, class: FileClass) -> bool {
    match lint.scope {
        Scope::DeterministicCrates => {
            class.deterministic && !(lint.name == "ambient-io" && class.output_module)
        }
        Scope::MachineImpls => true, // narrowed to impl spans per file
        Scope::HotPathModules => class.hot_path,
        Scope::AllCrates => true,
        Scope::OutsideDrivers => !class.driver_module,
        Scope::Workspace => false,
    }
}

/// Lines of `source` inside `#[cfg(test)]`-gated items: the test code
/// every lint skips, and the lines `scripts/loc.sh` leaves out of its
/// non-test count.
pub fn test_line_count(source: &str) -> usize {
    lexer::lex(source).test_spans().iter().map(|&(from, to)| to + 1 - from).sum()
}

/// The files of the workspace at `root` that are whole test modules
/// (`x.rs` or `x/mod.rs` beside a parent declaring `#[cfg(test)] mod x;`),
/// as sorted workspace-relative paths: every line of them is test code,
/// and `scripts/loc.sh` counts them so.
///
/// # Errors
///
/// Returns an I/O error when the workspace layout cannot be read.
pub fn test_module_files(root: &Path) -> std::io::Result<Vec<String>> {
    let files = read_tree(root)?;
    let modules = usage::test_module_files(&files);
    Ok(files.into_iter().map(|(rel, _)| rel).filter(|rel| modules.contains(rel)).collect())
}

pub(crate) fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Lints one file's source text. Returns `(findings, policy_errors,
/// suppressed_count, used_allowlist_lines)`; `entries` are the allowlist
/// entries covering this file.
pub fn lint_source(
    rel: &str,
    source: &str,
    entries: &[Entry],
) -> (Vec<Finding>, Vec<PolicyError>, usize, Vec<usize>) {
    let Some(class) = classify(rel) else {
        return (Vec::new(), Vec::new(), 0, Vec::new());
    };
    let lexed = lexer::lex(source);
    let test_spans = lexed.test_spans();
    let machine_spans = lexed.machine_impl_spans();

    let mut policy = Vec::new();
    // Validate directives up front; invalid ones never suppress.
    let mut directives = Vec::new();
    for d in &lexed.directives {
        let lint = lints::lint_by_name(&d.lint);
        if lint.is_some_and(|l| l.scope == Scope::Workspace) {
            continue; // validated and credited by `usage`
        }
        if lint.is_none() {
            policy.push(PolicyError {
                file: rel.to_string(),
                line: d.at,
                message: format!("tt-lint: allow({}) names no known lint", d.lint),
            });
        } else if d.justification.is_empty() {
            policy.push(PolicyError {
                file: rel.to_string(),
                line: d.at,
                message: format!(
                    "tt-lint: allow({}) carries no justification — write \
                     `// tt-lint: allow({}) — <why>`",
                    d.lint, d.lint
                ),
            });
        } else if d.lint == "unsafe-intrinsics" && !class.intrinsics_module {
            policy.push(PolicyError {
                file: rel.to_string(),
                line: d.at,
                message: "unsafe-intrinsics cannot be waived here — unsafe code and CPU \
                          intrinsics are licensed only in crates/crypto/src/backend.rs and \
                          crates/crypto/src/clmul.rs"
                    .to_string(),
            });
        } else {
            directives.push((d.clone(), std::cell::Cell::new(0usize)));
        }
    }

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut used_entries: Vec<usize> = Vec::new();

    for line in &lexed.lines {
        if in_spans(&test_spans, line.number) {
            continue;
        }
        for lint in LINTS {
            if !lint_applies(lint, class) {
                continue;
            }
            if lint.scope == Scope::MachineImpls && !in_spans(&machine_spans, line.number) {
                continue;
            }
            for (_, pattern) in lints::matches_in(lint, line) {
                // Inline directive?
                if let Some((_, uses)) = directives
                    .iter()
                    .find(|(d, _)| d.lint == lint.name && (d.whole_file || d.line == line.number))
                {
                    uses.set(uses.get() + 1);
                    suppressed += 1;
                    continue;
                }
                // Allowlist entry?
                if let Some(e) = entries.iter().find(|e| e.lint == lint.name && e.path == rel) {
                    used_entries.push(e.line);
                    suppressed += 1;
                    continue;
                }
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line.number,
                    lint: lint.name,
                    pattern: pattern.to_string(),
                    message: lint.message,
                    help: lint.help,
                });
            }
        }
    }

    // An inline allow that suppressed nothing is stale.
    for (d, uses) in &directives {
        if uses.get() == 0 {
            policy.push(PolicyError {
                file: rel.to_string(),
                line: d.at,
                message: format!(
                    "stale tt-lint: allow({}) — it no longer suppresses anything; delete it",
                    d.lint
                ),
            });
        }
    }

    (findings, policy, suppressed, used_entries)
}

/// The files the checks read, as `(workspace-relative path, text)`:
/// every `*.rs` and `Cargo.toml` under `crates/`, the root manifest, and
/// the `*.rs` files of the root package's `src/`, `tests/` and
/// `examples/` and of `bench/src`.
fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut children: Vec<PathBuf> =
            std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        children.sort();
        for child in children {
            if child.is_dir() {
                walk(&child, out)?;
            } else if child.extension().is_some_and(|e| e == "rs")
                || child.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(child);
            }
        }
        Ok(())
    }
    let mut paths: Vec<PathBuf> =
        Some(root.join("Cargo.toml")).filter(|p| p.is_file()).into_iter().collect();
    for dir in ["crates", "src", "tests", "examples", "bench/src"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths
        .into_iter()
        .map(|p| Ok((allowlist::normalize_rel(root, &p), std::fs::read_to_string(&p)?)))
        .collect()
}

/// Checks the whole workspace rooted at `root`, reading the allowlist
/// from `allowlist_path` (missing file = empty allowlist).
///
/// # Errors
///
/// Returns an I/O error when the workspace layout cannot be read.
pub fn check_workspace(root: &Path, allowlist_path: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();

    let allow_rel = allowlist::normalize_rel(root, allowlist_path);
    let (entries, parse_errors) = match std::fs::read_to_string(allowlist_path) {
        Ok(text) => allowlist::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), Vec::new()),
        Err(e) => return Err(e),
    };
    for pe in parse_errors {
        report.policy_errors.push(PolicyError {
            file: allow_rel.clone(),
            line: pe.line,
            message: pe.message,
        });
    }
    for e in &entries {
        if lints::lint_by_name(&e.lint).is_none() {
            report.policy_errors.push(PolicyError {
                file: allow_rel.clone(),
                line: e.line,
                message: format!("allowlist entry names no known lint `{}`", e.lint),
            });
        } else if e.lint == "unsafe-intrinsics" && !INTRINSICS_MODULES.contains(&e.path.as_str()) {
            report.policy_errors.push(PolicyError {
                file: allow_rel.clone(),
                line: e.line,
                message: format!(
                    "allowlist cannot waive unsafe-intrinsics for `{}` — unsafe code is \
                     licensed only in crates/crypto/src/backend.rs and clmul.rs",
                    e.path
                ),
            });
        }
    }

    let files = read_tree(root)?;
    let mut entry_uses: BTreeMap<usize, usize> = BTreeMap::new();
    let mut merge = |report: &mut Report, (findings, policy, suppressed, used): usage::Outcome| {
        report.suppressed += suppressed;
        report.findings.extend(findings);
        report.policy_errors.extend(policy);
        for line in used {
            *entry_uses.entry(line).or_insert(0) += 1;
        }
    };
    let test_files = usage::test_module_files(&files);
    for (rel, source) in &files {
        if rel.ends_with(".rs") && classify(rel).is_some() && !test_files.contains(rel) {
            report.files_scanned += 1;
            merge(&mut report, lint_source(rel, source, &entries));
        }
    }
    merge(&mut report, usage::unused_edges(&files, &entries));
    merge(&mut report, usage::test_only_pub(&files, &entries));

    for e in &entries {
        if lints::lint_by_name(&e.lint).is_some() && !entry_uses.contains_key(&e.line) {
            report.policy_errors.push(PolicyError {
                file: allow_rel.clone(),
                line: e.line,
                message: format!(
                    "stale allowlist entry: `{} {}` matches no finding; delete it",
                    e.lint, e.path
                ),
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_workspace_paths_are_skipped() {
        let (f, p, s, u) = lint_source("src/lib.rs", "use std::collections::HashMap;", &[]);
        assert!(f.is_empty() && p.is_empty() && s == 0 && u.is_empty());
        let (f, _, _, _) =
            lint_source("crates/tt-lint/src/lib.rs", "use std::collections::HashMap;", &[]);
        assert!(f.is_empty(), "tt-lint does not scan itself");
    }

    #[test]
    fn deterministic_crate_flags_hashmap() {
        let (f, _, _, _) =
            lint_source("crates/proto/src/x.rs", "use std::collections::HashMap;\n", &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "hash-collections");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
        let (f, _, _, _) = lint_source("crates/proto/src/x.rs", src, &[]);
        assert!(f.is_empty());
    }

    #[test]
    fn test_lines_are_the_gated_spans_not_a_doc_mention() {
        let src = "//! see `#[cfg(test)]`\nstruct R;\nimpl R {\n    #[cfg(test)]\n    fn probe(&self) {}\n    fn live(&self) {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        // Lines 4–5 (the gated method) and 8–11 (the module).
        assert_eq!(test_line_count(src), 2 + 4);
    }

    #[test]
    fn live_crate_is_exempt_from_determinism_lints() {
        let (f, _, _, _) = lint_source("crates/net/src/x.rs", "use std::time::Instant;\n", &[]);
        assert!(f.is_empty());
    }
}
