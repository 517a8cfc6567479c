//! `cargo run -p tt-lint -- check` — gate the workspace on the
//! determinism contract.

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

use tt_lint::{check_workspace, test_line_count, Report};

const USAGE: &str = "\
tt-lint — workspace determinism/effect-boundary analyzer

USAGE:
    tt-lint check [--root <dir>] [--allowlist <file>]
    tt-lint test-lines < <file.rs>

Checks every crate under <dir>/crates against the determinism,
effect-boundary, and panic-surface lints, and the workspace for
dependency edges no code uses and public items only tests use (see
DESIGN.md). Exits
non-zero on any unsuppressed finding, bad or stale exception, or
malformed allowlist entry. Defaults: --root . --allowlist
<root>/tt-lint.allow

`test-lines` prints how many lines of the Rust source on stdin lie in
`#[cfg(test)]`-gated items, the test code the lints skip.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" => cmd = Some("check"),
            "test-lines" => cmd = Some("test-lines"),
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--allowlist" => match it.next() {
                Some(v) => allowlist = Some(PathBuf::from(v)),
                None => return usage_error("--allowlist needs a value"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    match cmd {
        Some("check") => {}
        Some(_) => return test_lines(),
        None => return usage_error("expected the `check` or `test-lines` subcommand"),
    }
    let allowlist = allowlist.unwrap_or_else(|| root.join("tt-lint.allow"));

    match check_workspace(&root, &allowlist) {
        Ok(report) => render(&report),
        Err(e) => {
            eprintln!("tt-lint: cannot read workspace at {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn test_lines() -> ExitCode {
    let mut source = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut source) {
        eprintln!("tt-lint: cannot read stdin: {e}");
        return ExitCode::from(2);
    }
    println!("{}", test_line_count(&source));
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("tt-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn render(report: &Report) -> ExitCode {
    for f in &report.findings {
        println!("error[{}]: {}", f.lint, f.message);
        println!("  --> {}:{} (`{}`)", f.file, f.line, f.pattern);
        println!("  = help: {}", f.help);
        println!();
    }
    for p in &report.policy_errors {
        println!("error[policy]: {}", p.message);
        println!("  --> {}:{}", p.file, p.line);
        println!();
    }
    let status = if report.clean() { "clean" } else { "FAILED" };
    println!(
        "tt-lint: {status} — {} files scanned, {} findings, {} policy errors, {} suppressed \
         by justified exceptions",
        report.files_scanned,
        report.findings.len(),
        report.policy_errors.len(),
        report.suppressed
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
