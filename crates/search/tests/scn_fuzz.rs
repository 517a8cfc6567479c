//! Fuzzes the reproducer text boundary. Every committed `.scn` file,
//! edited once — a line dropped or duplicated, or a numeric token replaced
//! by an edge value — must either fail to decode or decode into a
//! reproducer whose genome validates against its space and whose scenario
//! builds without panicking. The scenario is built, never run.

use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use proptest::prelude::*;
use search::Reproducer;

/// Replacements for a numeric token: the edges of the node-count cap, of
/// `u16` addresses and of `u64` nanoseconds.
const EDGES: [u64; 8] = [0, 1, 63, 64, 65, u16::MAX as u64, u64::MAX / 1_000_000_000, u64::MAX];

/// The vendored runner draws 64 cases, so a run checks 256 mutants.
const MUTANTS_PER_CASE: usize = 4;

/// The committed reproducers, as text: the regression corpus and the
/// benchmark's inputs.
fn corpus() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut texts = Vec::new();
    for dir in ["results/search/corpus", "bench/inputs"] {
        let mut paths: Vec<_> = fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "scn"))
            .collect();
        paths.sort();
        texts.extend(paths.iter().map(|p| fs::read_to_string(p).expect("readable .scn")));
    }
    assert!(texts.len() >= 6, "the corpus went missing");
    texts
}

/// Byte ranges of the numeric tokens: words or `k=v` values that parse as
/// a number.
fn numeric_tokens(text: &str) -> Vec<Range<usize>> {
    let mut tokens = Vec::new();
    let mut start = 0;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        if c.is_whitespace() || c == '=' {
            let token = &text[start..i];
            let numeric = token.starts_with(|c: char| c.is_ascii_digit() || c == '-');
            if numeric && token.parse::<f64>().is_ok() {
                tokens.push(start..i);
            }
            start = i + c.len_utf8();
        }
    }
    tokens
}

/// Applies one edit: `kind` 0 drops line `at`, 1 duplicates it, 2 replaces
/// numeric token `at` with `EDGES[edge]` (indices taken modulo the count).
fn mutate(text: &str, kind: usize, at: usize, edge: usize) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let line = at % lines.len();
    match kind {
        0 => {
            lines.remove(line);
        }
        1 => lines.insert(line, lines[line]),
        _ => {
            let tokens = numeric_tokens(text);
            let token = &tokens[at % tokens.len()];
            return format!("{}{}{}", &text[..token.start], EDGES[edge], &text[token.end..]);
        }
    }
    lines.join("\n") + "\n"
}

/// What decoding and building `text` came to; `Err` names the property
/// violated.
fn check(text: &str) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(rep) = Reproducer::decode(text) else {
            return Ok(()); // rejected: the boundary held
        };
        rep.genome.validate(&rep.space).map_err(|e| format!("decoded but invalid: {e}"))?;
        rep.space.spec(&rep.genome).build(rep.eval_seed);
        Ok(())
    }));
    outcome.unwrap_or_else(|_| Err("decode or build panicked".to_string()))
}

proptest! {
    #[test]
    fn mutated_reproducers_err_or_build(
        edits in proptest::collection::vec(
            (any::<usize>(), 0..3usize, any::<usize>(), 0..EDGES.len()),
            MUTANTS_PER_CASE..MUTANTS_PER_CASE + 1,
        )
    ) {
        let corpus = corpus();
        for (file, kind, at, edge) in edits {
            let text = mutate(&corpus[file % corpus.len()], kind, at, edge);
            let verdict = check(&text);
            prop_assert!(verdict.is_ok(), "{}:\n{text}", verdict.unwrap_err());
        }
    }
}
