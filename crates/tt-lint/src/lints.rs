//! The lint catalog: repo-specific invariants the workspace must hold.
//!
//! Three families, mirroring the determinism contract in DESIGN.md:
//!
//! - **determinism lints** (`wall-clock`, `ambient-rng`,
//!   `hash-collections`, `ambient-io`) fire anywhere inside a
//!   deterministic crate,
//! - the **effect-boundary lint** (`effect-boundary`) fires only inside
//!   `impl Machine for …` blocks, where every clock/RNG/network/thread
//!   capability must come through `proto::Env`,
//! - the **panic-surface lint** (`panic-surface`) fires only in the
//!   message-handling hot-path modules (wire decode → machine input),
//!   where fault plans require graceful degradation instead of aborts,
//! - the **unsafe-intrinsics lint** (`unsafe-intrinsics`) fires in every
//!   scanned crate: `unsafe` and CPU-intrinsic machinery are licensed
//!   only inside the designated crypto kernel pair
//!   (`crates/crypto/src/{backend,clmul}.rs`), where each use carries a
//!   justified allow; an allow anywhere else is itself a policy error,
//! - the **component-model lint** (`component-model`) fires everywhere
//!   but the `Machine` adapter and the environment drivers: a protocol
//!   participant is a `proto::Machine`, never a raw simulation actor.

use crate::lexer::CodeLine;

/// Where a lint applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every file of every deterministic crate.
    DeterministicCrates,
    /// Only inside `impl Machine for …` spans (any scanned crate).
    MachineImpls,
    /// Only the configured hot-path modules.
    HotPathModules,
    /// Every file of every scanned crate, deterministic or not.
    AllCrates,
    /// Every scanned file except the `Machine` adapter and the
    /// environment drivers (`crate::DRIVER_MODULES`).
    OutsideDrivers,
}

/// One lint: a name, a scope, the tokens that trigger it, and the
/// diagnostic text.
#[derive(Debug)]
pub struct Lint {
    /// Lint name as used in diagnostics and `tt-lint: allow(...)`.
    pub name: &'static str,
    /// Where the lint applies.
    pub scope: Scope,
    /// Code tokens (word-boundary matched) that trigger the lint.
    pub patterns: &'static [&'static str],
    /// What went wrong.
    pub message: &'static str,
    /// How to fix it.
    pub help: &'static str,
}

/// The full catalog.
pub const LINTS: &[Lint] = &[
    Lint {
        name: "wall-clock",
        scope: Scope::DeterministicCrates,
        patterns: &["Instant", "SystemTime"],
        message: "wall-clock time source in a deterministic crate",
        help: "simulated time comes from `Env::now()` / `Ctx::now()`; wall clocks belong to \
               the live runtime (crates/net) only",
    },
    Lint {
        name: "ambient-rng",
        scope: Scope::DeterministicCrates,
        patterns: &["thread_rng", "from_entropy", "OsRng", "getrandom", "rand::random"],
        message: "ambient (non-seeded) randomness in a deterministic crate",
        help: "all randomness must flow from the run's seeded `StdRng` (via `Env::rng()` or an \
               explicitly derived seed)",
    },
    Lint {
        name: "hash-collections",
        scope: Scope::DeterministicCrates,
        patterns: &["HashMap", "HashSet", "RandomState"],
        message: "RandomState-keyed collection in a deterministic crate (iteration order is \
                  nondeterministic per process)",
        help: "use BTreeMap/BTreeSet or drain through a sort, or justify with \
               `// tt-lint: allow(hash-collections) — <why>` if the map is never iterated",
    },
    Lint {
        name: "ambient-io",
        scope: Scope::DeterministicCrates,
        patterns: &["std::fs", "std::env"],
        message: "ambient filesystem/environment access in a deterministic crate",
        help: "artifact writing goes through trace::sink (write_csv, write_text), the one \
               experiment writer; nothing else may touch the host environment",
    },
    Lint {
        name: "effect-boundary",
        scope: Scope::MachineImpls,
        patterns: &[
            "std::net",
            "std::thread",
            "std::sync",
            "UdpSocket",
            "TcpStream",
            "TcpListener",
            "Mutex",
            "RwLock",
            "Condvar",
            "Instant",
            "SystemTime",
            "thread_rng",
        ],
        message: "direct platform capability inside an `impl Machine` block",
        help: "machines run unchanged under the sim and the live UDP runtime; every clock, RNG, \
               socket, or cross-thread effect must go through `proto::Env`",
    },
    Lint {
        name: "unsafe-intrinsics",
        scope: Scope::AllCrates,
        patterns: &["unsafe", "is_x86_feature_detected", "core::arch", "std::arch"],
        message: "unsafe code / CPU intrinsics outside the designated crypto kernel pair",
        help: "intrinsics live only in crates/crypto/src/backend.rs (safe wrappers, runtime \
               feature detection) and crates/crypto/src/clmul.rs (kernels); everything else \
               stays forbid(unsafe_code) so the determinism and memory-safety audit surface \
               is two files",
    },
    Lint {
        name: "component-model",
        scope: Scope::OutsideDrivers,
        patterns: &["Actor<World, SysEvent> for", "impl sim::Actor"],
        message: "a simulation actor outside the Machine adapter and the environment drivers",
        help: "protocol participants are `proto::Machine`s, run by `runtime::MachineActor` in the \
               simulation and by `net`'s driver live; only the adapter and the environment \
               drivers (EnvDriver, Sampler, FaultDriver) implement `sim::Actor`",
    },
    Lint {
        name: "panic-surface",
        scope: Scope::HotPathModules,
        patterns: &[".unwrap()", ".expect("],
        message: "unwrap/expect on the message-handling hot path",
        help: "wire decode → machine input must degrade gracefully under fault plans; return a \
               typed error that feeds the trace drop counters instead",
    },
];

/// Looks a lint up by name.
pub fn lint_by_name(name: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.name == name)
}

/// All pattern hits of `lint` in `line`, as (column, pattern) pairs.
pub fn matches_in(lint: &Lint, line: &CodeLine) -> Vec<(usize, &'static str)> {
    let mut hits = Vec::new();
    for &pat in lint.patterns {
        let mut from = 0;
        while let Some(i) = line.code.get(from..).and_then(|s| s.find(pat)) {
            let pos = from + i;
            if pattern_matches(&line.code, pos, pat) {
                hits.push((pos + 1, pat));
            }
            from = pos + pat.len();
        }
    }
    hits.sort_unstable();
    hits
}

/// Word-boundary semantics for patterns that may carry `::`, `.`, `(`,
/// or `)` punctuation: the check applies to the identifier edges only,
/// so `HashMap` rejects `MyHashMapLike` but `std::time::Instant` still
/// hits the bare `Instant` pattern.
fn pattern_matches(code: &str, pos: usize, pat: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let starts_ident = pat.chars().next().is_some_and(is_ident);
    let ends_ident = pat.chars().next_back().is_some_and(is_ident);
    let before = code[..pos].chars().next_back();
    let after = code[pos + pat.len()..].chars().next();
    (!starts_ident || before.is_none_or(|c| !is_ident(c)))
        && (!ends_ident || after.is_none_or(|c| !is_ident(c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(code: &str) -> CodeLine {
        CodeLine { number: 1, code: code.to_string() }
    }

    #[test]
    fn word_boundaries_respected() {
        let lint = lint_by_name("hash-collections").unwrap();
        assert_eq!(matches_in(lint, &line("let m: HashMap<u8, u8>;")).len(), 1);
        assert!(matches_in(lint, &line("let m = MyHashMapLike::new();")).is_empty());
        assert!(matches_in(lint, &line("let m = BTreeMap::new();")).is_empty());
    }

    #[test]
    fn unwrap_matches_calls_not_unwrap_or() {
        let lint = lint_by_name("panic-surface").unwrap();
        assert_eq!(matches_in(lint, &line("x.unwrap();")).len(), 1);
        assert!(matches_in(lint, &line("x.unwrap_or(0);")).is_empty());
        assert_eq!(matches_in(lint, &line("x.expect(\"msg\");")).len(), 1);
    }

    #[test]
    fn qualified_paths_match() {
        let lint = lint_by_name("ambient-io").unwrap();
        assert_eq!(matches_in(lint, &line("std::fs::write(p, b)?;")).len(), 1);
        assert_eq!(matches_in(lint, &line("use std::env;")).len(), 1);
    }
}
