//! Fixture snippets with exact expected diagnostics — the contract the
//! analyzer must keep, one small source text per rule.

use tt_lint::allowlist;
use tt_lint::lint_source;

/// Helper: lint a snippet as the given workspace-relative file with an
/// empty allowlist.
fn lint(rel: &str, src: &str) -> Vec<tt_lint::Finding> {
    let (findings, policy, _, _) = lint_source(rel, src, &[]);
    assert!(policy.is_empty(), "unexpected policy errors: {policy:?}");
    findings
}

#[test]
fn seeded_instant_in_proto_is_flagged_with_file_and_line() {
    let src = "pub fn bad() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let f = lint("crates/proto/src/lib.rs", src);
    assert_eq!(f.len(), 2, "one per occurrence: {f:?}");
    assert_eq!((f[0].lint, f[0].line), ("wall-clock", 1));
    assert_eq!((f[1].lint, f[1].line), ("wall-clock", 2));
    assert_eq!(f[1].pattern, "Instant");
    assert_eq!(f[1].file, "crates/proto/src/lib.rs");
}

#[test]
fn system_time_and_thread_rng_are_flagged() {
    let src = "use std::time::SystemTime;\nuse rand::thread_rng;\n";
    let f = lint("crates/stats/src/lib.rs", src);
    assert_eq!(f.len(), 2);
    assert_eq!((f[0].lint, f[0].line), ("wall-clock", 1));
    assert_eq!((f[1].lint, f[1].line), ("ambient-rng", 2));
}

#[test]
fn hash_collections_are_flagged_but_btree_is_not() {
    let src = "use std::collections::{BTreeMap, HashSet};\n";
    let f = lint("crates/sim/src/lib.rs", src);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].lint, "hash-collections");
    assert_eq!(f[0].pattern, "HashSet");
}

#[test]
fn identifier_boundaries_do_not_false_positive() {
    // A type that merely *contains* a forbidden token is fine.
    let src = "struct MyHashMapLike;\nfn instantiate() {}\n";
    assert!(lint("crates/proto/src/x.rs", src).is_empty());
}

#[test]
fn tokens_inside_strings_and_comments_are_ignored() {
    let src = "// HashMap would be wrong here\nconst DOC: &str = \"Instant::now\";\n";
    assert!(lint("crates/proto/src/x.rs", src).is_empty());
}

#[test]
fn ambient_io_flags_fs_outside_output_modules_only() {
    let src = "use std::fs;\n";
    let f = lint("crates/experiments/src/sweep.rs", src);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].lint, "ambient-io");
    // The designated output modules are exempt.
    assert!(lint("crates/trace/src/sink.rs", src).is_empty());
    assert!(lint("crates/search/src/corpus.rs", src).is_empty());
}

#[test]
fn machine_impls_in_live_crates_cannot_reach_ambient_capabilities() {
    let src = "\
use proto::{Env, Input, Machine};

impl Machine for Probe {
    fn on_input(&mut self, _env: &mut dyn Env, _i: Input) {
        let _ = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::ZERO);
    }
}

fn outside_impl() {
    let _ = std::time::Instant::now(); // fine: net is a live crate
}
";
    let f = lint("crates/net/src/x.rs", src);
    assert!(f.iter().all(|f| f.lint == "effect-boundary"), "only the impl span is scanned: {f:?}");
    let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
    assert!(lines.contains(&5) && lines.contains(&6), "{f:?}");
    assert!(!lines.contains(&11), "code outside the impl is exempt: {f:?}");
}

#[test]
fn a_protocol_participant_written_as_a_sim_actor_is_flagged() {
    let src = "\
impl Actor<World, SysEvent> for TimeAuthority {}
impl<M: Machine> Actor<World, SysEvent> for Wrapper<M> {}
impl sim::Actor<(), ()> for Probe {}
impl Machine for Tpm {}
";
    let f = lint("crates/authority/src/lib.rs", src);
    let hits: Vec<_> = f.iter().map(|f| (f.lint, f.line, f.pattern)).collect();
    assert_eq!(
        hits,
        [
            ("component-model", 1, "Actor<World, SysEvent> for"),
            ("component-model", 2, "Actor<World, SysEvent> for"),
            ("component-model", 3, "impl sim::Actor"),
        ]
    );
    // The live crate is scanned too.
    assert_eq!(lint("crates/net/src/x.rs", src).len(), 3);
}

#[test]
fn the_adapter_drivers_and_test_code_may_implement_sim_actor() {
    let src = "impl Actor<World, SysEvent> for Sampler {}\n";
    for driver in tt_lint::DRIVER_MODULES {
        assert!(lint(driver, src).is_empty(), "{driver}");
    }
    let test_only = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
    assert!(lint("crates/authority/src/lib.rs", &test_only).is_empty());
}

#[test]
fn panic_surface_applies_only_to_hot_path_modules() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let f = lint("crates/wire/src/codec.rs", src);
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].lint, f[0].pattern), ("panic-surface", ".unwrap()"));
    // The same code outside the hot path is not a finding.
    assert!(lint("crates/wire/src/lib.rs", src).is_empty());
}

#[test]
fn unsafe_intrinsics_flagged_everywhere_but_the_kernel_pair() {
    let src = "pub fn f(x: u128, h: u128) -> u128 {\n    unsafe { core::arch::x86_64::_mm_clmulepi64_si128(a, b, 0) }\n}\n";
    let f = lint("crates/sim/src/lib.rs", src);
    assert_eq!(f.len(), 2, "`unsafe` and `core::arch`: {f:?}");
    assert!(f.iter().all(|f| f.lint == "unsafe-intrinsics"), "{f:?}");
    // The live crate is NOT exempt: the lint spans every scanned crate.
    assert_eq!(lint("crates/net/src/x.rs", src).len(), 2);
    // The designated kernel pair may waive it with a justified allow.
    let waived = format!("// tt-lint: allow-file(unsafe-intrinsics) — kernels\n{src}");
    let (f, p, suppressed, _) = lint_source("crates/crypto/src/clmul.rs", &waived, &[]);
    assert!(f.is_empty() && p.is_empty(), "{f:?} {p:?}");
    assert_eq!(suppressed, 2);
}

#[test]
fn unsafe_intrinsics_boundaries_spare_the_lint_attributes() {
    // `forbid(unsafe_code)` and the feature-probe macro name inside a
    // string/comment must not fire; a real probe outside the pair must.
    let src = "#![forbid(unsafe_code)]\n// unsafe is discussed here only\n";
    assert!(lint("crates/proto/src/lib.rs", src).is_empty());
    let probe = "fn d() -> bool { std::arch::is_x86_feature_detected!(\"aes\") }\n";
    let f = lint("crates/tsc/src/lib.rs", probe);
    assert_eq!(f.len(), 2, "`std::arch` and the probe macro: {f:?}");
    assert!(f.iter().all(|f| f.lint == "unsafe-intrinsics"));
}

#[test]
fn unsafe_intrinsics_allow_outside_kernel_pair_is_a_policy_error() {
    let src = "// tt-lint: allow(unsafe-intrinsics) — trust me\nunsafe { transmute(x) }\n";
    let (f, p, _, _) = lint_source("crates/runtime/src/machine.rs", src, &[]);
    assert_eq!(f.len(), 1, "the allow must not suppress the finding: {f:?}");
    assert_eq!(p.len(), 1);
    assert!(p[0].message.contains("cannot be waived"), "{p:?}");
}

#[test]
fn inline_allow_suppresses_and_requires_justification() {
    let good = "// tt-lint: allow(hash-collections) — lookup only, never iterated\n\
                use std::collections::HashMap;\n";
    let (f, p, suppressed, _) = lint_source("crates/proto/src/x.rs", good, &[]);
    assert!(f.is_empty() && p.is_empty());
    assert_eq!(suppressed, 1);

    let bare = "// tt-lint: allow(hash-collections)\nuse std::collections::HashMap;\n";
    let (f, p, _, _) = lint_source("crates/proto/src/x.rs", bare, &[]);
    assert_eq!(f.len(), 1, "an unjustified allow suppresses nothing");
    assert_eq!(p.len(), 1);
    assert!(p[0].message.contains("no justification"), "{p:?}");
}

#[test]
fn stale_inline_allow_is_a_policy_error() {
    let src = "// tt-lint: allow(wall-clock) — obsolete\nfn fine() {}\n";
    let (f, p, _, _) = lint_source("crates/proto/src/x.rs", src, &[]);
    assert!(f.is_empty());
    assert_eq!(p.len(), 1);
    assert!(p[0].message.contains("stale"), "{p:?}");
}

#[test]
fn unknown_lint_name_in_allow_is_a_policy_error() {
    let src = "// tt-lint: allow(no-such-lint) — whatever\nfn fine() {}\n";
    let (_, p, _, _) = lint_source("crates/proto/src/x.rs", src, &[]);
    assert_eq!(p.len(), 1);
    assert!(p[0].message.contains("no known lint"), "{p:?}");
}

#[test]
fn allowlist_entry_suppresses_whole_file_and_reports_use() {
    let (entries, errs) =
        allowlist::parse("hash-collections crates/proto/src/x.rs — sessions are lookup-only\n");
    assert!(errs.is_empty());
    let src = "use std::collections::HashMap;\ntype T = std::collections::HashSet<u8>;\n";
    let (f, p, suppressed, used) = lint_source("crates/proto/src/x.rs", src, &entries);
    assert!(f.is_empty() && p.is_empty());
    assert_eq!(suppressed, 2);
    assert_eq!(used, vec![1, 1], "both suppressions credit allowlist line 1");
}

#[test]
fn allowlist_entry_without_justification_is_rejected() {
    let (entries, errs) = allowlist::parse("hash-collections crates/proto/src/x.rs\n");
    assert!(entries.is_empty());
    assert_eq!(errs.len(), 1);
}
