#!/usr/bin/env bash
# The one definition of the workspace line count ROADMAP item 9 budgets.
#
#   scripts/loc.sh [<tree-ish>]        (default: the working tree)
#
# Counts first-party Rust: tracked `*.rs` files outside `vendor/` and
# `bench/`. Prints three numbers:
#   all       every line of those files
#   non-test  the same, leaving out the lines of `#[cfg(test)]`-gated
#             items (as `tt-lint test-lines` finds them: the test code
#             every lint skips)
#   product   the non-test lines of files outside a `tests/` directory
# plus the `crates/net/src` share of the last one, and three shape counts:
#   crates    `crates/*/Cargo.toml` manifests
#   edges     entries of every `*dependencies]` table of those manifests
#             and the root package (`[workspace.dependencies]` is a
#             version table, not an edge)
#   pub-use   `pub use` lines in `crates/*/src/lib.rs`
# With a <tree-ish> the files are read from that commit, so parent and
# change are counted by the same rule (the working tree's tt-lint).
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
ref=${1:-}

cargo build --release --offline --quiet -p tt-lint
lint="${CARGO_TARGET_DIR:-target}/release/tt-lint"

tracked() { if [ -n "$ref" ]; then git ls-tree -r --name-only "$ref"; else git ls-files; fi; }
list() { tracked | grep '\.rs$' | grep -v -e '^vendor/' -e '^bench/'; }
show() { if [ -n "$ref" ]; then git show "$ref:$1"; else cat "$1"; fi; }

list | while read -r f; do
    src=$(show "$f"; echo x)
    src=${src%x}
    lines=$(printf '%s' "$src" | awk 'END { print NR }')
    test_lines=$(printf '%s' "$src" | "$lint" test-lines)
    echo "$lines" "$((lines - test_lines))" "$f"
done | awk '
    { all += $1; nontest += $2 }
    $3 !~ /(^|\/)tests\// { product += $2 }
    $3 ~ /^crates\/net\/src\// { net += $2 }
    END {
        printf "all       %d\nnon-test  %d\nproduct   %d\n", all, nontest, product
        printf "  of which crates/net/src  %d\n", net
    }'

manifests=$(tracked | grep -x -e 'Cargo.toml' -e 'crates/[^/]*/Cargo.toml')
printf "crates    %d\n" "$(grep -c '^crates/' <<<"$manifests")"
printf "edges     %d\n" "$(for f in $manifests; do show "$f"; done | awk '
    /^\[/ { table = /dependencies\]$/ && !/^\[workspace\./; next }
    table && NF && !/^#/ { n++ }
    END { print n + 0 }')"
printf "pub-use   %d\n" "$(tracked | grep -x 'crates/[^/]*/src/lib.rs' |
    while read -r f; do show "$f"; done | grep -c '^pub use')"
