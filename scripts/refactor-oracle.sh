#!/usr/bin/env bash
# The refactor oracle: a change that means to alter no artifact must
# produce byte-identical experiment output to <base-ref>, at any --jobs.
#
#   scripts/refactor-oracle.sh <base-ref>
#
# Builds <base-ref> from a `git archive` export (in a temporary directory,
# so nothing is left behind in .git or the working tree) and the working
# tree as it stands, runs `triad-experiments all --quick` at --jobs 1 and
# --jobs 2 on each and `diff -r`s the four output trees against each
# other, does the same for one `--smoke` run of the grid experiments per
# side (the smoke grids are separate cell lists `all --quick` never
# builds), and replays the committed reproducer corpus and the two
# benchmark reproducers under bench/inputs (read only) on the working
# tree's binary. Exits non-zero on the first difference or replay
# mismatch.
# Everything is built --offline (the workspace vendors its dependencies).
set -euo pipefail

base_ref=${1:?usage: scripts/refactor-oracle.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$base_commit" | tar -x -C "$work/base"

build() { # <checkout> <target-dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" \
        cargo build --release --offline -p experiments --bin triad-experiments)
}
echo "refactor-oracle: building $base_ref ($base_commit) and the working tree"
build "$work/base" "$work/base-target"
change_target=${CARGO_TARGET_DIR:-$root/target}
build "$root" "$change_target"

run() { # <checkout> <binary> <out-dir> <experiment ids and flags...>
    local checkout=$1 binary=$2 out=$3
    shift 3
    (cd "$checkout" && "$binary" "$@" --out "$out" >"$out.log" 2>&1) ||
        { echo "refactor-oracle: run failed, see below" >&2; tail -n 20 "$out.log" >&2; exit 1; }
}
base_bin=$work/base-target/release/triad-experiments
change_bin=$change_target/release/triad-experiments
for jobs in 1 2; do
    echo "refactor-oracle: all --quick --jobs $jobs (base, then change)"
    run "$work/base" "$base_bin" "$work/base-j$jobs" all --quick --jobs "$jobs"
    run "$root" "$change_bin" "$work/change-j$jobs" all --quick --jobs "$jobs"
done
smoke=(fig2 fig3 chaos serve quorum --smoke --jobs 2)
echo "refactor-oracle: ${smoke[*]} (base, then change)"
run "$work/base" "$base_bin" "$work/base-smoke" "${smoke[@]}"
run "$root" "$change_bin" "$work/change-smoke" "${smoke[@]}"

for other in base-j2 change-j1 change-j2; do
    diff -r "$work/base-j1" "$work/$other" ||
        { echo "refactor-oracle: $other differs from base-j1" >&2; exit 1; }
done
echo "refactor-oracle: four output trees identical"
diff -r "$work/base-smoke" "$work/change-smoke" ||
    { echo "refactor-oracle: smoke trees differ" >&2; exit 1; }
echo "refactor-oracle: smoke trees identical"

(cd "$root" && "$change_bin" replay results/search/corpus/*.scn bench/inputs/*.scn)
echo "refactor-oracle: corpus and bench/inputs replay to their recorded fitness — pass"
