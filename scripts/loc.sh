#!/usr/bin/env bash
# Non-test Rust lines under crates/, per crate and in total.
#
# Usage: scripts/loc.sh
#
# Counts the lines of every .rs file under crates/ outside a tests/
# directory, up to the file's first `#[cfg(test)]` line (the unit-test
# module closes each file). This is the size measure CHANGES.md quotes;
# to compare two trees, run it in each.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    # xargs may split a long file list over several awk runs: sum them.
    n="$(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 \
        | xargs -0 -r awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }')"
    printf '%8d  %s\n' "$n" "$(basename "$dir")"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
