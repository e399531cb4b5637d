#!/usr/bin/env bash
# Relative regression check before a merge: runs the benchmark on a parent
# revision and on the working tree in alternating pairs, then judges the
# two sets with `ed-benchmark --compare` against the bounds in
# BENCHMARK.json. It pairs runs instead of reading a committed reference
# set: on a noisy VM stored numbers go stale, while runs interleaved with
# the parent's share its noise.
#
# Usage: scripts/bench_pairs.sh PARENT_REV [PAIRS] [WORKLOAD...]
#
# PAIRS defaults to 10; with no WORKLOAD every workload in BENCHMARK.json
# runs. The parent's committed files are exported (`git archive`) into a
# temporary directory, removed on exit, and built there; the working tree
# builds into $CARGO_TARGET_DIR (default .bench_build), as
# benchmark/run.py does. Each run is one untraced
# `ed-benchmark --workload W --runs 1` started in its own tree, so the two
# trees' .bench_out directories stay apart. Odd pairs run the parent
# first, even pairs the working tree. The result files (parent.jsonl,
# change.jsonl) and each side's printed metrics stay in a fresh
# .bench_out/pairs.* directory. The script prints the comparison and exits
# 1 on any REGRESSION, or when a run fails.

set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_pairs.sh PARENT_REV [PAIRS] [WORKLOAD...]"
if [ $# -lt 1 ]; then
    echo "$usage" >&2
    exit 2
fi
REV="$(git rev-parse --verify "$1^{commit}")"
PAIRS="${2:-10}"
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ ]]; then
    echo "PAIRS must be a positive integer, got '$PAIRS'; $usage" >&2
    exit 2
fi
shift $(($# < 2 ? $# : 2))
WORKLOADS=("$@")
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    read -r -a WORKLOADS <<< "$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/parent"
git archive "$REV" | tar -x -C "$TMP/parent"

CHANGE_TARGET="${CARGO_TARGET_DIR:-.bench_build}"
echo "==> building ed-benchmark at $REV" >&2
CARGO_TARGET_DIR="$TMP/target" cargo build --release --offline --quiet \
    --manifest-path "$TMP/parent/benchmark/Cargo.toml"
echo "==> building ed-benchmark in the working tree" >&2
CARGO_TARGET_DIR="$CHANGE_TARGET" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
PARENT_BIN="$TMP/target/release/ed-benchmark"
CHANGE_BIN="$(cd "$CHANGE_TARGET" && pwd)/release/ed-benchmark"

mkdir -p .bench_out
OUT="$(cd "$(mktemp -d .bench_out/pairs.XXXXXX)" && pwd)"

run_side() { # run_side parent|change WORKLOAD
    local dir="." bin="$CHANGE_BIN"
    if [ "$1" = parent ]; then
        dir="$TMP/parent"
        bin="$PARENT_BIN"
    fi
    (cd "$dir" && "$bin" --workload "$2" --trace 0 --runs 1 \
        --json "$OUT/$1.jsonl" >> "$OUT/$1.log") || {
        echo "FAILED: the $1 run of $2 exited non-zero (see $OUT/$1.log)" >&2
        exit 1
    }
}

for pair in $(seq 1 "$PAIRS"); do
    for w in "${WORKLOADS[@]}"; do
        echo "==> pair $pair/$PAIRS: $w" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run_side parent "$w"
            run_side change "$w"
        else
            run_side change "$w"
            run_side parent "$w"
        fi
    done
done

echo "==> runs in $OUT" >&2
"$CHANGE_BIN" --compare "$OUT/parent.jsonl" "$OUT/change.jsonl"
