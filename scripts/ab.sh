#!/usr/bin/env sh
# A/B comparison of the repository benchmark (perfbench) between revision
# BASE and the working tree.
#
# Both sides are built in release mode with the same pinned function
# alignment (RUSTFLAGS="-C llvm-args=-align-all-functions=6"), each in its
# own target directory, so a difference in code placement alone cannot
# pass for a gain or a loss. BASE is exported with `git archive` into a
# temporary directory, which is removed on exit. Then each workload runs
# N pairs of untraced (`--trace 0`), seed-1 runs of BENCHMARK.json's
# run_seconds each, the two sides taking turns to go first, and for every
# end-to-end metric BENCHMARK.json declares the script prints the
# parent's and the change's median [q1, q3] and the number of pairs the
# change won, in the metric's own direction. With AB_TRACE=1 the pairs
# are traced (`--trace 1`) runs instead, and the same summary covers
# every per_layer metric BENCHMARK.json lists. The script only reads
# BENCHMARK.json.
#
# Usage: scripts/ab.sh BASE [WORKLOAD...]
#   BASE        any git revision, e.g. HEAD or HEAD~1
#   WORKLOAD    perfbench workloads (default: every one BENCHMARK.json
#               lists)
# Environment:
#   AB_PAIRS    pairs per workload (default 10)
#   AB_TRACE    1 to compare the per_layer metrics of traced runs
#               (default 0: the end-to-end metrics of untraced runs)
set -eu

cd "$(dirname "$0")/.."
if [ $# -lt 1 ]; then
    echo "usage: scripts/ab.sh BASE [WORKLOAD...]" >&2
    exit 2
fi
base="$1"
shift
pairs="${AB_PAIRS:-10}"
trace="${AB_TRACE:-0}"
case "$trace" in
    0) section=end_to_end ;;
    1) section=per_layer ;;
    *) echo "AB_TRACE must be 0 or 1" >&2; exit 2 ;;
esac

# The run length, "name better" per metric of the compared section, and
# the workload names, read from BENCHMARK.json (one list entry per line).
seconds="$(awk 'match($0, /"run_seconds": *[0-9.]+/) {
    s = substr($0, RSTART, RLENGTH); sub(/.*: */, "", s); print s }' BENCHMARK.json)"
metrics="$(awk -v section="\"$section\"" 'index($0, section) { on = 1; next } on && /\]/ { on = 0 }
    on && /"name"/ {
        match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
        match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
        gsub(/.*: *"|"$/, "", n); gsub(/.*: *"|"$/, "", b); print n, b
    }' BENCHMARK.json)"
if [ $# -gt 0 ]; then
    workloads="$*"
else
    workloads="$(awk '/"workloads"/ { on = 1; next } on && /\]/ { on = 0 }
        on && /"name"/ { match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
                         gsub(/.*: *"|"$/, "", n); print n }' BENCHMARK.json)"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive --format=tar "$base" | tar -x -C "$tmp/base"

export RUSTFLAGS="-C llvm-args=-align-all-functions=6"
# build SIDE TREE: builds TREE's perfbench into $tmp/SIDE-target.
build() {
    echo "==> building $1 ($2)" >&2
    CARGO_TARGET_DIR="$tmp/$1-target" cargo build --release --offline --quiet \
        --manifest-path "$2/perfbench/Cargo.toml"
}
build parent "$tmp/base"
build change "$(pwd)"

# run SIDE TREE WORKLOAD: one run; appends each metric's value to
# $tmp/WORKLOAD.SIDE.METRIC, one line per run.
run() {
    out="$(cd "$2" && "$tmp/$1-target/release/urt-perfbench" --workload "$3" \
        --seed 1 --seconds "$seconds" --trace "$trace" | tail -n 1)"
    case "$out" in
        '{"correct": true,'*'"failed": 0,'*) ;;
        *) echo "warning: $1 $3 run not clean: $out" >&2 ;;
    esac
    printf '%s\n' "$metrics" | while read -r name _; do
        printf '%s\n' "$out" | awk -v key="\"$name\": {\"value\": " '{
            i = index($0, key); if (i == 0) exit
            rest = substr($0, i + length(key)); sub(/[,}].*/, "", rest); print rest
        }' >>"$tmp/$3.$1.$name"
    done
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "==> $w pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$tmp/base" "$w"
            run change "$(pwd)" "$w"
        else
            run change "$(pwd)" "$w"
            run parent "$tmp/base" "$w"
        fi
        i=$((i + 1))
    done
done

# median [q1, q3] of the values in a file (linear interpolation).
summary() {
    sort -g "$1" | awk '{ v[NR] = $1 }
        function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { if (NR == 0) print "n/a"; else printf "%.6g [%.6g, %.6g]", q(0.5), q(0.25), q(0.75) }'
}

echo "A/B $base -> working tree: $pairs pairs, ${seconds} s per run, seed 1, trace $trace"
for w in $workloads; do
    printf '%s\n' "$metrics" | while read -r name better; do
        wins="$(paste "$tmp/$w.parent.$name" "$tmp/$w.change.$name" | awk -v better="$better" '
            (better == "higher" && $2 > $1) || (better == "lower" && $2 < $1) { n++ }
            END { print n + 0 }')"
        printf '%s %s (%s is better): parent %s, change %s, change wins %s/%s\n' \
            "$w" "$name" "$better" "$(summary "$tmp/$w.parent.$name")" \
            "$(summary "$tmp/$w.change.$name")" "$wins" "$pairs"
    done
done
