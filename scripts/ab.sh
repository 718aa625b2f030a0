#!/usr/bin/env bash
# Interleaved A/B run of two revisions on the perfbench workloads:
#
#   scripts/ab.sh OLD NEW
#
# OLD and NEW are any git revisions. Each is exported with `git archive`
# into a scratch directory (a plain copy: nothing is registered in the
# repository) and its perfbench is built there. Then every workload that
# NEW's BENCHMARK.json lists runs in 10 pairs, alternating which side
# runs first; both runs of pair i use `--seed i` and perfbench's default
# run length. The summary gives, per workload and metric, both
# sides' medians and quartiles, how many pairs NEW won (ties count for
# neither side), and whether the gain rule holds: NEW wins at least
# nine tenths of the pairs and the medians differ by more than OLD's
# interquartile range. It also says whether the two sides' report
# digests matched in every pair.
#
# Environment:
#   AB_DIR  scratch directory (default: a fresh temporary directory,
#           deleted on exit; a given AB_DIR is kept, and its raw results
#           are in AB_DIR/results.txt)
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: scripts/ab.sh OLD NEW" >&2
    exit 2
fi
OLD_REV=$1
NEW_REV=$2
PAIRS=10
REPO=$(cd "$(dirname "$0")/.." && pwd)

if [ -n "${AB_DIR:-}" ]; then
    mkdir -p "$AB_DIR"
else
    AB_DIR=$(mktemp -d)
    trap 'rm -rf "$AB_DIR"' EXIT
fi
RESULTS="$AB_DIR/results.txt"
: > "$RESULTS"

# export SIDE REV: a built perfbench for REV under $AB_DIR/SIDE.
export_side() {
    local side=$1 rev=$2 dir="$AB_DIR/$1"
    rm -rf "$dir"
    mkdir -p "$dir"
    git -C "$REPO" archive --format=tar "$rev" | tar -x -C "$dir"
    echo "==> building perfbench at $rev ($side)" >&2
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/perfbench/Cargo.toml"
}

# run SIDE WORKLOAD PAIR: one untraced run, its metrics appended to
# $RESULTS as "workload side pair key value" lines.
run() {
    local side=$1 workload=$2 pair=$3 out rc=0
    out="$AB_DIR/$side-$workload-$pair.txt"
    (cd "$AB_DIR/$side" && "$AB_DIR/$side/target/release/perfbench" \
        --workload "$workload" --seed "$pair" --trace 0) \
        > "$out" 2>&1 || rc=$?
    awk -v w="$workload" -v s="$side" -v p="$pair" -v rc="$rc" '
        /^report digest/ { print w, s, p, "digest", $NF }
        /^[a-z_.0-9]+ = / { print w, s, p, $1, $3 }
        /^workload .*failed_frac/ { print w, s, p, "failed_runs", $(NF - 4) }
        END { print w, s, p, "exit", (rc != 0) }
    ' "$out" >> "$RESULTS"
}

export_side old "$OLD_REV"
export_side new "$NEW_REV"

# The workload names, and which way each metric improves, from NEW's
# BENCHMARK.json (one key per line, as it is written).
awk -F'"' '
    /"workloads":/ { list = 1 }
    list && /^ *\],?$/ { list = 0 }
    list && /"name":/ { print $4 }
' "$AB_DIR/new/BENCHMARK.json" > "$AB_DIR/workloads.txt"
DIRECTIONS="$AB_DIR/directions.txt"
awk -F'"' '
    /"name":/ { name = $4 }
    /"better":/ { print name, $4 }
' "$AB_DIR/new/BENCHMARK.json" > "$DIRECTIONS"
mapfile -t WORKLOAD_LIST < "$AB_DIR/workloads.txt"
if [ "${#WORKLOAD_LIST[@]}" -eq 0 ]; then
    echo "no workloads in $NEW_REV's BENCHMARK.json" >&2
    exit 1
fi

for workload in "${WORKLOAD_LIST[@]}"; do
    for pair in $(seq 1 "$PAIRS"); do
        echo "==> $workload pair $pair/$PAIRS" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run old "$workload" "$pair"
            run new "$workload" "$pair"
        else
            run new "$workload" "$pair"
            run old "$workload" "$pair"
        fi
    done
done

echo "A/B: old $OLD_REV, new $NEW_REV; $PAIRS pairs per workload"
awk '
    function quantile(v, n, q,    i, j, t, pos, lo) {
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function stats(side, w, m,    p, n, v) {
        n = 0
        for (p = 1; p <= pairs; p++)
            if ((w, side, p, m) in val) v[++n] = val[w, side, p, m]
        q1 = med = q3 = ""
        if (n == 0) return "-"
        q1 = quantile(v, n, 0.25); med = quantile(v, n, 0.5); q3 = quantile(v, n, 0.75)
        return sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
    }
    FILENAME == ARGV[1] { better[$1] = $2; next }
    {
        w = $1; s = $2; p = $3; k = $4
        if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
        if (p + 0 > pairs + 0) pairs = p + 0
        if (k == "digest") { digest[w, s, p] = $5; next }
        if (k == "exit" || k == "failed_runs") { extra[w, s, k] += $5; next }
        if (!((w, k) in mseen)) { mseen[w, k] = 1; metrics[w, ++nm[w]] = k }
        val[w, s, p, k] = $5 + 0
    }
    END {
        for (i = 1; i <= nw; i++) {
            w = order[i]
            same = 0
            for (p = 1; p <= pairs; p++)
                if ((w, "old", p) in digest && digest[w, "old", p] == digest[w, "new", p]) same++
            printf "\nworkload %s: report digests matched in %d/%d pairs; failed job runs old %d, new %d; non-zero exits old %d, new %d\n", \
                w, same, pairs, extra[w, "old", "failed_runs"], extra[w, "new", "failed_runs"], \
                extra[w, "old", "exit"], extra[w, "new", "exit"]
            printf "%-26s %-7s %-36s %-36s %-6s %s\n", "metric", "better", "old median [q1, q3]", "new median [q1, q3]", "wins", "gain"
            for (j = 1; j <= nm[w]; j++) {
                m = metrics[w, j]
                dir = (m in better) ? better[m] : "?"
                o = stats("old", w, m); oq1 = q1; omed = med; oq3 = q3
                ns = stats("new", w, m); nmed = med
                wins = 0; runs = 0
                for (p = 1; p <= pairs; p++) {
                    if (!((w, "old", p, m) in val) || !((w, "new", p, m) in val)) continue
                    runs++
                    a = val[w, "old", p, m]; b = val[w, "new", p, m]
                    if ((dir == "lower" && b < a) || (dir == "higher" && b > a)) wins++
                }
                diff = dir == "lower" ? omed - nmed : nmed - omed
                gain = (dir == "?" || runs == 0) ? "-" : (wins >= 0.9 * runs && diff > oq3 - oq1) ? "yes" : "no"
                printf "%-26s %-7s %-36s %-36s %-6s %s\n", m, dir, o, ns, wins "/" runs, gain
            }
        }
    }
' "$DIRECTIONS" "$RESULTS"
