#!/usr/bin/env bash
# Paired A/B of the repo benchmark: a base revision against HEAD.
#
# Builds `perfbench/` for both commits the same way: from a `git
# archive` export under target/ab/<sha>/src, with its own
# CARGO_TARGET_DIR target/ab/<sha>/build, so nothing but the commits
# differs between the sides. Uncommitted edits are not measured; commit
# them first.
# Then runs `pairs` pairs of untraced `--seconds` runs of <workload>,
# alternating which side goes first; both sides of a pair share one
# seed, and every pair gets a new one, counted up from a clock-derived
# start that is printed so the run can be repeated.
#
# For every end-to-end metric in BENCHMARK.json it prints each side's
# median and quartiles, how many pairs HEAD won (ties count
# for neither side), and whether the gain rule holds: at least 9 of 10
# pairs won and the medians apart by more than the base's interquartile
# range, in the metric's better direction.
#
# Usage: scripts/ab.sh <rev> <workload> [pairs=10] [seconds=20]
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

if [ $# -lt 2 ]; then
    echo "usage: scripts/ab.sh <rev> <workload> [pairs=10] [seconds=20]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-20}

sha=$(git rev-parse --verify "$rev^{commit}")
head_sha=$(git rev-parse --verify HEAD)
root=$PWD
if ! git diff --quiet HEAD; then
    echo "ab.sh: warning — uncommitted edits are not measured" >&2
fi

# Export and build commit $1 under target/ab/$1.
build_at() {
    local dir="$root/target/ab/$1"
    if [ ! -d "$dir/src" ]; then
        mkdir -p "$dir/src"
        git archive "$1" | tar -x -C "$dir/src"
    fi
    (cd "$dir/src" && CARGO_TARGET_DIR="$dir/build" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
}
echo "ab.sh: building base ${sha:0:12} and HEAD ${head_sha:0:12}" >&2
build_at "$sha"
build_at "$head_sha"
base_src="$root/target/ab/$sha/src"
head_src="$root/target/ab/$head_sha/src"
base_bin="$root/target/ab/$sha/build/release/mss-perfbench"
head_bin="$root/target/ab/$head_sha/build/release/mss-perfbench"

out="$root/target/ab/runs-$workload-$(date +%Y%m%d-%H%M%S).tsv"
seed0=$(( $(date +%s) % 1000000 + 1000 ))
echo "ab.sh: $pairs pairs of $workload at ${seconds}s, seeds $seed0..$((seed0 + pairs - 1)); raw runs in $out" >&2

# One run: print "<side> <pair> <metric> <value>" rows from the JSON
# result line, plus a "correct" row (1/0) and the failed-session count.
run() {
    local side=$1 pair=$2 bin=$3 dir=$4 seed=$5
    local line
    line=$(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
    awk -v side="$side" -v pair="$pair" '{
        ok = ($0 ~ /"correct": *true/) ? 1 : 0
        print side, pair, "correct", ok
        if (match($0, /"failed": *[0-9]+/)) {
            f = substr($0, RSTART, RLENGTH); sub(/.*: */, "", f)
            print side, pair, "failed", f
        }
        s = $0
        while (match(s, /"[a-z0-9_]+": *\{"value": *[-+0-9.eE]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            v = m; sub(/.*"value": */, "", v)
            print side, pair, name, v
        }
    }' <<<"$line"
}

: >"$out"
for ((p = 0; p < pairs; p++)); do
    seed=$((seed0 + p))
    if ((p % 2 == 0)); then
        run base "$p" "$base_bin" "$base_src" "$seed" >>"$out"
        run head "$p" "$head_bin" "$head_src" "$seed" >>"$out"
    else
        run head "$p" "$head_bin" "$head_src" "$seed" >>"$out"
        run base "$p" "$base_bin" "$base_src" "$seed" >>"$out"
    fi
    echo "ab.sh: pair $((p + 1))/$pairs done" >&2
done

# Metric directions from BENCHMARK.json's end_to_end block.
dirs=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"per_layer"/ { on = 0 }
    on && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n) }
    on && /"better"/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print n, b }
' BENCHMARK.json)

echo
echo "base ${sha:0:12} vs HEAD ${head_sha:0:12} — $workload, $pairs pairs x ${seconds}s"
awk -v pairs="$pairs" -v dirs="$dirs" '
function sort(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Quantile q of the sorted a[1..n], linear interpolation.
function quant(a, n, q,   h, lo) {
    h = (n - 1) * q + 1
    lo = int(h)
    return (lo >= n) ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function stats(side, m, out,   p, n, a) {
    n = 0
    for (p = 0; p < pairs; p++) if ((side, p, m) in v) a[++n] = v[side, p, m]
    sort(a, n)
    out["q1"] = quant(a, n, 0.25); out["med"] = quant(a, n, 0.5); out["q3"] = quant(a, n, 0.75)
    return n
}
{ v[$1, $2, $3] = $4 }
END {
    nd = split(dirs, d, "\n")
    for (p = 0; p < pairs; p++) {
        bad_b += !v["base", p, "correct"]; bad_h += !v["head", p, "correct"]
        fail_b += v["base", p, "failed"]; fail_h += v["head", p, "failed"]
    }
    printf "runs not correct: base %d, head %d; failed sessions: base %d, head %d\n\n", bad_b, bad_h, fail_b, fail_h
    printf "%-20s %-32s %-32s %6s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "gain"
    for (k = 1; k <= nd; k++) {
        split(d[k], f, " "); m = f[1]; hi = (f[2] == "higher")
        if (!stats("base", m, B) || !stats("head", m, H)) continue
        wins = 0
        for (p = 0; p < pairs; p++) {
            b = v["base", p, m]; h = v["head", p, m]
            if ((hi && h > b) || (!hi && h < b)) wins++
        }
        delta = hi ? H["med"] - B["med"] : B["med"] - H["med"]
        gain = (wins >= 0.9 * pairs && delta > B["q3"] - B["q1"]) ? "yes" : "no"
        printf "%-20s %-32s %-32s %3d/%-2d %s\n", m,
            sprintf("%.4g [%.4g, %.4g]", B["med"], B["q1"], B["q3"]),
            sprintf("%.4g [%.4g, %.4g]", H["med"], H["q1"], H["q3"]), wins, pairs, gain
    }
}' "$out"
