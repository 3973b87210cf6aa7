#!/bin/sh
# bench_gate.sh BASE.txt HEAD.txt NAME_REGEX MAX_RATIO
#
# Compares two `go test -bench` outputs and fails (exit 1) if any benchmark
# whose name matches NAME_REGEX regressed: the median ns/op over its -count
# runs in HEAD exceeds MAX_RATIO times the median in BASE. The median
# shrugs off the one slow run a noisy host produces, which a mean over six
# runs does not; the mean ratio is printed alongside for reference but
# decides nothing. Benchmarks present in only one file are reported but do
# not gate (a new benchmark has no baseline; a removed one has no head).
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 base.txt head.txt name_regex max_ratio" >&2
    exit 2
fi
base=$1
head=$2
pattern=$3
ratio=$4

awk -v pattern="$pattern" -v maxratio="$ratio" '
    # Benchmark result lines: "BenchmarkName-8  120  9876 ns/op  ..."
    FNR == 1 { file++ }
    $1 ~ /^Benchmark/ && / ns\/op/ && $1 ~ pattern {
        name = $1
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") { ns = $(i-1); break }
        }
        key = file SUBSEP name
        v[key, ++n[key]] = ns + 0
        sum[key] += ns
        seen[name] = 1
    }
    # median sorts the run values of key in place (insertion sort; -count
    # is small) and returns their median.
    function median(key,    c, i, j, x) {
        c = n[key]
        for (i = 2; i <= c; i++) {
            x = v[key, i]
            for (j = i - 1; j >= 1 && v[key, j] > x; j--) v[key, j+1] = v[key, j]
            v[key, j+1] = x
        }
        if (c % 2) return v[key, (c+1)/2]
        return (v[key, c/2] + v[key, c/2+1]) / 2
    }
    END {
        fail = 0
        matched = 0
        for (name in seen) {
            matched++
            b = 1 SUBSEP name
            h = 2 SUBSEP name
            if (!(b in n)) {
                printf "SKIP %s: no baseline (new benchmark)\n", name
                continue
            }
            if (!(h in n)) {
                printf "SKIP %s: missing from head (removed benchmark)\n", name
                continue
            }
            bmed = median(b)
            hmed = median(h)
            bmean = sum[b] / n[b]
            hmean = sum[h] / n[h]
            r = (bmed > 0) ? hmed / bmed : 1
            rmean = (bmean > 0) ? hmean / bmean : 1
            verdict = (r > maxratio) ? "FAIL" : "ok"
            if (r > maxratio) fail = 1
            printf "%s %s: median base %.0f ns/op, head %.0f ns/op, ratio %.3f (limit %.2f); mean ratio %.3f\n", \
                verdict, name, bmed, hmed, r, maxratio, rmean
        }
        if (matched == 0) printf "no benchmarks matching %s in either file\n", pattern
        exit fail
    }
' "$base" "$head"
