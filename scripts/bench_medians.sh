#!/bin/sh
# bench_medians.sh BASE.txt HEAD.txt [NAME_REGEX]
#
# Report-only summary of two `go test -bench` outputs: for every benchmark
# (whose name matches NAME_REGEX, default all) the median and min-max ns/op
# over its -count runs in BASE and in HEAD, and the head/base ratio of the
# medians: the statistic the CI gate (scripts/bench_gate.sh) decides on,
# here with the spread and for every benchmark. This script decides
# nothing and always exits 0 on readable input.
#
#   sh scripts/bench_medians.sh base.txt head.txt
#   sh scripts/bench_medians.sh base.txt head.txt 'BenchmarkRisk'
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 base.txt head.txt [name_regex]" >&2
    exit 2
fi

awk -v pattern="${3:-.}" '
    FNR == 1 { file++ }
    $1 ~ /^Benchmark/ && / ns\/op/ && $1 ~ pattern {
        name = $1
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") { ns = $(i-1); break }
        }
        key = file SUBSEP name
        v[key, ++n[key]] = ns + 0
        if (!(name in seen)) { seen[name] = 1; order[++names] = name }
    }
    # median sorts run values of key in place (insertion sort; -count is
    # small) and returns their median; lo and hi receive the extremes.
    function median(key,    c, i, j, x) {
        c = n[key]
        for (i = 2; i <= c; i++) {
            x = v[key, i]
            for (j = i - 1; j >= 1 && v[key, j] > x; j--) v[key, j+1] = v[key, j]
            v[key, j+1] = x
        }
        lo = v[key, 1]; hi = v[key, c]
        if (c % 2) return v[key, (c+1)/2]
        return (v[key, c/2] + v[key, c/2+1]) / 2
    }
    function side(f, name) {
        if (!((f SUBSEP name) in n)) return "-"
        med[f] = median(f SUBSEP name)
        return sprintf("%.0f (%.0f-%.0f, n=%d)", med[f], lo, hi, n[f SUBSEP name])
    }
    END {
        if (names == 0) { printf "no benchmarks matching %s in either file\n", pattern; exit 0 }
        printf "%-48s %-40s %-40s %s\n", "median ns/op (min-max, runs)", "base", "head", "head/base"
        for (i = 1; i <= names; i++) {
            name = order[i]
            delete med
            b = side(1, name)
            h = side(2, name)
            r = ((1 in med) && (2 in med) && med[1] > 0) ? sprintf("%.3f", med[2] / med[1]) : "-"
            printf "%-48s %-40s %-40s %s\n", name, b, h, r
        }
    }
' "$1" "$2"
