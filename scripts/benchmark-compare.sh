#!/bin/sh
# benchmark-compare.sh [BASE_REF] [BENCH_REGEX]
#
# Local old-vs-new benchmark workflow: runs the benchmark suite on BASE_REF
# (default origin/main, falling back to main) in a throwaway git worktree
# and on the working tree, then renders the comparison — with benchstat when
# installed, otherwise with the same awk comparison the CI regression gate
# uses (scripts/bench_gate.sh, report-only here) followed by each
# benchmark's median and min-max ns/op on both sides
# (scripts/bench_medians.sh).
#
#   sh scripts/benchmark-compare.sh                          # all benchmarks vs origin/main
#   sh scripts/benchmark-compare.sh HEAD~1                   # vs the previous commit
#   sh scripts/benchmark-compare.sh main BenchmarkManagerTraffic
#
# Tunables (environment): COUNT (benchstat needs >= 6 for tight intervals,
# default 6), BENCHTIME (default the go test default).
set -eu

base_ref=${1:-}
bench_regex=${2:-.}
count=${COUNT:-6}

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

if [ -z "$base_ref" ]; then
    if git rev-parse --verify --quiet origin/main >/dev/null; then
        base_ref=origin/main
    else
        base_ref=main
    fi
fi
base_sha=$(git rev-parse --verify "$base_ref^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
worktree="$tmp/base"
cleanup() {
    git worktree remove --force "$worktree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

bench_flags="-bench $bench_regex -benchmem -count $count -run ^\$ -timeout 60m"
if [ -n "${BENCHTIME:-}" ]; then
    bench_flags="$bench_flags -benchtime $BENCHTIME"
fi

echo "==> base: $base_ref ($base_sha)"
git worktree add --quiet "$worktree" "$base_sha"
# shellcheck disable=SC2086 # bench_flags is intentionally word-split
(cd "$worktree" && go test $bench_flags ./...) | tee "$tmp/base.txt"

echo "==> head: working tree"
# shellcheck disable=SC2086
go test $bench_flags ./... | tee "$tmp/head.txt"

echo
echo "==> comparison (base = $base_ref, head = working tree)"
if command -v benchstat >/dev/null 2>&1; then
    benchstat "$tmp/base.txt" "$tmp/head.txt"
else
    echo "(benchstat not installed — go install golang.org/x/perf/cmd/benchstat@latest for"
    echo " confidence intervals; falling back to the CI gate's mean comparison and each"
    echo " benchmark's median and min-max, report-only)"
    sh "$repo_root/scripts/bench_gate.sh" "$tmp/base.txt" "$tmp/head.txt" Benchmark 9999 || true
    echo
    sh "$repo_root/scripts/bench_medians.sh" "$tmp/base.txt" "$tmp/head.txt"
fi
