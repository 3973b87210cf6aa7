#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# Every build artifact, cache and run file stays under the checkout
# (.bench_build, .bench_out). Without the humo module next to perfbench/
# the build fails and the script exits non-zero without a result.
set -euo pipefail
root="$(pwd)"
bench="$root/.bench_build"
mkdir -p "$bench"
export GOCACHE="$bench/gocache" GOMODCACHE="$bench/gomod" GOPATH="$bench/gopath"
export XDG_CONFIG_HOME="$bench/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$bench/perfbench" .) >&2
if [[ " $* " == *" --workload all "* ]]; then
	args=()
	skip=0
	for a in "$@"; do
		if ((skip)); then skip=0; continue; fi
		if [[ $a == --workload ]]; then skip=1; continue; fi
		args+=("$a")
	done
	for w in pipeline_lsh search_mix humod_http stream_ingest; do
		echo "== $w"
		"$bench/perfbench" --workload "$w" "${args[@]}"
	done
	exit 0
fi
exec "$bench/perfbench" "$@"
