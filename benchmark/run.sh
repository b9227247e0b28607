#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# with every build output — the Go build cache included — inside the
# checkout, then runs it with the arguments given. `go run ./benchmark`
# from the repository root does the same with the user's own cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root holds no go.mod; the benchmark builds against the repository it sits in" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
