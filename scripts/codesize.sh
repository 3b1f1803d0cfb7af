#!/usr/bin/env sh
# codesize.sh — prints the repo's code-size snapshot as JSON: lines of
# non-test and test Go, package count and binary count. ROADMAP aim 2
# asks for the same behaviour from the least code; this makes "least"
# a number a PR can move and a reviewer can read in the diff of
# BENCH_codesize.json. The bench/ tree (owned by BENCHMARK.json) and
# testdata/ fixtures are not counted.
#
# Usage: ./scripts/codesize.sh > BENCH_codesize.json
#        (scripts/check.sh fails when the committed file is stale)
set -eu

cd "$(dirname "$0")/.."

lines() { # lines <find predicate...>: total lines of the matching .go files
    find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' "$@" \
        -exec cat {} + | wc -l | tr -d ' '
}

packages=$(go list ./... | grep -vc '^threegol/bench')
binaries=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... | grep -c .)

printf '{\n  "non_test_go_lines": %s,\n  "test_go_lines": %s,\n  "packages": %s,\n  "binaries": %s\n}\n' \
    "$(lines -not -name '*_test.go')" "$(lines -name '*_test.go')" "$packages" "$binaries"
