#!/usr/bin/env sh
# loc.sh — print the non-test Go line counts the ROADMAP tracks: the
# module outside bench/ (bench/ is the benchmark's own module), and the
# query engine (internal/xquery) alone. Run from anywhere in the repo.
set -eu
cd "$(dirname "$0")/.."
count() {
	find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | tr -d ' '
}
echo "non-test Go lines outside bench/: $(count . -path ./bench -prune -o)"
echo "non-test Go lines in internal/xquery: $(count internal/xquery)"
