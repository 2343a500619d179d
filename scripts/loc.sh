#!/bin/sh
# loc: the net line count a change reports. It counts the non-blank lines
# that do not start with // (after indentation) in the module's non-test .go
# files, perfbench/ and .bench_build/ excluded, and prints the count of each
# package directory, then the total. Run it before and after a change and
# report both totals.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -exec awk '
	!/^[ \t]*(\/\/.*)?$/ { d = FILENAME; sub(/\/[^\/]*$/, "", d); sub(/^\.\//, "", d); n[d]++ }
	END { for (d in n) print d, n[d] }' {} + |
	awk '
	{ n[$1] += $2; t += $2 }
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", t
	}'
