#!/usr/bin/env bash
# The size ledger ROADMAP.md's "Where we stand" quotes: non-test Go lines per
# package outside bench/, and how many fields each options struct has (read
# from `go doc -all`, so it counts what a caller can set). Run from anywhere
# inside the repository; prints to stdout and changes nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "non-test Go lines per package (outside bench/):"
total=0
while read -r dir; do
	files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
	[ -n "$files" ] || continue
	# shellcheck disable=SC2086
	n=$(cat $files | wc -l)
	total=$((total + n))
	printf '%7d  %s\n' "$n" "${dir#./}"
done < <(find . -type d ! -path './bench*' ! -path './.git*' ! -path '*/testdata*' | sort)
printf '%7d  total\n' "$total"

echo
echo "fields per options struct:"
for t in internal/core.Options internal/core.OptionsD internal/btree.Config \
	internal/pagestore.PoolOptions internal/core.BatchOptions internal/obs.Options \
	internal/rplustree.Options; do
	pkg=${t%.*} name=${t##*.}
	# A field is a line of the struct body that starts, one tab in, with an
	# exported name (comment lines start with //).
	n=$(go doc -all "./$pkg" "$name" |
		awk -v decl="type $name struct {" '$0 == decl {on = 1; next} on && /^}/ {exit} on && /^\t[A-Z]/ {n++} END {print n + 0}')
	printf '%7d  %s.%s\n' "$n" "$(basename "$pkg")" "$name"
done
