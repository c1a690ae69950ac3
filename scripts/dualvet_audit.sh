#!/usr/bin/env bash
# dualvet_audit.sh — does each dualvet analyzer catch a bug no test catches?
#
# Copies the repository (tracked and untracked, not ignored files) to a
# temporary directory, builds dualvet there, and applies each mutation below
# in turn: bugs CHANGES.md credits to an analyzer, ROADMAP direction 1's
# boundary and copy-on-write mutations, and at least one bug per analyzer's
# class. For each mutation it records
#   - which analyzers fire: `go vet -vettool=dualvet ./...`;
#   - which tests fail: `go test -timeout 180s` over every package outside
#     internal/analysis (fuzz targets run their seed corpora), and, only when
#     those all pass, `go test -race -timeout 300s` over the mutated package
#     and internal/core. A self-deadlock shows up as a timeout, which counts
#     as caught.
# It prints one markdown table row per mutation and, per analyzer, whether
# some mutation is caught by it and by no test (ROADMAP direction 10's rule:
# keep) or not (delete). Nothing in the repository is modified.
#
# Usage: bash scripts/dualvet_audit.sh [mutation-id ...]
#
# The whole list takes about 27 minutes on a 2-core x86-64 container, most
# of it in the -race runs of internal/core and in the timeouts of the
# mutations that deadlock; CI does not run it.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
src=$work/src
mkdir -p "$src"
(cd "$repo" && git ls-files -co --exclude-standard -z | tar --null -cf - -T -) | tar -xf - -C "$src"
cd "$src"
go build -o "$work/dualvet" ./cmd/dualvet
analyzers=$("$work/dualvet" -flags | sed -n 's/.*"Name": "\(.*\)",/\1/p' | grep -v '^V$\|^flags$' | tr '\n' ' ')
pkgs=$(go list ./... | grep -v '/internal/analysis')

only=" $* "
results=$work/results
: >"$results"

# vet_fired prints the analyzers go vet reported, "BUILD" when the tree does
# not compile.
vet_fired() {
	local out=$work/vet.out
	if go vet -vettool="$work/dualvet" ./... >"$out" 2>&1; then
		return
	fi
	if grep -q '\[dualvet:' "$out"; then
		grep -o '\[dualvet:[a-z]*\]' "$out" | sed 's/\[dualvet:\(.*\)\]/\1/' | sort -u | tr '\n' ' '
	else
		echo BUILD
	fi
}

# failed_tests prints the top-level tests (or packages, for a panic or a
# timeout) a go test run reported as failing, the first three by name.
failed_tests() {
	local out=$1 names
	names=$({ grep -o '^--- FAIL: [^ ]*' "$out" || true; } | sed 's/--- FAIL: //' | sort -u |
		awk 'NR <= 3 {printf "%s ", $0} END {if (NR > 3) printf "+%d more ", NR - 3}')
	if grep -q 'panic: test timed out' "$out"; then
		names="${names}timeout "
	fi
	if [ -z "$names" ]; then
		names=$({ grep -o '^FAIL	[^ ]*' "$out" || true; } | sed 's/FAIL	dualcdb\///;s/$/ (package)/' | tr '\n' ' ')
	fi
	echo "${names:-failed}"
}

# mut ID FILE SOURCE reads replacement pairs from stdin: old text, a line
# "----", new text; further pairs after a line "====". Old text matches with
# any whitespace between its tokens.
mut() {
	local id=$1 file=$2 source=$3
	if [ "$only" != "  " ] && [[ "$only" != *" $id "* ]]; then
		cat >/dev/null
		return
	fi
	cp "$file" "$work/orig"
	local spec
	spec=$(cat)
	SPEC=$spec perl -0 -i -e '
		my $text = do { local $/; <> };
		for my $pair (split /^====\n/m, $ENV{SPEC}) {
			my ($old, $new) = split /^----$\n?/m, $pair;
			$new //= "";
			$old =~ s/^\s+|\s+$//g;
			my $re = join "\\s+", map { quotemeta } split /\s+/, $old;
			$text =~ s/$re/$new/ or die "mutation does not apply: $old\n";
		}
		print $text;
	' "$file"
	echo "== $id ($file)" >&2
	local fired tests race=""
	fired=$(vet_fired)
	tests=""
	if [ "$fired" != BUILD ]; then
		# shellcheck disable=SC2086
		go test -timeout 180s $pkgs >"$work/test.out" 2>&1 || tests=$(failed_tests "$work/test.out")
		if [ -z "$tests" ]; then
			race=" (race)"
			go test -race -timeout 300s "./$(dirname "$file")" ./internal/core >"$work/race.out" 2>&1 ||
				tests=$(failed_tests "$work/race.out")
		fi
	fi
	cp "$work/orig" "$file"
	local verdict
	case "${fired:+a}${tests:+t}" in
	at) verdict="both" ;;
	a) verdict="**analyzer only**" ;;
	t) verdict="tests only" ;;
	*) verdict="neither" ;;
	esac
	fired=${fired% } tests=${tests% }
	[ -n "$tests" ] || race=""
	printf '%s\t%s\t%s\t%s\t%s\n' "$id" "$source" "${fired:-—}" "${tests:-—}$race" "$verdict" | tee -a "$results" >&2
}

start=$(date +%s)
echo "== baseline" >&2
base=$(vet_fired)
[ -z "$base" ] || { echo "dualvet is not clean before any mutation: $base" >&2; exit 1; }
# shellcheck disable=SC2086
go test -timeout 180s $pkgs >"$work/test.out" 2>&1 || {
	echo "tests fail before any mutation: $(failed_tests "$work/test.out")" >&2
	exit 1
}

# --- bugs CHANGES.md credits to an analyzer ---

mut rect-area internal/rplustree/rect.go "credited: \`Rect.Area\`'s 0·Inf guard (infguard)" <<'EOF'
	if math.IsInf(r.MinX, 0) || math.IsInf(r.MaxX, 0) || math.IsInf(r.MinY, 0) || math.IsInf(r.MaxY, 0) {
		if r.MinX == r.MaxX || r.MinY == r.MaxY { //dualvet:allow floatcmp — exact sentinel equality on ±Inf coordinates
			return 0
		}
		return math.Inf(1)
	}
----
EOF

mut rplus-bounded internal/rplustree/ops.go "credited: bounded-item check in R⁺-tree \`Insert\` (infguard's allows rely on it)" <<'EOF'
	if !it.R.Valid() || !it.R.Bounded() {
		return fmt.Errorf("rplustree: item rectangle %+v must be valid and bounded", it.R)
	}
	split, err := t.insertInto
----
	split, err := t.insertInto
EOF

mut slopes-exact internal/core/options.go "credited: Eps-tolerant duplicate-slope check (floatcmp)" <<'EOF'
		if s[i]-s[i-1] <= geom.Eps {
----
		if s[i] == s[i-1] {
EOF

mut hull-dedup internal/geom/envelope.go "credited: near-equal-slope dedup in \`upperHullLines\` (floatcmp)" <<'EOF'
		if len(dedup) > 0 && l.M-dedup[len(dedup)-1].M <= Eps {
----
		if len(dedup) > 0 && l.M == dedup[len(dedup)-1].M {
EOF

mut parser-inf internal/constraint/parser.go "credited: non-finite coefficients after combining terms (infguard)" <<'EOF'
			if math.IsInf(v, 0) || math.IsNaN(v) {
----
			if math.IsNaN(v) {
EOF

mut qtuple-span internal/core/querytuple.go "credited: \`querytuple\`'s refine span on a fetch error (spanleak)" <<'EOF'
				t, err := ec.rs.candidate(uint32(id))
				if err != nil {
					ec.endSpan(rf, 0)
					return TupleResult{}, err
				}
----
				t, err := ec.rs.candidate(uint32(id))
				if err != nil {
					return TupleResult{}, err
				}
EOF

mut refine-span internal/core/query.go "credited: \`vertical\`'s refine span on an error (spanleak; the refine loop is shared since)" <<'EOF'
	lo, hi, hits, err := ec.mark(match, sc)
	ec.endSpan(sp, len(sc.cands))
	if err != nil {
		return Result{}, err
	}
----
	lo, hi, hits, err := ec.mark(match, sc)
	if err != nil {
		return Result{}, err
	}
	ec.endSpan(sp, len(sc.cands))
EOF

# --- ROADMAP direction 1: boundary fixes, copy-on-write, header checks ---

mut t2-bare-eps internal/core/query.go "direction 1: T2's margin back to bare Eps (M4)" <<'EOF'
		tol += t2Slack(math.Abs(q.Slope[0]) + math.Abs(r.shift))
----
EOF

mut predicate-eps internal/constraint/query.go "direction 1: predicate back to \`b ≤ k + Eps\` (M3)" <<'EOF'
		return q.Intercept-geom.Eps <= g.Bot(q.Slope), nil
----
		return q.Intercept <= g.Bot(q.Slope)+geom.Eps, nil
EOF

mut onsite-eps internal/core/geometry.go "direction 1: \`onSite\` within Eps (M2)" <<'EOF'
	onSite := a == g.s[i] //dualvet:allow floatcmp — exact on purpose: only then were the site's keys computed at this slope
----
	onSite := math.Abs(a-g.s[i]) <= geom.Eps
EOF

mut cursor-step internal/btree/cursor.go "direction 1: \`step\`'s \`idx > 0\` (M6)" <<'EOF'
		} else if !asc && top.idx > 0 {
----
		} else if !asc && top.idx > 1 {
EOF

mut freeze-cow internal/constraint/tuple.go "direction 1: \`Relation.set\` copies a chunk a frozen view shares" <<'EOF'
	if ch == &noTuples || c < len(r.frozen) && ch == r.frozen[c] {
----
	if ch == &noTuples {
EOF

mut restore-cow internal/constraint/tuple.go "direction 1: \`Restore\` copies the spine it hands the head" <<'EOF'
	r.head = View{spine: append([]*chunk(nil), v.spine...), n: v.n}
----
	r.head = View{spine: v.spine, n: v.n}
EOF

mut header-count internal/btree/tree.go "direction 1: header check \`count ≤ capacity\`" <<'EOF'
	if n.hOff() != headerSize || n.eOff() != eOff || n.count() > capacity {
----
	if n.hOff() != headerSize || n.eOff() != eOff {
EOF

mut header-type internal/btree/tree.go "direction 1: \`getAt\`'s node type at a height" <<'EOF'
	if err != nil || n.isLeaf() == (height == 1) {
----
	if err != nil || true {
EOF

# --- one bug or more of each analyzer's class ---

mut publish-xext internal/core/mvcc.go "frozen: \`xext\` filled after \`ix.roots.Store\`" <<'EOF'
	if ix.dim == 2 {
		rs.xext = extendExtents(xext, rs.tuples)
	}
	for i, t := range ix.trees {
		rs.trees[i] = t.Handle(t.Meta())
	}
	ix.roots.Store(rs)
----
	for i, t := range ix.trees {
		rs.trees[i] = t.Handle(t.Meta())
	}
	ix.roots.Store(rs)
	if ix.dim == 2 {
		rs.xext = extendExtents(xext, rs.tuples)
	}
EOF

mut publish-count internal/core/mvcc.go "frozen: \`indexed\` set after \`ix.roots.Store\`" <<'EOF'
		indexed:             indexed,
----
====
	ix.roots.Store(rs)
----
	ix.roots.Store(rs)
	rs.indexed = indexed
EOF

mut save-rebuild internal/core/persist.go "lockset: \`Save\` calls the exported \`RebuildHandicaps\` under \`writeMu\`" <<'EOF'
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.catalog == pagestore.InvalidPage {
----
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if err := ix.RebuildHandicaps(); err != nil {
		return err
	}
	if ix.catalog == pagestore.InvalidPage {
EOF

mut reclaim-requeue internal/pagestore/snapshot.go "lockset: a failed reclaim re-queued through the exported \`DeferFrees\` under \`snapMu\`" <<'EOF'
				p.reclaimFails.Add(1)
				failed = append(failed, id)
----
				p.reclaimFails.Add(1)
				p.DeferFrees(d.deadAt, []PageID{id})
EOF

mut freepage-unlock internal/pagestore/pool.go "lockset: \`FreePage\` of a pinned page returns holding the shard lock" <<'EOF'
		if f.pins.Load() > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("pagestore: freeing pinned page %d", id)
----
		if f.pins.Load() > 0 {
			return fmt.Errorf("pagestore: freeing pinned page %d", id)
EOF

mut evict-unlock internal/pagestore/pool.go "lockset: \`EvictAll\` returns a write error holding the shard lock" <<'EOF'
				if err := p.store.WritePage(id, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				p.writes.Add(1)
				f.dirty.Store(false)
			}
			sh.dropLocked(f)
----
				if err := p.store.WritePage(id, f.data); err != nil {
					return err
				}
				p.writes.Add(1)
				f.dirty.Store(false)
			}
			sh.dropLocked(f)
EOF

mut evict-tick internal/pagestore/pool.go "atomicpub: \`EvictAll\` resets a guarded shard field after unlocking" <<'EOF'
			sh.dropLocked(f)
		}
		sh.mu.Unlock()
----
			sh.dropLocked(f)
		}
		sh.mu.Unlock()
		sh.lastPinned = 0
EOF

mut ring-seen internal/obs/observer.go "atomicpub: the slow-query ring's count bumped after unlocking" <<'EOF'
	o.ring.seen++
	o.ring.Unlock()
----
	o.ring.Unlock()
	o.ring.seen++
EOF

mut flush-drop internal/pagestore/pool.go "atomicpub: \`Flush\` drops a frame it could not write after unlocking" <<'EOF'
				if err := p.store.WritePage(id, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				p.writes.Add(1)
				f.dirty.Store(false)
			}
		}
		sh.mu.Unlock()
----
				if err := p.store.WritePage(id, f.data); err != nil {
					sh.mu.Unlock()
					sh.dropLocked(f)
					return err
				}
				p.writes.Add(1)
				f.dirty.Store(false)
			}
		}
		sh.mu.Unlock()
EOF

mut catalog-pin internal/core/persist.go "pinleak: \`Open\` keeps the catalog page pinned on a bad catalog" <<'EOF'
	cat, err := parseCatalog(f.Data())
	f.Release()
	if err != nil {
		return nil, nil, err
	}
----
	cat, err := parseCatalog(f.Data())
	if err != nil {
		return nil, nil, err
	}
	f.Release()
EOF

mut getat-pin internal/btree/tree.go "pinleak: \`getAt\` keeps a wrong-type node pinned" <<'EOF'
	n.release()
	return node{}, fmt.Errorf("%w: page %d is the wrong node type for height %d: corrupt child links", ErrLayout, id, height)
----
	return node{}, fmt.Errorf("%w: page %d is the wrong node type for height %d: corrupt child links", ErrLayout, id, height)
EOF

mut freechain-err internal/core/persist.go "errsink: \`freeChain\` swallows a \`FreePage\` error" <<'EOF'
		if err := pool.FreePage(id); err != nil {
			return err
		}
	}
	return nil
----
		pool.FreePage(id)
	}
	return nil
EOF

mut save-flush internal/core/persist.go "errsink: \`Save\` swallows the pool's \`Flush\` error" <<'EOF'
	f.MarkDirty()
	return ix.pool.Flush()
----
	f.MarkDirty()
	ix.pool.Flush()
	return nil
EOF

mut batch-snapshot internal/core/batch.go "snapleak: \`QueryBatch\` pins through \`Snapshot\` and never releases" <<'EOF'
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.queryBatch(rs, qs, opts)
----
	s := ix.Snapshot()
	return s.QueryBatch(qs, opts)
EOF

mut batch-snapshot-err internal/core/batch.go "snapleak: \`QueryBatch\` releases its \`Snapshot\` only on success" <<'EOF'
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.queryBatch(rs, qs, opts)
----
	s := ix.Snapshot()
	res, err := s.QueryBatch(qs, opts)
	if err != nil {
		return nil, err
	}
	s.Release()
	return res, nil
EOF

mut qtuple-span-match internal/core/querytuple.go "spanleak: \`querytuple\`'s refine span on a predicate error" <<'EOF'
				if err != nil {
					ec.endSpan(rf, 0)
					return TupleResult{}, err
				}
				if !ok {
----
				if err != nil {
					return TupleResult{}, err
				}
				if !ok {
EOF

mut corner-zero-inf internal/rplustree/rect.go "infguard's class: \`evalCorner\`'s 0·Inf guard on unbounded node regions" <<'EOF'
	s := c
	if a != 0 {
		s += a * x
	}
	if b != 0 {
		s += b * y
	}
	return s
----
	return c + a*x + b*y
EOF

mut vertex-exact internal/geom/polyhedron.go "floatcmp: exact vertex dedup in \`FromHalfSpaces\`" <<'EOF'
				if v.Eq(pt) {
----
				if func() bool {
					for i := range v {
						if v[i] != pt[i] {
							return false
						}
					}
					return true
				}() {
EOF

mut hull-exact internal/geom/hull.go "floatcmp: exact duplicate points in the 2-D hull" <<'EOF'
		if !p.Eq(uniq[len(uniq)-1]) {
----
		if p[0] != uniq[len(uniq)-1][0] || p[1] != uniq[len(uniq)-1][1] {
EOF

echo >&2
echo "| mutation | source | analyzers that fire | tests that fail | caught by |"
echo "|---|---|---|---|---|"
while IFS=$'\t' read -r id source fired tests verdict; do
	echo "| \`$id\` | $source | $fired | $tests | $verdict |"
done <"$results"
echo
echo "| analyzer | mutations it catches | of them, caught by no test | verdict |"
echo "|---|---|---|---|"
for a in $analyzers; do
	caught=$(awk -F'\t' -v a="$a" '(" " $3 " ") ~ (" " a " ") {print $1}' "$results" | tr '\n' ' ')
	alone=$(awk -F'\t' -v a="$a" '(" " $3 " ") ~ (" " a " ") && $4 == "—" {print $1}' "$results" | tr '\n' ' ')
	verdict=delete
	[ -z "$alone" ] || verdict=keep
	echo "| $a | ${caught:-—} | ${alone:-—} | $verdict |"
done
echo
echo "audit took $(( $(date +%s) - start )) s"
