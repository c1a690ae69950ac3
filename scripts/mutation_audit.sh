#!/usr/bin/env bash
# mutation_audit.sh — does some test catch each of these bugs?
#
# Copies the repository (tracked and untracked, not ignored files, less
# tracked files deleted from the working tree) to a temporary directory and applies each mutation below in turn: bugs
# CHANGES.md credits to a since-deleted static analyzer, ROADMAP direction
# 1's boundary and copy-on-write mutations, bugs of each deleted analyzer's
# class, and the rows later changes added for their own checks. For each
# mutation it
#   - checks that the mutated tree compiles: `go vet ./...`. A mutation that
#     does not compile stops the script, as one that no longer applies does;
#     neither ever counts as caught;
#   - records which tests fail: `go test -timeout 180s` over every package
#     (fuzz targets run their seed corpora), and, only when those all pass,
#     `go test -race -timeout 300s` over the mutated package and
#     internal/core. A self-deadlock shows up as a timeout, which counts as
#     caught.
# It prints one markdown table row per mutation whose verdict is `caught`
# or `**not caught**` (ROADMAP direction 10's rule: a check stays only while
# it protects something no test does). Nothing in the repository is
# modified.
#
# Usage: bash scripts/mutation_audit.sh [mutation-id ...]
#
# The whole list takes about 40 minutes on a 2-core x86-64 container, most
# of it in the -race runs of internal/core and in the timeouts of the
# mutations that deadlock every Save; CI's "Mutation smoke" step runs
# thirty-eight of its rows.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
src=$work/src
mkdir -p "$src"
# A tracked file deleted from the working tree is still listed by -c; tar
# would stop at it.
(cd "$repo" && git ls-files -co --exclude-standard -z | grep -zvxF -f <(git ls-files -d) | tar --null -cf - -T -) | tar -xf - -C "$src"
cd "$src"
pkgs=$(go list ./...)

only=" $* "
results=$work/results
: >"$results"

# compiles reports whether the tree builds and vets, test files included;
# on failure it prints go vet's output to stderr.
compiles() {
	go vet ./... >"$work/vet.out" 2>&1 || { cat "$work/vet.out" >&2; return 1; }
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
	compiles || { echo "mutation $id does not compile" >&2; exit 1; }
	local tests="" race=""
	# shellcheck disable=SC2086
	go test -timeout 180s $pkgs >"$work/test.out" 2>&1 || tests=$(failed_tests "$work/test.out")
	if [ -z "$tests" ]; then
		race=" (race)"
		go test -race -timeout 300s "./$(dirname "$file")" ./internal/core >"$work/race.out" 2>&1 ||
			tests=$(failed_tests "$work/race.out")
	fi
	cp "$work/orig" "$file"
	local verdict="**not caught**"
	[ -z "$tests" ] || verdict=caught
	tests=${tests% }
	[ -n "$tests" ] || race=""
	printf '%s\t%s\t%s\t%s\n' "$id" "$source" "${tests:-—}$race" "$verdict" | tee -a "$results" >&2
}

start=$(date +%s)
echo "== baseline" >&2
compiles || { echo "the tree does not compile before any mutation" >&2; exit 1; }
# shellcheck disable=SC2086
go test -timeout 180s $pkgs >"$work/test.out" 2>&1 || {
	echo "tests fail before any mutation: $(failed_tests "$work/test.out")" >&2
	exit 1
}

# --- bugs CHANGES.md credits to an analyzer ---

mut rect-area internal/rplustree/rect.go "credited: \`Rect.Area\`'s 0·Inf guard (infguard)" <<'EOF'
	if math.IsInf(r.MinX, 0) || math.IsInf(r.MaxX, 0) || math.IsInf(r.MinY, 0) || math.IsInf(r.MaxY, 0) {
		if r.MinX == r.MaxX || r.MinY == r.MaxY { // exact sentinel equality on ±Inf coordinates
			return 0
		}
		return math.Inf(1)
	}
----
EOF

mut rplus-bounded internal/rplustree/tree.go "credited: bounded-item check in the R⁺-tree's bulk build (infguard's allows rely on it)" <<'EOF'
	for _, it := range items {
		if !it.R.Valid() || !it.R.Bounded() {
			return nil, fmt.Errorf("rplustree: item rectangle %+v must be valid and bounded", it.R)
		}
	}
----
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
	tol := geom.Eps + t2Slack(math.Abs(q.Slope[0])+math.Abs(r.shift))
----
	tol := geom.Eps
EOF

mut predicate-eps internal/constraint/query.go "direction 1: predicate back to \`b ≤ k + Eps\` (M3)" <<'EOF'
		return q.Intercept-geom.Eps <= g.Bot(q.Slope), nil
----
		return q.Intercept <= g.Bot(q.Slope)+geom.Eps, nil
EOF

mut onsite-eps internal/core/geometry.go "direction 1: \`onSite\` within Eps (M2)" <<'EOF'
	onSite := a == g.s[i] // exact on purpose: only then were the site's keys computed at this slope
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

# --- child bounds (layout 4): the write path's bound upkeep and the skip test ---

mut split-record internal/btree/tree.go "child bounds: a split does not copy the record to the new half" <<'EOF'
		n.insertSepAt(ci, sp, grand, gx)
		return self, Entry{}, pagestore.InvalidPage, nil
----
		n.insertSepAt(ci, sp, grand, [2]float64{})
		return self, Entry{}, pagestore.InvalidPage, nil
EOF

mut insert-widen internal/btree/tree.go "child bounds: an insert does not widen its ancestors" <<'EOF'
	n.widenChild(ci, x)
----
EOF

mut skip-rounding internal/core/query.go "child bounds: the skip test without the keys' rounding widening" <<'EOF'
		if khi+btree.RoundingError(math.Abs(khi))-r.shift*b.X[1-r.far] < r.below {
----
		if khi-r.shift*b.X[1-r.far] < r.below {
====
	} else if klo-btree.RoundingError(math.Abs(klo))-r.shift*b.X[r.far] > r.above {
----
	} else if klo-r.shift*b.X[r.far] > r.above {
EOF

mut round-nearest internal/btree/node.go "child bounds: extents rounded to nearest instead of outward" <<'EOF'
func roundOut(x [2]float64) [2]float64 { return [2]float64{float64(down32(x[0])), float64(up32(x[1]))} }
----
func roundOut(x [2]float64) [2]float64 { return [2]float64{float64(float32(x[0])), float64(float32(x[1]))} }
EOF

mut merge-union internal/btree/tree.go "child bounds: a merge keeps one side's record" <<'EOF'
	n.widenChild(sepIdx, n.childExt(sepIdx+1))
----
EOF

# --- the sweep kernel: one loop per leaf verdict over the entry region ---

mut kernel-bound internal/core/query.go "sweep kernel: the sure loop settles the bound key unevaluated" <<'EOF'
					if k != bound {
----
					if k != bound || true {
EOF

mut kernel-range internal/core/query.go "sweep kernel: the whole-accept loop drops its \`[lo, hi]\` test" <<'EOF'
			case accept:
				st.LeavesWhole++
				for i := 0; i < n; i++ {
					if k := es.Key(i); k >= lo && k <= hi {
						sure = append(sure, es.TID(i))
					}
				}
----
			case accept:
				st.LeavesWhole++
				for i := 0; i < n; i++ {
					sure = append(sure, es.TID(i))
				}
EOF

mut kernel-stop internal/core/query.go "sweep kernel: the ascending continue test reads the first key, not the last" <<'EOF'
			return es.Key(n-1) <= hi
----
			return es.Key(0) <= hi
EOF

# --- the tangents: what the extent bracket leaves, the attaining vertex's line and the neighbour's may settle ---

mut tangent-no-step internal/core/query.go "tangent: the rule moves the tangent line by no margin \`e\`" <<'EOF'
	e := math.Abs(r.shift) * (step + 0x1p-50*(math.Abs(x[0])+math.Abs(x[1])))
----
	e := 0.0
	_ = step
EOF

mut tangent-wrong-surface internal/core/query.go "tangent: B^down applies TOP's lower bound" <<'EOF'
	v, finite := r.lineVerdict(k-r.shift*xq, e, r.top)
----
	v, finite := r.lineVerdict(k-r.shift*xq, e, true)
EOF

mut neighbour-no-step internal/core/query.go "neighbour: the rule moves the neighbour's tangent line by no margin \`e\`" <<'EOF'
		n, _ := r.lineVerdict(k-r.shift*xn, e, !r.top)
----
		n, _ := r.lineVerdict(k-r.shift*xn, 0, !r.top)
EOF

mut neighbour-far-side internal/core/query.go "neighbour: the neighbour taken on the other side of the site" <<'EOF'
	case r.shift > 0 && r.site+1 < ext.stride/2:
		rule.next = 2
	case r.shift < 0 && r.site > 0:
		rule.next = -2
----
	case r.shift > 0 && r.site > 0:
		rule.next = -2
	case r.shift < 0 && r.site+1 < ext.stride/2:
		rule.next = 2
EOF

# --- the leaf kernel: the bracket and the tangent lines every entry a leaf leaves goes through ---

mut kernel-finite-mask internal/core/query.go "leaf kernel: the bracket without its finite mask, so a ±Inf key with a finite extent is settled on its key" <<'EOF'
	finite := bit(hi-lo < math.MaxFloat64)
----
	finite := uint8(1)
EOF

mut kernel-neighbour-unmasked internal/core/query.go "leaf kernel: the neighbour's line taken with no neighbour (\`next == 0\`), the own byte read as the neighbour's" <<'EOF'
	if r.next != 0 {
		xn, _ := tangentX(row[r.col+r.next], x)
----
	if true {
		xn, _ := tangentX(row[r.col+r.next], x)
EOF

# --- sure references: checked a word at a time against the version's live bits ---

mut sure-unchecked internal/core/query.go "sure references: \`mark\` drops the live-word pass" <<'EOF'
	tuples := ec.rs.tuples
	for w := int(lo >> 6); w <= int(hi>>6); w++ {
		if dead := sc.bits[w] &^ tuples.LiveWord(w); dead != 0 {
			return 0, 0, 0, notInRelation(uint32(w<<6 + bits.TrailingZeros64(dead)))
		}
	}
----
EOF

mut sure-id-bound internal/core/query.go "sure references: the live-word pass becomes \`tid ≤ MaxID\`" <<'EOF'
	for w := int(lo >> 6); w <= int(hi>>6); w++ {
		if dead := sc.bits[w] &^ tuples.LiveWord(w); dead != 0 {
			return 0, 0, 0, notInRelation(uint32(w<<6 + bits.TrailingZeros64(dead)))
		}
	}
----
	for _, tid := range sc.sure {
		if int(tid) > tuples.MaxID() {
			return 0, 0, 0, notInRelation(tid)
		}
	}
EOF

# --- statistics: a false hit is an evaluated candidate the predicate rejects ---

mut false-hits-on-key internal/core/query.go "statistics: \`FalseHits\` counts entries rejected on their key" <<'EOF'
	st.FalseHits = (st.Candidates - st.Duplicates - st.Decided) - (len(ids) - st.Sure)
----
	st.FalseHits = st.Candidates - st.Duplicates - len(ids)
EOF

# --- a tuple is its numbers: the constraint run and the packed generators ---

# 1/(i+1) is 1 for constraint 0 and 0 for every other: one operator flips.
mut tuple-op-flip internal/constraint/tuple.go "tuple run: constraint 0's operator read negated from the run" <<'EOF'
	return geom.HalfSpace{A: t.nums[off+1 : off+1+d : off+1+d], C: t.nums[off], Op: geom.Op(t.ops[i])}
----
	return geom.HalfSpace{A: t.nums[off+1 : off+1+d : off+1+d], C: t.nums[off], Op: geom.Op(t.ops[i] ^ byte(1/(i+1)))}
EOF

mut tuple-rays-as-verts internal/geom/generators.go "tuple run: the ray/vertex split one generator early (the last ray packed as a vertex)" <<'EOF'
	g := Generators{gen: make([]float64, 0, (len(p.Verts)+len(p.Rays))*d), nrays: len(p.Rays) * d, dim: d}
----
	g := Generators{gen: make([]float64, 0, (len(p.Verts)+len(p.Rays))*d), nrays: max(len(p.Rays)-1, 0) * d, dim: d}
EOF

# --- derived options: T1's pivot and the outer strip width ---

mut catalog-derived-unchecked internal/core/persist.go "derived options: \`Open\` skips comparing the catalog's pivot and outer width with the derived ones" <<'EOF'
	if pivot := binary.LittleEndian.Uint64(d[16:24]); pivot != math.Float64bits(t1PivotX) {
		return catalog{}, fmt.Errorf("%w: T1 pivot x = %v, want %v", ErrCatalog, math.Float64frombits(pivot), t1PivotX)
	}
	if outer := binary.LittleEndian.Uint64(d[24:32]); outer != math.Float64bits(c.geo.outer) {
		return catalog{}, fmt.Errorf("%w: outer strip half-width %v, want %v derived from S", ErrCatalog, math.Float64frombits(outer), c.geo.outer)
	}
----
EOF

mut vertical-flag-ignored internal/core/persist.go "catalog: \`Open\` stops refusing a file whose flags byte records a vertical tree pair" <<'EOF'
	if d[9] != 0 {
		return catalog{}, fmt.Errorf("%w: flags %#x: the file holds a vertical tree pair this version does not keep; rebuild the index", ErrCatalog, d[9])
	}
----
EOF

mut pivot-nonzero internal/core/query.go "derived options: T1 plans through the pivot at x = 1, not x = 0" <<'EOF'
	plan, err := PlanT1(q, slopes, t1PivotX)
----
	plan, err := PlanT1(q, slopes, 1)
EOF

# --- one bug or more of each deleted analyzer's class ---

mut publish-xext internal/core/mvcc.go "frozen: the x-extents filled after \`ix.roots.Store\`" <<'EOF'
	if ix.dim == 2 {
		rs.extents = ext.extend(rs.tuples, ix.geo)
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
		rs.extents = ext.extend(rs.tuples, ix.geo)
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
	g, ok := ix.geo.(*slopeSet)
----
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if err := ix.RebuildHandicaps(); err != nil {
		return err
	}
	g, ok := ix.geo.(*slopeSet)
EOF

mut reclaim-requeue internal/pagestore/snapshot.go "lockset: a failed reclaim re-queued through the exported \`DeferFrees\` under \`snapMu\`" <<'EOF'
			kept = append(kept, deferredFrees{deadAt: d.deadAt, ids: failed})
----
			p.DeferFrees(d.deadAt, failed)
EOF

mut freepage-unlock internal/pagestore/pool.go "lockset: \`FreePage\` of a pinned page returns holding the pool lock" <<'EOF'
		if f.pins.Load() > 0 {
			failed = append(failed, id)
			if err == nil {
				err = fmt.Errorf("pagestore: freeing pinned page %d", id)
			}
			continue
		}
----
		if f.pins.Load() > 0 {
			return append(failed, id), fmt.Errorf("pagestore: freeing pinned page %d", id)
		}
EOF

mut evict-unlock internal/pagestore/pool.go "lockset: \`EvictAll\` returns a write error holding the pool lock" <<'EOF'
			if err := p.store.WritePage(f.id, f.data); err != nil {
				p.mu.Unlock()
				return err
			}
			p.writes.Add(1)
			f.dirty.Store(false)
		}
		p.dropLocked(f)
----
			if err := p.store.WritePage(f.id, f.data); err != nil {
				return err
			}
			p.writes.Add(1)
			f.dirty.Store(false)
		}
		p.dropLocked(f)
EOF

mut evict-free-count internal/pagestore/pool.go "atomicpub: \`EvictAll\` resets a guarded pool field after unlocking" <<'EOF'
		p.dropLocked(f)
	}
	p.mu.Unlock()
	return nil
----
		p.dropLocked(f)
	}
	p.mu.Unlock()
	p.freeN = 0
	return nil
EOF

mut ring-next internal/obs/trace.go "atomicpub: the trace ring's \`next\` advanced after unlocking" <<'EOF'
	r.next = (r.next + 1) % ringCapacity
	r.mu.Unlock()
----
	r.mu.Unlock()
	r.next = (r.next + 1) % ringCapacity
EOF

mut flush-drop internal/pagestore/pool.go "atomicpub: \`Flush\` drops a frame it could not write after unlocking" <<'EOF'
			if err := p.store.WritePage(f.id, f.data); err != nil {
				p.mu.Unlock()
				return err
			}
			p.writes.Add(1)
			f.dirty.Store(false)
		}
	}
	p.mu.Unlock()
----
			if err := p.store.WritePage(f.id, f.data); err != nil {
				p.mu.Unlock()
				p.dropLocked(f)
				return err
			}
			p.writes.Add(1)
			f.dirty.Store(false)
		}
	}
	p.mu.Unlock()
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

mut freechain-err internal/core/persist.go "errsink: \`Save\` swallows a \`FreePage\` error of the superseded tuple chain" <<'EOF'
		if err := ix.pool.FreePage(ix.staleChain[0]); err != nil {
			return err
		}
----
		ix.pool.FreePage(ix.staleChain[0])
EOF

mut save-flush internal/core/persist.go "errsink: \`Save\` swallows the pool's \`Flush\` error" <<'EOF'
	f.MarkDirty()
	if err := ix.pool.Flush(); err != nil {
		return err
	}
	return ix.freeStaleChain()
----
	f.MarkDirty()
	ix.pool.Flush()
	return ix.freeStaleChain()
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

mut view-after-release internal/btree/cursor.go "view guard: a sweep releases its leaf before the visit callback" <<'EOF'
		more := visit(t.leafView(leaf, c.leafExt()))
		leaf.release()
----
		lv := t.leafView(leaf, c.leafExt())
		leaf.release()
		more := visit(lv)
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

mut vertex-exact internal/geom/polyhedron.go "floatcmp: exact vertex dedup in the d-generic enumeration (\`FromHalfSpaces\` in E^d, d ≠ 2)" <<'EOF'
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

# --- the 2-D extension (DESIGN.md §16 "The 2-D extension") ---

mut ext2-no-pivot internal/geom/extension2.go "the 2-D extension's 2×2 solve without its pivot swap" <<'EOF'
	if math.Abs(m[1][0]) > math.Abs(m[0][0]) {
		m[0], m[1] = m[1], m[0]
	}
----
EOF

mut ext2-vertex-exact internal/geom/extension2.go "the 2-D extension's vertex dedup by exact bits" <<'EOF'
			if Point(verts[k][:]).Eq(x[:]) {
----
			if verts[k] == x {
EOF

# --- a page written once: the saved set held back, unwritten pages read zero (DESIGN.md §20) ---

mut saved-page-reused internal/pagestore/store.go "saved set: \`Free\` puts a saved page straight on the free list" <<'EOF'
	if t.saved.has(id) {
		t.held = append(t.held, id)
	} else {
		t.free = append(t.free, id)
	}
----
	t.free = append(t.free, id)
EOF

mut unwritten-reads-device internal/pagestore/store.go "unwritten pages: \`FileStore.ReadPage\` reads the device for a page never written" <<'EOF'
	if s.ids.unwritten.has(id) {
		clear(buf[:s.pageSize])
		return nil
	}
	if _, err := s.f.ReadAt(buf[:s.pageSize], int64(id-1)*int64(s.pageSize)); err != nil {
----
	if _, err := s.f.ReadAt(buf[:s.pageSize], int64(id-1)*int64(s.pageSize)); err != nil {
EOF

# --- the pool's replacement rule: a young frame moves to the old region on a pin after a release (DESIGN.md §8.2) ---

mut nested-pin-tenures internal/pagestore/pool.go "segmented LRU: a nested pin tenures a young frame (tenure on any hit)" <<'EOF'
	if f.pins.Add(1) == 1 && f.region == regionYoung {
----
	if f.pins.Add(1) > 0 && f.region == regionYoung {
EOF

# --- a commit pins each page once: reused copy-on-write bookkeeping, clones over recycled frames (DESIGN.md §13, §11.3) ---

mut cow-owned-kept internal/btree/cow.go "copy-on-write: \`CommitCOW\`/\`AbortCOW\` leave the reused owned set uncleared" <<'EOF'
	clear(t.cow.owned)
----
EOF

mut newpage-unzeroed internal/pagestore/pool.go "pool: \`NewPage\` hands out a recycled frame without clearing it" <<'EOF'
	if src == nil {
		clear(f.data)
	} else {
		copy(f.data, src.data)
		p.unpinLocked(src)
	}
----
	if src != nil {
		copy(f.data, src.data)
		p.unpinLocked(src)
	}
EOF

# --- one pool critical section a page event: the dense frame table, the clone's pin hand-over, the batched reclaim (DESIGN.md §11.3, §13) ---

mut clone-keeps-source-pin internal/pagestore/pool.go "pin hand-over: \`ClonePage\` installs the clone but leaves its source pinned" <<'EOF'
		copy(f.data, src.data)
		p.unpinLocked(src)
----
		copy(f.data, src.data)
EOF

mut drop-keeps-slot internal/pagestore/pool.go "frame table: \`dropLocked\` recycles the frame but leaves its table slot set" <<'EOF'
	p.listFor(f).remove(f)
	p.frames[f.id] = nil
----
	p.listFor(f).remove(f)
EOF

mut reclaim-drops-pinned internal/pagestore/pool.go "batched reclaim: a frame whose pin count is above 0 is dropped, not refused" <<'EOF'
		if f.pins.Load() > 0 {
			failed = append(failed, id)
----
		if f.pins.Load() < 0 {
			failed = append(failed, id)
EOF

# --- one walk sets every handicap slot and child bound (DESIGN.md §20 "Folds") ---

mut set-combines internal/btree/cursor.go "one walk: \`SetHandicaps\` combines a leaf's fold into its old slots instead of setting them" <<'EOF'
				n.setHandicap(s, k.round(slots[s]))
----
				n.setHandicap(s, k.Combine(n.handicap(s), k.round(slots[s])))
EOF

mut set-separator-right internal/btree/cursor.go "one walk: a route key equal to a separator's is binned to the leaf on its right" <<'EOF'
	return sortKey(RoundKey(key), 0)
----
	return sortKey(RoundKey(key), math.MaxUint32)
EOF

# --- one prepare pass, then serial page writes (DESIGN.md §20 "Set-up") ---

mut prep-chunk-drops-last internal/core/prepare.go "prepare pass: a chunk's upper bound one short, so one tuple a chunk is never prepared" <<'EOF'
		lo, hi := w*n/workers, (w+1)*n/workers
----
		lo, hi := w*n/workers, (w+1)*n/workers-1
EOF

mut sort-signed-zero internal/btree/cursor.go "packed sort: a −0 key keeps its sign bit in the packed integer and sorts before every +0" <<'EOF'
	if b == 1<<31 {
		b = 0
	}
----
EOF

# --- one list of the QueryStats counters (DESIGN.md §9.1) ---

mut stats-add-skips-tangent internal/obs/observer.go "one counter list: \`QueryStats.Add\` leaves \`Tangent\` out" <<'EOF'
func (s *QueryStats) Add(o QueryStats) { s.add(o.counts()) }
----
func (s *QueryStats) Add(o QueryStats) { t := s.Tangent; s.add(o.counts()); s.Tangent = t }
EOF

mut counter-names-swapped internal/obs/observer.go "one counter list: two neighbouring names exchanged" <<'EOF'
"decided", "sure",
----
"sure", "decided",
EOF

echo >&2
echo "| mutation | source | tests that fail | verdict |"
echo "|---|---|---|---|"
while IFS=$'\t' read -r id source tests verdict; do
	echo "| \`$id\` | $source | $tests | $verdict |"
done <"$results"
echo
echo "audit took $(( $(date +%s) - start )) s"
