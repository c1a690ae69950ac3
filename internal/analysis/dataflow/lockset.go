package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The lock-set engine tracks which sync.Mutex/RWMutex locks are *held* at
// each CFG point — the inverse of the obligation engine, which tracks what
// must still be released. Facts are keyed by the alias map's canonical
// mutex path (`s.mu` and `p.shards[i].mu` are one lock after
// `s := p.shards[i]`), with embedded mutexes normalized through the
// selection path so `o.ring.Lock()` and a `guarded=Mutex` annotation on
// the ring's fields name the same canonical lock.
//
// Two senses of "held" flow together: Must (held on every path into the
// point — what a guarded write needs) and May (held on some path — what a
// release needs). Must is a meet/intersection lattice, so the fact carries
// an explicit Unreached top for blocks no real path has reached yet; the
// generic Forward driver's Bottom is that top. Deferred unlocks keep the
// lock in Must through the function body (that is the point of defer) and
// are subtracted only at the exit balance.
//
// Interprocedurally a LockSummary records, per function, the locks it
// acquires net of release (Begin), acquires and releases again before it
// returns (an exported method taking its receiver's lock), releases
// without acquiring (Commit, Abort — the caller must hold them) and
// requires held at entry (the *Locked helper idiom: a guarded write whose
// guard the function neither takes nor declares is charged to its
// callers). All four are expressed as field paths from a flattened
// parameter, so they survive vetx serialization across packages.

// LockMode distinguishes exclusive (Lock) from shared (RLock) holds.
type LockMode uint8

const (
	LockExcl LockMode = iota
	LockRead
)

func (m LockMode) String() string {
	if m == LockRead {
		return "r"
	}
	return "x"
}

// LockAcq describes one acquisition of a lock.
type LockAcq struct {
	Pos  token.Pos
	Mode LockMode
	// Try marks a TryLock acquisition (held only on the refined success
	// branch); exit-balance checks skip Try locks.
	Try bool
}

// LockFact is the engine's per-point fact.
type LockFact struct {
	// Unreached is the lattice top: no execution path has reached this
	// block yet, so it constrains nothing at a join.
	Unreached bool
	// Must holds locks held on every path into the point; May on at least
	// one. Must ⊆ May.
	Must map[string]LockAcq
	May  map[string]LockAcq
	// Rel records locks that were locally held and then released on some
	// path (for double-release detection); an acquisition clears the entry.
	Rel map[string]token.Pos
	// DeferRel records unlocks deferred to function return on some path.
	DeferRel map[string]token.Pos
}

type lockLattice struct{}

func (lockLattice) Bottom() LockFact { return LockFact{Unreached: true} }

func (lockLattice) Clone(f LockFact) LockFact {
	if f.Unreached {
		return LockFact{Unreached: true}
	}
	c := LockFact{
		Must:     make(map[string]LockAcq, len(f.Must)),
		May:      make(map[string]LockAcq, len(f.May)),
		Rel:      make(map[string]token.Pos, len(f.Rel)),
		DeferRel: make(map[string]token.Pos, len(f.DeferRel)),
	}
	for k, v := range f.Must {
		c.Must[k] = v
	}
	for k, v := range f.May {
		c.May[k] = v
	}
	for k, v := range f.Rel {
		c.Rel[k] = v
	}
	for k, v := range f.DeferRel {
		c.DeferRel[k] = v
	}
	return c
}

// Join meets Must (intersection — a lock is must-held only if every
// incoming path holds it) and unions May/Rel/DeferRel. Unreached facts are
// identities: they represent paths that do not exist yet.
func (l lockLattice) Join(dst, src LockFact) (LockFact, bool) {
	if src.Unreached {
		return dst, false
	}
	if dst.Unreached {
		return l.Clone(src), true
	}
	changed := false
	for k, d := range dst.Must {
		s, ok := src.Must[k]
		if !ok {
			delete(dst.Must, k)
			changed = true
			continue
		}
		if m := meetAcq(d, s); m != d {
			dst.Must[k] = m
			changed = true
		}
	}
	for k, v := range src.May {
		if old, ok := dst.May[k]; !ok {
			dst.May[k] = v
			changed = true
		} else if m := meetAcq(old, v); m != old {
			dst.May[k] = m
			changed = true
		}
	}
	changed = joinPos(dst.Rel, src.Rel) || changed
	changed = joinPos(dst.DeferRel, src.DeferRel) || changed
	return dst, changed
}

// meetAcq merges two acquisitions of the same lock on different paths:
// earliest position (deterministic reports), weakest mode (a read hold on
// either path means writes are not protected), Try if either path tried.
func meetAcq(a, b LockAcq) LockAcq {
	if b.Pos < a.Pos {
		a.Pos = b.Pos
	}
	if b.Mode == LockRead {
		a.Mode = LockRead
	}
	if b.Try {
		a.Try = true
	}
	return a
}

func joinPos(dst, src map[string]token.Pos) bool {
	changed := false
	for k, v := range src {
		if old, ok := dst[k]; !ok || v < old {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

// LockEffect names one mutex reachable from a flattened parameter of a
// function: parameter index plus a dot-joined field path to the mutex
// ("writeMu", "shard.mu", "Mutex" for an embedded one; empty when the
// parameter is the mutex itself). Mode "" is exclusive, "r" shared.
type LockEffect struct {
	Param int    `json:"param"`
	Path  string `json:"path,omitempty"`
	Mode  string `json:"mode,omitempty"`
}

func (e LockEffect) mode() LockMode {
	if e.Mode == "r" {
		return LockRead
	}
	return LockExcl
}

// LockSummary is one function's lock behaviour as its callers observe it.
type LockSummary struct {
	// Acquires lists locks held at every normal return without a balancing
	// release (Begin holds writeMu for the caller).
	Acquires []LockEffect `json:"acquires,omitempty"`
	// Takes lists locks the function acquires on some path and does not
	// hold at return (Stats locking and unlocking its receiver's mutex),
	// plus those inherited from its callees. Calling the function while one
	// of them may be held re-acquires it.
	Takes []LockEffect `json:"takes,omitempty"`
	// Releases lists locks the function unlocks without having acquired
	// them locally — the caller (or its caller) must hold them (Commit).
	Releases []LockEffect `json:"releases,omitempty"`
	// Requires lists locks that must be held at the call site: guarded
	// fields the function writes without taking or declaring the guard
	// (the *Locked helper idiom), plus requirements inherited from callees.
	Requires []LockEffect `json:"requires,omitempty"`
}

func (s LockSummary) interesting() bool {
	return len(s.Acquires) > 0 || len(s.Takes) > 0 || len(s.Releases) > 0 || len(s.Requires) > 0
}

func (s LockSummary) sameShape(o LockSummary) bool {
	return sameEffects(s.Acquires, o.Acquires) &&
		sameEffects(s.Takes, o.Takes) &&
		sameEffects(s.Releases, o.Releases) &&
		sameEffects(s.Requires, o.Requires)
}

func sameEffects(a, b []LockEffect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortEffects(effs []LockEffect) []LockEffect {
	sort.Slice(effs, func(i, j int) bool {
		if effs[i].Param != effs[j].Param {
			return effs[i].Param < effs[j].Param
		}
		if effs[i].Path != effs[j].Path {
			return effs[i].Path < effs[j].Path
		}
		return effs[i].Mode < effs[j].Mode
	})
	return effs
}

// LockSpec configures the engine for one analysis.
type LockSpec struct {
	// Summaries resolves a callee's lock summary (local fixpoint bank first,
	// then imported vetx banks). Nil or a miss means the callee is presumed
	// lock-neutral — unlike obligations there is no sound "top" for locks,
	// and lock-neutral matches RacerD's treatment of unknown calls.
	Summaries func(fn *types.Func) (LockSummary, bool)
	// GuardOf returns, for a field write through sel (base.field), the
	// guard's field path relative to base ("mu", "shard.mu", "Mutex"), as
	// declared by a //dualvet:guarded annotation. ok=false for unguarded
	// fields. Nil disables guarded-write tracking.
	GuardOf func(sel *ast.SelectorExpr) (string, bool)
}

// LockHooks receives the engine's events during a Replay pass, with the
// converged fact in effect before each event. All callbacks are optional.
type LockHooks struct {
	// Acquire fires for every direct Lock/RLock (via nil) and for every
	// lock a callee's summary acquires (via the callee); already is the
	// prior acquisition when the lock is held at the call — must-held for a
	// direct Lock, may-held for a callee — which makes the call a re-entry.
	Acquire func(call *ast.CallExpr, via *types.Func, canon string, acq LockAcq, already *LockAcq)
	// Release fires for every direct Unlock/RUnlock and for summary-applied
	// releases. held is nil when the lock is not may-held; prevRel is the
	// earlier release position when the lock was already locally released
	// (double release), or NoPos. localRoot reports that the lock lives in
	// a variable declared in this body (an unlock contract makes no sense
	// for those); paramIdx ≥ 0 when the lock is rooted at a parameter.
	Release func(call *ast.CallExpr, canon string, mode LockMode, held *LockAcq, prevRel token.Pos, localRoot bool, paramIdx int)
	// UnguardedWrite fires for a write to an annotated field whose guard is
	// not must-held and not rooted at a parameter (param-rooted misses
	// become Requires entries instead). readHeld is non-nil when the guard
	// is held but only in read mode.
	UnguardedWrite func(n ast.Node, sel *ast.SelectorExpr, guardCanon string, readHeld *LockAcq)
	// UnmetRequire fires for a call whose callee requires a lock that is
	// not must-held here and not rooted at one of this function's
	// parameters.
	UnmetRequire func(call *ast.CallExpr, fn *types.Func, eff LockEffect, canon string)
	// FuncLit fires for each function literal in a node, with the fact at
	// its occurrence. isGo marks literals launched by a go statement (their
	// bodies run under an empty lock set); deferred literals inherit the
	// registration fact, which matches the lock-then-defer idiom.
	FuncLit func(fl *ast.FuncLit, f *LockFact, isGo bool)
}

// LockEngine runs the lock-set analysis over one function body.
type LockEngine struct {
	info *types.Info
	al   *Aliases
	spec LockSpec
	body *ast.BlockStmt
	cfg  *CFG
	lat  lockLattice
	in   []LockFact
	// entry is the fact at function entry — empty for declared functions,
	// the capture-point fact for closures.
	entry LockFact

	paramKeys []string
	localKeys map[string]bool
	freshKeys map[string]bool
	// escaped maps fresh roots to their earliest escape position: the
	// ownership exemption ends where the value becomes visible to other
	// goroutines.
	escaped map[string]token.Pos

	// requires/takes/contractRel accumulate parameter-rooted lock effects
	// across transfer sweeps (keyed, so re-transfers are idempotent; all
	// only grow as facts weaken, mirroring the Must meet).
	requires    map[LockEffect]bool
	takes       map[LockEffect]bool
	contractRel map[LockEffect]bool
}

// NewLockEngine prepares an engine over body. al may be shared with (and
// should be built from) the outermost enclosing body, so captured names in
// closures canonicalize identically; params are the enclosing function's
// flattened parameters (nil for closures).
func NewLockEngine(body *ast.BlockStmt, info *types.Info, al *Aliases, spec LockSpec, params []*types.Var) *LockEngine {
	e := &LockEngine{
		info:        info,
		al:          al,
		spec:        spec,
		body:        body,
		cfg:         New(body),
		localKeys:   make(map[string]bool),
		freshKeys:   make(map[string]bool),
		requires:    make(map[LockEffect]bool),
		takes:       make(map[LockEffect]bool),
		contractRel: make(map[LockEffect]bool),
	}
	for _, p := range params {
		e.paramKeys = append(e.paramKeys, objKey(p))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Defs[n].(*types.Var); ok {
				e.localKeys[objKey(v)] = true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil && freshExpr(info, n.Rhs[i]) {
					e.freshKeys[objKey(obj)] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if name.Name == "_" || i >= len(n.Values) {
					continue
				}
				if obj := info.ObjectOf(name); obj != nil && freshExpr(info, n.Values[i]) {
					e.freshKeys[objKey(obj)] = true
				}
			}
		}
		return true
	})
	e.escaped = EarliestEscapes(FindEscapes(body, info, al))
	return e
}

// SetEntry sets a non-empty fact at function entry (closure analysis).
func (e *LockEngine) SetEntry(f LockFact) { e.entry = e.lat.Clone(f) }

// Run computes the fixpoint. It must be called before Replay/Summary.
func (e *LockEngine) Run() {
	e.in = Forward[LockFact](e.cfg, e.lat, func(b *Block, f LockFact) LockFact {
		return e.transfer(b, f, nil)
	})
}

// Replay re-applies the transfer over every live block with the converged
// incoming facts, firing hooks.
func (e *LockEngine) Replay(h *LockHooks) {
	for _, b := range e.cfg.Blocks {
		if !b.Live {
			continue
		}
		e.transfer(b, e.lat.Clone(e.in[b.Index]), h)
	}
}

// ExitFact returns the converged fact at the function's normal exit.
func (e *LockEngine) ExitFact() LockFact { return e.in[e.cfg.Exit.Index] }

// Summary reads the function's lock summary off the converged facts:
// Acquires from the exit balance, Takes, Releases and Requires from the
// parameter-rooted effects collected during the fixpoint (Takes net of
// Acquires: a lock still held at return is the caller's to release).
func (e *LockEngine) Summary() LockSummary {
	var s LockSummary
	exit := e.ExitFact()
	if !exit.Unreached {
		for canon, acq := range exit.Must {
			if acq.Try {
				continue
			}
			if _, deferred := exit.DeferRel[canon]; deferred {
				continue
			}
			if i, path, ok := e.paramRoot(canon); ok {
				s.Acquires = append(s.Acquires, LockEffect{Param: i, Path: path, Mode: modeStr(acq.Mode)})
			}
		}
	}
	for eff := range e.takes {
		if !slices.ContainsFunc(s.Acquires, func(a LockEffect) bool { return a.Param == eff.Param && a.Path == eff.Path }) {
			s.Takes = append(s.Takes, eff)
		}
	}
	for eff := range e.contractRel {
		s.Releases = append(s.Releases, eff)
	}
	for eff := range e.requires {
		s.Requires = append(s.Requires, eff)
	}
	s.Acquires = sortEffects(s.Acquires)
	s.Takes = sortEffects(s.Takes)
	s.Releases = sortEffects(s.Releases)
	s.Requires = sortEffects(s.Requires)
	return s
}

func modeStr(m LockMode) string {
	if m == LockRead {
		return "r"
	}
	return ""
}

// paramRoot resolves a canonical lock path to (parameter index, field
// path). Only pure dot paths qualify — an index or opaque segment cannot
// be re-rooted at a call site.
func (e *LockEngine) paramRoot(canon string) (int, string, bool) {
	for i, key := range e.paramKeys {
		if canon == key {
			return i, "", true
		}
		if rest, ok := strings.CutPrefix(canon, key+"."); ok && fieldPath(rest) {
			return i, rest, true
		}
	}
	return -1, "", false
}

// fieldPath reports whether s is a dot-joined chain of plain field names.
func fieldPath(s string) bool {
	if s == "" {
		return false
	}
	for _, seg := range strings.Split(s, ".") {
		if seg == "" || strings.ContainsAny(seg, "[]·‹›") {
			return false
		}
	}
	return true
}

// rootOf returns the leading segment of a canonical path.
func rootOf(canon string) string {
	if i := strings.IndexAny(canon, ".["); i >= 0 {
		return canon[:i]
	}
	return canon
}

func (e *LockEngine) transfer(b *Block, f LockFact, h *LockHooks) LockFact {
	if b.Index == e.cfg.Entry.Index && f.Unreached {
		if e.entry.Unreached || e.entry.Must == nil {
			f = e.lat.Clone(LockFact{
				Must: map[string]LockAcq{}, May: map[string]LockAcq{},
				Rel: map[string]token.Pos{}, DeferRel: map[string]token.Pos{},
			})
		} else {
			f = e.lat.Clone(e.entry)
		}
	}
	if f.Unreached {
		return f
	}
	for _, n := range b.Nodes {
		e.node(&f, n, h)
	}
	return f
}

func (e *LockEngine) node(f *LockFact, n ast.Node, h *LockHooks) {
	switch n := n.(type) {
	case *Assume:
		e.refine(f, n)
		return
	case *ast.DeferStmt:
		e.deferStmt(f, n, h)
		return
	case *ast.GoStmt:
		if h != nil && h.FuncLit != nil {
			for _, fl := range funcLitsUnder(n) {
				h.FuncLit(fl, f, true)
			}
		}
		// The launched goroutine runs under its own lock state; argument
		// expressions still evaluate here.
		for _, arg := range n.Call.Args {
			e.walkCalls(f, arg, nil, h)
		}
		return
	}
	// checkWrites also collects Requires effects for the summary, so it
	// runs during the hookless fixpoint sweeps too.
	e.checkWrites(f, n, h)
	e.walkCalls(f, n, nil, h)
	if h != nil && h.FuncLit != nil {
		for _, fl := range funcLitsUnder(n) {
			h.FuncLit(fl, f, false)
		}
	}
}

// refine upgrades a TryLock from "unknown outcome" to must-held on the
// success branch: `if mu.TryLock() { ... }`.
func (e *LockEngine) refine(f *LockFact, a *Assume) {
	cond, neg := ast.Unparen(a.Cond), a.Negated
	for {
		u, ok := cond.(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			break
		}
		cond, neg = ast.Unparen(u.X), !neg
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok || neg {
		return
	}
	if canon, op, _, isOp := e.mutexOp(call); isOp && (op == "TryLock" || op == "TryRLock") {
		mode := LockExcl
		if op == "TryRLock" {
			mode = LockRead
		}
		acq := LockAcq{Pos: call.Pos(), Mode: mode, Try: true}
		f.Must[canon] = acq
		f.May[canon] = acq
		delete(f.Rel, canon)
	}
}

func (e *LockEngine) deferStmt(f *LockFact, n *ast.DeferStmt, h *LockHooks) {
	call := n.Call
	if canon, op, _, isOp := e.mutexOp(call); isOp {
		if op == "Unlock" || op == "RUnlock" {
			if _, ok := f.DeferRel[canon]; !ok {
				f.DeferRel[canon] = call.Pos()
			}
		}
		// A deferred Lock is pathological; leave it alone.
	} else if fn := Callee(e.info, call); fn != nil && e.spec.Summaries != nil {
		if sum, ok := e.spec.Summaries(fn); ok {
			for _, eff := range sum.Releases {
				canon, ok := e.effectCanon(call, fn, eff)
				if !ok {
					continue
				}
				// Same opaque-handle accommodation as applyCall: defer
				// c.Abort() must discharge the lock Begin took even though
				// the handle-rooted canon never binds to it.
				if _, held := f.May[canon]; !held {
					for _, k := range e.suffixHeld(f, eff) {
						if _, seen := f.DeferRel[k]; !seen {
							f.DeferRel[k] = call.Pos()
						}
					}
				}
				if _, seen := f.DeferRel[canon]; !seen {
					f.DeferRel[canon] = call.Pos()
				}
			}
		}
	} else if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { mu.Unlock() }(): scan the literal for unlocks —
		// captured names canonicalize through the shared alias map.
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			c, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if canon, op, _, isOp := e.mutexOp(c); isOp && (op == "Unlock" || op == "RUnlock") {
				if _, seen := f.DeferRel[canon]; !seen {
					f.DeferRel[canon] = c.Pos()
				}
			}
			return true
		})
	}
	// Argument expressions of the deferred call evaluate now.
	for _, arg := range call.Args {
		e.walkCalls(f, arg, nil, h)
	}
	if h != nil && h.FuncLit != nil {
		for _, fl := range funcLitsUnder(n) {
			h.FuncLit(fl, f, false)
		}
	}
}

// walkCalls applies lock events of every call under n in evaluation order.
// skip suppresses one call (a deferred call's own effect happens at
// return, not here).
func (e *LockEngine) walkCalls(f *LockFact, n ast.Node, skip *ast.CallExpr, h *LockHooks) {
	WalkShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || call == skip {
			return true
		}
		e.applyCall(f, call, h)
		return true
	})
}

func (e *LockEngine) applyCall(f *LockFact, call *ast.CallExpr, h *LockHooks) {
	if canon, op, _, isOp := e.mutexOp(call); isOp {
		switch op {
		case "Lock", "RLock":
			mode := LockExcl
			if op == "RLock" {
				mode = LockRead
			}
			acq := LockAcq{Pos: call.Pos(), Mode: mode}
			if h != nil && h.Acquire != nil {
				var already *LockAcq
				if prev, held := f.Must[canon]; held {
					already = &prev
				}
				h.Acquire(call, nil, canon, acq, already)
			}
			e.take(canon, mode)
			if prev, held := f.Must[canon]; held {
				acq.Pos = prev.Pos // keep the original window for reports
			}
			f.Must[canon] = acq
			f.May[canon] = acq
			delete(f.Rel, canon)
		case "Unlock", "RUnlock":
			mode := LockExcl
			if op == "RUnlock" {
				mode = LockRead
			}
			e.release(f, call, canon, mode, h)
		case "TryLock", "TryRLock":
			// Outcome unknown here; the Assume refinement upgrades the
			// success branch.
		}
		return
	}
	fn := Callee(e.info, call)
	if fn == nil || e.spec.Summaries == nil {
		return
	}
	sum, ok := e.spec.Summaries(fn)
	if !ok {
		return
	}
	// Every lock the callee acquires — and releases again (Takes) or hands
	// back held (Acquires) — is re-entered if this call may hold it.
	for _, effs := range [2][]LockEffect{sum.Takes, sum.Acquires} {
		for _, eff := range effs {
			canon, ok := e.effectCanon(call, fn, eff)
			if !ok {
				continue
			}
			if h != nil && h.Acquire != nil {
				if prev, held := f.May[canon]; held {
					h.Acquire(call, fn, canon, LockAcq{Pos: call.Pos(), Mode: eff.mode()}, &prev)
				}
			}
			e.take(canon, eff.mode())
		}
	}
	for _, eff := range sum.Acquires {
		if canon, ok := e.effectCanon(call, fn, eff); ok {
			acq := LockAcq{Pos: call.Pos(), Mode: eff.mode()}
			if prev, held := f.Must[canon]; held {
				acq.Pos = prev.Pos
			}
			f.Must[canon] = acq
			f.May[canon] = acq
			delete(f.Rel, canon)
		}
	}
	for _, eff := range sum.Releases {
		canon, ok := e.effectCanon(call, fn, eff)
		if !ok {
			continue
		}
		// Summary-applied releases fire no hooks: an unbound canon here is
		// usually an opaque handle (c.Abort() releasing c.ix.writeMu where c
		// came from Begin), not a double unlock. When the canon misses the
		// held set entirely, conservatively release any held lock with the
		// same mutex field — leaving it held would fabricate Acquires in this
		// function's summary and re-entry reports in its callers.
		if _, held := f.May[canon]; !held {
			for _, k := range e.suffixHeld(f, eff) {
				e.release(f, call, k, eff.mode(), nil)
			}
		}
		e.release(f, call, canon, eff.mode(), nil)
	}
	for _, eff := range sum.Requires {
		canon, ok := e.effectCanon(call, fn, eff)
		if !ok {
			continue
		}
		// A requires-contract rooted at this function's own fresh, not-yet-
		// escaped allocation is vacuous: no other goroutine can reach the
		// object, so the guard has nothing to exclude. Same exemption as
		// checkWrites applies to direct constructor writes.
		if root := rootOf(canon); e.freshKeys[root] {
			if escPos, esc := e.escaped[root]; !esc || call.Pos() < escPos {
				continue
			}
		}
		if held, isHeld := f.Must[canon]; isHeld && (eff.mode() == LockRead || held.Mode == LockExcl) {
			continue
		}
		if i, path, isParam := e.paramRoot(canon); isParam {
			e.requires[LockEffect{Param: i, Path: path, Mode: eff.Mode}] = true
			continue
		}
		if h != nil && h.UnmetRequire != nil {
			h.UnmetRequire(call, fn, eff, canon)
		}
	}
}

// take records an acquisition of a parameter-rooted lock for the summary's
// Takes.
func (e *LockEngine) take(canon string, mode LockMode) {
	if i, path, ok := e.paramRoot(canon); ok {
		e.takes[LockEffect{Param: i, Path: path, Mode: modeStr(mode)}] = true
	}
}

// suffixHeld returns the may-held canons whose final path segment matches
// the mutex field of a summary release effect. Used when a summary release
// fails to bind: the handle's root is opaque (a local assigned from an
// unresolvable call) but the mutex field name still identifies which held
// lock the callee is contracted to drop.
func (e *LockEngine) suffixHeld(f *LockFact, eff LockEffect) []string {
	seg := eff.Path
	if i := strings.LastIndexByte(seg, '.'); i >= 0 {
		seg = seg[i+1:]
	}
	if seg == "" {
		return nil
	}
	var keys []string
	for k := range f.May {
		if strings.HasSuffix(k, "."+seg) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// release applies one unlock (direct or through a callee's summary).
func (e *LockEngine) release(f *LockFact, call *ast.CallExpr, canon string, mode LockMode, h *LockHooks) {
	held, isHeld := f.May[canon]
	prevRel, wasRel := f.Rel[canon]
	if !wasRel {
		prevRel = token.NoPos
	}
	localRoot := e.localKeys[rootOf(canon)]
	paramIdx := -1
	if i, path, ok := e.paramRoot(canon); ok {
		paramIdx = i
		if !isHeld {
			// Releasing a lock this function never took: a contract with
			// the caller, recorded in the summary.
			e.contractRel[LockEffect{Param: i, Path: path, Mode: modeStr(mode)}] = true
		}
	}
	if h != nil && h.Release != nil {
		var hp *LockAcq
		if isHeld {
			hp = &held
		}
		h.Release(call, canon, mode, hp, prevRel, localRoot, paramIdx)
	}
	if isHeld {
		if _, seen := f.Rel[canon]; !seen {
			f.Rel[canon] = call.Pos()
		}
	}
	delete(f.Must, canon)
	delete(f.May, canon)
}

// checkWrites looks for assignments and ++/-- through annotated guarded
// fields and verifies the guard is must-held in write mode.
func (e *LockEngine) checkWrites(f *LockFact, n ast.Node, h *LockHooks) {
	if e.spec.GuardOf == nil {
		return
	}
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	default:
		return
	}
	for _, t := range targets {
		sel := innerSelector(t)
		if sel == nil {
			continue
		}
		path, guarded := e.spec.GuardOf(sel)
		if !guarded {
			continue
		}
		base := e.al.Canon(sel.X)
		if root := rootOf(base); e.freshKeys[root] {
			// Constructor writes: the value is this function's own fresh
			// allocation — exempt until it escapes to another goroutine.
			if escPos, esc := e.escaped[root]; !esc || n.Pos() < escPos {
				continue
			}
		}
		guardCanon := base
		if path != "" {
			guardCanon += "." + path
		}
		if held, ok := f.Must[guardCanon]; ok {
			if held.Mode == LockRead {
				if h != nil && h.UnguardedWrite != nil {
					h.UnguardedWrite(n, sel, guardCanon, &held)
				}
			}
			continue
		}
		if i, rel, ok := e.paramRoot(guardCanon); ok {
			e.requires[LockEffect{Param: i, Path: rel, Mode: ""}] = true
			continue
		}
		if h != nil && h.UnguardedWrite != nil {
			h.UnguardedWrite(n, sel, guardCanon, nil)
		}
	}
}

// innerSelector peels index/star/paren wrappers off a write target down to
// the field selection being written through: `s.frames[id]` writes field
// frames of s; `*p.cur` writes through field cur.
func innerSelector(t ast.Expr) *ast.SelectorExpr {
	for {
		switch x := t.(type) {
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.StarExpr:
			t = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// effectCanon re-roots a callee's lock effect at a call site: the
// canonical path of the aligned argument plus the effect's field path.
func (e *LockEngine) effectCanon(call *ast.CallExpr, fn *types.Func, eff LockEffect) (string, bool) {
	args, ok := FlatArgs(e.info, call, fn)
	if !ok || eff.Param < 0 || eff.Param >= len(args) {
		return "", false
	}
	canon := e.al.Canon(args[eff.Param])
	if eff.Path != "" {
		canon += "." + eff.Path
	}
	return canon, true
}

// mutexOp recognizes call as a sync.Mutex/RWMutex (or sync.Locker)
// Lock/RLock/Unlock/RUnlock/TryLock/TryRLock and returns the canonical
// path of the mutex. Promoted calls through an embedded mutex append the
// embedded field names, so `o.ring.Lock()` on a struct embedding
// sync.Mutex canonicalizes to `o.ring.Mutex` — the same path a
// `guarded=Mutex` annotation resolves to.
func (e *LockEngine) mutexOp(call *ast.CallExpr) (canon, op string, isRW, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false, false
	}
	fn, okFn := e.info.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return "", "", false, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false, false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false, false
	}
	canon = e.mutexCanon(sel)
	sig, okSig := fn.Type().(*types.Signature)
	if okSig && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, okN := t.(*types.Named); okN {
			isRW = named.Obj().Name() == "RWMutex"
		}
	}
	return canon, fn.Name(), isRW, true
}

// mutexCanon canonicalizes the receiver of a mutex method call, walking
// the selection's implicit embedded-field path so promoted calls name the
// actual mutex field.
func (e *LockEngine) mutexCanon(sel *ast.SelectorExpr) string {
	base := e.al.Canon(sel.X)
	for _, name := range EmbeddedPrefix(e.info, sel) {
		base += "." + name
	}
	return base
}

// EmbeddedPrefix returns the implicit embedded-field names a selection
// traverses before reaching its final field or method: for `o.ring.Lock()`
// on a struct whose ring embeds sync.Mutex, the prefix of the promoted
// Lock selection `r.Lock` is ["Mutex"] — the path an annotation or canon
// must spell out.
func EmbeddedPrefix(info *types.Info, sel *ast.SelectorExpr) []string {
	s := info.Selections[sel]
	if s == nil {
		return nil
	}
	idx := s.Index()
	t := s.Recv()
	var out []string
	for _, i := range idx[:len(idx)-1] {
		st := structUnder(t)
		if st == nil || i >= st.NumFields() {
			return nil
		}
		fld := st.Field(i)
		out = append(out, fld.Name())
		t = fld.Type()
	}
	return out
}

func structUnder(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// freshExpr reports whether rhs is a fresh allocation (composite literal,
// &composite, new, make) — a value this function constructed and owns
// until it escapes.
func freshExpr(info *types.Info, rhs ast.Expr) bool {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if rhs.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(rhs.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(rhs.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, isBuiltin := info.Uses[id].(*types.Builtin)
		return isBuiltin && (id.Name == "new" || id.Name == "make")
	}
	return false
}

// funcLitsUnder returns the function literals directly under one CFG node
// (not nested inside other literals).
func funcLitsUnder(n ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	if a, ok := n.(*Assume); ok {
		n = a.Cond
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok {
			out = append(out, fl)
			return false
		}
		return true
	})
	return out
}

// ComputeLockSummaries computes one lock summary per declared function,
// bottom-up over the call graph's SCCs, mirroring ComputeObSummaries.
// Within an SCC the members start from the lock-neutral bottom and iterate;
// an SCC that exceeds its budget falls back to lock-neutral (entries
// deleted, callers see no effects) — sound for Requires (no spurious
// reports) and merely less precise for Acquires/Releases.
func ComputeLockSummaries(cg *CallGraph, info *types.Info, spec LockSpec, imported map[string]LockSummary) (map[*types.Func]LockSummary, SummaryStats) {
	sums := make(map[*types.Func]LockSummary, len(cg.Order))
	stats := SummaryStats{Functions: len(cg.Order)}
	spec.Summaries = func(fn *types.Func) (LockSummary, bool) {
		if s, ok := sums[fn]; ok {
			return s, true
		}
		s, ok := imported[fn.FullName()]
		return s, ok
	}
	for _, comp := range cg.SCCs {
		recursive := len(comp) > 1 || selfCalls(cg, comp[0])
		for _, fn := range comp {
			sums[fn] = LockSummary{}
		}
		bound := sccIterBound(len(comp))
		iters, bailed := 0, false
		for {
			iters++
			changed := false
			for _, fn := range comp {
				ns := summarizeLocks(cg.Funcs[fn], info, spec)
				if !ns.sameShape(sums[fn]) {
					changed = true
				}
				sums[fn] = ns
			}
			if !changed || !recursive {
				break
			}
			if iters >= bound {
				bailed = true
				for _, fn := range comp {
					delete(sums, fn)
				}
				break
			}
		}
		stats.observe(iters, bailed)
	}
	return sums, stats
}

func summarizeLocks(fi *FuncInfo, info *types.Info, spec LockSpec) LockSummary {
	body := fi.Decl.Body
	eng := NewLockEngine(body, info, NewAliases(body, info), spec, flatParams(fi.Fn))
	eng.Run()
	return eng.Summary()
}
