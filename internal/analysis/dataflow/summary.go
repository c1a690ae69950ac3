package dataflow

import (
	"go/ast"
	"go/types"
)

// ParamEffect describes, as a may-analysis bitmask, what a callee can do with
// an obligation-carrying value passed in a given parameter position. Join is
// bitwise OR: each bit records that the behavior occurs on at least one path.
type ParamEffect uint8

const (
	// EffKeep: some path through the callee leaves the obligation with the
	// caller — the callee neither released nor took ownership there.
	EffKeep ParamEffect = 1 << iota
	// EffRelease: some path releases the obligation (calls the discipline's
	// release operation on the value or hands it to a releasing callee).
	EffRelease
	// EffEscape: some path takes ownership — the value is stored, returned,
	// captured by a closure, or handed to an unknown callee.
	EffEscape
)

// TopEffect is the summary effect assumed for unknown or external callees:
// ownership is presumed transferred (so the caller is not blamed for a leak
// the helper may well handle) but no release is presumed (so borrows held
// against the value are not spuriously invalidated). This reproduces the
// intra-procedural engine's treatment of every call, making the interprocedural
// analysis a strict refinement for known callees.
const TopEffect = EffEscape

// Discharges reports whether the effect lets the caller drop the obligation:
// every path through the callee released or took ownership of the value.
func (e ParamEffect) Discharges() bool { return e&EffKeep == 0 }

// Conditional reports a "conditionally releases" callee: the obligation is
// discharged on some paths but left with the caller on others.
func (e ParamEffect) Conditional() bool {
	return e&EffKeep != 0 && e&(EffRelease|EffEscape) != 0
}

// ObSummary is one function's obligation summary for one discipline
// (pin/frame, span, ...).
type ObSummary struct {
	// Params holds one effect per flattened parameter (method receiver at
	// index 0, then declared parameters). Parameters whose type is not a
	// resource of the discipline carry effect 0 and are ignored by callers.
	Params []ParamEffect `json:"params,omitempty"`
	// Chains holds, per parameter, the local call chain justifying a kept or
	// conditional effect ("g" called "h" which held the value), capped at
	// chainCap hops. Chains are diagnostic garnish only: convergence checks
	// ignore them.
	Chains [][]string `json:"chains,omitempty"`
	// Result is the flattened index of a result value that carries a fresh
	// obligation the caller must discharge, or -1 (the function is then not a
	// source). At most one result is tracked, matching LeakSpec.Source.
	Result int `json:"result"`
	// Err is the index of the error result paired with Result (the
	// obligation is waived when that error is non-nil), or -1.
	Err int `json:"err"`
}

// chainCap bounds per-parameter diagnostic chains so recursive summaries
// cannot grow them without bound.
const chainCap = 3

// effectFor returns the recorded effect for flattened parameter i, or
// TopEffect when the summary does not cover that position (variadic overflow
// arguments map to the variadic slot).
func (s ObSummary) effectFor(i int) ParamEffect {
	if i < 0 || i >= len(s.Params) {
		return TopEffect
	}
	return s.Params[i]
}

func (s ObSummary) chainFor(i int) []string {
	if i < 0 || i >= len(s.Chains) {
		return nil
	}
	return s.Chains[i]
}

// interesting reports whether the summary says anything a caller could not
// assume from TopEffect alone — only interesting summaries are serialized.
func (s ObSummary) interesting() bool {
	if s.Result >= 0 {
		return true
	}
	for _, p := range s.Params {
		if p != 0 {
			return true
		}
	}
	return false
}

// sameShape compares the convergence-relevant parts of two summaries
// (chains excluded: they are derived diagnostics and may re-order inside an
// SCC without affecting the fixpoint).
func (s ObSummary) sameShape(o ObSummary) bool {
	if s.Result != o.Result || s.Err != o.Err || len(s.Params) != len(o.Params) {
		return false
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// BorrowSummary records how a function interacts with a borrow discipline:
// which results are views borrowed from which parameters, and which lender
// parameters the function may release.
type BorrowSummary struct {
	// Params carries EffRelease for lender-typed parameters the function may
	// release on some path (other bits are not meaningful for borrows).
	Params []ParamEffect `json:"params,omitempty"`
	// Results maps each result index to the flattened parameter indices it
	// borrows from (empty for results that are not views of a parameter).
	Results [][]int `json:"results,omitempty"`
}

func (s BorrowSummary) releases(i int) bool {
	return i >= 0 && i < len(s.Params) && s.Params[i]&EffRelease != 0
}

func (s BorrowSummary) lendersOf(res int) []int {
	if res < 0 || res >= len(s.Results) {
		return nil
	}
	return s.Results[res]
}

func (s BorrowSummary) interesting() bool {
	for _, p := range s.Params {
		if p&EffRelease != 0 {
			return true
		}
	}
	for _, r := range s.Results {
		if len(r) > 0 {
			return true
		}
	}
	return false
}

func (s BorrowSummary) sameShape(o BorrowSummary) bool {
	if len(s.Params) != len(o.Params) || len(s.Results) != len(o.Results) {
		return false
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range s.Results {
		if len(s.Results[i]) != len(o.Results[i]) {
			return false
		}
		for j := range s.Results[i] {
			if s.Results[i][j] != o.Results[i][j] {
				return false
			}
		}
	}
	return true
}

// PackageSummaries is the serializable bank of function summaries one package
// unit exports into its vetx record and imports from its dependencies'.
// Functions are keyed by types.Func.FullName (e.g.
// "(dualcdb/internal/pagestore.Pool).Get"); obligation summaries are
// additionally keyed by discipline name so pinleak and spanleak do not collide.
// Only "interesting" summaries appear — a missing entry means TopEffect, which
// keeps records small and byte-stable: the go command keys a unit's vet run
// on its dependencies' vetx bytes, so a record that changed from run to run
// would re-run every dependent.
type PackageSummaries struct {
	Obligations map[string]map[string]ObSummary `json:"obligations,omitempty"`
	Borrows     map[string]BorrowSummary        `json:"borrows,omitempty"`
	// Locks holds lock summaries keyed by discipline (lockset and atomicpub
	// compute under different guard specs, so their banks stay apart).
	Locks map[string]map[string]LockSummary `json:"locks,omitempty"`
	// Publish holds publication (frozen-after-publish) summaries.
	Publish map[string]PubSummary `json:"publish,omitempty"`
}

func (p *PackageSummaries) Empty() bool {
	return p == nil || (len(p.Obligations) == 0 && len(p.Borrows) == 0 &&
		len(p.Locks) == 0 && len(p.Publish) == 0)
}

// Merge folds q into p (p's entries win on collision, which cannot happen for
// well-formed banks: each function lives in exactly one unit).
func (p *PackageSummaries) Merge(q *PackageSummaries) {
	if q == nil {
		return
	}
	for disc, funcs := range q.Obligations {
		if p.Obligations == nil {
			p.Obligations = make(map[string]map[string]ObSummary)
		}
		dst := p.Obligations[disc]
		if dst == nil {
			dst = make(map[string]ObSummary)
			p.Obligations[disc] = dst
		}
		for name, s := range funcs {
			if _, dup := dst[name]; !dup {
				dst[name] = s
			}
		}
	}
	for name, s := range q.Borrows {
		if p.Borrows == nil {
			p.Borrows = make(map[string]BorrowSummary)
		}
		if _, dup := p.Borrows[name]; !dup {
			p.Borrows[name] = s
		}
	}
	for disc, funcs := range q.Locks {
		if p.Locks == nil {
			p.Locks = make(map[string]map[string]LockSummary)
		}
		dst := p.Locks[disc]
		if dst == nil {
			dst = make(map[string]LockSummary)
			p.Locks[disc] = dst
		}
		for name, s := range funcs {
			if _, dup := dst[name]; !dup {
				dst[name] = s
			}
		}
	}
	for name, s := range q.Publish {
		if p.Publish == nil {
			p.Publish = make(map[string]PubSummary)
		}
		if _, dup := p.Publish[name]; !dup {
			p.Publish[name] = s
		}
	}
}

// AddObligations records the interesting entries of a computed summary map
// under one discipline, keyed by FullName, ready for Pass.Export.
func (p *PackageSummaries) AddObligations(discipline string, sums map[*types.Func]ObSummary) {
	for fn, s := range sums {
		if !s.interesting() {
			continue
		}
		if p.Obligations == nil {
			p.Obligations = make(map[string]map[string]ObSummary)
		}
		if p.Obligations[discipline] == nil {
			p.Obligations[discipline] = make(map[string]ObSummary)
		}
		p.Obligations[discipline][fn.FullName()] = s
	}
}

// AddBorrows records the interesting entries of a computed borrow summary map.
func (p *PackageSummaries) AddBorrows(sums map[*types.Func]BorrowSummary) {
	for fn, s := range sums {
		if !s.interesting() {
			continue
		}
		if p.Borrows == nil {
			p.Borrows = make(map[string]BorrowSummary)
		}
		p.Borrows[fn.FullName()] = s
	}
}

// AddLocks records the interesting entries of a computed lock summary map
// under one discipline.
func (p *PackageSummaries) AddLocks(discipline string, sums map[*types.Func]LockSummary) {
	for fn, s := range sums {
		if !s.interesting() {
			continue
		}
		if p.Locks == nil {
			p.Locks = make(map[string]map[string]LockSummary)
		}
		if p.Locks[discipline] == nil {
			p.Locks[discipline] = make(map[string]LockSummary)
		}
		p.Locks[discipline][fn.FullName()] = s
	}
}

// AddPublish records the interesting entries of a computed publication
// summary map.
func (p *PackageSummaries) AddPublish(sums map[*types.Func]PubSummary) {
	for fn, s := range sums {
		if !s.interesting() {
			continue
		}
		if p.Publish == nil {
			p.Publish = make(map[string]PubSummary)
		}
		p.Publish[fn.FullName()] = s
	}
}

// LocksFor returns the imported lock summaries for one discipline
// (nil-safe).
func (p *PackageSummaries) LocksFor(discipline string) map[string]LockSummary {
	if p == nil {
		return nil
	}
	return p.Locks[discipline]
}

// PublishBank returns the imported publication summaries (nil-safe).
func (p *PackageSummaries) PublishBank() map[string]PubSummary {
	if p == nil {
		return nil
	}
	return p.Publish
}

// ObligationsFor returns the imported obligation summaries for one discipline
// (nil-safe).
func (p *PackageSummaries) ObligationsFor(discipline string) map[string]ObSummary {
	if p == nil {
		return nil
	}
	return p.Obligations[discipline]
}

// BorrowBank returns the imported borrow summaries (nil-safe).
func (p *PackageSummaries) BorrowBank() map[string]BorrowSummary {
	if p == nil {
		return nil
	}
	return p.Borrows
}

// SummaryStats reports how summary computation over one package converged,
// for tests that bound the fixpoint.
type SummaryStats struct {
	Functions int // functions summarized
	SCCs      int // strongly connected components processed
	MaxIters  int // worst-case fixpoint sweeps over a single SCC
	Bailed    int // SCCs that hit the iteration bound and fell back to top
}

func (s *SummaryStats) observe(iters int, bailed bool) {
	s.SCCs++
	if iters > s.MaxIters {
		s.MaxIters = iters
	}
	if bailed {
		s.Bailed++
	}
}

// sccIterBound returns the fixpoint sweep budget for an SCC of n functions.
// Effect bits only ever turn on, so |lattice height| sweeps always suffice;
// the bound is a generous multiple that still catches a non-monotone bug.
func sccIterBound(n int) int { return 4 + 3*n }

// FlatParams returns the flattened parameter variables of fn (receiver
// first for methods) — the indexing every summary uses.
func FlatParams(fn *types.Func) []*types.Var { return flatParams(fn) }

// FlatArgs aligns a call's argument expressions with a callee summary's
// flattened parameter indexing: for a method call, the receiver expression is
// element 0. ok is false when the call shape cannot be aligned (method
// expressions, indirect calls) — callers then fall back to TopEffect
// handling. Variadic calls map trailing arguments onto the final parameter
// slot via flatIndex.
func FlatArgs(info *types.Info, call *ast.CallExpr, fn *types.Func) ([]ast.Expr, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	if sig.Recv() == nil {
		return call.Args, true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	// Only ordinary method values (x.M(...)) are aligned; a method
	// expression (T.M(x, ...)) has no Selections entry of kind MethodVal.
	if s := info.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
		return nil, false
	}
	args := make([]ast.Expr, 0, len(call.Args)+1)
	args = append(args, sel.X)
	return append(args, call.Args...), true
}

// flatParams returns the flattened parameter variables of fn (receiver first
// for methods).
func flatParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// flatIndex clamps a flattened argument index to the callee's parameter
// count so variadic overflow arguments share the final slot's effect.
func flatIndex(fn *types.Func, i int) int {
	n := len(flatParams(fn))
	if n == 0 {
		return i
	}
	if i >= n {
		return n - 1
	}
	return i
}
