// Golden cases for the spanleak analyzer.
package spanleak

import "obs"

func work() {}

func balanced(tr *obs.Trace) {
	st := tr.Begin("sweep", 0, 0)
	work()
	st.End(1, 0, 2)
}

func leakOneBranch(tr *obs.Trace, cond bool) {
	st := tr.Begin("sweep", 0, 0) // want `timer started by tr\.Begin may not reach End on every return path`
	if cond {
		return
	}
	st.End(1, 0, 2)
}

func discarded(tr *obs.Trace) {
	tr.Begin("sweep", 0, 0) // want `timer started by tr\.Begin is discarded without End`
}

func batchBalancedDefer(o *obs.Observer) {
	bt := o.StartBatch()
	defer bt.Done()
	work()
}

func batchLeak(o *obs.Observer, cond bool) {
	bt := o.StartBatch() // want `timer started by o\.StartBatch may not reach Done on every return path`
	if cond {
		return
	}
	bt.Done()
}

// returned transfers the obligation to the caller: allowed.
func returned(tr *obs.Trace) obs.SpanTimer {
	return tr.Begin("route", 0, 0)
}

// zeroValue is the nil-observer idiom: a zero SpanTimer is no obligation.
func zeroValue(tr *obs.Trace, enabled bool) obs.SpanTimer {
	if !enabled {
		return obs.SpanTimer{}
	}
	return tr.Begin("refine", 0, 0)
}

func aliasEnd(tr *obs.Trace) {
	st := tr.Begin("dedup", 0, 0)
	cp := st
	cp.End(0, 0, 0)
}

func annotated(tr *obs.Trace) {
	tr.Begin("sweep", 0, 0) //dualvet:allow spanleak — fire-and-forget probe
}

// --- cross-function (summary-driven) shapes ---------------------------

// closeSpan ends its timer on every path; its summary discharges the
// obligation at call sites.
func closeSpan(st obs.SpanTimer, pages uint64, items int) {
	st.End(pages, 0, items)
}

// readSpan merely inspects the timer: the obligation stays with the caller.
func readSpan(st obs.SpanTimer) {
	_ = st
}

// maybeClose ends the timer on one arm only.
func maybeClose(st obs.SpanTimer, ok bool) {
	if ok {
		st.End(0, 0, 0)
	}
}

// closedByHelper hands the span to a closing helper. Allowed.
func closedByHelper(tr *obs.Trace) {
	st := tr.Begin("sweep", 0, 0)
	work()
	closeSpan(st, 1, 2)
}

// droppedByHelper hands the span to a helper that never closes it: the
// stage silently vanishes from the trace.
func droppedByHelper(tr *obs.Trace) {
	st := tr.Begin("sweep", 0, 0) // want `timer started by tr\.Begin is passed to readSpan, which does not close it`
	work()
	readSpan(st)
}

// conditionallyClosed: the helper closes only on its success arm.
func conditionallyClosed(tr *obs.Trace, ok bool) {
	st := tr.Begin("sweep", 0, 0) // want `timer started by tr\.Begin is passed to maybeClose, which closes it on only some paths`
	work()
	maybeClose(st, ok)
}

// beginVia returns a fresh timer; its summary makes it a source.
func beginVia(tr *obs.Trace, stage obs.Stage) obs.SpanTimer {
	return tr.Begin(stage, 0, 0)
}

// helperSourceLeaked: a timer acquired through a helper still carries the
// obligation.
func helperSourceLeaked(tr *obs.Trace, cond bool) {
	st := beginVia(tr, "route") // want `timer started by beginVia may not reach End on every return path`
	if cond {
		return
	}
	st.End(0, 0, 0)
}

// helperSourceBalanced closes the helper-acquired timer. Allowed.
func helperSourceBalanced(tr *obs.Trace) {
	st := beginVia(tr, "route")
	defer st.End(0, 0, 0)
	work()
}

// allowedHandoff suppresses the cross-function finding at the call site.
func allowedHandoff(tr *obs.Trace) {
	st := tr.Begin("probe", 0, 0) //dualvet:allow spanleak — probe helper records elsewhere
	readSpan(st)
}
