// Package obs is a golden-test stand-in for dualcdb/internal/obs: the
// spanleak analyzer matches target packages by import-path suffix, so this
// fake exercises the same resolution without importing the real module.
package obs

type Stage string

type Trace struct{}

func (t *Trace) Begin(stage Stage, c0, c1 uint64) SpanTimer { return SpanTimer{} }

type SpanTimer struct{ open bool }

func (s SpanTimer) End(c0, c1 uint64, items int) {}

type Observer struct{}

func (o *Observer) StartBatch() BatchTimer { return BatchTimer{} }

type BatchTimer struct{ open bool }

func (b BatchTimer) Done() {}
