package obs

import (
	"log/slog"
	"time"
)

// AbortCause distinguishes why a commit batch was abandoned: a mutation
// fault mid-batch (the engine aborted to keep the published version
// intact) versus the caller explicitly calling Abort.
type AbortCause string

// The abort causes recorded on aborted commit traces.
const (
	AbortFault    AbortCause = "fault"
	AbortExplicit AbortCause = "explicit"
)

// CommitInfo is what the write path reports when a commit batch
// finishes (published or aborted). The counts mirror the commit's exact
// bookkeeping so the write-side reconciliation test can compare
// observer totals against the pool's counters.
type CommitInfo struct {
	Op         string // "insert", "delete", "rebuild", or "batch"
	Version    uint64 // published version (0 when aborted)
	Inserts    int
	Deletes    int
	Superseded int // pages handed to DeferFrees
	Aborted    bool
	Cause      AbortCause // set when Aborted
	Err        error      // the mutation fault, when Cause is AbortFault
}

// StartCommit opens a trace for one commit batch. Pair with
// FinishCommit (the write path calls it from both Commit and Abort).
func (o *Observer) StartCommit() *Trace {
	if o == nil {
		return nil
	}
	o.commitInflight.Add(1)
	return newTrace("")
}

// FinishCommit closes a trace opened by StartCommit, folding the
// commit-level counts and every recorded stage span into the metric
// registry, retaining the trace in the flight ring, and routing slow or
// aborted commits to the slow-commit ring and log.
func (o *Observer) FinishCommit(tr *Trace, info CommitInfo) {
	if o == nil || tr == nil {
		return
	}
	o.commitInflight.Add(-1)
	tr.commit = info
	spans, sum := o.finish(tr)
	cloned, freed := sum[0], sum[1]

	// commits.total and the latency/fan-out histograms cover published
	// commits only; aborted batches count under commits.aborted and its
	// per-cause split (their staged clone work still lands in the stage
	// aggregates above, since those pages really were cloned and freed).
	if info.Aborted {
		o.commitAborts.Inc()
		if info.Cause == AbortFault {
			o.abortFault.Inc()
		} else {
			o.abortExplicit.Inc()
		}
	} else {
		o.commits.Inc()
		o.commitNs.RecordDuration(tr.total)
		o.cloneFanout.Record(cloned)
		o.supersededPg.Record(uint64(info.Superseded))
	}

	o.flight.add(tr)
	slow := o.slowThreshold > 0 && tr.total >= o.slowThreshold
	if !slow && !info.Aborted {
		return
	}
	if slow {
		o.slowCommits.Inc()
	}
	o.slowCommitRing.add(tr)
	// Aborted commits always name their cause — fault (mid-batch mutation
	// error) or explicit (caller Abort) — so aborts are never invisible in
	// the log.
	msg, attrs := "slow commit", []slog.Attr{
		slog.String("op", info.Op),
		slog.Uint64("version", info.Version),
		slog.Duration("total", tr.total),
		slog.Int("inserts", info.Inserts),
		slog.Int("deletes", info.Deletes),
		slog.Int("superseded", info.Superseded),
		slog.Uint64("cloned", cloned),
		slog.Uint64("freed", freed),
	}
	if info.Aborted {
		msg = "aborted commit"
		attrs = append(attrs, slog.Bool("aborted", true), slog.String("cause", string(info.Cause)))
	}
	o.logSlow(msg, spans, info.Err, attrs...)
}

// RecordSnapshotAge records how long a reader held a pinned snapshot
// before releasing it — the MVCC health signal behind the version-lag
// and reclaim-backlog gauges. Nil-safe.
func (o *Observer) RecordSnapshotAge(age time.Duration) {
	if o == nil {
		return
	}
	o.snapAgeNs.RecordDuration(age)
}

// FlightRecords returns the flight recorder's retained commit traces,
// newest first — every recent commit, slow or not.
func (o *Observer) FlightRecords() []CommitTraceSnapshot {
	if o == nil {
		return nil
	}
	return commitSnapshots(o.flight.traces())
}

// SlowCommits returns the retained slow or aborted commit traces,
// newest first.
func (o *Observer) SlowCommits() []CommitTraceSnapshot {
	if o == nil {
		return nil
	}
	return commitSnapshots(o.slowCommitRing.traces())
}

func commitSnapshots(trs []*Trace) []CommitTraceSnapshot {
	out := make([]CommitTraceSnapshot, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.commitSnapshot())
	}
	return out
}

// CommitStageSnapshot aggregates one commit stage across all observed
// commits.
type CommitStageSnapshot struct {
	Count   uint64            `json:"count"`
	Cloned  uint64            `json:"cloned"`
	Freed   uint64            `json:"freed"`
	Items   uint64            `json:"items"`
	Latency HistogramSnapshot `json:"latency"`
}
