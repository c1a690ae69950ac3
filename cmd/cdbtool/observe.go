package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dualcdb"
)

// observe attaches (or with "off" detaches) a query observer to the
// session. "observe slow 10ms" additionally logs queries at or over the
// threshold to stderr as structured JSON and retains their traces.
func (s *session) observe(rest string) error {
	opt := dualcdb.ObserverOptions{Name: "cdbtool"}
	fields := strings.Fields(rest)
	for i := 0; i < len(fields); i++ {
		switch fields[i] {
		case "off":
			s.obs = nil
			if s.dual != nil {
				s.dual.SetObserver(nil)
			}
			fmt.Fprintln(s.out, "observation off")
			return nil
		case "slow":
			if i+1 >= len(fields) {
				return fmt.Errorf("observe slow <duration> (e.g. observe slow 10ms)")
			}
			d, err := time.ParseDuration(fields[i+1])
			if err != nil {
				return fmt.Errorf("bad duration %q: %w", fields[i+1], err)
			}
			opt.SlowThreshold = d
			opt.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
			i++
		default:
			return fmt.Errorf("observe [slow <duration>|off]")
		}
	}
	s.obs = dualcdb.NewObserver(opt)
	if s.dual != nil {
		s.dual.SetObserver(s.obs)
	}
	if opt.SlowThreshold > 0 {
		fmt.Fprintf(s.out, "observation on (slow-query threshold %v, logging to stderr)\n", opt.SlowThreshold)
	} else {
		fmt.Fprintln(s.out, "observation on")
	}
	return nil
}

// statsAny is the debug server's /debug/stats payload: the unified index
// snapshot, or the bare relation shape before an index exists.
func (s *session) statsAny() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dual != nil {
		return s.dual.StatsSnapshot()
	}
	return map[string]any{"tuples": s.rel.Len(), "dim": s.rel.Dim()}
}

// serve starts the HTTP debug server. The listener address is printed so
// "serve 127.0.0.1:0" works for scripted smoke tests.
func (s *session) serve(addr string) error {
	if s.srv != nil {
		return fmt.Errorf("debug server already running")
	}
	if addr == "" {
		addr = "127.0.0.1:6060"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := dualcdb.DebugMux(s.statsAny, s.obs)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// ErrServerClosed on shutdown; anything else is already fatal
		// to the server goroutine and surfaces via failed scrapes.
		_ = s.srv.Serve(ln)
	}()
	fmt.Fprintf(s.out, "debug server listening on http://%s/ (stats at /debug/stats)\n", ln.Addr())
	return nil
}

// traces dumps the retained slow-query traces, newest first.
func (s *session) traces() error {
	if s.obs == nil {
		return fmt.Errorf("no observer attached ('observe slow <dur>' first)")
	}
	trs := s.obs.SlowTraces()
	if len(trs) == 0 {
		fmt.Fprintln(s.out, "no slow traces retained")
		return nil
	}
	for _, tr := range trs {
		fmt.Fprintf(s.out, "%s  path=%s total=%dus pages=%d candidates=%d falseHits=%d\n",
			tr.Query, tr.Path, tr.TotalUs, tr.PagesRead, tr.Candidates, tr.FalseHits)
		for _, sp := range tr.Spans {
			fmt.Fprintf(s.out, "  %-7s +%6dus %6dus  pages=%d items=%d\n",
				sp.Stage, sp.StartUs, sp.DurUs, sp.Pages, sp.Items)
		}
	}
	return nil
}

// flight dumps the commit flight recorder, newest first: every recent
// commit with its stage breakdown and exact page-clone/free attribution.
func (s *session) flight() error {
	if s.obs == nil {
		return fmt.Errorf("no observer attached ('observe' first)")
	}
	recs := s.obs.FlightRecords()
	if len(recs) == 0 {
		fmt.Fprintln(s.out, "no commits recorded")
		return nil
	}
	for _, tr := range recs {
		status := fmt.Sprintf("v%d", tr.Version)
		if tr.Aborted {
			status = "aborted(" + tr.Cause + ")"
		}
		fmt.Fprintf(s.out, "%-7s %-16s total=%dus inserts=%d deletes=%d superseded=%d cloned=%d freed=%d\n",
			tr.Op, status, tr.TotalUs, tr.Inserts, tr.Deletes, tr.Superseded, tr.Cloned, tr.Freed)
		for _, sp := range tr.Spans {
			fmt.Fprintf(s.out, "  %-7s +%6dus %6dus  cloned=%d freed=%d items=%d\n",
				sp.Stage, sp.StartUs, sp.DurUs, sp.Cloned, sp.Freed, sp.Items)
		}
		if tr.Err != "" {
			fmt.Fprintf(s.out, "  err: %s\n", tr.Err)
		}
	}
	return nil
}

// stats prints the unified snapshot in the shell's line format.
func (s *session) stats() {
	fmt.Fprintf(s.out, "relation: %d tuples, dim %d\n", s.rel.Len(), s.rel.Dim())
	if s.dual != nil {
		snap := s.dual.StatsSnapshot()
		fmt.Fprintf(s.out, "dual index: %d indexed tuples, %d pages, slopes %v\n",
			s.dual.Len(), snap.Pages, s.dual.Slopes())
		fmt.Fprintf(s.out, "pool: %d logical / %d physical reads, %d writes; %d/%d frames resident (%d pinned)\n",
			snap.Pool.LogicalReads, snap.Pool.PhysicalReads, snap.Pool.Writes,
			snap.Residency.Frames, snap.Residency.Capacity, snap.Residency.Pinned)
		fmt.Fprintf(s.out, "sweeps: %d descents, %d leaves visited\n",
			snap.Sweeps.Descents, snap.Sweeps.LeavesVisited)
		m := snap.MVCC
		fmt.Fprintf(s.out, "mvcc: version %d, watermark %d (lag %d), %d pinned snapshots, %d backlog pages, %d cloned, %d reclaimed\n",
			m.Version, m.Watermark, m.VersionLag, m.PinnedSnapshots,
			m.ReclaimBacklogPages, m.PagesCloned, m.PagesReclaimed)
		if o := snap.Observer; o != nil {
			rate := 0.0
			if o.UptimeSec > 0 {
				rate = float64(o.Commits) / o.UptimeSec
			}
			fmt.Fprintf(s.out, "commits: %d total (%.2f/s), %d aborted (%d fault, %d explicit), %d slow, %d in flight; p50=%s p99=%s\n",
				o.Commits, rate, o.CommitAborts, o.AbortsFault, o.AbortsExplicit,
				o.CommitsSlow, o.CommitInflight,
				time.Duration(o.CommitLatency.P50), time.Duration(o.CommitLatency.P99))
		}
		if o := snap.Observer; o != nil {
			fmt.Fprintf(s.out, "queries: %d total, %d slow, %d errors\n", o.Queries, o.Slow, o.Errors)
			for _, name := range o.PathNames {
				ps := o.Paths[name]
				fmt.Fprintf(s.out, "  path %-12s %5d queries  p50=%s p99=%s  pages=%d candidates=%d falseHits=%d\n",
					name, ps.Count,
					time.Duration(ps.Latency.P50), time.Duration(ps.Latency.P99),
					ps.PagesRead, ps.Candidates, ps.FalseHits)
			}
		}
	}
	if s.rplus != nil {
		fmt.Fprintf(s.out, "R+-tree: %d pages\n", s.rplus.Pages())
	}
}
