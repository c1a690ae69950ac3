package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer's public functions. Spans of one operation share its Op id; Store
// aggregates the pagestore.store.{read,write,alloc,free} children of an
// operation as counts and busy time instead of one span per device call.
type span struct {
	ID     int          `json:"id"`
	Parent int          `json:"parent"` // 0: the root
	Name   string       `json:"name"`
	Op     int          `json:"op"` // −1: not an operation
	Start  int64        `json:"start_ns"`
	End    int64        `json:"end_ns"`
	Self   int64        `json:"self_ns"` // duration − child spans − store busy time
	Store  *storeCounts `json:"store,omitempty"`
}

// tracer holds the spans of a traced run in memory until write. A nil
// tracer records nothing, which is how untraced runs skip it.
type tracer struct {
	mu    sync.Mutex // the write_mix writer records beside the reader
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: -1, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// op records one finished operation with the device activity it caused.
func (t *tracer) op(name string, parent, op int, start time.Time, d time.Duration, st storeCounts) {
	if t == nil {
		return
	}
	s := span{Parent: parent, Name: name, Op: op, Start: int64(start.Sub(t.t0))}
	s.End = s.Start + int64(d)
	if st != (storeCounts{}) {
		s.Store = &st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

// nameSummary is a layer's row in the trace summary.
type nameSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// finish fills in self times and sums the spans by name.
func (t *tracer) finish() []nameSummary {
	for i := range t.spans {
		s := &t.spans[i]
		s.Self += s.End - s.Start
		if s.Store != nil {
			s.Self -= int64(s.Store.busyNs())
		}
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
	byName := map[string]*nameSummary{}
	var order []string
	for _, s := range t.spans {
		n := byName[s.Name]
		if n == nil {
			n = &nameSummary{Name: s.Name}
			byName[s.Name] = n
			order = append(order, s.Name)
		}
		n.Count++
		n.TotalNs += s.End - s.Start
		n.SelfNs += s.Self
		if s.Store != nil {
			st := byName["pagestore.store"]
			if st == nil {
				st = &nameSummary{Name: "pagestore.store"}
				byName["pagestore.store"] = st
				order = append(order, st.Name)
			}
			st.Count += int(s.Store.ReadCalls + s.Store.WriteCalls + s.Store.AllocCalls + s.Store.FreeCalls)
			st.TotalNs += int64(s.Store.busyNs())
			st.SelfNs += int64(s.Store.busyNs())
		}
	}
	sort.Strings(order)
	out := make([]nameSummary, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// write stores the trace as trace-<workload>.json in the existing dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	doc := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Summary  []nameSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, seed, t.finish(), t.spans}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
