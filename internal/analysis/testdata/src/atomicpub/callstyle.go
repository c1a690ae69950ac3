// Golden cases for atomicpub's mixed call-style/plain rule.
package atomicpub

import "sync/atomic"

type stats struct {
	hits   uint64        // mixed: atomic in bump, plain in read/reset
	misses uint64        // always plain: fine
	calls  atomic.Uint64 // typed atomic: self-contained, never flagged
}

func bump(s *stats) {
	atomic.AddUint64(&s.hits, 1)
	s.misses++
	s.calls.Add(1)
}

func read(s *stats) uint64 {
	return s.hits + // want `field hits is accessed atomically`
		s.misses + s.calls.Load()
}

func reset(s *stats) {
	s.hits = 0 // want `field hits is accessed atomically`
	s.misses = 0
	s.calls.Store(0)
}

func allAtomic(s *stats) uint64 {
	return atomic.LoadUint64(&s.hits) // consistent atomic access: allowed
}

type ctor struct {
	n int64
}

func newCtor() *ctor {
	c := &ctor{}
	c.n = 1 //dualvet:allow atomicpub — value has not escaped yet
	return c
}

func use(c *ctor) { atomic.AddInt64(&c.n, 1) }
