// Package shards is the cross-package half of the re-entry golden cases:
// its Stats takes the shard's exported mutex, and a caller in another
// package knows that only from Stats' lock summary.
package shards

import "sync"

type Shard struct {
	Mu sync.Mutex
	n  int
}

// Stats takes the shard lock itself.
func (s *Shard) Stats() int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.n
}

// Peek takes no lock.
func (s *Shard) Peek() int { return s.n }
