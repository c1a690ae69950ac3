package lockorder

import (
	"sync"

	"lockorder/shards"
)

// --- re-entry through a callee: calling a function that takes a lock the
// caller may hold ---

type shard struct {
	mu sync.Mutex
	n  int
}

// Stats is a public entry point that takes the shard lock itself.
func (s *shard) Stats() int { s.mu.Lock(); defer s.mu.Unlock(); return s.n }

func (s *shard) statsLocked() int { return s.n }

func (s *shard) bad() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Stats() // want `s\.mu is acquired again through s\.Stats\(\) while already locked`
}

// Clean: the *Locked helper under the lock, the locking method after it.
func (s *shard) good() int {
	s.mu.Lock()
	n := s.statsLocked()
	s.mu.Unlock()
	return n + s.Stats()
}

func (s *shard) windowReopened() int {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Stats() // want `s\.mu is acquired again through s\.Stats\(\) while already locked`
}

type pool struct {
	shards []*shard
	mu     sync.RWMutex
}

// Clean: a different value is locked.
func (p *pool) crossValue(other *shard) int {
	p.shards[0].mu.Lock()
	defer p.shards[0].mu.Unlock()
	return other.Stats()
}

func (p *pool) readLocked() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.Total() // want `recursive read lock of p\.mu through p\.Total\(\)`
}

// Total takes the pool lock for reading; each shard's Stats takes a lock
// no caller here holds.
func (p *pool) Total() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, s := range p.shards {
		n += s.Stats()
	}
	return n
}

// Clean with no allow comment: LockFree's summary says it takes no lock.
func (p *pool) lockFreeCall() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.LockFree()
}

// LockFree is exported and takes no locks.
func (p *pool) LockFree() int { return len(p.shards) }

// The local copy and the original path name the same shard.
func (p *pool) aliasedLockThenPath(i int) int {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.shards[i].Stats() // want `p\.shards\[i\]\.mu is acquired again through p\.shards\[i\]\.Stats\(\)`
}

func (p *pool) pathLockThenAlias(i int) int {
	p.shards[i].mu.Lock()
	defer p.shards[i].mu.Unlock()
	s := p.shards[i]
	return s.Stats() // want `p\.shards\[i\]\.mu is acquired again through s\.Stats\(\)`
}

// Clean: a different shard is locked.
func (p *pool) aliasDistinctIndex(i, j int) int {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.shards[j].Stats()
}

// Clean: s no longer certainly names shard i.
func (p *pool) aliasReassigned(i, j int) int {
	s := p.shards[i]
	s = p.shards[j]
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.shards[i].Stats()
}

// May-held on one branch is enough: the else path reaches the call with the
// mutex still locked, and returns with it held.
func (s *shard) unlockOneBranchOnly(cond bool) int {
	s.mu.Lock() // want `s\.mu acquired here is released on some return paths but still held on others`
	if cond {
		s.mu.Unlock()
	}
	return s.Stats() // want `s\.mu is acquired again through s\.Stats\(\) while already locked`
}

// Clean: released on every path before the call.
func (s *shard) unlockBothBranches(cond bool) int {
	s.mu.Lock()
	if cond {
		s.n++
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	return s.Stats()
}

// Clean: balanced inside the loop.
func (s *shard) lockInLoopBody(rounds int) int {
	n := 0
	for i := 0; i < rounds; i++ {
		s.mu.Lock()
		n += s.statsLocked()
		s.mu.Unlock()
	}
	return n + s.Stats()
}

// Inherited: viaHelper takes s.mu through Stats, so calling it under the
// lock re-enters too.
func (s *shard) viaHelper() int { return s.Stats() + 1 }

func (s *shard) badViaHelper() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viaHelper() // want `s\.mu is acquired again through s\.viaHelper\(\) while already locked`
}

// Across packages: Stats' summary arrives with the shards package's.
func crossPackage(s *shards.Shard) int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.Peek() + s.Stats() // want `s\.Mu is acquired again through s\.Stats\(\) while already locked`
}

// Clean: the foreign lock is released before the call.
func crossPackageReleased(s *shards.Shard) int {
	s.Mu.Lock()
	n := s.Peek()
	s.Mu.Unlock()
	return n + s.Stats()
}
