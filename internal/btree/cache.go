package btree

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dualcdb/internal/pagestore"
)

// DecodeStats counts view-meta cache traffic. Resident is a gauge — the
// number of parsed headers currently held — while the other fields are
// monotone counters. The name predates the zero-copy layout: a "decode"
// is now just a header parse (viewMeta), but the hit/miss semantics the
// harness and observability layers consume are unchanged.
type DecodeStats struct {
	Hits          uint64 // lookups served from a current parse
	Misses        uint64 // lookups for pages never parsed (or evicted)
	Invalidations uint64 // lookups that found a stale parse and refreshed it
	Evictions     uint64 // parses dropped by the cache's capacity bound
	Resident      uint64 // parsed headers currently cached
}

// Add accumulates other into s (for summing stats across trees).
func (s *DecodeStats) Add(o DecodeStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Invalidations += o.Invalidations
	s.Evictions += o.Evictions
	s.Resident += o.Resident
}

const defaultDecodeCacheNodes = 4096

// evictScan bounds how many least-recently-used entries an eviction
// examines while looking for a victim whose page has also left the
// buffer pool.
const evictScan = 8

// cacheEntry is one LRU node: the parsed header plus the id that keys it
// (needed to delete the map entry when the list node is evicted).
type cacheEntry struct {
	id pagestore.PageID
	m  viewMeta
}

// viewCache caches parsed page headers per tree, keyed by PageID and
// validated against the frame's version stamp (see
// pagestore.Frame.Version): a cached parse is served only while the
// pinned frame still reports the version it was taken under, so a page
// mutated through MarkDirty — or freed and reallocated — can never
// satisfy a lookup with stale offsets.
//
// Under the flat layout this cache holds no page content: entries,
// handicaps and separators are read in place through nodeView, and the
// cache's job shrinks to skipping the header parse. Each entry is a few
// dozen bytes with no heap slices, so the cache itself never contributes
// to sweep allocation.
//
// Capacity is bounded by LRU eviction tied to pool residency: every hit
// moves the entry to the front, so the inner nodes every descent touches
// never age out, and eviction prefers victims whose backing page the
// buffer pool has itself evicted — those parses are both the least likely
// to be reused and certain to be re-validated against a freshly read
// frame anyway.
type viewCache struct {
	mu   sync.Mutex
	m    map[pagestore.PageID]*list.Element
	lru  *list.List // of *cacheEntry, most-recently used at front
	cap  int
	pool *pagestore.Pool

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

func newViewCache(capacity int, pool *pagestore.Pool) *viewCache {
	if capacity <= 0 {
		capacity = defaultDecodeCacheNodes
	}
	return &viewCache{
		m:    make(map[pagestore.PageID]*list.Element),
		lru:  list.New(),
		cap:  capacity,
		pool: pool,
	}
}

// lookup returns the parsed header of the pinned node n, parsing and
// caching it when absent or stale. The parse is cheap enough to run under
// the cache lock.
func (c *viewCache) lookup(n node) viewMeta {
	v := n.frame.Version()
	id := n.id()
	c.mu.Lock()
	if el, ok := c.m[id]; ok {
		ce := el.Value.(*cacheEntry)
		if ce.m.version == v {
			c.lru.MoveToFront(el)
			m := ce.m
			c.mu.Unlock()
			c.hits.Add(1)
			return m
		}
		m := parseMeta(n.data, v)
		ce.m = m
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.invalidations.Add(1)
		return m
	}
	m := parseMeta(n.data, v)
	for len(c.m) >= c.cap {
		c.evictLocked()
	}
	c.m[id] = c.lru.PushFront(&cacheEntry{id: id, m: m})
	c.mu.Unlock()
	c.misses.Add(1)
	return m
}

// evictLocked drops one entry: it walks up to evictScan entries from the
// LRU tail and evicts the first whose page is no longer resident in the
// buffer pool; when every scanned page is still pool-resident (or the
// scan is exhausted) the true tail goes. Resident takes the page's pool
// shard lock, so the ordering here is cache mutex → shard mutex; the
// pool never calls back into the btree layer, so the order cannot invert.
func (c *viewCache) evictLocked() {
	var victim *list.Element
	if c.pool != nil {
		el := c.lru.Back()
		for i := 0; i < evictScan && el != nil; i++ {
			if !c.pool.Resident(el.Value.(*cacheEntry).id) {
				victim = el
				break
			}
			el = el.Prev()
		}
	}
	if victim == nil {
		victim = c.lru.Back()
	}
	if victim == nil {
		return
	}
	delete(c.m, victim.Value.(*cacheEntry).id)
	c.lru.Remove(victim)
	c.evictions.Add(1)
}

func (c *viewCache) stats() DecodeStats {
	c.mu.Lock()
	resident := len(c.m)
	c.mu.Unlock()
	return DecodeStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Resident:      uint64(resident),
	}
}
