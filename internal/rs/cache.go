package rs

import (
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// shardKey is the survivor bitmask identifying which k shards a decode
// matrix was inverted for. 256 bits covers the maximum code length.
type shardKey [4]uint64

// matrixCache is a bounded cache of inverted decode matrices with
// approximate-LRU eviction. In steady state a cluster has a stable
// failure pattern — the same servers are slow or dead across many
// reads — so the same k x k inversion would otherwise be redone on
// every reconstruction.
//
// The cache is read-mostly by construction, so the hit path takes only
// a shared RLock for the map lookup plus two atomic stores: concurrent
// readers with a stable failure pattern never serialize on a writer
// lock. Recency is a per-entry atomic clock tick rather than a linked
// list (a list's MoveToFront would need the write lock on every hit);
// eviction scans for the minimum tick, which is fine because the cache
// is small (default 64 entries) and misses already pay an O(k^3)
// inversion.
type matrixCache struct {
	mu      sync.RWMutex
	cap     int
	entries map[shardKey]*cacheEntry
	clock   atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type cacheEntry struct {
	key  shardKey
	m    *matrix.Matrix
	used atomic.Uint64
}

func newMatrixCache(capacity int) *matrixCache {
	return &matrixCache{
		cap:     capacity,
		entries: make(map[shardKey]*cacheEntry, capacity),
	}
}

func (c *matrixCache) get(key shardKey) (*matrix.Matrix, bool) {
	c.mu.RLock()
	e := c.entries[key]
	var m *matrix.Matrix
	if e != nil {
		m = e.m // read under the lock: put may replace it
	}
	c.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(c.clock.Add(1))
	c.hits.Add(1)
	return m, true
}

func (c *matrixCache) put(key shardKey, m *matrix.Matrix) {
	tick := c.clock.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.m = m
		e.used.Store(tick)
		return
	}
	for len(c.entries) >= c.cap {
		var victim *cacheEntry
		for _, e := range c.entries {
			if victim == nil || e.used.Load() < victim.used.Load() {
				victim = e
			}
		}
		delete(c.entries, victim.key)
	}
	e := &cacheEntry{key: key, m: m}
	e.used.Store(tick)
	c.entries[key] = e
}
