package server

import (
	"container/list"
	"sync"

	"udfdecorr/internal/engine"
)

// CacheKey identifies one cached plan. Two sessions share a plan exactly
// when they agree on the normalized query text, the execution mode, the
// engine profile, the executor, and the catalog schema version; any DDL
// bumps the version, so stale plans become unreachable immediately (and the
// service additionally purges the cache to release the memory).
type CacheKey struct {
	SQL            string // normalized (see NormalizeSQL)
	Mode           engine.Mode
	Profile        string // profile name (SYS1/SYS2)
	Vectorized     bool
	Parallelism    int // intra-query degree (parallel plans differ structurally)
	CatalogVersion int64
	// Partial marks shard-local partial-aggregate plans (see
	// StreamOpts.Partial) — same SQL, structurally different plan, so it
	// must never collide with the final-aggregate entry.
	Partial bool
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCache is a bounded, thread-safe LRU cache of prepared plans shared by
// all sessions of a Service. Cached engine.Prepared values are immutable
// (execution state flows through per-call contexts), so one entry may
// execute concurrently in many sessions.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[CacheKey]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  CacheKey
	plan *engine.Prepared
}

// NewPlanCache builds a cache holding at most capacity plans. A capacity
// <= 0 disables caching (every lookup misses, stores are dropped).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  map[CacheKey]*list.Element{},
	}
}

// Get returns the cached plan for the key, marking it most recently used.
func (c *PlanCache) Get(key CacheKey) (*engine.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// Put stores a plan, evicting the least recently used entry when full.
func (c *PlanCache) Put(key CacheKey, plan *engine.Prepared) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, plan: plan})
}

// Purge drops every entry (DDL invalidation); counters survive.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = map[CacheKey]*list.Element{}
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.lru.Len(),
		Capacity:  c.capacity,
	}
}
