// Package cache implements the content-addressed result cache of the
// simulation service: results keyed by the 128-bit content key of their
// canonicalized job spec, held in an in-memory LRU under a byte-size
// budget.
//
// The cache exploits the engine's determinism contract: identical
// canonical specs produce bit-identical ResultDigests regardless of
// worker count, idle-skip mode or checkpoint/resume, so a cached result
// IS the result of re-running the spec. Persistence comes from the
// layers around the cache, not the cache itself — the serving manager
// journals every completion with its SpecKey and keeps result blobs in
// internal/store's atomic-blob layer, then rebuilds the index by
// replaying the journal at startup (DESIGN.md §15).
package cache

import (
	"container/list"
	"encoding/json"
	"sync"

	"hmcsim/internal/ckey"
	"hmcsim/internal/server/api"
)

// Key aliases the 128-bit content key; see package ckey.
type Key = ckey.Key

// JobKey is the full content key of one job submission: the combined
// canonical identity of the device configuration, the workload spec, the
// optional fabric system graph and the run shape (requests, warmup,
// posted, Figure-5 sampling). Submission metadata that cannot change the
// simulated outcome is excluded:
//
//   - Name and IdempotencyKey label the submission, not the simulation.
//   - TimeoutMS bounds wall-clock scheduling; a completed run's result
//     does not depend on it.
//   - Config.Workers and Workload.Workers are inert compatibility
//     fields, and Workload.NoIdleSkip is an execution hint with a
//     bit-identity contract (DESIGN.md §14).
//
// Everything else — including every nested fault-model and fabric field
// — is semantic: flipping it changes the key.
func JobKey(s api.SubmitRequest) Key {
	c := s
	c.Name = ""
	c.TimeoutMS = 0
	c.IdempotencyKey = ""
	c.Config = s.Config.Canonical()
	c.Workload = s.Workload.Canonical()
	if s.Fabric != nil {
		f := s.Fabric.Canonical()
		c.Fabric = &f
	}
	return ckey.MustHashJSON("hmcsim/job/v1", c)
}

// entry is one cached result with its accounting size.
type entry struct {
	key   Key
	res   *api.Result
	bytes int64
}

// LRU is the in-memory index: most-recently-used eviction under a byte
// budget. All methods are safe for concurrent use. Results handed out by
// Get are shared pointers — callers must treat them as immutable and
// copy before annotating.
type LRU struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *entry
	byKey  map[Key]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

// NewLRU returns a cache bounded by budget bytes. A budget <= 0 yields a
// cache that stores nothing (every Get misses, every Put is dropped),
// which callers may use instead of branching on nil.
func NewLRU(budget int64) *LRU {
	return &LRU{
		budget: budget,
		ll:     list.New(),
		byKey:  make(map[Key]*list.Element),
	}
}

// Get returns the cached result for k, refreshing its recency. The
// returned pointer is shared: treat it as immutable.
func (c *LRU) Get(k Key) (*api.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).res, true
}

// Contains reports whether k is cached without touching recency or the
// hit/miss counters.
func (c *LRU) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[k]
	return ok
}

// Put inserts (or refreshes) the result under k and evicts
// least-recently-used entries until the byte budget holds again. It
// returns the number of entries evicted. A result larger than the whole
// budget is not cached (and evicts nothing). size <= 0 derives the size
// from the result's JSON encoding.
func (c *LRU) Put(k Key, r *api.Result, size int64) (evicted int) {
	if size <= 0 {
		size = EncodedSize(r)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return 0
	}
	if el, ok := c.byKey[k]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.bytes
		e.res, e.bytes = r, size
		c.ll.MoveToFront(el)
	} else {
		c.byKey[k] = c.ll.PushFront(&entry{key: k, res: r, bytes: size})
		c.bytes += size
	}
	for c.bytes > c.budget {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeElement(oldest)
		evicted++
	}
	c.evictions += uint64(evicted)
	return evicted
}

// Remove drops k from the cache, if present. It does not count as an
// eviction (Remove expresses invalidation — a verify mismatch — not
// budget pressure).
func (c *LRU) Remove(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.removeElement(el)
	}
}

// removeElement unlinks el. Caller holds c.mu.
func (c *LRU) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
}

// Len returns the entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted size of all cached results.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget.
func (c *LRU) Budget() int64 { return c.budget }

// Evictions returns the lifetime count of budget evictions.
func (c *LRU) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// EncodedSize is the accounting size of a result: the length of its JSON
// encoding, the same bytes the store persists for it.
func EncodedSize(r *api.Result) int64 {
	data, err := json.Marshal(r)
	if err != nil {
		return 1 // unmarshalable results never reach the cache
	}
	return int64(len(data))
}
