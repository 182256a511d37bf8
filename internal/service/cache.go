package service

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached run: the rendered JSON result (exactly the
// bytes `ivnsim -json` would print) and, for traced specs, the JSONL
// event stream. Entries are immutable once stored — callers must not
// mutate the returned slices.
type cacheEntry struct {
	key        string
	resultJSON []byte
	traceJSONL []byte
}

// resultCache is a mutex-guarded LRU keyed by runspec.Spec.Key(). The
// key already folds in the build stamp, so entries can never outlive the
// binary that computed them, and eviction is purely a memory-bound
// concern.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheEntry
	items    map[string]*list.Element
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the entry for key, promoting it to most recently used.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores an entry, evicting from the least recently used end when
// over capacity. Storing an existing key refreshes its recency.
func (c *resultCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	c.evictLocked()
}

// setCapacity resizes the cache, evicting immediately when shrinking.
func (c *resultCache) setCapacity(n int) {
	if n <= 0 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	c.evictLocked()
}

func (c *resultCache) evictLocked() {
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
}
