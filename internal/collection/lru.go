package collection

import (
	"container/list"
	"sync"

	"mhxquery/internal/obs"
)

// lruCache is a fixed-capacity least-recently-used cache keyed by
// string. It holds immutable values (compiled queries), so one entry
// can be shared by any number of concurrent evaluations; the lock only
// guards the recency list and map.
type lruCache struct {
	capacity int

	mu           sync.Mutex
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses uint64

	// hitC/missC mirror hits/misses into the owning collection's metrics
	// registry when set (metrics.go); they are atomics, so incrementing
	// under the cache lock costs one uncontended atomic add.
	hitC, missC *obs.Counter
}

type lruEntry struct {
	key string
	v   any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

func (l *lruCache) get(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		if l.missC != nil {
			l.missC.Inc()
		}
		return nil, false
	}
	l.hits++
	if l.hitC != nil {
		l.hitC.Inc()
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).v, true
}

func (l *lruCache) add(key string, v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		// A concurrent load won the race; refresh the entry (a stale
		// plan for a recompiled query is replaced, anything else kept).
		el.Value.(*lruEntry).v = v
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry{key: key, v: v})
	for l.ll.Len() > l.capacity {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry).key)
	}
}

func (l *lruCache) stats() (hits, misses uint64, entries int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses, l.ll.Len()
}
