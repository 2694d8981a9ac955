package core

import (
	"container/list"
	"sync"
)

// This file is the per-version filter memo. A published Document never
// changes (Apply returns a new version), so a selection whose answer
// depends on nothing but the document — an index scan from the root
// whose predicates read only the candidate, the filtered targets of a
// semi-join — has one answer for the life of the version. The query
// engine keeps such answers here, as per-hierarchy ascending ordinal
// runs (the shape of NameRun), instead of recomputing them per query.
//
// The table lives on the Document, so its entries die with the version:
// a superseded version takes its memo with it when it is collected.
// Keys name an operator of a plan by the plan's query source and
// operator slot, never by pointer, so an entry pins no
// plan. Both the answers and the sightings that admit them are bounded
// tables with least-recently-used eviction.

// Memo bounds: answers held, sightings remembered, and ordinals held in
// total across the answers. An answer larger than MemoMaxOrdinals is
// never stored.
const (
	MemoMaxEntries  = 64
	MemoMaxSeen     = 256
	MemoMaxOrdinals = 1 << 18
)

// MemoKey names one operator of one plan: the query's source (with a
// suffix that tells apart the expressions of one update) and the
// operator's slot. Lowering is deterministic, so one key denotes the
// same operator in every plan lowered from it.
type MemoKey struct {
	Src string
	Op  int
}

// Memo is a bounded table of selection answers over one document
// version. It is safe for concurrent use, and stored answers are
// immutable. A Document makes its own (Document.Memo). The zero Memo
// is empty.
type Memo struct {
	mu      sync.Mutex
	answers lru[[][]int32]
	seen    lru[struct{}]
	ords    int // ordinals held across answers
}

// Get returns the answer stored under k.
func (m *Memo) Get(k MemoKey) ([][]int32, bool) {
	m.mu.Lock()
	runs, ok := m.answers.get(k)
	m.mu.Unlock()
	if ok {
		memoHits.Add(1)
	} else {
		memoMisses.Add(1)
	}
	return runs, ok
}

// Seen records a sighting of k and reports whether k was sighted
// before: a selection is worth storing only the second time it runs, so
// a one-off query pays nothing for the memo.
func (m *Memo) Seen(k MemoKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.seen.get(k); ok {
		return true
	}
	m.seen.put(k, struct{}{})
	if m.seen.len() > MemoMaxSeen {
		m.seen.evict()
	}
	return false
}

// Put stores runs, one ascending ordinal run per hierarchy, under k,
// evicting the least recently used answers until the bounds hold; an
// answer larger than MemoMaxOrdinals is not stored. The caller must not
// modify runs afterwards.
func (m *Memo) Put(k MemoKey, runs [][]int32) {
	n := ordCount(runs)
	if n > MemoMaxOrdinals {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.answers.get(k); ok {
		m.ords -= ordCount(old)
	}
	m.ords += n
	m.answers.put(k, runs)
	for m.answers.len() > MemoMaxEntries || m.ords > MemoMaxOrdinals {
		m.ords -= ordCount(m.answers.evict())
	}
	m.seen.remove(k)
}

// MemoStats is a memo's occupancy.
type MemoStats struct {
	Entries, Seen, Ordinals int
}

// Stats returns the memo's occupancy.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Entries: m.answers.len(), Seen: m.seen.len(), Ordinals: m.ords}
}

func ordCount(runs [][]int32) int {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	return n
}

// Memo returns d's memo, or nil when d may not keep one: an overlay
// (Base != nil), which lives for one evaluation, and a private working
// version, which a later Apply of its lineage may edit in place.
func (d *Document) Memo() *Memo {
	if d.Base != nil || d.lineage != nil {
		return nil
	}
	if m := d.memo.Load(); m != nil {
		return m
	}
	d.memo.CompareAndSwap(nil, new(Memo))
	return d.memo.Load()
}

// lru is a least-recently-used map whose owner evicts to its bound;
// the front of the list is the most recent.
type lru[V any] struct {
	ll list.List
	m  map[MemoKey]*list.Element
}

type lruItem[V any] struct {
	k MemoKey
	v V
}

func (l *lru[V]) len() int { return len(l.m) }

func (l *lru[V]) get(k MemoKey) (V, bool) {
	e, ok := l.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(e)
	return e.Value.(*lruItem[V]).v, true
}

// put stores v under k as the most recent entry.
func (l *lru[V]) put(k MemoKey, v V) {
	if e, ok := l.m[k]; ok {
		e.Value.(*lruItem[V]).v = v
		l.ll.MoveToFront(e)
		return
	}
	if l.m == nil {
		l.m = make(map[MemoKey]*list.Element)
	}
	l.m[k] = l.ll.PushFront(&lruItem[V]{k: k, v: v})
}

// evict removes and returns the least recently used value.
func (l *lru[V]) evict() V {
	e := l.ll.Back()
	it := e.Value.(*lruItem[V])
	l.ll.Remove(e)
	delete(l.m, it.k)
	return it.v
}

func (l *lru[V]) remove(k MemoKey) {
	if e, ok := l.m[k]; ok {
		l.ll.Remove(e)
		delete(l.m, k)
	}
}
