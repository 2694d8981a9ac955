package core

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// This file is the per-version filter memo. A published Document never
// changes (Apply returns a new version), so a selection whose answer
// depends on nothing but the document — the elements of one name or the
// leaves that pass predicates reading only the candidate, whether an
// index scan from the root, a structural test or a semi-join's filtered
// targets asks for them — has one answer for the life of the version. The query engine keeps such
// answers here, as per-hierarchy ascending ordinal runs (the shape of
// NameRun), instead of recomputing them per query.
//
// The table lives in the Document, so its entries die with the version:
// a superseded version takes its memo with it when it is collected.
// Keys name a selection by text, never by pointer, so an entry pins no
// plan. The answers are a bounded table with least-recently-used
// eviction; the sightings that admit them are a fixed ring of key
// hashes, so a version's first queries, which only sight their keys,
// allocate nothing for the memo.

// Memo bounds: answers held, sightings remembered, and ordinals held in
// total across the answers. An answer larger than MemoMaxOrdinals is
// never stored.
const (
	MemoMaxEntries  = 64
	MemoMaxSeen     = 32
	MemoMaxOrdinals = 1 << 18
)

// MemoKey names a selection by what it selects, whatever query asks
// for it: the elements whose name symbol is Sym (the leaves for Sym 0)
// that pass the predicates whose canonical text is Src.
type MemoKey struct {
	Src string
	Sym int32
}

// Memo is a bounded table of selection answers over one document
// version. It is safe for concurrent use, and stored answers are
// immutable. A Document holds its own (Document.Memo). The zero Memo
// is empty.
type Memo struct {
	// seen is a ring of the hashes of the keys sighted last (0: an
	// empty slot), read and written without the lock; next advances
	// the ring.
	seen [MemoMaxSeen]atomic.Uint64
	next atomic.Uint32

	mu      sync.Mutex
	answers lru[[][]int32]
	ords    int // ordinals held across answers
}

// memoSeed keys the sighting hashes of this process.
var memoSeed = maphash.MakeSeed()

// hash is k's sighting hash, never 0.
func (k MemoKey) hash() uint64 {
	return (maphash.String(memoSeed, k.Src) ^ uint64(k.Sym)*0x9e3779b97f4a7c15) | 1
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
// before, among the last MemoMaxSeen sightings: a selection is worth
// storing only the second time it runs, so a one-off query pays nothing
// for the memo. Two goroutines sighting a key at once may both see it
// as new; the key is then stored one sighting later.
func (m *Memo) Seen(k MemoKey) bool {
	h := k.hash()
	for i := range m.seen {
		if m.seen[i].Load() == h {
			return true
		}
	}
	m.seen[m.next.Add(1)%MemoMaxSeen].Store(h)
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
	h := k.hash()
	for i := range m.seen {
		m.seen[i].CompareAndSwap(h, 0)
	}
}

// MemoStats is a memo's occupancy.
type MemoStats struct {
	Entries, Seen, Ordinals int
}

// Stats returns the memo's occupancy.
func (m *Memo) Stats() MemoStats {
	seen := 0
	for i := range m.seen {
		if m.seen[i].Load() != 0 {
			seen++
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Entries: m.answers.len(), Seen: seen, Ordinals: m.ords}
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
	return &d.memo
}

// lru is a least-recently-used map whose owner evicts to its bound;
// the front of the list is the most recent. The zero lru is empty and
// allocates on its first put.
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
