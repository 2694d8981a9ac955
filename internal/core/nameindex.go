package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mhxquery/internal/dom"
)

// This file implements the structural name index: a per-hierarchy
// inverted index mapping an interned element-name symbol to the
// ascending run of preorder ordinals of the elements bearing that name.
// Because a hierarchy's preorder ordinals are dense and a node's subtree
// occupies Nodes[Ord..Last], two binary searches restrict a run to any
// subtree, and because the Definition 3 document order enumerates the
// hierarchies in registration order, concatenating per-hierarchy runs
// yields document order without sorting. The query planner uses this to
// turn //name and descendant::name steps into O(matches) index scans.
//
// The index is built lazily, once per hierarchy, under a sync.Once:
// overlay documents created by analyze-string share their base
// document's Hierarchy values, and a base document may be queried
// concurrently while an overlay evaluation touches the same hierarchy,
// so unsynchronized lazy initialization would race (the -race test
// TestNameIndexConcurrentWithOverlays exercises exactly that). The node
// slice a hierarchy indexes is immutable after construction, so the
// index never needs invalidation: an overlay's new hierarchy simply
// carries its own (empty, lazily built) index.
type nameIndex struct {
	once sync.Once
	runs map[int32][]int32
	// built flips to true (with release semantics, inside the Once) when
	// runs is installed, so the update engine can peek at a possibly
	// unbuilt index without forcing a build: a not-yet-built index has
	// nothing to maintain incrementally.
	built atomic.Bool
}

// build fills the index from the hierarchy's preorder node list.
func (ix *nameIndex) build(h *Hierarchy) {
	start := time.Now()
	ix.runs = rebuildRuns(h)
	indexBuilds.Add(1)
	indexBuildNanos.Add(int64(time.Since(start)))
	ix.built.Store(true)
}

// rebuildRuns computes the run map fresh from the node list — the
// from-scratch path build uses, and the differential oracle the
// incremental maintenance of update.go is tested against.
func rebuildRuns(h *Hierarchy) map[int32][]int32 {
	runs := make(map[int32][]int32)
	for _, n := range h.Nodes {
		if n.Kind == dom.Element && n.NameSym != 0 {
			runs[n.NameSym] = append(runs[n.NameSym], int32(n.Ord))
		}
	}
	return runs
}

// snapshot returns the run map if the index has been built, else nil.
// Safe to call concurrently with NameRun builds.
func (ix *nameIndex) snapshot() map[int32][]int32 {
	if ix.built.Load() {
		return ix.runs
	}
	return nil
}

// install seeds the index with an already-computed run map (the
// incrementally patched index of a new document version). A no-op if
// the index was somehow built first.
func (ix *nameIndex) install(runs map[int32][]int32) {
	ix.once.Do(func() {
		ix.runs = runs
		ix.built.Store(true)
	})
}

// IndexRuns returns the hierarchy's structural name index — interned
// element-name symbol → ascending preorder ordinal run — building it on
// first use. The returned map and its slices are shared and must not be
// mutated; this is the diagnostic/verification surface of the index.
func (h *Hierarchy) IndexRuns() map[int32][]int32 {
	h.ensure()
	h.idx.once.Do(func() { h.idx.build(h) })
	return h.idx.runs
}

// RebuildIndexRuns recomputes the index from scratch, ignoring any
// built (or incrementally maintained) state — the oracle differential
// tests compare IndexRuns against.
func (h *Hierarchy) RebuildIndexRuns() map[int32][]int32 {
	h.ensure()
	return rebuildRuns(h)
}

// mayHold reports whether h may have an element with name symbol sym:
// false only when h's name index is built and has no run for sym. It
// never builds the index, and symbol 0 asks nothing.
func (h *Hierarchy) mayHold(sym int32) bool {
	if sym == 0 {
		return true
	}
	runs := h.idx.snapshot()
	return runs == nil || len(runs[sym]) > 0
}

// NameRun returns the ascending preorder ordinals of the hierarchy's
// elements whose interned name symbol is sym, building the index on
// first use. The returned slice is shared and must not be mutated. A
// symbol of 0 ("name occurs nowhere in the document") returns nil.
func (h *Hierarchy) NameRun(sym int32) []int32 {
	if sym == 0 {
		return nil
	}
	h.idx.once.Do(func() { h.idx.build(h) })
	run := h.idx.runs[sym]
	if len(run) > 0 {
		// Callers resolve the returned ordinals through h.Nodes; a
		// frozen hierarchy materializes its node storage now, so a
		// non-empty run is always dereferenceable. (An empty run means
		// no node access follows — a frozen document answers "no such
		// name here" without materializing anything.)
		h.ensure()
	}
	return run
}

// SubRun restricts an ascending ordinal run to the half-open interval
// (after, upTo], i.e. the subtree of a node n when called with
// (n.Ord, n.Last). Both bounds are found by binary search, so a subtree
// restriction costs O(log |run|).
func SubRun(run []int32, after, upTo int) []int32 {
	lo := sort.Search(len(run), func(i int) bool { return int(run[i]) > after })
	hi := sort.Search(len(run), func(i int) bool { return int(run[i]) > upTo })
	return run[lo:hi]
}
