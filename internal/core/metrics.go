package core

import "sync/atomic"

// Process-wide instrumentation for the structural name index. The
// counters live here rather than on a Document because index builds
// happen lazily deep inside Hierarchy methods where no registry is in
// scope, and because "how many times did this process build an index"
// is exactly the question an operator asks when checking that the
// incremental-maintenance path (update.go) is carrying its weight
// against full rebuilds. The collection layer samples these through
// obs.CounterFunc at scrape time; updates are single atomic adds so the
// lazy-build fast path stays uncontended.
var (
	indexBuilds     atomic.Uint64 // from-scratch rebuildRuns builds
	indexBuildNanos atomic.Int64  // wall time spent in those builds
	indexPatched    atomic.Uint64 // update runs that patched an index incrementally
	indexLazyReset  atomic.Uint64 // update runs that deferred to a fresh lazy build

	// Overlay documents created by AddHierarchy, and the lazy overlay
	// leaf layers a query actually forced (buildOverlayLeaves): the gap
	// between the two is the leaf work analyze-string no longer does.
	overlays          atomic.Uint64
	overlayLeafBuilds atomic.Uint64

	// Filter memo lookups (memo.go) that found a stored answer, and
	// those that did not.
	memoHits, memoMisses atomic.Uint64
)

// IndexStats is a snapshot of the process-wide name-index counters and
// their overlay siblings.
type IndexStats struct {
	// Builds counts from-scratch index builds (lazy first-touch builds
	// and oracle rebuilds alike).
	Builds uint64
	// BuildNanos is the cumulative wall time of those builds.
	BuildNanos int64
	// Patched counts hierarchies whose index an update maintained
	// incrementally instead of discarding.
	Patched uint64
	// LazyReset counts hierarchies whose index an update discarded,
	// deferring to a fresh lazy build on next query.
	LazyReset uint64
	// Overlays counts overlay documents (analyze-string hierarchies);
	// OverlayLeafBuilds counts the overlay leaf layers built on demand.
	Overlays          uint64
	OverlayLeafBuilds uint64
	// MemoHits and MemoMisses count filter memo lookups that found a
	// stored answer and those that did not.
	MemoHits, MemoMisses uint64
}

// GlobalIndexStats returns the current process-wide name-index and
// overlay counters. Values are monotonic for the life of
// the process.
func GlobalIndexStats() IndexStats {
	return IndexStats{
		Builds:            indexBuilds.Load(),
		BuildNanos:        indexBuildNanos.Load(),
		Patched:           indexPatched.Load(),
		LazyReset:         indexLazyReset.Load(),
		Overlays:          overlays.Load(),
		OverlayLeafBuilds: overlayLeafBuilds.Load(),
		MemoHits:          memoHits.Load(),
		MemoMisses:        memoMisses.Load(),
	}
}
