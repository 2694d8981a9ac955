package core

import "mhxquery/internal/dom"

// RunCursor iterates a set of per-hierarchy ordinal runs (nameindex.go)
// in document order, lazily: no node slice is materialized, which is
// what lets the query engine's index-scan cursors answer early-exit
// queries like (//w)[1] in O(answer). Runs must be added in hierarchy
// registration order with ascending ordinals (NameRun/SubRun output),
// which per Definition 3 is document order across the concatenation.
//
// The zero value is an empty cursor. RunCursor is not safe for
// concurrent use; each evaluation owns its own.
type RunCursor struct {
	hiers []*Hierarchy
	runs  [][]int32
	total int
	hi, i int
}

// Add appends one hierarchy's ordinal run.
func (rc *RunCursor) Add(h *Hierarchy, run []int32) {
	if len(run) == 0 {
		return
	}
	rc.hiers = append(rc.hiers, h)
	rc.runs = append(rc.runs, run)
	rc.total += len(run)
}

// Len returns the total number of candidates across all runs,
// regardless of how many have been consumed.
func (rc *RunCursor) Len() int { return rc.total }

// At returns the k-th (0-based) candidate across the concatenated runs
// without advancing the cursor; it panics when k is out of range (the
// caller bounds k by Len). This is the O(1) positional shortcut behind
// run-level [k] and [last()] predicates.
func (rc *RunCursor) At(k int) *dom.Node {
	for i, run := range rc.runs {
		if k < len(run) {
			return rc.hiers[i].Nodes[run[k]]
		}
		k -= len(run)
	}
	panic("core: RunCursor.At out of range")
}

// Next returns the next candidate in document order, or ok=false when
// the runs are exhausted.
func (rc *RunCursor) Next() (*dom.Node, bool) {
	for rc.hi < len(rc.runs) {
		run := rc.runs[rc.hi]
		if rc.i < len(run) {
			n := rc.hiers[rc.hi].Nodes[run[rc.i]]
			rc.i++
			return n, true
		}
		rc.hi++
		rc.i = 0
	}
	return nil, false
}
