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
	runs  []Run
	total int
	hi, i int
}

// Run is one hierarchy's ordinal run: the ascending preorder ordinals
// of nodes in H.Nodes.
type Run struct {
	H    *Hierarchy
	Ords []int32
}

// Add appends one hierarchy's ordinal run.
func (rc *RunCursor) Add(h *Hierarchy, run []int32) {
	if len(run) == 0 {
		return
	}
	rc.runs = append(rc.runs, Run{H: h, Ords: run})
	rc.total += len(run)
}

// Reset empties the cursor for a new set of runs, keeping its storage,
// so one cursor serves every context of a step without allocating.
func (rc *RunCursor) Reset() {
	rc.runs = rc.runs[:0]
	rc.total, rc.hi, rc.i = 0, 0, 0
}

// Len returns the total number of candidates across all runs,
// regardless of how many have been consumed.
func (rc *RunCursor) Len() int { return rc.total }

// Next returns the next candidate in document order, or ok=false when
// the runs are exhausted.
func (rc *RunCursor) Next() (*dom.Node, bool) {
	for rc.hi < len(rc.runs) {
		r := &rc.runs[rc.hi]
		if rc.i < len(r.Ords) {
			n := r.H.Nodes[r.Ords[rc.i]]
			rc.i++
			return n, true
		}
		rc.hi++
		rc.i = 0
	}
	return nil, false
}
