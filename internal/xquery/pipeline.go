package xquery

import (
	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the order-aware step-evaluation pipeline. The reference
// step evaluator of the package tests (oracle_test.go) re-sorts and
// re-dedupes the whole intermediate node set after every step — an
// O(k log k) comparison sort even when the axis already emitted document
// order. The pipeline instead:
//
//   - relies on the axis order contracts (core.Axis.Order): every axis
//     emits a duplicate-free run that is either ascending or descending
//     document order, verified per segment in one O(k) pass, so a
//     reverse-axis run is restored to document order by an O(k)
//     reversal and an ascending run costs nothing;
//   - threads a "sorted and duplicate-free" invariant through the
//     steps: each step's output is in document order, so a step whose
//     input is a single node (the overwhelmingly common case inside
//     predicates and FLWOR bindings) skips merging entirely, and
//     multi-context steps only merge when segment junctions actually
//     interleave;
//   - merges interleaved segments with an O(k) ordinal scatter
//     (core.OrdinalSet) keyed on the document's dense Definition 3
//     ordinals — no comparator, no hashing — falling back to the
//     comparison sort only for nodes without ordinals (attributes,
//     constructed trees), where it reproduces the reference evaluator's
//     stable-sort semantics exactly;
//   - resolves node tests once per (step, document) into interned name
//     symbols and hierarchy indices (resolvedTest), replacing
//     per-candidate string comparisons and hierarchy map lookups; and
//   - reuses the axis candidate buffer across context nodes
//     (evalState.axisBuf) and runs the predicates' stage chain over the
//     tested candidates in place, so a steady-state step allocates only
//     its output.

// resolvedTest is a node test resolved against one document: the name as
// an interned symbol, hierarchy restrictions as indices. Hierarchy
// resolution stays lazy so that the unknown-hierarchy error is raised at
// exactly the same evaluation point as the reference evaluator's (only
// when a candidate actually reaches the hierarchy check).
type resolvedTest struct {
	doc       *core.Document
	t         *nodeTest
	principal dom.Kind
	nameSym   int32
	hierIdx   []int
	hierDone  bool
	hierErr   error
}

func (rt *resolvedTest) init(d *core.Document, s *step) {
	rt.doc = d
	rt.t = &s.test
	rt.principal = dom.Element
	if s.axis == core.AxisAttribute {
		rt.principal = dom.Attribute
	}
	rt.nameSym = 0
	if s.test.kind == testName {
		rt.nameSym = d.NameSymOf(s.test.name)
	}
	rt.hierIdx = rt.hierIdx[:0]
	rt.hierDone = false
	rt.hierErr = nil
}

// match reports whether candidate n passes the test; the check order
// (kind, name, hierarchy) is the reference evaluator's, so errors
// surface at the same point.
func (rt *resolvedTest) match(n *dom.Node) (bool, error) {
	t := rt.t
	switch t.kind {
	case testName:
		if n.Kind != rt.principal {
			return false, nil
		}
		if n.NameSym != 0 {
			// Document node: symbols decide (rt.nameSym is 0 when the
			// name occurs nowhere in the document, matching no symbol).
			if n.NameSym != rt.nameSym {
				return false, nil
			}
		} else if n.Name != t.name {
			return false, nil
		}
		return rt.hierOK(n)
	case testStar:
		if n.Kind != rt.principal {
			return false, nil
		}
		return rt.hierOK(n)
	case testText:
		if n.Kind != dom.Text {
			return false, nil
		}
		return rt.hierOK(n)
	case testNode:
		if len(t.hiers) == 0 {
			return true, nil
		}
		return rt.hierOK(n)
	case testComment:
		return n.Kind == dom.Comment, nil
	case testPI:
		return n.Kind == dom.ProcInst && (t.name == "" || n.Name == t.name), nil
	case testLeaf:
		if n.Kind != dom.Leaf {
			return false, nil
		}
		return rt.hierOK(n)
	}
	return false, nil
}

// candidates is the axis candidate set the test can accept. Name, *,
// text(), comment() and processing-instruction() tests reject every leaf
// on its kind before any hierarchy check (match), so the axes
// may drop leaf candidates for them without changing results, positions
// or error points — and without building an overlay's lazy leaf layer.
func (t *nodeTest) candidates() core.Candidates {
	switch t.kind {
	case testNode, testLeaf:
		return core.AllCandidates
	}
	return core.NoLeaves
}

// hierOK implements the hierarchy restriction of Definition 2 — the
// shared root belongs to every hierarchy, a leaf to every hierarchy
// covering it.
func (rt *resolvedTest) hierOK(n *dom.Node) (bool, error) {
	if len(rt.t.hiers) == 0 {
		return true, nil
	}
	if err := rt.hiers(); err != nil {
		return false, err
	}
	if n == rt.doc.Root {
		return true, nil
	}
	if n.Kind == dom.Leaf {
		for _, p := range rt.doc.LeafParents(n) {
			if rt.allows(p.HierIndex) {
				return true, nil
			}
		}
		return false, nil
	}
	// A constructed node belongs to no hierarchy.
	return n.Hier != "" && rt.allows(n.HierIndex), nil
}

// hiers resolves the hierarchy restriction to integer indices, once per
// (step, document); an unknown hierarchy is its error.
func (rt *resolvedTest) hiers() error {
	if !rt.hierDone {
		rt.hierDone = true
		for _, name := range rt.t.hiers {
			h := rt.doc.HierarchyByName(name)
			if h == nil {
				rt.hierErr = errf("MHXQ0001", "unknown hierarchy %q in node test", name)
				break
			}
			rt.hierIdx = append(rt.hierIdx, h.Index)
		}
	}
	return rt.hierErr
}

// allows reports whether the resolved restriction admits hierarchy
// index hi.
func (rt *resolvedTest) allows(hi int) bool {
	if len(rt.t.hiers) == 0 {
		return true
	}
	for _, x := range rt.hierIdx {
		if x == hi {
			return true
		}
	}
	return false
}

// Segment order classification (one O(k) pass of dom.Compare).
const (
	segAscending  = iota // strictly ascending document order (or < 2 items)
	segDescending        // strictly descending
	segUnordered         // neither (order-degenerate constructed trees, duplicates)
)

func segOrder(seg Seq) int {
	if len(seg) < 2 {
		return segAscending
	}
	asc, desc := true, true
	for i := 1; i < len(seg); i++ {
		c := dom.Compare(seg[i-1].(*dom.Node), seg[i].(*dom.Node))
		if c >= 0 {
			asc = false
		}
		if c <= 0 {
			desc = false
		}
		if !asc && !desc {
			return segUnordered
		}
	}
	if asc {
		return segAscending
	}
	return segDescending
}

// axisSegment appends context n's segment of axis step s to out: the
// axis candidates — a shared view of d's arrays, else gathered into
// evalState.axisBuf — that pass the node test, filtered in place by the
// predicates' stage chain (which then knows its input's size), then put
// in ascending document order: by a reversal, or for an
// order-degenerate segment (constructed trees) by sortDedupe, whose
// stable sort a later one over the whole step (mergeDocOrder) keeps.
func axisSegment(c *context, r *segRun, out Seq, d *core.Document, n *dom.Node, s *step) (Seq, error) {
	rt := &r.rt
	if rt.doc != d {
		rt.init(d, s)
	}
	st := c.st
	cands := s.test.candidates()
	nodes, shared := d.SharedAxis(s.axis, n, cands)
	if !shared {
		if cap(st.axisBuf) == 0 {
			// Start modestly and let append grow: descendant name steps
			// run as index scans, so most axis fans are small and a full
			// OrdinalSpace buffer per evaluation would dominate short
			// queries.
			st.axisBuf = make([]*dom.Node, 0, min(d.OrdinalSpace(), 512))
		}
		st.axisBuf = d.AppendAxis(st.axisBuf[:0], s.axis, n, cands)
		nodes = st.axisBuf
	}
	segStart := len(out)
	for _, m := range nodes {
		ok, err := rt.match(m)
		if err != nil {
			return nil, err
		}
		if ok {
			if out == nil {
				out = make(Seq, 0, min(len(nodes), 32))
			}
			out = append(out, m)
		}
	}
	if len(s.preds) > 0 && len(out) > segStart {
		// The chain appends what it keeps behind what it reads.
		r.ch.out = out[:segStart]
		err := r.ch.feed(c, s.preds, out[segStart:], nil)
		out, r.ch.out = r.ch.out, nil
		if err != nil {
			return nil, err
		}
	}
	switch segOrder(out[segStart:]) {
	case segDescending:
		reverseSeq(out[segStart:])
	case segUnordered:
		out = append(out[:segStart], sortDedupe(out[segStart:])...)
	}
	return out, nil
}

// mergeDocOrder restores document order over an interleaved step result
// via the ordinal scatter; nodes without ordinals fall back to the
// reference comparison sort.
func (st *evalState) mergeDocOrder(out Seq) Seq {
	if len(out) == 0 {
		return out
	}
	d := st.docFor(out[0].(*dom.Node))
	st.ordSet.Reset(d)
	for _, it := range out {
		if !st.ordSet.Add(it.(*dom.Node)) {
			st.ordSet.Clear()
			return sortDedupe(out)
		}
	}
	merged := out[:0]
	st.ordSet.Drain(func(n *dom.Node) { merged = append(merged, n) })
	return merged
}
