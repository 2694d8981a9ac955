package core

import (
	"slices"
	"sort"

	"mhxquery/internal/dom"
)

// This file implements the per-node indexed evaluation of the extended
// axes. Together with the set-at-a-time semi-join sweep (semijoin.go)
// it is the "efficient implementation of extended XQuery over
// multihierarchical document structures" the paper's Section 5 names as
// future work: an existence predicate over a candidate run sweeps the
// candidates against the targets in one merge, and everything else —
// axis steps that return their nodes, single candidates, what the sweep
// leaves undecided — asks one candidate at a time here. Three
// observations make every axis cheap for one node:
//
//  1. Within one hierarchy the nodes containing a text position p form a
//     chain; binary-search descent over sibling spans finds it in
//     O(depth·log width). xancestor and the overlap axes only ever need
//     the chains at n.Start and n.End.
//  2. Preorder position and span Start are both non-decreasing over
//     h.Nodes, so "all nodes starting in [a,b)" is a binary-searched
//     slice — which is exactly the candidate set for xdescendant and
//     xfollowing.
//  3. A per-hierarchy array sorted by span End serves xpreceding.
//
// The chain axes are walks (walkChain, walkXAncestors, walkOverlaps)
// that visit their result in axis order and stop when the visitor says
// so: AppendAxis appends every visited node, and an existence probe
// (FindAxis) stops at its first match without building the result.
//
// The unindexed O(N) interval scan is kept (EvalScan) as the ablation
// baseline, and the literal Definition 1 transcription (EvalRef) as the
// semantic reference; property tests require all of them, the sweep
// and the walks to agree exactly.

// walkChain visits the containment chain of hierarchy h at position p —
// the nodes whose span contains p — outermost first, or innermost first
// when outward is set, and stops at the first node visit returns true
// for, reporting whether it did. The chain is one binary-searched
// descent over sibling spans; innermost first descends without visiting
// and climbs back through the Parent links, which retrace the descent.
func walkChain(h *Hierarchy, p int, outward bool, visit func(*dom.Node) bool) bool {
	var deepest *dom.Node
	depth := 0
	kids := h.Top
	for len(kids) > 0 {
		i := coveringIndex(kids, p)
		if i < 0 {
			break
		}
		n := kids[i]
		if !outward && visit(n) {
			return true
		}
		deepest, depth = n, depth+1
		if n.Kind != dom.Element {
			break
		}
		kids = n.Children
	}
	for n := deepest; outward && depth > 0; n, depth = n.Parent, depth-1 {
		if visit(n) {
			return true
		}
	}
	return false
}

// coveringIndex finds the sibling whose span contains p. Sibling spans
// are disjoint and sorted (empty spans contain nothing).
func coveringIndex(kids []*dom.Node, p int) int {
	lo, hi := 0, len(kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		n := kids[mid]
		switch {
		case n.End <= p:
			lo = mid + 1
		case n.Start > p:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// startIndex returns the first index in h.Nodes whose Start is >= p.
func (h *Hierarchy) startIndex(p int) int {
	return sort.Search(len(h.Nodes), func(i int) bool { return h.Nodes[i].Start >= p })
}

// leafLow returns the index of the first leaf with Start >= p.
func (d *Document) leafLow(p int) int {
	return min(d.boundIndex(p), d.numLeaves())
}

// leafCountEndingBy returns how many leaves have End <= p.
func (d *Document) leafCountEndingBy(p int) int {
	return min(max(d.boundIndex(p+1)-1, 0), d.numLeaves())
}

// The idx implementations append into a caller-owned buffer (AppendAxis
// contract): reversals and sorts operate on the appended tail only. The
// chain-based axes are visitors over the walks FindAxis uses.

func (d *Document) xancestorIdx(dst []*dom.Node, n *dom.Node) []*dom.Node {
	d.walkXAncestors(n, 0, func(m *dom.Node) bool {
		dst = append(dst, m)
		return false
	})
	return dst
}

// walkXAncestors visits n's xancestors in axis order and stops at the
// first node visit returns true for. An xancestor contains n's whole
// span, so it lies on the containment chain at n.Start and ends at or
// after n.End; reverse document order is the hierarchies in reverse,
// each chain innermost first, then the shared root. n must carry a
// non-empty span (or be the root, which has no xancestor). A nonzero
// name skips the hierarchies without an element of that name.
func (d *Document) walkXAncestors(n *dom.Node, name int32, visit func(*dom.Node) bool) bool {
	if n == d.Root {
		return false
	}
	keep := func(m *dom.Node) bool {
		return m.End >= n.End && !d.inDescendantOrSelf(n, m) && visit(m)
	}
	for i := len(d.Hiers) - 1; i >= 0; i-- {
		if h := d.Hiers[i]; h.mayHold(name) && walkChain(h, n.Start, true, keep) {
			return true
		}
	}
	return visit(d.Root)
}

func (d *Document) xdescendantIdx(dst []*dom.Node, n *dom.Node, c Candidates) []*dom.Node {
	if n == d.Root {
		for _, h := range d.Hiers {
			dst = append(dst, h.Nodes...)
		}
		return append(dst, d.leafAxis(c, 0, d.numLeaves())...)
	}
	base := len(dst)
	for _, h := range d.Hiers {
		for i := h.startIndex(n.Start); i < len(h.Nodes); i++ {
			m := h.Nodes[i]
			if m.Start >= n.End {
				break
			}
			if emptySpan(m) {
				continue // empty-span nodes handled below
			}
			if m.End <= n.End && !d.inAncestorOrSelf(n, m) {
				dst = append(dst, m)
			}
		}
	}
	// Definition 1 taken literally: leaves(m)=∅ ⊆ leaves(n) for every m,
	// so every empty-span node anywhere is an xdescendant.
	for _, m := range d.empties {
		if !d.inAncestorOrSelf(n, m) {
			dst = append(dst, m)
		}
	}
	for _, l := range d.leafAxis(c, d.leafLow(n.Start), d.leafCountEndingBy(n.End)) {
		if l != n {
			dst = append(dst, l)
		}
	}
	if len(d.empties) > 0 {
		return dst[:base+len(SortDoc(dst[base:]))]
	}
	return dst
}

func (d *Document) xfollowingIdx(dst []*dom.Node, n *dom.Node, c Candidates) []*dom.Node {
	for _, h := range d.Hiers {
		for i := h.startIndex(n.End); i < len(h.Nodes); i++ {
			if m := h.Nodes[i]; !emptySpan(m) {
				dst = append(dst, m)
			}
		}
	}
	return append(dst, d.leafAxis(c, d.leafLow(n.End), d.numLeaves())...)
}

func (d *Document) xprecedingIdx(dst []*dom.Node, n *dom.Node, c Candidates) []*dom.Node {
	base := len(dst)
	for _, h := range d.Hiers {
		k := sort.Search(len(h.byEnd), func(i int) bool { return h.byEnd[i].End > n.Start })
		for _, m := range h.byEnd[:k] {
			if !emptySpan(m) {
				dst = append(dst, m)
			}
		}
	}
	dst = append(dst, d.leafAxis(c, 0, d.leafCountEndingBy(n.Start))...)
	dst = dst[:base+len(SortDoc(dst[base:]))]
	slices.Reverse(dst[base:])
	return dst
}

// overlapIdx serves preceding-overlapping, following-overlapping and
// their union.
func (d *Document) overlapIdx(dst []*dom.Node, a Axis, n *dom.Node) []*dom.Node {
	d.walkOverlaps(a, n, 0, func(m *dom.Node) bool {
		dst = append(dst, m)
		return false
	})
	return dst
}

// walkOverlaps visits the overlap axis a of n in axis order and stops at
// the first node visit returns true for. A preceding-overlapping node
// contains position n.Start but ends inside n; a following-overlapping
// node contains position n.End but starts inside n — both live on
// containment chains. Leaves are atomic and the shared root spans
// everything, so neither ever overlaps partially. Within a hierarchy
// the preceding half precedes the following half in document order;
// the reverse axis preceding-overlapping walks the hierarchies in
// reverse, each chain innermost first. n must carry a non-empty span. A
// nonzero name skips the hierarchies without an element of that name.
func (d *Document) walkOverlaps(a Axis, n *dom.Node, name int32, visit func(*dom.Node) bool) bool {
	pre := func(m *dom.Node) bool { return m.Start < n.Start && m.End < n.End && visit(m) }
	post := func(m *dom.Node) bool {
		return m.Start > n.Start && m.Start < n.End && m.End > n.End && visit(m)
	}
	if a == AxisPrecedingOverlapping {
		for i := len(d.Hiers) - 1; i >= 0; i-- {
			if h := d.Hiers[i]; h.mayHold(name) && walkChain(h, n.Start, true, pre) {
				return true
			}
		}
		return false
	}
	for _, h := range d.Hiers {
		if !h.mayHold(name) {
			continue
		}
		if a == AxisOverlapping && walkChain(h, n.Start, false, pre) {
			return true
		}
		if walkChain(h, n.End, false, post) {
			return true
		}
	}
	return false
}
