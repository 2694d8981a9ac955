package core

import (
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
// The unindexed O(N) interval scan is kept (EvalScan) as the ablation
// baseline, and the literal Definition 1 transcription (EvalRef) as the
// semantic reference; property tests require all of them, and the
// sweep, to agree exactly.

// appendChain appends the containment chain of hierarchy h at position p
// (the nodes whose span contains p, outermost first) to dst, keeping
// only nodes passing keep.
func appendChain(dst []*dom.Node, h *Hierarchy, p int, keep func(*dom.Node) bool) []*dom.Node {
	kids := h.Top
	for len(kids) > 0 {
		i := coveringIndex(kids, p)
		if i < 0 {
			break
		}
		n := kids[i]
		if keep(n) {
			dst = append(dst, n)
		}
		if n.Kind != dom.Element {
			break
		}
		kids = n.Children
	}
	return dst
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
	return min(sort.SearchInts(d.Bounds, p), d.numLeaves())
}

// leafCountEndingBy returns how many leaves have End <= p.
func (d *Document) leafCountEndingBy(p int) int {
	return min(max(sort.SearchInts(d.Bounds, p+1)-1, 0), d.numLeaves())
}

func reverseNodes(out []*dom.Node) {
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
}

// The idx implementations append into a caller-owned buffer (AppendAxis
// contract): reversals and sorts operate on the appended tail only.

func (d *Document) xancestorIdx(dst []*dom.Node, n *dom.Node) []*dom.Node {
	if n == d.Root {
		return dst
	}
	base := len(dst)
	dst = append(dst, d.Root)
	keep := func(m *dom.Node) bool { return m.End >= n.End && !d.inDescendantOrSelf(n, m) }
	for _, h := range d.Hiers {
		dst = appendChain(dst, h, n.Start, keep)
	}
	reverseNodes(dst[base:]) // reverse axis: nearest first
	return dst
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
	reverseNodes(dst[base:])
	return dst
}

// overlapIdx serves preceding-overlapping, following-overlapping and
// their union. A preceding-overlapping node contains position n.Start
// but ends inside n; a following-overlapping node contains position
// n.End but starts inside n — both live on containment chains. Leaves
// are atomic and the shared root spans everything, so neither ever
// overlaps partially.
func (d *Document) overlapIdx(dst []*dom.Node, a Axis, n *dom.Node) []*dom.Node {
	base := len(dst)
	keepPre := func(m *dom.Node) bool { return m.Start < n.Start && m.End < n.End }
	keepPost := func(m *dom.Node) bool { return m.Start > n.Start && m.Start < n.End && m.End > n.End }
	for _, h := range d.Hiers {
		if a != AxisFollowingOverlapping {
			dst = appendChain(dst, h, n.Start, keepPre)
		}
		if a != AxisPrecedingOverlapping {
			dst = appendChain(dst, h, n.End, keepPost)
		}
	}
	if a.Reverse() {
		reverseNodes(dst[base:])
	}
	return dst
}
