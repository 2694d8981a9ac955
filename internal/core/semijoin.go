package core

import (
	"math"
	"slices"
	"sort"

	"mhxquery/internal/dom"
)

// This file is the set-at-a-time evaluation of structural existence
// tests — step[axis::name] asks only whether one target exists, not
// which. Instead of walking the axis from each candidate and
// name-filtering it (axesidx.go), a SemiJoin sweeps a run of candidates
// in Start order against the targets' spans in Start order: the
// stack-based structural join of the XML query-processing literature,
// applied to the overlapping spans of a KyGODDAG. Every hierarchy is a
// tree, so its target spans are laminar (nested or disjoint), which
// makes each axis a constant-state merge:
//
//   - xancestor: the largest End among the targets starting before n;
//     a target starting at n.Start decides alone.
//   - ancestor: for a leaf, the same merge — a leaf's ancestors are the
//     elements whose span contains it, in any hierarchy, so the leaves
//     with a target ancestor are the union of the non-empty targets'
//     leaf ranges; for an element or text node, its own hierarchy's
//     containment chain (the Parent links), which no other hierarchy
//     enters.
//   - xdescendant: the targets from the first one starting at n.Start
//     onwards. Until the first proper sub-span of n, every one either
//     ends after n or shares n's span, and each kind forms one
//     containment chain, so the scan stops after O(depth) targets.
//   - preceding-overlapping: the stack of targets open at n.Start; the
//     innermost decides with End < n.End.
//   - following-overlapping: the stack of targets open at n.End, swept
//     by End; the innermost decides with Start > n.Start.
//
// A run of c candidates over t targets costs O(c·depth + t) and
// allocates nothing once its stacks have grown. The sweep positions
// itself by seeking — one binary search and one containment-chain
// descent per target hierarchy, the cost of one per-node evaluation —
// at its first candidate and whenever a candidate's key (Start, or End
// for the following-overlapping half) lies behind the last one
// answered, so nested and out-of-order runs stay correct and never
// rescan the targets. Equal spans are decided exactly with the
// Definition 1 descendant-or-self / ancestor-or-self exclusions,
// empty-span targets with the literal ∅ reading (never an xancestor or
// an overlap, always an xdescendant). Leaves are atomic: no target
// overlaps one or lies strictly inside it. The sweep leaves undecided
// only candidates outside its model — the shared root, attributes,
// nodes of other documents and constructed nodes, and empty-span nodes
// on the span-keyed axes — which the caller answers one at a time with
// an existence probe (FindAxis), stopping at the first target.

// SemiJoin answers "has candidate n at least one target on axis a" for
// a run of candidates. The zero value is unusable; Reset binds it to a
// document and an axis, AddRun and AddRoot declare the targets, and
// Exists answers candidates. Storage is kept across Resets, so a
// reused SemiJoin allocates nothing per run. A SemiJoin is not safe for
// concurrent use.
type SemiJoin struct {
	d     *Document
	axis  Axis
	root  bool // the shared root is a target
	hiers []sjHier
	// start and end are the Start- and End-keyed sweep positions;
	// math.MaxInt means the sweep has not been positioned yet.
	start, end int
	// empty caches whether a target has an empty span: 0 unknown,
	// 1 yes, -1 no (computed on the first xdescendant question).
	empty int8
}

// sjHier is the sweep state over one target hierarchy's run.
type sjHier struct {
	h   *Hierarchy
	run []int32
	// i indexes the first target the Start-keyed sweep has not consumed
	// (every consumed target starts before the sweep position); maxEnd
	// is the largest End among the consumed non-empty targets that is
	// still past the position, and open holds the consumed targets that
	// may still be open, outermost first.
	i      int
	maxEnd int
	open   []*dom.Node
	// j and openEnd are the End-keyed sweep's cursor and stack.
	j       int
	openEnd []*dom.Node
}

// Reset binds the semi-join to document d and axis a, one of
// xancestor, ancestor, xdescendant, overlapping, preceding-overlapping
// and following-overlapping, with no targets.
func (sj *SemiJoin) Reset(d *Document, a Axis) {
	sj.d, sj.axis, sj.root = d, a, false
	sj.hiers = sj.hiers[:0]
	sj.start, sj.end = math.MaxInt, math.MaxInt
	sj.empty = 0
}

// AddRun adds the targets of hierarchy h: ascending preorder ordinals of
// h's elements (a NameRun, or a subset of one). Each hierarchy may be
// added at most once, before the first Exists.
func (sj *SemiJoin) AddRun(h *Hierarchy, run []int32) {
	if len(run) == 0 {
		return
	}
	k := len(sj.hiers)
	if k < cap(sj.hiers) {
		sj.hiers = sj.hiers[:k+1]
	} else {
		sj.hiers = append(sj.hiers, sjHier{})
	}
	sj.hiers[k].h, sj.hiers[k].run = h, run
}

// AddRoot makes the shared root a target (its name matched the target
// test): an xancestor of every other node and an ancestor of every
// node it reaches, never an xdescendant or an overlap of one.
func (sj *SemiJoin) AddRoot() { sj.root = true }

// Exists reports whether candidate n has a target on the semi-join's
// axis. ok=false means n is outside the sweep's model (see the file
// comment) and the caller must evaluate it per node.
func (sj *SemiJoin) Exists(n *dom.Node) (found, ok bool) {
	d := sj.d
	if n == d.Root || (n.Kind != dom.Element && n.Kind != dom.Text && n.Kind != dom.Leaf) {
		return false, false
	}
	if _, owned := d.OrdinalOf(n); !owned {
		return false, false
	}
	if sj.axis == AxisAncestor && n.Kind != dom.Leaf {
		return sj.chainAncestor(n), true
	}
	if emptySpan(n) {
		return false, false
	}
	switch sj.axis {
	case AxisXAncestor, AxisAncestor:
		// The root contains every leaf, but is a leaf's ancestor only
		// through a covering text node.
		if sj.root && (sj.axis == AxisXAncestor || len(d.LeafParents(n)) > 0) {
			return true, true
		}
		sj.advance(n.Start)
		for i := range sj.hiers {
			if sj.hiers[i].xancestor(d, n) {
				return true, true
			}
		}
	case AxisXDescendant:
		if sj.hasEmpty() {
			return true, true
		}
		sj.advance(n.Start)
		for i := range sj.hiers {
			if sj.hiers[i].xdescendant(d, n) {
				return true, true
			}
		}
	case AxisPrecedingOverlapping:
		return sj.precedingOverlap(n), true
	case AxisFollowingOverlapping:
		return sj.followingOverlap(n), true
	case AxisOverlapping:
		return sj.precedingOverlap(n) || sj.followingOverlap(n), true
	default:
		return false, false
	}
	return false, true
}

// chainAncestor answers the ancestor axis for an element or text node:
// a target on its Parent chain, which stays in its hierarchy up to the
// shared root.
func (sj *SemiJoin) chainAncestor(n *dom.Node) bool {
	for p := n.Parent; p != nil && p != sj.d.Root; p = p.Parent {
		if sj.isTarget(p) {
			return true
		}
	}
	return sj.root
}

func (sj *SemiJoin) precedingOverlap(n *dom.Node) bool {
	sj.advance(n.Start)
	for i := range sj.hiers {
		if sj.hiers[i].precedingOverlap(n) {
			return true
		}
	}
	return false
}

// followingOverlap runs the End-keyed sweep to n.End, seeking when the
// sweep is not positioned yet or n.End lies behind it.
func (sj *SemiJoin) followingOverlap(n *dom.Node) bool {
	if n.End < sj.end {
		for i := range sj.hiers {
			t := &sj.hiers[i]
			t.j = t.firstFrom(n.End)
			t.openEnd = t.appendOpen(t.openEnd[:0], n.End)
		}
	}
	sj.end = n.End
	for i := range sj.hiers {
		if sj.hiers[i].followingOverlap(n) {
			return true
		}
	}
	return false
}

// advance moves the Start-keyed sweep to position p: forward by
// consuming the targets that start before p (keeping the open ones on
// the stack for the overlap axes), or by a seek when the sweep is not
// positioned yet or p lies behind it.
func (sj *SemiJoin) advance(p int) {
	seek := p < sj.start
	sj.start = p
	stack := sj.axis == AxisPrecedingOverlapping || sj.axis == AxisOverlapping
	for k := range sj.hiers {
		t := &sj.hiers[k]
		if seek {
			t.i = t.firstFrom(p)
			t.open, t.maxEnd = t.open[:0], -1
			if sj.axis != AxisXDescendant {
				t.open = t.appendOpen(t.open, p)
				if len(t.open) > 0 {
					t.maxEnd = t.open[0].End // the outermost open target
				}
				if !stack {
					t.open = t.open[:0]
				}
			}
			continue
		}
		for ; t.i < len(t.run); t.i++ {
			m := t.h.Nodes[t.run[t.i]]
			if m.Start >= p {
				break
			}
			if emptySpan(m) {
				continue
			}
			t.maxEnd = max(t.maxEnd, m.End)
			if stack {
				t.open = push(t.open, m)
			}
		}
	}
}

// firstFrom returns the index of the first target starting at or after
// position p.
func (t *sjHier) firstFrom(p int) int {
	return sort.Search(len(t.run), func(k int) bool { return t.h.Nodes[t.run[k]].Start >= p })
}

// appendOpen appends the targets open at position p — starting before
// p and ending after it, outermost first — by walking the hierarchy's
// containment chain at p.
func (t *sjHier) appendOpen(dst []*dom.Node, p int) []*dom.Node {
	walkChain(t.h, p, false, func(m *dom.Node) bool {
		if m.Kind == dom.Element && m.Start < p {
			if _, found := slices.BinarySearch(t.run, int32(m.Ord)); found {
				dst = append(dst, m)
			}
		}
		return false
	})
	return dst
}

// push adds target m to a stack of open targets, first closing those
// that end at or before m starts. Spans of one hierarchy are laminar,
// so what stays open contains m.
func push(open []*dom.Node, m *dom.Node) []*dom.Node {
	for len(open) > 0 && open[len(open)-1].End <= m.Start {
		open = open[:len(open)-1]
	}
	return append(open, m)
}

// hasEmpty reports whether some target has an empty span — under the
// literal Definition 1 an xdescendant of every node.
func (sj *SemiJoin) hasEmpty() bool {
	if sj.empty == 0 {
		sj.empty = -1
		sj.d.ensureLayout()
		for _, m := range sj.d.empties {
			if sj.isTarget(m) {
				sj.empty = 1
				break
			}
		}
	}
	return sj.empty > 0
}

func (sj *SemiJoin) isTarget(m *dom.Node) bool {
	for i := range sj.hiers {
		if t := &sj.hiers[i]; t.h.Index == m.HierIndex {
			_, found := slices.BinarySearch(t.run, int32(m.Ord))
			return found
		}
	}
	return false
}

// xancestor: a consumed target (Start < n.Start) ending at or after
// n.End strictly contains n; a target starting at n.Start contains n
// when it ends after n, or ends with n and is no descendant-or-self of
// n (equal spans).
func (t *sjHier) xancestor(d *Document, n *dom.Node) bool {
	if t.maxEnd >= n.End {
		return true
	}
	for k := t.i; k < len(t.run); k++ {
		m := t.h.Nodes[t.run[k]]
		if m.Start != n.Start {
			break
		}
		if emptySpan(m) {
			continue
		}
		if m.End > n.End || (m.End == n.End && !d.inDescendantOrSelf(n, m)) {
			return true
		}
	}
	return false
}

// xdescendant scans the targets starting within n. A proper sub-span
// decides at once; an equal span decides unless it is an
// ancestor-or-self of n. Empty targets never get here (hasEmpty).
func (t *sjHier) xdescendant(d *Document, n *dom.Node) bool {
	for k := t.i; k < len(t.run); k++ {
		m := t.h.Nodes[t.run[k]]
		if m.Start >= n.End {
			break
		}
		if m.End < n.End || (m.End == n.End && (m.Start > n.Start || !d.inAncestorOrSelf(n, m))) {
			return true
		}
	}
	return false
}

// precedingOverlap: the innermost target open at n.Start (Start <
// n.Start < End) has the smallest End of all such targets.
func (t *sjHier) precedingOverlap(n *dom.Node) bool {
	for len(t.open) > 0 && t.open[len(t.open)-1].End <= n.Start {
		t.open = t.open[:len(t.open)-1]
	}
	return len(t.open) > 0 && t.open[len(t.open)-1].End < n.End
}

// followingOverlap sweeps the End-keyed stack forward to n.End: the
// innermost target open there (Start < n.End < End) has the largest
// Start.
func (t *sjHier) followingOverlap(n *dom.Node) bool {
	for ; t.j < len(t.run); t.j++ {
		m := t.h.Nodes[t.run[t.j]]
		if m.Start >= n.End {
			break
		}
		if !emptySpan(m) {
			t.openEnd = push(t.openEnd, m)
		}
	}
	for len(t.openEnd) > 0 && t.openEnd[len(t.openEnd)-1].End <= n.End {
		t.openEnd = t.openEnd[:len(t.openEnd)-1]
	}
	return len(t.openEnd) > 0 && t.openEnd[len(t.openEnd)-1].Start > n.Start
}
