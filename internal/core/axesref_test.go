package core

import "mhxquery/internal/dom"

// This file holds the two test-only axis engines the indexed axes are
// checked and measured against. EvalRef is a literal, set-based
// implementation of the extended axes, transcribing Definition 1 of the
// paper with explicit leaf sets and min/max over the leaf order. It is
// deliberately naive — leaves(x) is materialized as a map by graph
// traversal, subset/intersection tests are element-wise — and exists for
// two purposes: (i) property-based tests validate the fast interval
// implementation in axes.go against it, and (ii) the ablation
// benchmarks (BenchmarkAxes*, table P2) quantify what the interval
// representation buys. EvalScan is the unindexed O(N) interval scan,
// the ablation baseline between the two.

// EvalScan evaluates an extended axis with the unindexed O(N) interval
// scan over the whole node set — the ablation baseline for the indexed
// implementation used by Eval. Standard axes delegate to Eval.
func (d *Document) EvalScan(a Axis, n *dom.Node) []*dom.Node {
	d.ensureLayout()
	if !a.Extended() {
		return d.Eval(a, n)
	}
	if !d.spanNode(n) {
		return nil
	}
	return d.extendedScan(a, n, AllCandidates)
}

// LeafSetRef computes leaves(x) by traversal: the leaves reachable from x
// through child edges and text→leaf edges (never via the interval index).
func (d *Document) LeafSetRef(n *dom.Node) map[*dom.Node]bool {
	d.ensureLeaves()
	set := make(map[*dom.Node]bool)
	switch {
	case n == d.Root:
		for _, l := range d.Leaves {
			set[l] = true
		}
	case n.Kind == dom.Leaf:
		if d.Owns(n) {
			set[n] = true
		}
	case n.Kind == dom.Text:
		d.leavesOfTextRef(n, set)
	case n.Kind == dom.Element:
		var walk func(x *dom.Node)
		walk = func(x *dom.Node) {
			if x.Kind == dom.Text {
				d.leavesOfTextRef(x, set)
			}
			for _, c := range x.Children {
				walk(c)
			}
		}
		walk(n)
	}
	return set
}

// leavesOfTextRef collects the leaves whose stored parent edges include t.
func (d *Document) leavesOfTextRef(t *dom.Node, set map[*dom.Node]bool) {
	for i, l := range d.Leaves {
		for _, p := range d.leafPar[i] {
			if p == t {
				set[l] = true
			}
		}
	}
}

func subsetRef(a, b map[*dom.Node]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func intersectsRef(a, b map[*dom.Node]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// minMaxRef returns the minimum and maximum leaf (by the leaf linear
// order) of a leaf set, with ok=false for the empty set.
func minMaxRef(set map[*dom.Node]bool) (lo, hi int, ok bool) {
	first := true
	for l := range set {
		if first {
			lo, hi, first = l.Ord, l.Ord, false
			continue
		}
		if l.Ord < lo {
			lo = l.Ord
		}
		if l.Ord > hi {
			hi = l.Ord
		}
	}
	return lo, hi, !first
}

// descendantSetRef computes descendant(n) ∪ {n} by traversal within n's
// hierarchy, including leaves reached through its text nodes.
func (d *Document) descendantSetRef(n *dom.Node) map[*dom.Node]bool {
	set := map[*dom.Node]bool{n: true}
	if n == d.Root {
		for _, h := range d.Hiers {
			for _, m := range h.Nodes {
				set[m] = true
			}
		}
		for _, l := range d.Leaves {
			set[l] = true
		}
		return set
	}
	var walk func(x *dom.Node)
	walk = func(x *dom.Node) {
		set[x] = true
		if x.Kind == dom.Text {
			d.leavesOfTextRef(x, set)
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	if n.Kind == dom.Element || n.Kind == dom.Text {
		walk(n)
	}
	return set
}

// ancestorSetRef computes ancestor(n) ∪ {n} by walking parent edges; for a
// leaf all stored hierarchy parents are followed.
func (d *Document) ancestorSetRef(n *dom.Node) map[*dom.Node]bool {
	set := map[*dom.Node]bool{n: true}
	if n.Kind == dom.Leaf {
		for _, p := range d.LeafParents(n) {
			for q := p; q != nil; q = q.Parent {
				set[q] = true
			}
		}
		set[d.Root] = true
		return set
	}
	for q := n.Parent; q != nil; q = q.Parent {
		set[q] = true
	}
	if n != d.Root {
		set[d.Root] = true
	}
	return set
}

// EvalRef evaluates an extended axis by the literal Definition 1
// semantics. Standard axes are delegated to Eval. Result order matches
// Eval (document order; reversed for reverse axes).
func (d *Document) EvalRef(a Axis, n *dom.Node) []*dom.Node {
	d.ensureLeaves()
	if !a.Extended() {
		return d.Eval(a, n)
	}
	if !d.spanNode(n) {
		return nil
	}
	ln := d.LeafSetRef(n)
	minN, maxN, okN := minMaxRef(ln)
	desc := d.descendantSetRef(n)
	anc := d.ancestorSetRef(n)

	pred := func(m *dom.Node) bool {
		lm := d.LeafSetRef(m)
		minM, maxM, okM := minMaxRef(lm)
		switch a {
		case AxisXAncestor:
			return !desc[m] && subsetRef(ln, lm)
		case AxisXDescendant:
			return !anc[m] && subsetRef(lm, ln)
		case AxisXFollowing:
			return okN && okM && maxN < minM
		case AxisXPreceding:
			return okN && okM && minN > maxM
		case AxisPrecedingOverlapping:
			return okN && okM && intersectsRef(ln, lm) &&
				minM < minN && minN <= maxM && maxN > maxM
		case AxisFollowingOverlapping:
			return okN && okM && intersectsRef(ln, lm) &&
				minM <= maxN && maxN < maxM && minN < minM
		case AxisOverlapping:
			if !okN || !okM || !intersectsRef(ln, lm) {
				return false
			}
			return (minM < minN && minN <= maxM && maxN > maxM) ||
				(minM <= maxN && maxN < maxM && minN < minM)
		}
		return false
	}

	var out []*dom.Node
	if pred(d.Root) {
		out = append(out, d.Root)
	}
	for _, h := range d.Hiers {
		for _, m := range h.Nodes {
			if pred(m) {
				out = append(out, m)
			}
		}
	}
	for _, l := range d.Leaves {
		if pred(l) {
			out = append(out, l)
		}
	}
	if a.Reverse() {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}
