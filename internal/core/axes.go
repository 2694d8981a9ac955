package core

import "mhxquery/internal/dom"

// Axis identifies a path-language axis: the standard XPath axes (confined
// to one hierarchy component, except when applied to the shared root) and
// the paper's multihierarchical axes of Definition 1.
type Axis uint8

// Axis constants. The x-prefixed axes and the overlap axes are the
// extension of Definition 1; all others have standard XPath semantics.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowing
	AxisPreceding
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisSelf
	AxisAttribute
	AxisXDescendant
	AxisXAncestor
	AxisXFollowing
	AxisXPreceding
	AxisPrecedingOverlapping
	AxisFollowingOverlapping
	AxisOverlapping
)

var axisNames = map[string]Axis{
	"child":                 AxisChild,
	"descendant":            AxisDescendant,
	"descendant-or-self":    AxisDescendantOrSelf,
	"parent":                AxisParent,
	"ancestor":              AxisAncestor,
	"ancestor-or-self":      AxisAncestorOrSelf,
	"following":             AxisFollowing,
	"preceding":             AxisPreceding,
	"following-sibling":     AxisFollowingSibling,
	"preceding-sibling":     AxisPrecedingSibling,
	"self":                  AxisSelf,
	"attribute":             AxisAttribute,
	"xdescendant":           AxisXDescendant,
	"xancestor":             AxisXAncestor,
	"xfollowing":            AxisXFollowing,
	"xpreceding":            AxisXPreceding,
	"preceding-overlapping": AxisPrecedingOverlapping,
	"following-overlapping": AxisFollowingOverlapping,
	"overlapping":           AxisOverlapping,
}

// AxisByName resolves an axis name as written in path expressions.
func AxisByName(s string) (Axis, bool) {
	a, ok := axisNames[s]
	return a, ok
}

// String returns the path-expression spelling of the axis.
func (a Axis) String() string {
	for name, ax := range axisNames {
		if ax == a {
			return name
		}
	}
	return "axis?"
}

// Reverse reports whether the axis is a reverse axis (positional
// predicates count from the context node backwards).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling, AxisXPreceding, AxisPrecedingOverlapping, AxisXAncestor:
		return true
	}
	return false
}

// Extended reports whether the axis is one of the paper's
// multihierarchical axes.
func (a Axis) Extended() bool { return a >= AxisXDescendant }

// OrderContract describes the node order Eval/AppendAxis guarantee for
// an axis result (over nodes owned by the evaluated document; results
// over constructed, unindexed trees are order-degenerate since
// Definition 3 does not rank them).
type OrderContract uint8

const (
	// EmitsDocOrder: ascending Definition 3 document order, no duplicates.
	EmitsDocOrder OrderContract = iota
	// EmitsReverseDocOrder: descending document order (nearest first for
	// the reverse axes), no duplicates.
	EmitsReverseDocOrder
)

// Order returns the axis's order contract. Every axis emits
// document-order-sorted, duplicate-free results; the reverse axes emit
// exactly the reverse. Consumers may therefore restore document order
// with an O(k) reversal instead of a comparison sort. (parent is a
// reverse axis for positional predicates, but a leaf's parents are
// emitted in hierarchy order, which is document order — so its
// contract is forward.) TestQuickAxisOrderContracts enforces this
// classification for every axis on random documents.
func (a Axis) Order() OrderContract {
	if a.Reverse() && a != AxisParent {
		return EmitsReverseDocOrder
	}
	return EmitsDocOrder
}

// Candidates tells AppendAxis and SharedAxis which nodes the caller's
// node test can accept. AllCandidates yields the full axis result.
// NoLeaves drops the leaf layer, for tests that reject every leaf on
// its kind (element names, *, text(), comment(),
// processing-instruction()): the axes then never append a leaf, and
// never build a lazy leaf layer, while the surviving nodes, their order
// and every error point stay those of the full result.
type Candidates uint8

const (
	AllCandidates Candidates = iota
	NoLeaves
)

// Eval evaluates the axis from context node n against document d,
// returning nodes in axis order (reverse axes: nearest first). Results
// contain no duplicates and satisfy the axis's OrderContract.
//
// Per the paper, standard axes applied to a non-root node stay within the
// node's own hierarchy component; applied to the shared root they range
// over all components. The leaf layer generalizes the standard axes:
// parent of a leaf is the set of text nodes containing it (one per
// covering hierarchy), siblings of a leaf are the other leaves.
func (d *Document) Eval(a Axis, n *dom.Node) []*dom.Node {
	return d.AppendAxis(nil, a, n, AllCandidates)
}

// leafAxis returns leaves [lo,hi) for an axis result, or nothing when
// the caller asked for no leaves or the range is empty — in which cases
// the leaf layer is not built.
func (d *Document) leafAxis(c Candidates, lo, hi int) []*dom.Node {
	if c == NoLeaves || lo >= hi {
		return nil
	}
	d.ensureLeaves()
	return d.Leaves[lo:hi]
}

// SharedAxis returns the axis result restricted to c as a read-only view
// of the document's internal arrays when one exists for (a, n): no
// allocation, no copying. ok=false means no contiguous view exists and
// the caller must use AppendAxis. Callers must never mutate the returned
// slice.
func (d *Document) SharedAxis(a Axis, n *dom.Node, c Candidates) (nodes []*dom.Node, ok bool) {
	d.ensureLayout()
	switch a {
	case AxisAttribute:
		if n.Kind == dom.Element {
			return n.Attrs, true
		}
		return nil, true
	case AxisChild:
		switch {
		case n == d.Root:
			return d.rootChildList(), true
		case n.Kind == dom.Text:
			return d.leavesOf(n, c), true
		case n.Kind == dom.Element:
			return n.Children, true
		}
		return nil, true
	case AxisDescendant:
		if n != d.Root && n.Kind == dom.Text {
			return d.leavesOf(n, c), true
		}
	case AxisFollowing:
		if n != d.Root && n.Kind == dom.Leaf {
			return d.leafAxis(c, min(n.Ord+1, d.numLeaves()), d.numLeaves()), true
		}
	}
	return nil, false
}

// AppendAxis appends the axis result for (a, n), restricted to c, to dst
// and returns the extended slice, in axis order per the axis's
// OrderContract. It is Eval with caller-owned storage, so per-step
// result buffers can be reused across context nodes.
func (d *Document) AppendAxis(dst []*dom.Node, a Axis, n *dom.Node, c Candidates) []*dom.Node {
	d.ensureLayout()
	switch a {
	case AxisSelf:
		return append(dst, n)
	case AxisAttribute:
		if n.Kind == dom.Element {
			return append(dst, n.Attrs...)
		}
		return dst
	case AxisChild:
		return d.children(dst, n, c)
	case AxisDescendant:
		return d.descendants(dst, n, false, c)
	case AxisDescendantOrSelf:
		return d.descendants(dst, n, true, c)
	case AxisParent:
		return d.parents(dst, n)
	case AxisAncestor:
		return d.ancestors(dst, n, false)
	case AxisAncestorOrSelf:
		return d.ancestors(dst, n, true)
	case AxisFollowing:
		return d.following(dst, n, c)
	case AxisPreceding:
		return d.preceding(dst, n, c)
	case AxisFollowingSibling:
		return d.siblings(dst, n, true, c)
	case AxisPrecedingSibling:
		return d.siblings(dst, n, false, c)
	}
	return d.extendedAxis(dst, a, n, c)
}

// FindAxis visits the axis result for (a, n), restricted to c, in axis
// order and stops at the first node match accepts, reporting whether one
// did: the existence test of a path asked only whether it is empty. It
// visits what AppendAxis would return, in the same order, without
// building the result where the structure can be walked directly —
// parent, ancestor and ancestor-or-self follow the leaf's parent chains
// or the Parent links, xancestor and the overlap axes the per-hierarchy
// containment chains, self is the node itself. The other axes read a
// shared view (SharedAxis) or gather into buf, which FindAxis returns,
// possibly grown, for reuse. match may run nested evaluations: buf is
// not reused until FindAxis returns.
//
// A nonzero name promises that match accepts no element without that
// name symbol, and no text node: the walks then skip the hierarchies
// whose built name index has no element of that name (the shared root
// is still visited), visiting only a subsequence of the axis.
func (d *Document) FindAxis(buf []*dom.Node, a Axis, n *dom.Node, c Candidates, name int32, match func(*dom.Node) bool) (bool, []*dom.Node) {
	d.ensureLayout()
	switch a {
	case AxisSelf:
		return match(n), buf
	case AxisParent:
		if n == d.Root {
			return false, buf
		}
		if n.Kind == dom.Leaf {
			for _, p := range d.LeafParents(n) {
				if match(p) {
					return true, buf
				}
			}
			return false, buf
		}
		return n.Parent != nil && match(n.Parent), buf
	case AxisAncestorOrSelf:
		if match(n) {
			return true, buf
		}
		fallthrough
	case AxisAncestor:
		return d.walkAncestors(n, name, match), buf
	case AxisXAncestor:
		if d.spanNode(n) && (n == d.Root || !emptySpan(n)) {
			return d.walkXAncestors(n, name, match), buf
		}
	case AxisPrecedingOverlapping, AxisFollowingOverlapping, AxisOverlapping:
		if !d.spanNode(n) || emptySpan(n) {
			return false, buf
		}
		return d.walkOverlaps(a, n, name, match), buf
	}
	nodes, shared := d.SharedAxis(a, n, c)
	if !shared {
		buf = d.AppendAxis(buf[:0], a, n, c)
		nodes = buf
	}
	for _, m := range nodes {
		if match(m) {
			return true, buf
		}
	}
	return false, buf
}

func (d *Document) children(dst []*dom.Node, n *dom.Node, c Candidates) []*dom.Node {
	switch {
	case n == d.Root:
		return append(dst, d.rootChildList()...)
	case n.Kind == dom.Text:
		return append(dst, d.leavesOf(n, c)...)
	case n.Kind == dom.Element:
		return append(dst, n.Children...)
	}
	return dst
}

func (d *Document) descendants(dst []*dom.Node, n *dom.Node, self bool, c Candidates) []*dom.Node {
	if self {
		dst = append(dst, n)
	}
	switch {
	case n == d.Root:
		for _, h := range d.Hiers {
			dst = append(dst, h.Nodes...)
		}
		dst = append(dst, d.leafAxis(c, 0, d.numLeaves())...)
	case n.Kind == dom.Text:
		dst = append(dst, d.leavesOf(n, c)...)
	case n.Kind == dom.Element && n.Hier != "":
		h := d.hierFor(n)
		if h == nil || n.Ord >= len(h.Nodes) || h.Nodes[n.Ord] != n {
			// Constructed tree: plain recursive walk.
			return d.constructedDescendants(n, dst)
		}
		dst = append(dst, h.Nodes[n.Ord+1:n.Last+1]...)
		dst = append(dst, d.leavesOf(n, c)...)
	case n.Kind == dom.Element:
		return d.constructedDescendants(n, dst)
	}
	return dst
}

func (d *Document) constructedDescendants(n *dom.Node, out []*dom.Node) []*dom.Node {
	for _, c := range n.Children {
		out = append(out, c)
		if c.Kind == dom.Element {
			out = d.constructedDescendants(c, out)
		}
	}
	return out
}

func (d *Document) parents(dst []*dom.Node, n *dom.Node) []*dom.Node {
	switch {
	case n == d.Root:
		return dst
	case n.Kind == dom.Leaf:
		return append(dst, d.LeafParents(n)...)
	case n.Parent != nil:
		return append(dst, n.Parent)
	}
	return dst
}

func (d *Document) ancestors(dst []*dom.Node, n *dom.Node, self bool) []*dom.Node {
	if self {
		dst = append(dst, n)
	}
	d.walkAncestors(n, 0, func(m *dom.Node) bool {
		dst = append(dst, m)
		return false
	})
	return dst
}

// walkAncestors visits n's ancestors in axis order, nearest first, and
// stops at the first node visit returns true for, reporting whether it
// did. A leaf's ancestors are the parent chains of its covering text
// nodes: chains of different hierarchies share only the shared root, so
// reverse document order is the chains in reverse hierarchy order, each
// nearest first, then the root. A nonzero name skips the chains of
// hierarchies without an element of that name (FindAxis).
func (d *Document) walkAncestors(n *dom.Node, name int32, visit func(*dom.Node) bool) bool {
	if n.Kind != dom.Leaf {
		for p := n.Parent; p != nil; p = p.Parent {
			if visit(p) {
				return true
			}
		}
		return false
	}
	ps := d.LeafParents(n)
	for i := len(ps) - 1; i >= 0; i-- {
		if name != 0 && !d.Hiers[ps[i].HierIndex].mayHold(name) {
			continue
		}
		for q := ps[i]; q != nil && q != d.Root; q = q.Parent {
			if visit(q) {
				return true
			}
		}
	}
	return len(ps) > 0 && visit(d.Root)
}

func (d *Document) following(dst []*dom.Node, n *dom.Node, c Candidates) []*dom.Node {
	switch {
	case n == d.Root:
		return dst
	case n.Kind == dom.Leaf:
		return append(dst, d.leafAxis(c, min(n.Ord+1, d.numLeaves()), d.numLeaves())...)
	case n.Kind == dom.Attribute:
		if n.Parent != nil {
			return d.following(dst, n.Parent, c)
		}
		return dst
	case n.Hier != "":
		if h := d.hierFor(n); h != nil && n.Last+1 <= len(h.Nodes) {
			return append(dst, h.Nodes[n.Last+1:]...)
		}
	}
	return dst
}

func (d *Document) preceding(dst []*dom.Node, n *dom.Node, c Candidates) []*dom.Node {
	switch {
	case n == d.Root:
		return dst
	case n.Kind == dom.Leaf:
		leaves := d.leafAxis(c, 0, min(n.Ord, d.numLeaves()))
		for i := len(leaves) - 1; i >= 0; i-- {
			dst = append(dst, leaves[i])
		}
		return dst
	case n.Kind == dom.Attribute:
		if n.Parent != nil {
			return d.preceding(dst, n.Parent, c)
		}
		return dst
	case n.Hier != "":
		h := d.hierFor(n)
		if h == nil {
			return dst
		}
		for i := n.Ord - 1; i >= 0; i-- {
			m := h.Nodes[i]
			if m.Last >= n.Ord { // ancestor, not preceding
				continue
			}
			dst = append(dst, m)
		}
	}
	return dst
}

func (d *Document) siblings(dst []*dom.Node, n *dom.Node, forward bool, c Candidates) []*dom.Node {
	if n == d.Root || n.Kind == dom.Attribute {
		return dst
	}
	if n.Kind == dom.Leaf {
		if forward {
			return d.following(dst, n, c)
		}
		return d.preceding(dst, n, c)
	}
	var sibs []*dom.Node
	if n.Parent == d.Root {
		if h := d.hierFor(n); h != nil {
			sibs = h.Top
		}
	} else if n.Parent != nil {
		sibs = n.Parent.Children
	}
	idx := -1
	for i, s := range sibs {
		if s == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return dst
	}
	if forward {
		return append(dst, sibs[idx+1:]...)
	}
	for i := idx - 1; i >= 0; i-- {
		dst = append(dst, sibs[i])
	}
	return dst
}

// --- Extended axes (Definition 1), interval implementation -------------

// spanNode reports whether n can act as a context node for the extended
// axes: it must carry a span in this document's base text.
func (d *Document) spanNode(n *dom.Node) bool {
	if n == d.Root || n.Kind == dom.Leaf {
		return true
	}
	return (n.Kind == dom.Element || n.Kind == dom.Text) && n.Hier != ""
}

func emptySpan(n *dom.Node) bool { return n.Start >= n.End }

// containsLeaves reports leaves(inner) ⊆ leaves(outer), reading
// Definition 1 literally: the empty leaf set is contained in every set.
func containsLeaves(outer, inner *dom.Node) bool {
	if emptySpan(inner) {
		return true
	}
	if emptySpan(outer) {
		return false
	}
	return outer.Start <= inner.Start && inner.End <= outer.End
}

// inDescendantOrSelf reports m ∈ descendant(n) ∪ {n}, where descendant is
// taken within n's own hierarchy (leaves reachable through its text nodes
// included), per the notation preceding Definition 1.
func (d *Document) inDescendantOrSelf(n, m *dom.Node) bool {
	if m == n {
		return true
	}
	if n == d.Root {
		return true
	}
	switch n.Kind {
	case dom.Leaf:
		return false
	case dom.Element, dom.Text:
		if m.Kind == dom.Leaf {
			return n.Start <= m.Start && m.End <= n.End
		}
		if m == d.Root {
			return false
		}
		return m.Hier == n.Hier && n.Ord < m.Ord && m.Ord <= n.Last
	}
	return false
}

// inAncestorOrSelf reports m ∈ ancestor(n) ∪ {n}. A leaf belongs to every
// hierarchy covering it, so every covering element/text node (and the
// shared root) is its ancestor.
func (d *Document) inAncestorOrSelf(n, m *dom.Node) bool {
	if m == n {
		return true
	}
	if n == d.Root {
		return false
	}
	if m == d.Root {
		return true
	}
	switch n.Kind {
	case dom.Leaf:
		return (m.Kind == dom.Element || m.Kind == dom.Text) && m.Hier != "" &&
			m.Start <= n.Start && n.End <= m.End
	case dom.Element, dom.Text:
		return m.Kind == dom.Element && m.Hier == n.Hier && m.Ord < n.Ord && n.Ord <= m.Last
	}
	return false
}

// extendedAxis dispatches a Definition 1 axis to the indexed
// implementation (axesidx.go); the degenerate empty-leaf-set cases keep
// the literal ∅-semantics via the full scan.
func (d *Document) extendedAxis(dst []*dom.Node, a Axis, n *dom.Node, c Candidates) []*dom.Node {
	if !d.spanNode(n) {
		return dst
	}
	switch a {
	case AxisXAncestor, AxisXDescendant:
		if n != d.Root && emptySpan(n) {
			return append(dst, d.extendedScan(a, n, c)...)
		}
		if a == AxisXAncestor {
			return d.xancestorIdx(dst, n)
		}
		return d.xdescendantIdx(dst, n, c)
	default:
		if emptySpan(n) {
			return dst
		}
		switch a {
		case AxisXFollowing:
			return d.xfollowingIdx(dst, n, c)
		case AxisXPreceding:
			return d.xprecedingIdx(dst, n, c)
		case AxisPrecedingOverlapping, AxisFollowingOverlapping, AxisOverlapping:
			return d.overlapIdx(dst, a, n)
		}
	}
	return dst
}

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

// extendedScan evaluates one of the Definition 1 axes by scanning all
// candidate nodes (root, every hierarchy node, every leaf — the node set
// N of the KyGODDAG — restricted to c) with an O(1) interval predicate.
// Results are in document order by construction.
func (d *Document) extendedScan(a Axis, n *dom.Node, c Candidates) []*dom.Node {
	var pred func(m *dom.Node) bool
	switch a {
	case AxisXAncestor:
		pred = func(m *dom.Node) bool {
			return containsLeaves(m, n) && !d.inDescendantOrSelf(n, m)
		}
	case AxisXDescendant:
		pred = func(m *dom.Node) bool {
			return containsLeaves(n, m) && !d.inAncestorOrSelf(n, m)
		}
	case AxisXFollowing:
		if emptySpan(n) {
			return nil
		}
		pred = func(m *dom.Node) bool { return !emptySpan(m) && m.Start >= n.End }
	case AxisXPreceding:
		if emptySpan(n) {
			return nil
		}
		pred = func(m *dom.Node) bool { return !emptySpan(m) && m.End <= n.Start }
	case AxisPrecedingOverlapping:
		if emptySpan(n) {
			return nil
		}
		pred = func(m *dom.Node) bool {
			return !emptySpan(m) && m.Start < n.Start && n.Start < m.End && n.End > m.End
		}
	case AxisFollowingOverlapping:
		if emptySpan(n) {
			return nil
		}
		pred = func(m *dom.Node) bool {
			return !emptySpan(m) && n.Start < m.Start && m.Start < n.End && m.End > n.End
		}
	case AxisOverlapping:
		if emptySpan(n) {
			return nil
		}
		pred = func(m *dom.Node) bool {
			if emptySpan(m) {
				return false
			}
			return (m.Start < n.Start && n.Start < m.End && n.End > m.End) ||
				(n.Start < m.Start && m.Start < n.End && m.End > n.End)
		}
	default:
		return nil
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
	for _, l := range d.leafAxis(c, 0, d.numLeaves()) {
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
