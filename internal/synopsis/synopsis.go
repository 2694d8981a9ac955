// Package synopsis implements a strong-dataguide path synopsis over one
// markup hierarchy: a tree with one node per distinct rooted label path,
// annotated with the number of element instances on that path and the
// number of text-node children those instances carry. Because every
// hierarchy of a KyGODDAG is a plain tree over interned name symbols,
// the synopsis is exact — a rooted child/descendant path expression
// selects precisely the instances the matching synopsis nodes count —
// which is what lets the query planner promise q-error 1.0 on pure
// structural paths.
//
// The synopsis mirrors the structural name index's lifecycle: built
// lazily from the node storage on first use, patched incrementally
// across copy-on-write update versions (package core), and persisted in
// the columnar slab image (package slab) so a freshly opened snapshot
// gets statistics without touching node storage.
package synopsis

import (
	"fmt"
	"sort"
	"strings"

	"mhxquery/internal/dom"
)

// Node is one distinct rooted label path of the hierarchy.
type Node struct {
	// Sym is the interned element-name symbol of the path's last label.
	Sym int32
	// Count is the number of element instances on this path.
	Count int64
	// Texts is the number of text-node children carried by those
	// instances in total.
	Texts int64
	// Kids are the child paths, ascending by Sym. len(Kids) is the
	// path's distinct-name child fan-out.
	Kids []*Node
}

// Tree is the synopsis of one hierarchy. The top level plays the role
// of the shared document root: Kids are the paths of the hierarchy's
// top-level elements, Texts counts top-level text nodes.
type Tree struct {
	Kids  []*Node
	Texts int64
}

// Build computes the synopsis from the hierarchy's top-level nodes
// (elements and texts parented at the shared root). Only elements with
// an interned name participate as path labels — the same guard the
// structural name index applies — and comments/PIs are ignored.
func Build(tops []*dom.Node) *Tree {
	t := &Tree{}
	t.Kids, t.Texts = addLevel(t.Kids, tops)
	return t
}

// addLevel folds one dom child list into kids, returning the updated
// kid slice and the number of text nodes seen at this level.
func addLevel(kids []*Node, children []*dom.Node) ([]*Node, int64) {
	var texts int64
	for _, c := range children {
		switch {
		case c.Kind == dom.Text:
			texts++
		case c.Kind == dom.Element && c.NameSym != 0:
			kids = addSubtree(kids, c)
		}
	}
	return kids, texts
}

// addSubtree adds one element instance (and its whole subtree) to kids.
func addSubtree(kids []*Node, n *dom.Node) []*Node {
	kids, k := ensureKid(kids, n.NameSym)
	k.Count++
	var texts int64
	k.Kids, texts = addLevel(k.Kids, n.Children)
	k.Texts += texts
	return kids
}

// subSubtree removes one element instance's contribution from kids,
// pruning paths whose last instance disappeared. It reports whether the
// synopsis was consistent with the removal (a miscount means the caller
// must fall back to a from-scratch rebuild).
func subSubtree(kids []*Node, n *dom.Node) ([]*Node, bool) {
	i := findKid(kids, n.NameSym)
	if i < 0 {
		return kids, false
	}
	k := kids[i]
	k.Count--
	ok := true
	for _, c := range n.Children {
		switch {
		case c.Kind == dom.Text:
			k.Texts--
		case c.Kind == dom.Element && c.NameSym != 0:
			var sok bool
			k.Kids, sok = subSubtree(k.Kids, c)
			ok = ok && sok
		}
	}
	if k.Count < 0 || k.Texts < 0 {
		return kids, false
	}
	if k.Count == 0 {
		// The last instance of this path is gone; its subtree counts
		// must be gone with it, or the synopsis was inconsistent.
		if k.Texts != 0 || len(k.Kids) != 0 {
			return kids, false
		}
		kids = append(kids[:i], kids[i+1:]...)
	}
	return kids, ok
}

// ensureKid returns the kid with the given symbol, inserting a fresh
// zero-count node in ascending-symbol position when absent.
func ensureKid(kids []*Node, sym int32) ([]*Node, *Node) {
	i := sort.Search(len(kids), func(i int) bool { return kids[i].Sym >= sym })
	if i < len(kids) && kids[i].Sym == sym {
		return kids, kids[i]
	}
	k := &Node{Sym: sym}
	kids = append(kids, nil)
	copy(kids[i+1:], kids[i:])
	kids[i] = k
	return kids, k
}

// findKid returns the index of the kid with the given symbol, or -1.
func findKid(kids []*Node, sym int32) int {
	i := sort.Search(len(kids), func(i int) bool { return kids[i].Sym >= sym })
	if i < len(kids) && kids[i].Sym == sym {
		return i
	}
	return -1
}

// Kid returns the child path with the given symbol, or nil.
func (n *Node) Kid(sym int32) *Node {
	if i := findKid(n.Kids, sym); i >= 0 {
		return n.Kids[i]
	}
	return nil
}

// Top returns the top-level path with the given symbol, or nil.
func (t *Tree) Top(sym int32) *Node {
	if i := findKid(t.Kids, sym); i >= 0 {
		return t.Kids[i]
	}
	return nil
}

// Clone returns a deep copy (the update engine patches a private copy
// of the previous version's synopsis).
func (t *Tree) Clone() *Tree {
	return &Tree{Kids: cloneKids(t.Kids), Texts: t.Texts}
}

func cloneKids(kids []*Node) []*Node {
	if kids == nil {
		return nil
	}
	out := make([]*Node, len(kids))
	for i, k := range kids {
		out[i] = &Node{Sym: k.Sym, Count: k.Count, Texts: k.Texts, Kids: cloneKids(k.Kids)}
	}
	return out
}

// A region replacement patches the synopsis in two phases: the element
// reached by path (name symbols top-down from a hierarchy top, inclusive
// of the region parent itself) keeps its name and position while its
// child list changes. SubRegion subtracts the old children's
// contributions and AddRegion adds the new ones; the parent's own Count
// is untouched. An empty path addresses the tree level itself (the
// shared root's child list). The phases are separate so a caller that
// edits the children in place can subtract before it writes and add
// after; several disjoint regions may all be subtracted before any is
// added.

// SubRegion subtracts the contributions of the child list oldKids under
// path. It returns false — leaving the tree in an unspecified state —
// when the synopsis disagrees with them; callers then fall back to a
// from-scratch rebuild.
func (t *Tree) SubRegion(path []int32, oldKids []*dom.Node) bool {
	kids, texts := t.region(path)
	if kids == nil {
		return false
	}
	ok := true
	for _, c := range oldKids {
		switch {
		case c.Kind == dom.Text:
			*texts--
		case c.Kind == dom.Element && c.NameSym != 0:
			var sok bool
			*kids, sok = subSubtree(*kids, c)
			ok = ok && sok
		}
	}
	return ok && *texts >= 0
}

// AddRegion adds the contributions of the child list newKids under
// path, reporting false when path does not exist.
func (t *Tree) AddRegion(path []int32, newKids []*dom.Node) bool {
	kids, texts := t.region(path)
	if kids == nil {
		return false
	}
	var add int64
	*kids, add = addLevel(*kids, newKids)
	*texts += add
	return true
}

// region resolves path to the kid list and text count it addresses, or
// nil when a label on the path is missing.
func (t *Tree) region(path []int32) (*[]*Node, *int64) {
	kids, texts := &t.Kids, &t.Texts
	for _, sym := range path {
		i := findKid(*kids, sym)
		if i < 0 {
			return nil, nil
		}
		p := (*kids)[i]
		kids, texts = &p.Kids, &p.Texts
	}
	return kids, texts
}

// Equal reports whether two synopses are field-for-field identical.
func (t *Tree) Equal(o *Tree) bool {
	if t == nil || o == nil {
		return t == o
	}
	return t.Texts == o.Texts && equalKids(t.Kids, o.Kids)
}

func equalKids(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sym != b[i].Sym || a[i].Count != b[i].Count ||
			a[i].Texts != b[i].Texts || !equalKids(a[i].Kids, b[i].Kids) {
			return false
		}
	}
	return true
}

// Walk visits every path node in preorder, kids in ascending symbol
// order, calling f with the node and its depth (0 for top-level paths).
func (t *Tree) Walk(f func(n *Node, depth int)) {
	var rec func(kids []*Node, depth int)
	rec = func(kids []*Node, depth int) {
		for _, k := range kids {
			f(k, depth)
			rec(k.Kids, depth+1)
		}
	}
	rec(t.Kids, 0)
}

// Totals returns the tree-wide element and text-node counts.
func (t *Tree) Totals() (elems, texts int64) {
	texts = t.Texts
	t.Walk(func(n *Node, _ int) {
		elems += n.Count
		texts += n.Texts
	})
	return elems, texts
}

// Stats summarizes the synopsis: distinct rooted paths, total element
// and text instances, the widest distinct-name fan-out under any single
// path, and the number of distinct element names.
type Stats struct {
	Paths     int
	Elements  int64
	Texts     int64
	MaxFanout int
	Names     int
}

// Summary computes the synopsis statistics.
func (t *Tree) Summary() Stats {
	s := Stats{MaxFanout: len(t.Kids)}
	names := make(map[int32]struct{})
	s.Elements, s.Texts = 0, t.Texts
	t.Walk(func(n *Node, _ int) {
		s.Paths++
		s.Elements += n.Count
		s.Texts += n.Texts
		names[n.Sym] = struct{}{}
		if len(n.Kids) > s.MaxFanout {
			s.MaxFanout = len(n.Kids)
		}
	})
	s.Names = len(names)
	return s
}

// Dump renders the synopsis one path per line ("/a/b count=3 texts=1"),
// resolving symbols through nameOf — the diagnostic the property tests
// print when an incrementally patched synopsis diverges from a rebuild.
func (t *Tree) Dump(nameOf func(int32) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/ texts=%d\n", t.Texts)
	var rec func(kids []*Node, prefix string)
	rec = func(kids []*Node, prefix string) {
		for _, k := range kids {
			p := prefix + "/" + nameOf(k.Sym)
			fmt.Fprintf(&b, "%s count=%d texts=%d\n", p, k.Count, k.Texts)
			rec(k.Kids, p)
		}
	}
	rec(t.Kids, "")
	return b.String()
}
