// Package core implements the KyGODDAG, the paper's central data
// structure: a directed acyclic graph uniting the DOM trees of n
// concurrent markup hierarchies over the same base text S at a shared
// root, with an additional layer of leaf nodes — the partition of S
// induced by every markup boundary of every hierarchy — connected to the
// text node that contains them in each hierarchy.
//
// The package provides construction (Build), overlay documents for the
// temporary hierarchies created by analyze-string (AddHierarchy), the
// standard XPath axes confined to one hierarchy component, the paper's
// extended multihierarchical axes (Definition 1) in both a fast
// interval-arithmetic implementation and a literal set-based reference
// implementation, the stable node order of Definition 3 (dom.Compare),
// and diagnostic exports (DOT graphs and leaf tables, reproducing the
// paper's Figure 2).
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mhxquery/internal/cmh"
	"mhxquery/internal/dom"
)

// Hierarchy is one markup hierarchy registered in a Document.
type Hierarchy struct {
	Name  string
	Index int
	// Top holds the top-level nodes of the hierarchy (the children its
	// original root element contributed to the shared KyGODDAG root).
	Top []*dom.Node
	// Nodes lists every element and text node of the hierarchy in
	// preorder; Nodes[n.Ord] == n and a node's subtree occupies
	// Nodes[n.Ord..n.Last].
	Nodes []*dom.Node
	// Temp marks hierarchies created by analyze-string; they live only
	// for the duration of a query evaluation.
	Temp bool

	// byEnd lists the hierarchy's nodes sorted by span End (the
	// xpreceding index).
	byEnd []*dom.Node

	// fill, when non-nil, materializes Top/Nodes/byEnd lazily from a
	// frozen slab image (frozen.go); fillOnce synchronizes the one
	// materialization and fillRoot is the shared root the top-level
	// nodes are parented at. Eagerly built hierarchies leave fill nil.
	fill     func(root *dom.Node, h *Hierarchy)
	fillOnce *sync.Once
	fillRoot *dom.Node

	// idx is the lazily built structural name index (nameindex.go). It
	// is shared by every overlay document reusing this hierarchy, so the
	// lazy build is synchronized.
	idx nameIndex

	// owner is the private lineage whose Apply copied this hierarchy, or
	// nil. Only that lineage may edit its nodes in place (update.go).
	owner *lineage
}

// NamedTree pairs a hierarchy name with its parsed document tree.
type NamedTree struct {
	Name string
	Root *dom.Node
}

// Document is a KyGODDAG over a base text.
type Document struct {
	// Text is the base string S shared by all hierarchies.
	Text string
	// Root is the shared root node (HierIndex == dom.RootHier). Its child
	// edges are not stored on the node — use RootChildren — so that
	// overlay documents can share it without mutation.
	Root *dom.Node
	// Hiers lists the hierarchies in registration (document) order.
	Hiers []*Hierarchy
	// Bounds is the sorted array of all markup boundary offsets,
	// including 0 and len(Text); leaf i spans [Bounds[i], Bounds[i+1]).
	// An analyze-string overlay stores only the offsets its stack adds
	// (addBounds) and builds Bounds with its leaf layer: read it
	// directly only after Materialize, like Leaves.
	Bounds []int
	// Leaves is the leaf layer, in text order. Frozen documents and
	// analyze-string overlays build it on first use: read it directly
	// only after Materialize (package code goes through ensureLeaves).
	Leaves []*dom.Node
	// Base points to the document this overlay was derived from, or nil.
	Base *Document
	// Rev is the document's update revision: 0 for a freshly built
	// document, incremented by every Apply (update.go). The WAL records
	// it as each update's base version. Plans bind names per document at
	// run time, so every version of a document shares them.
	Rev uint64

	// byName maps hierarchy names to hierarchies; overlays leave it nil
	// and resolve names through flat (hierNamed).
	byName map[string]*Hierarchy
	// leafPar is the per-version text→leaf edge table: leafPar[i] holds,
	// for leaf i, the text node that contains it in each covering
	// hierarchy, in hierarchy order. It lives on the Document rather
	// than on the leaf nodes so that leaf structs — whose remaining
	// fields are version-independent — can be shared between document
	// versions whose partition is unchanged (update.go patchLeaves).
	leafPar [][]*dom.Node
	// empties lists all empty-span nodes of all hierarchies: under the
	// literal Definition 1, leaves(m)=∅ makes them xdescendants of
	// every node.
	empties []*dom.Node

	// names interns element and attribute names to dense symbols
	// (dom.Node.NameSym); symbols start at 1, 0 means "not interned".
	// An overlay leaves it nil: flat's table plus addNames (symbol
	// len(flat.names)+i+1 for addNames[i]) keeps symbols comparable
	// across the lineage without copying the base table.
	names map[string]int32
	// ordBase[i] is the document-order ordinal of Hiers[i].Nodes[0]; a
	// hierarchy node's ordinal is ordBase[HierIndex]+Ord. The shared root
	// has ordinal 0 and leaf i has ordinal leafBase+i, so ordinals
	// enumerate the Definition 3 order 0..OrdinalSpace()-1 (attributes
	// excepted — they share their owner's Ord and have no ordinal).
	ordBase  []int
	leafBase int
	// rootKids caches RootChildren for axis evaluation; an overlay
	// builds it on first use, under rootOnce (rootChildList).
	rootKids []*dom.Node
	rootOnce sync.Once

	// flat, on an analyze-string overlay, is the nearest non-overlay
	// document below it; other documents leave it nil. The overlay's
	// boundary array is flat.Bounds merged with addBounds, the sorted
	// offsets the overlay stack adds, so a boundary read is at most two
	// binary searches whatever the stack depth (boundIndex). addNames
	// and the hierarchies past len(flat.Hiers) likewise hold only what
	// the stack adds to flat's name table and hierarchy map.
	flat      *Document
	addBounds []int
	addNames  []string

	// layoutOnce, when non-nil, guards the lazy materialization of a
	// frozen document's hierarchies and leaf layer (frozen.go). Eagerly
	// built documents leave it nil.
	layoutOnce *sync.Once
	// leafOnce, when non-nil, guards the lazy construction of an
	// overlay's leaf layer (Leaves and leafPar) from its Base
	// (buildOverlayLeaves). Other documents leave it nil.
	leafOnce *sync.Once
	// leavesReady is set once Leaves and leafPar are built. Readers that
	// only ask whether a leaf belongs to this document (ownsLeaf) check
	// it instead of forcing a lazy build.
	leavesReady atomic.Bool

	// lineage marks a private working version (Private); published
	// documents carry nil. leafOwner is the lineage that allocated the
	// leaf structs, or nil.
	lineage   *lineage
	leafOwner *lineage

	// memo is the version's filter memo (memo.go); overlays and private
	// versions leave it unused.
	memo Memo
}

// numLeaves is the leaf count implied by the boundary array — equal to
// len(Leaves) once the leaf layer is built, but available before a lazy
// leaf layer exists.
func (d *Document) numLeaves() int {
	// An overlay's Bounds is written when its leaf layer is built
	// (buildOverlayLeaves), possibly concurrently: read it only on a
	// document without flat.
	var n int
	if d.flat != nil {
		n = len(d.flat.Bounds) + len(d.addBounds) - 1
	} else {
		n = len(d.Bounds) - 1
	}
	return max(n, 0)
}

// boundIndex returns how many boundary offsets are below p: p's index
// in the boundary array when p is a boundary, its insertion point
// otherwise. An overlay answers from flat's array and its own added
// offsets, which are disjoint, without building the merged array.
func (d *Document) boundIndex(p int) int {
	if d.flat == nil {
		return sort.SearchInts(d.Bounds, p)
	}
	return sort.SearchInts(d.flat.Bounds, p) + sort.SearchInts(d.addBounds, p)
}

// ensureLeaves builds the leaf layer (Leaves and leafPar) if it is lazy
// and not built yet. Every read of those two fields goes through it; for
// a frozen document it is ensureLayout.
func (d *Document) ensureLeaves() {
	d.ensureLayout()
	if d.leafOnce != nil {
		d.leafOnce.Do(d.buildOverlayLeaves)
	}
}

// ownsLeaf reports whether leaf n belongs to this document without
// building a lazy leaf layer: a document whose layer is not built yet
// owns no leaves, because none of its leaf nodes exist yet.
func (d *Document) ownsLeaf(n *dom.Node) bool {
	return d.leavesReady.Load() && n.Ord < len(d.Leaves) && d.Leaves[n.Ord] == n
}

// intern returns the symbol for name in the document's name table,
// assigning the next free symbol on first sight.
func (d *Document) intern(name string) int32 {
	if s := d.NameSymOf(name); s != 0 {
		return s
	}
	if d.flat != nil {
		d.addNames = append(d.addNames, name)
		return int32(len(d.flat.names) + len(d.addNames))
	}
	s := int32(len(d.names)) + 1
	d.names[name] = s
	return s
}

// NameSymOf returns the document's interned symbol for name, or 0 when
// the name occurs nowhere in the document's markup.
func (d *Document) NameSymOf(name string) int32 {
	if d.flat == nil {
		return d.names[name]
	}
	if s := d.flat.names[name]; s != 0 {
		return s
	}
	for i, n := range d.addNames {
		if n == name {
			return int32(len(d.flat.names) + i + 1)
		}
	}
	return 0
}

// hierNamed returns the hierarchy registered under name, or nil. An
// overlay looks past flat's map at the few hierarchies its stack added.
func (d *Document) hierNamed(name string) *Hierarchy {
	if d.flat == nil {
		return d.byName[name]
	}
	if h := d.flat.byName[name]; h != nil {
		return h
	}
	for _, h := range d.Hiers[len(d.flat.Hiers):] {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// hierFor returns the hierarchy of this document that n's hierarchy name
// resolves to (hierNamed(n.Hier)), trying n's own hierarchy index first.
func (d *Document) hierFor(n *dom.Node) *Hierarchy {
	if i := n.HierIndex; i >= 0 && i < len(d.Hiers) && d.Hiers[i].Name == n.Hier {
		return d.Hiers[i]
	}
	return d.hierNamed(n.Hier)
}

// OrdinalOf returns n's position in the Definition 3 document order as a
// dense integer in [0, OrdinalSpace()), or ok=false when n has no
// ordinal in this document (attributes, constructed nodes, nodes of
// other documents). Ownership is verified by direct array identity —
// h.Nodes[n.Ord] == n — so the check costs two array indexings and no
// hashing.
func (d *Document) OrdinalOf(n *dom.Node) (int, bool) {
	if n == d.Root {
		return 0, true
	}
	if n.Kind == dom.Leaf {
		if d.ownsLeaf(n) {
			return d.leafBase + n.Ord, true
		}
		return 0, false
	}
	if i := n.HierIndex; i >= 0 && i < len(d.Hiers) {
		h := d.Hiers[i]
		if n.Ord < len(h.Nodes) && h.Nodes[n.Ord] == n {
			return d.ordBase[i] + n.Ord, true
		}
	}
	return 0, false
}

// OrdinalSpace is the exclusive upper bound of OrdinalOf over this
// document: 1 (root) + all hierarchy nodes + all leaves. It is
// derived from the boundary array, so it needs no materialization.
func (d *Document) OrdinalSpace() int { return d.leafBase + d.numLeaves() }

// Build constructs the KyGODDAG for the given hierarchy encodings. It
// verifies that all trees share the same root element name and encode the
// same base text, and that element vocabularies are pairwise disjoint
// (the CMH conditions of Section 3).
func Build(trees []NamedTree) (*Document, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: no hierarchies")
	}
	names := make([]string, len(trees))
	roots := make([]*dom.Node, len(trees))
	for i, t := range trees {
		if t.Root == nil || t.Root.Kind != dom.Element {
			return nil, fmt.Errorf("core: hierarchy %q: missing root element", t.Name)
		}
		names[i], roots[i] = t.Name, t.Root
	}
	if _, err := cmh.Infer(names, roots); err != nil {
		return nil, err
	}
	text, err := cmh.CheckAlignment(names, roots)
	if err != nil {
		return nil, err
	}

	d := &Document{
		Text:   text,
		byName: make(map[string]*Hierarchy, len(trees)),
		names:  make(map[string]int32),
	}
	root := dom.NewElement(roots[0].Name)
	root.HierIndex = dom.RootHier
	root.Start, root.End = 0, len(text)
	root.NameSym = d.intern(root.Name)
	d.Root = root

	for i, t := range trees {
		for _, a := range t.Root.Attrs {
			if _, ok := root.Attr(a.Name); !ok {
				root.SetAttr(a.Name, a.Data)
			}
		}
		h := &Hierarchy{Name: t.Name, Index: i}
		for _, c := range t.Root.Children {
			c.Parent = root
			h.Top = append(h.Top, c)
		}
		d.indexHierarchy(h, i)
		d.Hiers = append(d.Hiers, h)
		d.byName[h.Name] = h
	}
	for _, a := range root.Attrs {
		a.NameSym = d.intern(a.Name)
	}
	d.partition()
	return d, nil
}

// indexHierarchy assigns Hier/HierIndex/Ord/Last over the hierarchy's
// nodes, interns element and attribute names, and fills h.Nodes in
// preorder.
func (d *Document) indexHierarchy(h *Hierarchy, index int) {
	var visit func(n *dom.Node)
	visit = func(n *dom.Node) {
		n.Hier, n.HierIndex = h.Name, index
		n.Ord = len(h.Nodes)
		if n.Kind == dom.Element {
			n.NameSym = d.intern(n.Name)
		}
		h.Nodes = append(h.Nodes, n)
		for _, a := range n.Attrs {
			a.Hier, a.HierIndex, a.Ord = n.Hier, n.HierIndex, n.Ord
			a.NameSym = d.intern(a.Name)
		}
		for _, c := range n.Children {
			visit(c)
		}
		n.Last = len(h.Nodes) - 1
	}
	for _, t := range h.Top {
		visit(t)
	}
	h.sortByEnd()
}

// stableSortByEnd orders nodes by span End, preserving preorder among
// equals (the xpreceding index invariant).
func stableSortByEnd(nodes []*dom.Node) {
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].End < nodes[j].End })
}

// partition recomputes Bounds, Leaves and the text→leaf links.
func (d *Document) partition() {
	d.computeBounds()
	d.buildLeaves()
}

// computeBounds derives the boundary array from scratch: every markup
// boundary of every hierarchy, plus 0 and len(Text). The update engine
// (update.go) skips this pass when it can patch the previous version's
// bounds instead.
func (d *Document) computeBounds() {
	set := map[int]bool{0: true, len(d.Text): true}
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			set[n.Start] = true
			set[n.End] = true
		}
	}
	bounds := make([]int, 0, len(set))
	for b := range set {
		bounds = append(bounds, b)
	}
	sort.Ints(bounds)
	d.Bounds = bounds
}

// buildLeaves materializes the leaf layer from d.Bounds: the leaf
// nodes, the text→leaf links (one backing array for all LeafParents
// slices), the empty-span node list and the ordinal layout.
func (d *Document) buildLeaves() {
	bounds := d.Bounds
	nLeaves := len(bounds) - 1
	if nLeaves < 0 {
		nLeaves = 0
	}
	slab := make([]dom.Node, nLeaves)
	d.Leaves = make([]*dom.Node, nLeaves)
	for i := 0; i < nLeaves; i++ {
		slab[i] = dom.Node{
			Kind:      dom.Leaf,
			Data:      d.Text[bounds[i]:bounds[i+1]],
			Start:     bounds[i],
			End:       bounds[i+1],
			Ord:       i,
			Last:      i,
			HierIndex: dom.LeafHier,
		}
		d.Leaves[i] = &slab[i]
	}
	// Two passes over the text nodes: count the parents of each leaf,
	// then fill one shared backing array, so the leaf layer costs two
	// allocations instead of one per leaf.
	counts := make([]int, nLeaves)
	edges := 0
	d.empties = nil
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			if n.Start >= n.End {
				d.empties = append(d.empties, n)
			}
			if n.Kind != dom.Text {
				continue
			}
			lo, hi := d.LeafRange(n)
			for i := lo; i < hi; i++ {
				counts[i]++
			}
			edges += hi - lo
		}
	}
	backing := make([]*dom.Node, edges)
	d.leafPar = make([][]*dom.Node, nLeaves)
	pos := 0
	for i := 0; i < nLeaves; i++ {
		d.leafPar[i] = backing[pos : pos : pos+counts[i]]
		pos += counts[i]
	}
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			if n.Kind != dom.Text {
				continue
			}
			lo, hi := d.LeafRange(n)
			for i := lo; i < hi; i++ {
				d.leafPar[i] = append(d.leafPar[i], n)
			}
		}
	}

	d.finishLayout()
	d.rootKids = d.rootChildren()
	d.leafOwner = d.lineage
	d.leavesReady.Store(true)
}

// LeafParents returns, for a leaf, the text node that contains it in
// each covering hierarchy, in hierarchy order — the text→leaf edges of
// the KyGODDAG, read from the owning version's table. A leaf of an
// ancestor version (a base-document leaf encountered mid-overlay
// evaluation) resolves through the Base chain, preserving the edges it
// had in its own version. The returned slice is shared and must not be
// mutated.
func (d *Document) LeafParents(n *dom.Node) []*dom.Node {
	if n.Kind != dom.Leaf {
		return nil
	}
	// The walk builds nothing: n exists, so the version that created it
	// has its leaf layer built, and unbuilt versions cannot own it.
	for e := d; e != nil; e = e.Base {
		if e.ownsLeaf(n) {
			return e.leafPar[n.Ord]
		}
	}
	return nil
}

// finishLayout computes the ordinal layout (OrdinalOf) from the
// registered hierarchies and leaf layer. When the layout is already
// current — a frozen document installs it eagerly at open, before the
// document is shared — the redundant store is skipped, so lazy leaf
// construction cannot race concurrent OrdinalOf/OrdinalSpace readers.
func (d *Document) finishLayout() {
	ordBase := make([]int, len(d.Hiers))
	ord := 1 // 0 is the shared root
	for i, h := range d.Hiers {
		ordBase[i] = ord
		ord += len(h.Nodes)
	}
	if ord == d.leafBase && len(ordBase) == len(d.ordBase) {
		same := true
		for i := range ordBase {
			if ordBase[i] != d.ordBase[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	d.ordBase = ordBase
	d.leafBase = ord
}

// partitionFrom computes the overlay's pointer-free layout eagerly from
// the base document: the empty-span list, the ordinal layout and the
// boundary offsets the overlay stack adds — the new hierarchy's offsets
// that flat.Bounds lacks, merged into those the base overlay added (a
// span-sized merge; the document's boundary array is not copied). The
// leaf layer and the flattened Bounds are left to buildOverlayLeaves,
// which runs only when a query first reads a leaf, and the root's child
// list to rootChildList, so an analyze-string overlay navigated through
// its elements alone — the paper's Queries II.1 and III.1 — costs the
// new hierarchy plus a few span-sized slices. The result, once the
// leaves are built, is field-for-field what partition would compute.
func (d *Document) partitionFrom(base *Document, h *Hierarchy) {
	// Sorted, deduplicated boundary offsets of the new hierarchy that
	// flat.Bounds (which contains 0 and len(Text)) lacks.
	add := make([]int, 0, 2*len(h.Nodes))
	for _, n := range h.Nodes {
		add = append(add, n.Start, n.End)
	}
	sort.Ints(add)
	w := 0
	for i, b := range add {
		if i > 0 && b == add[i-1] {
			continue
		}
		if k := sort.SearchInts(d.flat.Bounds, b); k < len(d.flat.Bounds) && d.flat.Bounds[k] == b {
			continue
		}
		add[w] = b
		w++
	}
	add = add[:w]

	// Merge with the offsets the base overlay already added; an overlay
	// adding nothing new shares the base's (immutable) slice.
	d.addBounds = base.addBounds
	if len(add) > 0 {
		d.addBounds = unionSorted(base.addBounds, add)
	}

	// Empty-span nodes: the base's plus the new hierarchy's, in the
	// same hierarchy-scan order partition produces.
	var newEmpties []*dom.Node
	for _, n := range h.Nodes {
		if n.Start >= n.End {
			newEmpties = append(newEmpties, n)
		}
	}
	d.empties = base.empties
	if len(newEmpties) > 0 {
		d.empties = make([]*dom.Node, 0, len(base.empties)+len(newEmpties))
		d.empties = append(append(d.empties, base.empties...), newEmpties...)
	}

	d.finishLayout()
	d.leafOnce = new(sync.Once)
}

// unionSorted merges two ascending, duplicate-free integer slices into
// a new one, keeping one copy of values present in both.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// buildOverlayLeaves builds an overlay's leaf layer from its base's,
// which it builds first (the base may itself be a lazy overlay), and
// flattens its boundary array into Bounds: the new hierarchy's
// boundaries split the base leaves, each fragment inherits
// the covering base leaf's parent links, and the new hierarchy's text
// nodes adopt the fragments they cover. It runs once, under leafOnce.
func (d *Document) buildOverlayLeaves() {
	base := d.Base
	base.ensureLeaves()
	h := d.Hiers[len(d.Hiers)-1] // AddHierarchy registers the new one last
	d.Bounds = unionSorted(d.flat.Bounds, d.addBounds)
	bounds := d.Bounds
	nLeaves := d.numLeaves()

	// Every new leaf lies inside exactly one base leaf (the new bounds
	// are a superset of the base bounds) and inherits its parent links.
	// Unsplit, uncovered leaves share the base parent slice, which is
	// never mutated after construction.
	slab := make([]dom.Node, nLeaves)
	d.Leaves = make([]*dom.Node, nLeaves)
	d.leafPar = make([][]*dom.Node, nLeaves)
	bi := 0
	for k := 0; k < nLeaves; k++ {
		lo, hi := bounds[k], bounds[k+1]
		slab[k] = dom.Node{
			Kind:      dom.Leaf,
			Data:      d.Text[lo:hi],
			Start:     lo,
			End:       hi,
			Ord:       k,
			Last:      k,
			HierIndex: dom.LeafHier,
		}
		d.Leaves[k] = &slab[k]
		for bi < len(base.Leaves) && base.Leaves[bi].End <= lo {
			bi++
		}
		if bi < len(base.Leaves) && base.Leaves[bi].Start <= lo && hi <= base.Leaves[bi].End {
			d.leafPar[k] = base.leafPar[bi]
		}
	}

	// Text nodes of the new hierarchy adopt their covered fragments
	// (copy-on-append: the inherited slices stay shared with the base).
	for _, n := range h.Nodes {
		if n.Kind != dom.Text {
			continue
		}
		lo, hi := d.LeafRange(n)
		for k := lo; k < hi; k++ {
			np := make([]*dom.Node, len(d.leafPar[k])+1)
			copy(np, d.leafPar[k])
			np[len(np)-1] = n
			d.leafPar[k] = np
		}
	}
	overlayLeafBuilds.Add(1)
	d.leavesReady.Store(true)
}

// LeafRange returns the half-open leaf-index interval [lo,hi) covered by
// the node, i.e. leaves(n) of the paper. Nodes without a base-text span
// (attributes, comments, constructed nodes) yield an empty interval.
func (d *Document) LeafRange(n *dom.Node) (lo, hi int) {
	switch n.Kind {
	case dom.Leaf:
		return n.Ord, n.Ord + 1
	case dom.Element, dom.Text:
		if n == d.Root {
			return 0, d.numLeaves()
		}
		if n.Hier == "" { // constructed node: no span in S
			return 0, 0
		}
		return d.boundIndex(n.Start), d.boundIndex(n.End)
	}
	return 0, 0
}

// LeafLayer returns the leaf layer in text order, building a lazy one
// first. The returned slice is shared and must not be mutated.
func (d *Document) LeafLayer() []*dom.Node {
	d.ensureLeaves()
	return d.Leaves
}

// LeavesOf returns the leaves covered by a node, in text order.
func (d *Document) LeavesOf(n *dom.Node) []*dom.Node { return d.leavesOf(n, AllCandidates) }

// leavesOf is LeavesOf restricted to c.
func (d *Document) leavesOf(n *dom.Node, c Candidates) []*dom.Node {
	lo, hi := d.LeafRange(n)
	return d.leafAxis(c, lo, hi)
}

// HierarchyByName returns the named hierarchy, or nil.
func (d *Document) HierarchyByName(name string) *Hierarchy {
	h := d.hierNamed(name)
	if h != nil {
		// Callers walk h.Nodes directly; a frozen hierarchy materializes
		// here. (Existence probes on absent names stay free.)
		h.ensure()
	}
	return h
}

// HierarchyNames returns the registered hierarchy names in order.
func (d *Document) HierarchyNames() []string {
	out := make([]string, len(d.Hiers))
	for i, h := range d.Hiers {
		out[i] = h.Name
	}
	return out
}

// RootChildren assembles the child list of the shared root: the top-level
// nodes of every hierarchy in hierarchy order. (Root child edges are
// computed, not stored, so overlays can share the root node.)
func (d *Document) RootChildren() []*dom.Node {
	d.ensureLayout()
	return d.rootChildren()
}

// rootChildren is RootChildren without the materialization choke, for
// use inside the materialization itself (buildLeaves).
func (d *Document) rootChildren() []*dom.Node {
	var out []*dom.Node
	for _, h := range d.Hiers {
		out = append(out, h.Top...)
	}
	return out
}

// rootChildList returns the cached root child list (read-only). An
// overlay assembles its list on the first read, so an overlay whose
// root children are never asked for copies none of its base's.
func (d *Document) rootChildList() []*dom.Node {
	if d.flat != nil {
		d.rootOnce.Do(func() { d.rootKids = d.rootChildren() })
	}
	return d.rootKids
}

// IsRoot reports whether n is the shared KyGODDAG root of this document.
func (d *Document) IsRoot(n *dom.Node) bool { return n == d.Root }

// Owns reports whether the node belongs to this document: the root, a
// node of a registered hierarchy, or one of this document's leaves.
func (d *Document) Owns(n *dom.Node) bool {
	if n == d.Root {
		return true
	}
	if n.Kind == dom.Leaf {
		return d.ownsLeaf(n)
	}
	h := d.hierFor(n)
	return h != nil && n.Ord < len(h.Nodes) && h.Nodes[n.Ord] == n
}

// AddHierarchy returns a new overlay Document extending d with one more
// hierarchy whose top-level element is top. The tree's Start/End spans
// must already be expressed in d.Text coordinates (it may cover only a
// sub-span of S, as the temporary hierarchies of analyze-string do). The
// base document is never mutated: hierarchies, the name table and the
// boundary array are shared, the overlay records only what it adds, and
// its leaf layer is built from the base's only when first read
// (partitionFrom).
func (d *Document) AddHierarchy(name string, top *dom.Node, temp bool) (*Document, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty hierarchy name")
	}
	if d.hierNamed(name) != nil {
		return nil, fmt.Errorf("core: hierarchy %q already registered", name)
	}
	if top == nil || top.Kind != dom.Element {
		return nil, fmt.Errorf("core: hierarchy %q: top node must be an element", name)
	}
	if top.Start < 0 || top.End > len(d.Text) || top.Start > top.End {
		return nil, fmt.Errorf("core: hierarchy %q: span [%d,%d) outside base text", name, top.Start, top.End)
	}
	// The overlay's layout is derived from the base's hierarchies and
	// empty-span list, which a frozen base materializes here.
	d.ensureLayout()
	nd := &Document{
		Text: d.Text,
		Root: d.Root,
		Base: d,
		Rev:  d.Rev,
		flat: d.flat,
		// Clipped, so interning a new name copies rather than appending
		// into storage the base overlay shares.
		addNames: slices.Clip(d.addNames),
	}
	if nd.flat == nil {
		nd.flat = d
	}
	nd.Hiers = make([]*Hierarchy, len(d.Hiers), len(d.Hiers)+1)
	copy(nd.Hiers, d.Hiers)
	h := &Hierarchy{Name: name, Index: len(nd.Hiers), Temp: temp, Top: []*dom.Node{top}}
	top.Parent = d.Root
	nd.indexHierarchy(h, h.Index)
	nd.Hiers = append(nd.Hiers, h)
	nd.partitionFrom(d, h)
	overlays.Add(1)
	return nd, nil
}

// Stats summarizes the KyGODDAG's composition (used by cmd/mhparse and
// the Figure 2 reproduction).
type Stats struct {
	Hierarchies int
	Elements    int
	Texts       int
	Leaves      int
	// LeafEdges counts text→leaf edges (a leaf contributes one edge per
	// hierarchy whose text covers it).
	LeafEdges int
	// TreeEdges counts parent→child edges within hierarchies plus the
	// root→top edges.
	TreeEdges int
}

// Stats computes composition statistics for the document.
func (d *Document) Stats() Stats {
	d.ensureLeaves()
	var s Stats
	s.Hierarchies = len(d.Hiers)
	s.Leaves = len(d.Leaves)
	for _, h := range d.Hiers {
		s.TreeEdges += len(h.Top)
		for _, n := range h.Nodes {
			switch n.Kind {
			case dom.Element:
				s.Elements++
				s.TreeEdges += len(n.Children)
			case dom.Text:
				s.Texts++
			}
		}
	}
	for _, ps := range d.leafPar {
		s.LeafEdges += len(ps)
	}
	return s
}

// SortDoc sorts nodes in the Definition 3 document order and removes
// duplicates in place, returning the shortened slice. A strictly
// ascending input (the common case now that axis results carry order
// contracts) is detected in one O(k) pass and returned untouched.
func SortDoc(nodes []*dom.Node) []*dom.Node {
	ascending := true
	for i := 1; i < len(nodes); i++ {
		if dom.Compare(nodes[i-1], nodes[i]) >= 0 {
			ascending = false
			break
		}
	}
	if ascending {
		return nodes
	}
	slices.SortStableFunc(nodes, dom.Compare)
	out := nodes[:0]
	var prev *dom.Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}
