package core

import (
	"sync"

	"mhxquery/internal/dom"
)

// This file is the core half of the frozen-document protocol: a
// Document whose per-hierarchy dom.Node storage is materialized lazily
// from an external columnar image (internal/slab). The slab package
// supplies per-hierarchy fill callbacks; core owns when they run.
//
// A frozen document is fully usable before any hierarchy is
// materialized: Text, Bounds, Rev, the interned name table, the
// ordinal layout and the persisted name-index runs are all installed
// eagerly by NewFrozenDocument, so name binding (NameSymOf,
// HierarchyByName) and index-run reads (NameRun length probes) touch no
// node storage. The first operation that needs actual nodes — an axis
// step, the leaf layer, an update, serialization — runs the fill
// callbacks behind sync.Once, exactly the discipline the name index
// already uses, so concurrent readers race-freely share one
// materialization.
//
// Fill callbacks are infallible by contract: the slab image is fully
// validated (checksums and structural invariants) before the first
// callback is constructed, so materialization never needs an error
// path threaded through every axis accessor.

// FrozenHier describes one hierarchy of a frozen document: everything
// the document needs eagerly (name, node count for the ordinal layout,
// persisted index runs) plus the callback that materializes the
// dom.Node preorder storage on first structural access.
type FrozenHier struct {
	Name string
	// NumNodes is len(Nodes) after materialization; the ordinal layout
	// is computed from it without materializing.
	NumNodes int
	// Runs is the persisted structural name index (symbol → ascending
	// preorder ordinals). It is installed into the hierarchy's index
	// slot eagerly, so opening + querying performs zero index builds.
	Runs map[int32][]int32
	// Fill populates h.Top and h.Nodes (exactly NumNodes entries, in
	// preorder, with Ord/Last/Hier/HierIndex/NameSym assigned) and
	// parents top-level nodes at root. It must not fail: callers
	// validate their image before constructing the callback.
	Fill func(root *dom.Node, h *Hierarchy)
}

// FrozenDoc carries the eager layers of a frozen document.
type FrozenDoc struct {
	Text   string
	Bounds []int
	Rev    uint64
	// Names is the interned name table in symbol order: Names[i] is the
	// name with symbol i+1 (Document.NameTable of the encoded document).
	Names     []string
	RootName  string
	RootAttrs [][2]string
	Hiers     []FrozenHier
}

// NewFrozenDocument assembles a Document over the frozen layers. The
// returned document is immediately queryable; hierarchy node storage
// and the leaf layer materialize on first structural access.
func NewFrozenDocument(f FrozenDoc) *Document {
	d := &Document{
		Text:       f.Text,
		Bounds:     f.Bounds,
		Rev:        f.Rev,
		byName:     make(map[string]*Hierarchy, len(f.Hiers)),
		names:      make(map[string]int32, len(f.Names)),
		layoutOnce: new(sync.Once),
	}
	for i, s := range f.Names {
		d.names[s] = int32(i) + 1
	}
	root := dom.NewElement(f.RootName)
	root.HierIndex = dom.RootHier
	root.Start, root.End = 0, len(f.Text)
	root.NameSym = d.names[f.RootName]
	for _, a := range f.RootAttrs {
		root.SetAttr(a[0], a[1])
	}
	for _, a := range root.Attrs {
		a.NameSym = d.names[a.Name]
	}
	d.Root = root

	d.ordBase = make([]int, len(f.Hiers))
	ord := 1 // 0 is the shared root
	for i, fh := range f.Hiers {
		h := &Hierarchy{
			Name:     fh.Name,
			Index:    i,
			fill:     fh.Fill,
			fillOnce: new(sync.Once),
			fillRoot: root,
		}
		h.idx.install(fh.Runs)
		d.ordBase[i] = ord
		ord += fh.NumNodes
		d.Hiers = append(d.Hiers, h)
		d.byName[h.Name] = h
	}
	d.leafBase = ord
	return d
}

// ensure materializes the hierarchy's node storage. The nil check is
// the whole cost for eagerly built hierarchies.
func (h *Hierarchy) ensure() {
	if h.fill == nil {
		return
	}
	h.fillOnce.Do(func() {
		h.fill(h.fillRoot, h)
		h.sortByEnd()
	})
}

// sortByEnd (re)derives the xpreceding index from h.Nodes.
func (h *Hierarchy) sortByEnd() {
	h.byEnd = append([]*dom.Node(nil), h.Nodes...)
	stableSortByEnd(h.byEnd)
}

// ensureLayout materializes every hierarchy plus the leaf layer. It is
// the document-level choke point: axis evaluation, updates and exports
// call it on entry. Eagerly built documents pay one nil check.
func (d *Document) ensureLayout() {
	if d.layoutOnce == nil {
		return
	}
	d.layoutOnce.Do(func() {
		for _, h := range d.Hiers {
			h.ensure()
		}
		// buildLeaves recomputes finishLayout from the now-materialized
		// node slices; the counts match the declared NumNodes, so the
		// eager ordinal layout is unchanged.
		d.buildLeaves()
	})
}

// Materialize forces full construction of the document's node storage
// and leaf layer — the state an eagerly built document starts in — for
// frozen documents and analyze-string overlays alike. It is safe (and
// cheap) on already-materialized documents and safe for concurrent use.
func (d *Document) Materialize() {
	d.ensureLeaves()
}

// NameTable returns the interned name table in symbol order:
// out[i] is the name with symbol i+1 (the inverse of NameSymOf). The
// slab encoder persists it so a reopened document keeps identical
// symbols.
func (d *Document) NameTable() []string {
	if d.flat != nil {
		return append(d.flat.NameTable(), d.addNames...)
	}
	out := make([]string, len(d.names))
	for s, sym := range d.names {
		out[sym-1] = s
	}
	return out
}
