package core

// This file implements the versioned update engine: copy-on-write
// mutations of a KyGODDAG. Apply takes a batch of edits against one
// document version and produces a NEW Document; the receiver — and
// every node reachable from it — is never mutated, so concurrent
// readers (including in-flight streaming evaluations) keep evaluating
// against their snapshot while writers commit new versions.
//
// Structural sharing is hierarchy-granular: a hierarchy untouched by
// the batch is shared wholesale with the previous version (its nodes
// are owned by both documents — Owns and OrdinalOf verify membership by
// array identity, which holds for shared hierarchies in both versions).
// A touched hierarchy is copied as one slab of node structs (one
// allocation for the structs, one for all child slices, one for all
// attribute nodes) before the edits are applied to the copy.
//
// The per-hierarchy structural name index (nameindex.go) is maintained
// incrementally: for a built index, the new version's runs are patched
// from the old ones — a pure-rename batch touches only the two affected
// runs and shares every other slice; ordinal-shifting edits transform
// the affected runs through a monotone ordinal remap. The lazily built
// from-scratch path remains the fallback (and the differential oracle:
// RebuildIndexRuns must agree byte-for-byte with the patched index).
//
// The boundary array and leaf layer are likewise patched rather than
// rederived where possible: edits provably unable to retire a boundary
// merge their new offsets into the previous bounds; only boundary-
// retiring edits (deleting an empty element, removing a hierarchy) pay
// the full computeBounds pass.
//
// A private working version (Private) relaxes copy-on-write for a
// writer that reads nothing but its own latest version, such as log
// replay. Its first edit of a hierarchy or of the leaf slab copies it as
// usual, and the copy is owned by the version's lineage. A later batch
// that keeps every ordinal and every boundary (renames and same-length
// text replacements) edits owned storage in place instead of copying it
// again. Publish ends the lineage.

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

// EditKind identifies one update primitive.
type EditKind uint8

const (
	// EditRename renames the target element to Name.
	EditRename EditKind = iota
	// EditDelete removes the target element, splicing its children into
	// its parent's child list in place — the base text is preserved, so
	// hierarchy alignment (CMH) cannot break.
	EditDelete
	// EditWrap inserts a new element named Name as a child of the
	// target, wrapping the target's children [From,To). To < 0 means
	// "all remaining children". From == To inserts an empty element at
	// that child boundary.
	EditWrap
	// EditInsertBefore inserts a new empty element named Name as the
	// sibling immediately before the target (span: the point at the
	// target's Start).
	EditInsertBefore
	// EditInsertAfter is EditInsertBefore at the target's End.
	EditInsertAfter
	// EditReplaceText replaces the base text covered by the target's
	// span with Text. A length-changing replacement requires that no
	// markup boundary (of any hierarchy) lies strictly inside the
	// replaced range; a same-length replacement is always allowed.
	EditReplaceText
	// EditAddHierarchy registers a new persistent hierarchy named Name,
	// assembled from the element span trees in Tops (spans in base-text
	// coordinates). Gaps — before, between and inside the given trees —
	// are filled with text nodes so the hierarchy covers the base text
	// exactly (the CMH alignment condition) and serialize→reparse
	// round-trips. This is how an analyze-string overlay is persisted.
	EditAddHierarchy
	// EditRemoveHierarchy removes the hierarchy named Name.
	EditRemoveHierarchy
)

// Edit is one update primitive of a batch. Target nodes must belong to
// the document Apply is invoked on; Tops trees must be fresh (owned by
// no document — use dom.CloneSpan to lift nodes out of an overlay).
type Edit struct {
	Kind     EditKind
	Target   *dom.Node
	Name     string
	From, To int
	Text     string
	Tops     []*dom.Node
}

// UpdateStats reports what one Apply did — the observability surface
// the incremental-maintenance claims are benchmarked and tested
// through.
type UpdateStats struct {
	// Edits is the number of primitives applied.
	Edits int
	// HierarchiesShared / HierarchiesCopied count structural sharing at
	// hierarchy granularity; NodesCopied is the total node structs
	// copied (the real copy-on-write cost).
	HierarchiesShared int
	HierarchiesCopied int
	NodesCopied       int
	// HierarchiesAdded / HierarchiesRemoved count layer-level changes.
	HierarchiesAdded   int
	HierarchiesRemoved int
	// IndexesPatched counts name indexes maintained incrementally from
	// the previous version; IndexesLazy counts hierarchies whose index
	// was not built yet (or was newly added) and stays on the lazy
	// from-scratch path.
	IndexesPatched int
	IndexesLazy    int
	// BoundsRecomputed reports whether the boundary array needed the
	// full recomputation pass (boundary-retiring edits) instead of the
	// incremental merge.
	BoundsRecomputed bool
}

// splice is one resolved text replacement.
type splice struct {
	s, e int
	t    string
}

// hierOf verifies n is an element or text node of one of d's
// hierarchies and returns that hierarchy.
func (d *Document) hierOf(n *dom.Node, kinds ...dom.Kind) (*Hierarchy, error) {
	if n == nil {
		return nil, fmt.Errorf("core: nil update target")
	}
	if n == d.Root {
		return nil, fmt.Errorf("core: cannot edit the shared root")
	}
	ok := false
	for _, k := range kinds {
		if n.Kind == k {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("core: update target is a %s node", n.Kind)
	}
	if i := n.HierIndex; i >= 0 && i < len(d.Hiers) {
		h := d.Hiers[i]
		if n.Ord < len(h.Nodes) && h.Nodes[n.Ord] == n {
			return h, nil
		}
	}
	return nil, fmt.Errorf("core: update target is not a node of this document version")
}

// validElemName reports whether s is a well-formed XML element name.
func validElemName(s string) bool {
	if s == "" {
		return false
	}
	r, sz := utf8.DecodeRuneInString(s)
	if !xmlparse.IsNameStart(r) {
		return false
	}
	for i := sz; i < len(s); {
		r, sz = utf8.DecodeRuneInString(s[i:])
		if sz == 0 || !xmlparse.IsNameChar(r) {
			return false
		}
		i += sz
	}
	return true
}

// checkVocab enforces the CMH disjoint-vocabulary condition for an
// element name entering hierarchy hierIdx (-1: a brand-new hierarchy):
// the name must not be the shared root name and must not occur as an
// element of any other hierarchy.
func (d *Document) checkVocab(name string, hierIdx int) error {
	if !validElemName(name) {
		return fmt.Errorf("core: invalid element name %q", name)
	}
	if name == d.Root.Name {
		return fmt.Errorf("core: element name %q is the shared root name", name)
	}
	sym := d.names[name]
	if sym == 0 {
		return nil
	}
	for _, h := range d.Hiers {
		if h.Index == hierIdx {
			continue
		}
		if len(h.NameRun(sym)) > 0 {
			return fmt.Errorf("core: element name %q already belongs to hierarchy %q", name, h.Name)
		}
	}
	return nil
}

// lineage is the identity token of one private working version chain.
// It is not zero-sized, so every token has a distinct address.
type lineage struct{ _ byte }

// Private returns a private working version of d: it shares all of d's
// storage but carries a fresh lineage token. Apply on a private version
// returns a private version of the same lineage, and may edit in place
// the storage an earlier Apply of the lineage copied; d itself is never
// written. A private version is consumed by Apply: once it has been
// passed to a successful Apply, only the result may be read. Publish
// ends the lineage before the version is shared. Private materializes a
// frozen or lazily built d.
func (d *Document) Private() *Document {
	d.ensureLeaves()
	p := &Document{
		Text:      d.Text,
		Root:      d.Root,
		Hiers:     d.Hiers,
		Bounds:    d.Bounds,
		Leaves:    d.Leaves,
		Base:      d.Base,
		Rev:       d.Rev,
		byName:    d.byName,
		leafPar:   d.leafPar,
		empties:   d.empties,
		names:     d.names,
		ordBase:   d.ordBase,
		leafBase:  d.leafBase,
		rootKids:  d.rootChildList(),
		flat:      d.flat,
		addBounds: d.addBounds,
		addNames:  d.addNames,
		lineage:   new(lineage),
		leafOwner: d.leafOwner,
	}
	p.leavesReady.Store(true)
	return p
}

// Publish ends d's private lineage and returns d, now an ordinary
// immutable version: Apply on it copies as usual. No other document
// carries the lineage's token, so the storage it owned is no longer
// writable by anyone. On a published document Publish is a no-op.
func (d *Document) Publish() *Document {
	d.lineage = nil
	return d
}

// Apply produces a new document version with the batch of edits
// applied, leaving the receiver untouched (a private receiver may be
// consumed instead; see Private). All Target nodes are resolved against
// the receiver (snapshot semantics: a batch is a pending-update list
// evaluated against one version, then applied atomically). An empty
// batch returns the receiver itself.
func (d *Document) Apply(edits []Edit) (*Document, *UpdateStats, error) {
	if len(edits) == 0 {
		return d, &UpdateStats{}, nil
	}
	// The copy-on-write machinery walks node storage and the leaf
	// layer throughout; a frozen document materializes here once.
	d.ensureLeaves()
	for _, h := range d.Hiers {
		if h.Temp {
			return nil, nil, fmt.Errorf("core: cannot update a document with temporary hierarchies")
		}
	}
	st := &UpdateStats{Edits: len(edits)}

	// ---- validation & bucketing ------------------------------------------
	perHier := make(map[int][]Edit)
	var splices []splice
	var addHiers []Edit
	removed := make(map[string]bool)
	addedNames := make(map[string]bool)
	// pendingNames tracks which hierarchy each fresh element name is
	// entering during THIS batch: checkVocab only sees the pre-update
	// document, so without it one batch could introduce the same new
	// name into two hierarchies, breaking the CMH disjoint-vocabulary
	// invariant.
	pendingNames := make(map[string]int)
	claimName := func(name string, hierIdx int) error {
		if prev, ok := pendingNames[name]; ok && prev != hierIdx {
			return fmt.Errorf("core: element name %q enters two hierarchies in one batch", name)
		}
		pendingNames[name] = hierIdx
		return nil
	}
	fullBounds := false
	// layoutKept: the batch keeps every node's ordinal and every markup
	// boundary (renames and same-length text replacements only), so a
	// private version may apply it in place. Validation completes before
	// the first write, so such a batch cannot fail part-way.
	layoutKept := true

	for _, e := range edits {
		switch e.Kind {
		case EditRename, EditWrap, EditInsertBefore, EditInsertAfter, EditDelete:
			h, err := d.hierOf(e.Target, dom.Element)
			if err != nil {
				return nil, nil, err
			}
			if e.Kind != EditRename {
				layoutKept = false
			}
			switch e.Kind {
			case EditRename, EditWrap, EditInsertBefore, EditInsertAfter:
				if err := d.checkVocab(e.Name, h.Index); err != nil {
					return nil, nil, err
				}
				if err := claimName(e.Name, h.Index); err != nil {
					return nil, nil, err
				}
			case EditDelete:
				// Deleting an element can retire boundaries: an empty
				// element's point boundary vanishes, and splicing its
				// children can merge two text siblings, retiring the
				// junction. Fall back to the full bounds pass.
				fullBounds = true
			}
			perHier[h.Index] = append(perHier[h.Index], e)
		case EditReplaceText:
			if _, err := d.hierOf(e.Target, dom.Element, dom.Text); err != nil {
				return nil, nil, err
			}
			if !utf8.ValidString(e.Text) {
				return nil, nil, fmt.Errorf("core: replacement text is not valid UTF-8")
			}
			s, en := e.Target.Start, e.Target.End
			if len(e.Text) != en-s {
				layoutKept = false
				if s >= en {
					return nil, nil, fmt.Errorf("core: cannot grow the empty span of <%s> (ownership of the inserted text would be ambiguous)", e.Target.Name)
				}
				// No markup boundary strictly inside the replaced range.
				if i := sort.SearchInts(d.Bounds, s+1); i < len(d.Bounds) && d.Bounds[i] < en {
					return nil, nil, fmt.Errorf("core: length-changing replacement over [%d,%d) crosses the markup boundary at %d", s, en, d.Bounds[i])
				}
			}
			splices = append(splices, splice{s: s, e: en, t: e.Text})
		case EditAddHierarchy:
			if e.Name == "" || !ValidHierarchyName(e.Name) {
				return nil, nil, fmt.Errorf("core: invalid hierarchy name %q", e.Name)
			}
			if addedNames[e.Name] {
				return nil, nil, fmt.Errorf("core: hierarchy %q added twice in one batch", e.Name)
			}
			addedNames[e.Name] = true
			addHiers = append(addHiers, e)
			layoutKept = false
		case EditRemoveHierarchy:
			h := d.byName[e.Name]
			if h == nil {
				return nil, nil, fmt.Errorf("core: unknown hierarchy %q", e.Name)
			}
			if removed[e.Name] {
				return nil, nil, fmt.Errorf("core: hierarchy %q removed twice in one batch", e.Name)
			}
			removed[e.Name] = true
			fullBounds = true
			layoutKept = false
		default:
			return nil, nil, fmt.Errorf("core: unknown edit kind %d", e.Kind)
		}
	}
	if len(removed) > 0 {
		if len(d.Hiers)-len(removed) < 1 {
			return nil, nil, fmt.Errorf("core: cannot remove the last hierarchy")
		}
		for idx := range perHier {
			if removed[d.Hiers[idx].Name] {
				return nil, nil, fmt.Errorf("core: conflicting edits: hierarchy %q is both edited and removed", d.Hiers[idx].Name)
			}
		}
	}
	for name := range addedNames {
		if d.byName[name] != nil && !removed[name] {
			return nil, nil, fmt.Errorf("core: hierarchy %q already registered", name)
		}
	}

	// ---- new base text and offset remap ----------------------------------
	sort.Slice(splices, func(i, j int) bool { return splices[i].s < splices[j].s })
	for i := 1; i < len(splices); i++ {
		if splices[i].s < splices[i-1].e {
			return nil, nil, fmt.Errorf("core: overlapping text replacements at [%d,%d) and [%d,%d)",
				splices[i-1].s, splices[i-1].e, splices[i].s, splices[i].e)
		}
	}
	newText := d.Text
	var remap func(int) int // nil: identity
	totalDelta := 0
	if len(splices) > 0 {
		var b strings.Builder
		pos := 0
		cums := make([]int, len(splices))
		cum := 0
		anyDelta := false
		for i, sp := range splices {
			b.WriteString(d.Text[pos:sp.s])
			b.WriteString(sp.t)
			pos = sp.e
			if delta := len(sp.t) - (sp.e - sp.s); delta != 0 {
				cum += delta
				anyDelta = true
			}
			cums[i] = cum
		}
		b.WriteString(d.Text[pos:])
		newText = b.String()
		totalDelta = cum
		// The remap is needed whenever ANY splice changes length — even
		// when the deltas cancel and the total text length is unchanged,
		// offsets between the splices still shift.
		if anyDelta {
			sps, cs := splices, cums
			remap = func(p int) int {
				// Offsets at or after a splice's end shift by the
				// cumulative delta; offsets at or before its start do
				// not. Interior offsets cannot occur (validated above
				// for node boundaries; checked by remapChecked for new
				// hierarchy spans).
				i := sort.Search(len(sps), func(i int) bool { return sps[i].e > p })
				if i == 0 {
					return p
				}
				return p + cs[i-1]
			}
		}
	}
	copyAll := len(splices) > 0 // text-node Data must be re-sliced

	// ---- shared root (copied only when the text length changes) ----------
	newRoot := d.Root
	if totalDelta != 0 {
		r := &dom.Node{}
		*r = *d.Root
		r.End = len(newText)
		if len(d.Root.Attrs) > 0 {
			slab := make([]dom.Node, len(d.Root.Attrs))
			attrs := make([]*dom.Node, len(d.Root.Attrs))
			for i, a := range d.Root.Attrs {
				slab[i] = *a
				slab[i].Parent = r
				attrs[i] = &slab[i]
			}
			r.Attrs = attrs
		}
		newRoot = r
	}

	d2 := &Document{
		Text:    newText,
		Root:    newRoot,
		Rev:     d.Rev + 1,
		byName:  make(map[string]*Hierarchy, len(d.Hiers)+len(addHiers)),
		names:   make(map[string]int32, len(d.names)+4),
		lineage: d.lineage,
	}
	for k, v := range d.names {
		d2.names[k] = v
	}

	// ---- copy-on-write hierarchy pass -------------------------------------
	var newBoundPts []int
	copied := make(map[int][]*dom.Node) // old hier index → positional node copies
	newIdx := 0
	for _, h := range d.Hiers {
		if removed[h.Name] {
			st.HierarchiesRemoved++
			continue
		}
		hEdits := perHier[h.Index]
		if len(hEdits) == 0 && !copyAll && newIdx == h.Index {
			d2.Hiers = append(d2.Hiers, h)
			st.HierarchiesShared++
			newIdx++
			continue
		}
		// A layout-keeping batch removes no hierarchy, so newIdx ==
		// h.Index whenever inPlace holds.
		inPlace := layoutKept && d.lineage != nil && h.owner == d.lineage
		h2, nodes, pts, err := d2.applyToHierarchy(d, h, newIdx, hEdits, remap, copyAll, inPlace, st)
		if err != nil {
			return nil, nil, err
		}
		if !inPlace {
			copied[h.Index] = nodes
		}
		newBoundPts = append(newBoundPts, pts...)
		d2.Hiers = append(d2.Hiers, h2)
		newIdx++
	}

	// ---- new hierarchies ---------------------------------------------------
	for _, e := range addHiers {
		tops, err := normalizeSpanTops(newText, e.Tops, remapChecked(splices, remap))
		if err != nil {
			return nil, nil, fmt.Errorf("core: hierarchy %q: %w", e.Name, err)
		}
		h := &Hierarchy{Name: e.Name, Index: len(d2.Hiers), Top: tops}
		for _, t := range tops {
			t.Parent = d2.Root
		}
		d2.indexHierarchy(h, h.Index)
		for _, n := range h.Nodes {
			if n.Kind == dom.Element {
				if err := d2.checkVocabAdded(n.Name, h.Index); err != nil {
					return nil, nil, err
				}
			}
			newBoundPts = append(newBoundPts, n.Start, n.End)
		}
		d2.Hiers = append(d2.Hiers, h)
		st.HierarchiesAdded++
		st.IndexesLazy++
		indexLazyReset.Add(1)
	}

	for _, h := range d2.Hiers {
		d2.byName[h.Name] = h
	}

	// ---- bounds and leaf layer --------------------------------------------
	switch {
	case fullBounds:
		// Boundary-retiring edits: full recomputation.
		d2.computeBounds()
		st.BoundsRecomputed = true
		d2.buildLeaves()
	case remap == nil && len(newBoundPts) == 0:
		// No boundary moved, appeared or vanished (renames, same-length
		// replacements): share the boundary array and patch the leaf
		// layer positionally from the previous version.
		d2.Bounds = d.Bounds
		d2.patchLeaves(d, copied, copyAll)
	default:
		d2.Bounds = mergeBounds(d.Bounds, remap, newBoundPts, len(newText))
		d2.buildLeaves()
	}
	return d2, st, nil
}

// patchLeaves rebuilds the leaf layer positionally from the previous
// version when the boundary array is unchanged. With unchanged text
// the leaf structs themselves are SHARED with the previous version —
// every remaining leaf field is version-independent — and only the
// per-version text→leaf edge table is patched: entries pointing into
// copied hierarchies swap to the new node structs (ordinals unchanged
// on this path). With changed text (same-length replacements) the leaf
// structs are copied in one slab so Data can be re-sliced, unless d2's
// private lineage owns them already: then they are re-sliced in place.
// When no hierarchy was copied, every edge still points at the right
// node struct and the table is shared too.
func (d2 *Document) patchLeaves(d *Document, copied map[int][]*dom.Node, reslice bool) {
	d2.Leaves, d2.leafOwner = d.Leaves, d.leafOwner
	if reslice {
		if d2.lineage == nil || d.leafOwner != d2.lineage {
			n := len(d.Leaves)
			slab := make([]dom.Node, n)
			d2.Leaves = make([]*dom.Node, n)
			for i, l := range d.Leaves {
				slab[i] = *l
				d2.Leaves[i] = &slab[i]
			}
			d2.leafOwner = d2.lineage
		}
		for _, l := range d2.Leaves {
			l.Data = d2.Text[l.Start:l.End]
		}
	}
	d2.leafPar, d2.empties = d.leafPar, d.empties
	if len(copied) > 0 {
		edges := 0
		for _, ps := range d.leafPar {
			edges += len(ps)
		}
		backing := make([]*dom.Node, edges)
		d2.leafPar = make([][]*dom.Node, len(d.leafPar))
		pos := 0
		for i, ps := range d.leafPar {
			np := backing[pos : pos+len(ps)]
			pos += len(ps)
			for j, p := range ps {
				if m := copied[p.HierIndex]; m != nil {
					np[j] = m[p.Ord]
				} else {
					np[j] = p
				}
			}
			d2.leafPar[i] = np
		}
	}
	if len(d.empties) > 0 && len(copied) > 0 {
		d2.empties = make([]*dom.Node, len(d.empties))
		for i, e := range d.empties {
			if m := copied[e.HierIndex]; m != nil {
				d2.empties[i] = m[e.Ord]
			} else {
				d2.empties[i] = e
			}
		}
	}
	d2.finishLayout()
	d2.rootKids = d2.RootChildren()
	d2.leavesReady.Store(true)
}

// checkVocabAdded is checkVocab against the partially assembled new
// document (used for hierarchies added by the batch, whose names were
// interned during indexing and so bypass the sym==0 shortcut).
func (d *Document) checkVocabAdded(name string, hierIdx int) error {
	if name == d.Root.Name {
		return fmt.Errorf("core: element name %q is the shared root name", name)
	}
	sym := d.names[name]
	for _, h := range d.Hiers {
		if h.Index == hierIdx {
			continue
		}
		if len(h.NameRun(sym)) > 0 {
			return fmt.Errorf("core: element name %q already belongs to hierarchy %q", name, h.Name)
		}
	}
	return nil
}

// remapChecked wraps remap with interior-position detection for spans
// that are not existing node boundaries (new hierarchy trees).
func remapChecked(sps []splice, remap func(int) int) func(int) (int, error) {
	return func(p int) (int, error) {
		for _, sp := range sps {
			if p > sp.s && p < sp.e && len(sp.t) != sp.e-sp.s {
				return 0, fmt.Errorf("span offset %d lies inside the replaced range [%d,%d)", p, sp.s, sp.e)
			}
		}
		if remap == nil {
			return p, nil
		}
		return remap(p), nil
	}
}

// mergeBounds patches the previous version's boundary array: remap the
// old offsets (monotone), merge in the offsets contributed by new
// nodes, and deduplicate.
func mergeBounds(old []int, remap func(int) int, pts []int, textLen int) []int {
	mapped := old
	if remap != nil {
		mapped = make([]int, len(old))
		for i, b := range old {
			mapped[i] = remap(b)
		}
	}
	sort.Ints(pts)
	out := make([]int, 0, len(mapped)+len(pts))
	i, j := 0, 0
	for i < len(mapped) || j < len(pts) {
		var v int
		switch {
		case j == len(pts) || (i < len(mapped) && mapped[i] <= pts[j]):
			v = mapped[i]
			i++
		default:
			v = pts[j]
			j++
		}
		if n := len(out); n > 0 && out[n-1] == v {
			continue
		}
		if v < 0 || v > textLen {
			continue
		}
		out = append(out, v)
	}
	return out
}

// applyToHierarchy produces the next version of h for d2 at
// registration index newIdx with hEdits applied, maintaining the name
// index incrementally. It runs in two steps: a copy step
// (copyHierarchy) and an edit step on the copy. inPlace skips the copy
// step and edits h's own storage: the caller guarantees that h is owned
// by d2's private lineage and that the batch keeps every ordinal and
// boundary. It returns the new hierarchy, the positional old-ordinal →
// new-node mapping, and any boundary offsets contributed by inserted
// nodes.
func (d2 *Document) applyToHierarchy(d *Document, h *Hierarchy, newIdx int, hEdits []Edit, remap func(int) int, reslice, inPlace bool, st *UpdateStats) (*Hierarchy, []*dom.Node, []int, error) {
	var h2 *Hierarchy
	var nodes []*dom.Node
	var emptied []int
	if inPlace {
		nodes = h.Nodes
		h2 = &Hierarchy{Name: h.Name, Index: newIdx, Top: h.Top, Nodes: nodes, byEnd: h.byEnd}
	} else {
		h2, nodes, emptied = d2.copyHierarchy(d, h, newIdx, remap)
		st.HierarchiesCopied++
		st.NodesCopied += len(nodes)
	}
	h2.owner = d2.lineage

	// ---- re-slice text, drop text nodes a splice emptied -----------------
	// A text node whose replacement left it with an empty span would
	// vanish on serialize→reparse; detach it now so the new version is
	// round-trip faithful.
	if reslice {
		for _, nn := range nodes {
			if nn.Kind == dom.Text {
				nn.Data = d2.Text[nn.Start:nn.End]
			}
		}
	}
	structural := len(emptied) > 0
	for _, i := range emptied {
		if err := spliceOut(d2, h2, nodes[i]); err != nil {
			return nil, nil, nil, err
		}
	}

	// ---- apply the edits ----------------------------------------------------
	// renamed maps the old ordinal of each renamed node to its name
	// symbol before the batch, recorded before the first write.
	renamed := make(map[int]int32)
	var inserted []*dom.Node
	var boundPts []int
	for _, e := range hEdits {
		t := nodes[e.Target.Ord]
		switch e.Kind {
		case EditRename:
			if t.Name == e.Name {
				continue
			}
			if _, seen := renamed[e.Target.Ord]; !seen {
				renamed[e.Target.Ord] = t.NameSym
			}
			t.Name = e.Name
			t.NameSym = d2.intern(e.Name)
		case EditDelete:
			structural = true
			if err := spliceOut(d2, h2, t); err != nil {
				return nil, nil, nil, err
			}
		case EditWrap:
			structural = true
			kids := t.Children
			from, to := e.From, e.To
			if to < 0 {
				to = len(kids)
			}
			if from < 0 || from > to || to > len(kids) {
				return nil, nil, nil, fmt.Errorf("core: wrap range [%d,%d) outside the %d children of <%s>", e.From, e.To, len(kids), t.Name)
			}
			// A target deleted earlier in the batch has handed its children
			// to its parent; wrapping them would orphan them.
			if _, _, _, err := locateInParent(d2, h2, t); err != nil {
				return nil, nil, nil, err
			}
			w := &dom.Node{Kind: dom.Element, Name: e.Name, NameSym: d2.intern(e.Name), Hier: h2.Name, HierIndex: newIdx, Parent: t}
			if from < to {
				w.Start, w.End = kids[from].Start, kids[to-1].End
				wrapped := append([]*dom.Node(nil), kids[from:to]...)
				for _, c := range wrapped {
					c.Parent = w
				}
				w.Children = wrapped
			} else {
				pos := t.Start
				switch {
				case from < len(kids):
					pos = kids[from].Start
				case len(kids) > 0:
					pos = kids[len(kids)-1].End
				}
				w.Start, w.End = pos, pos
			}
			nk := make([]*dom.Node, 0, len(kids)-(to-from)+1)
			nk = append(nk, kids[:from]...)
			nk = append(nk, w)
			nk = append(nk, kids[to:]...)
			t.Children = nk
			inserted = append(inserted, w)
			boundPts = append(boundPts, w.Start, w.End)
		case EditInsertBefore, EditInsertAfter:
			structural = true
			w, err := insertSibling(d2, h2, t, e)
			if err != nil {
				return nil, nil, nil, err
			}
			inserted = append(inserted, w)
			boundPts = append(boundPts, w.Start, w.End)
		}
	}

	// ---- renumber (or keep ordinals for rename-only batches) --------------
	oldRuns := h.idx.snapshot()
	var remapOrd []int32 // old ordinal → new, -1 deleted; nil = identity
	switch {
	case structural:
		for _, nn := range nodes {
			nn.Ord = -1
		}
		h2.Nodes = nil
		d2.indexHierarchy(h2, newIdx)
		remapOrd = make([]int32, len(nodes))
		identity := true
		for i, nn := range nodes {
			remapOrd[i] = int32(nn.Ord)
			if nn.Ord != i {
				identity = false
			}
		}
		if identity {
			remapOrd = nil
		}
	case !inPlace:
		h2.Nodes = nodes
		h2.byEnd = make([]*dom.Node, len(h.byEnd))
		for i, m := range h.byEnd {
			h2.byEnd[i] = nodes[m.Ord]
		}
	}

	// ---- incremental name-index maintenance -------------------------------
	if oldRuns == nil {
		st.IndexesLazy++
		indexLazyReset.Add(1)
	} else {
		// Removals and additions are derived from the FINAL state of
		// each renamed node (so a node renamed twice — or renamed back
		// to its original name — contributes exactly one removal/add
		// pair, or none).
		removals := make(map[int32]map[int32]bool)
		adds := make(map[int32][]int32)
		for oldOrd, origSym := range renamed {
			node := nodes[oldOrd]
			if node.NameSym == origSym {
				continue // renamed back: net no-op
			}
			set := removals[origSym]
			if set == nil {
				set = make(map[int32]bool)
				removals[origSym] = set
			}
			set[int32(oldOrd)] = true
			no := int32(oldOrd)
			if remapOrd != nil {
				no = remapOrd[oldOrd]
			} else if structural {
				no = int32(node.Ord)
			}
			if no >= 0 {
				adds[node.NameSym] = append(adds[node.NameSym], no)
			}
		}
		for _, w := range inserted {
			if w.Ord >= 0 {
				adds[w.NameSym] = append(adds[w.NameSym], int32(w.Ord))
			}
		}
		h2.idx.install(patchRuns(oldRuns, remapOrd, removals, adds))
		st.IndexesPatched++
		indexPatched.Add(1)
	}
	return h2, nodes, boundPts, nil
}

// copyHierarchy is the copy step of applyToHierarchy: h's nodes copied
// into one slab (plus one child slab and one attribute slab), re-linked
// among themselves, re-registered at newIdx and parented at d2's root,
// with spans remapped. It returns the copy, the positional
// old-ordinal → new-node mapping, and the ordinals of text nodes the
// remap left empty.
func (d2 *Document) copyHierarchy(d *Document, h *Hierarchy, newIdx int, remap func(int) int) (*Hierarchy, []*dom.Node, []int) {
	n := len(h.Nodes)
	slab := make([]dom.Node, n)
	nodes := make([]*dom.Node, n)
	nAttr, nKids := 0, 0
	for i, old := range h.Nodes {
		slab[i] = *old
		nodes[i] = &slab[i]
		nAttr += len(old.Attrs)
		nKids += len(old.Children)
	}
	attrSlab := make([]dom.Node, nAttr)
	attrPtrs := make([]*dom.Node, nAttr)
	kidSlab := make([]*dom.Node, nKids)
	ai, ki := 0, 0
	var emptied []int
	for i, old := range h.Nodes {
		nn := nodes[i]
		nn.HierIndex = newIdx
		if remap != nil {
			nn.Start = remap(nn.Start)
			nn.End = remap(nn.End)
			if nn.Kind == dom.Text && nn.Start == nn.End && old.Start < old.End {
				emptied = append(emptied, i)
			}
		}
		if old.Parent == nil || old.Parent == d.Root {
			nn.Parent = d2.Root
		} else {
			nn.Parent = nodes[old.Parent.Ord]
		}
		if len(old.Children) > 0 {
			kids := kidSlab[ki : ki+len(old.Children)]
			ki += len(old.Children)
			for j, c := range old.Children {
				kids[j] = nodes[c.Ord]
			}
			nn.Children = kids
		}
		if len(old.Attrs) > 0 {
			as := attrPtrs[ai : ai+len(old.Attrs)]
			for j, a := range old.Attrs {
				attrSlab[ai+j] = *a
				na := &attrSlab[ai+j]
				na.Parent = nn
				na.HierIndex = newIdx
				as[j] = na
			}
			ai += len(old.Attrs)
			nn.Attrs = as
		}
	}
	top := make([]*dom.Node, len(h.Top))
	for i, t := range h.Top {
		top[i] = nodes[t.Ord]
	}
	return &Hierarchy{Name: h.Name, Index: newIdx, Top: top}, nodes, emptied
}

// spliceOut removes t from its parent's child list (or the hierarchy's
// top list), splicing t's children into its place.
// locateInParent resolves t's sibling list (its parent's children, or
// the hierarchy's top list for top-level nodes) and t's index in it.
// A node no longer present was detached by an earlier edit of the same
// batch — a conflict.
func locateInParent(d2 *Document, h2 *Hierarchy, t *dom.Node) (list *[]*dom.Node, parent *dom.Node, idx int, err error) {
	parent = t.Parent
	list = &h2.Top
	if parent != d2.Root && parent != nil {
		list = &parent.Children
	} else {
		parent = d2.Root
	}
	for i, c := range *list {
		if c == t {
			return list, parent, i, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("core: conflicting edits: <%s> already detached from its parent", t.Name)
}

func spliceOut(d2 *Document, h2 *Hierarchy, t *dom.Node) error {
	list, parent, idx, err := locateInParent(d2, h2, t)
	if err != nil {
		return err
	}
	nk := make([]*dom.Node, 0, len(*list)-1+len(t.Children))
	nk = append(nk, (*list)[:idx]...)
	for _, c := range t.Children {
		c.Parent = parent
		nk = append(nk, c)
	}
	nk = append(nk, (*list)[idx+1:]...)
	*list = nk
	// Splicing (or dropping an emptied text node) can leave two text
	// siblings adjacent; merge them the way serialization would, so the
	// new version round-trips through reparse unchanged.
	mergeAdjacentText(d2, list)
	return nil
}

// mergeAdjacentText merges runs of adjacent text siblings in place,
// extending the first node of each run over its successors.
func mergeAdjacentText(d2 *Document, list *[]*dom.Node) {
	kids := *list
	w := 0
	for i := 0; i < len(kids); i++ {
		if w > 0 && kids[i].Kind == dom.Text && kids[w-1].Kind == dom.Text && kids[w-1].End == kids[i].Start {
			kids[w-1].End = kids[i].End
			kids[w-1].Data = d2.Text[kids[w-1].Start:kids[w-1].End]
			continue
		}
		kids[w] = kids[i]
		w++
	}
	*list = kids[:w]
}

// insertSibling inserts a new empty element next to t.
func insertSibling(d2 *Document, h2 *Hierarchy, t *dom.Node, e Edit) (*dom.Node, error) {
	list, parent, idx, err := locateInParent(d2, h2, t)
	if err != nil {
		return nil, err
	}
	pos, at := t.Start, idx
	if e.Kind == EditInsertAfter {
		pos, at = t.End, idx+1
	}
	w := &dom.Node{Kind: dom.Element, Name: e.Name, NameSym: d2.intern(e.Name), Hier: h2.Name, HierIndex: h2.Index, Parent: parent, Start: pos, End: pos}
	nk := make([]*dom.Node, 0, len(*list)+1)
	nk = append(nk, (*list)[:at]...)
	nk = append(nk, w)
	nk = append(nk, (*list)[at:]...)
	*list = nk
	return w, nil
}

// patchRuns produces the new version's run map from the old one:
// surviving ordinals pass through the (monotone) ordinal remap,
// renamed-away ordinals are removed, and renamed-to/inserted ordinals
// are merged into their runs. With an identity remap, untouched runs
// share the old slices.
func patchRuns(old map[int32][]int32, remapOrd []int32, removals map[int32]map[int32]bool, adds map[int32][]int32) map[int32][]int32 {
	out := make(map[int32][]int32, len(old)+len(adds))
	for sym, run := range old {
		rem := removals[sym]
		if remapOrd == nil && len(rem) == 0 {
			out[sym] = run // shared with the previous version
			continue
		}
		nr := make([]int32, 0, len(run))
		for _, o := range run {
			if rem != nil && rem[o] {
				continue
			}
			no := o
			if remapOrd != nil {
				no = remapOrd[o]
			}
			if no >= 0 {
				nr = append(nr, no)
			}
		}
		if len(nr) > 0 {
			out[sym] = nr
		}
	}
	for sym, ords := range adds {
		sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
		out[sym] = mergeOrds(out[sym], ords)
	}
	return out
}

// mergeOrds merges two ascending ordinal runs into a fresh slice.
func mergeOrds(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] <= b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// hierNameRE-equivalent check without regexp: letters/digits/._- with a
// sane first byte, matching the collection layer's naming rules closely
// enough that persisted hierarchies serialize and reload cleanly.
func ValidHierarchyName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		case c == '_' && i == 0:
		default:
			return false
		}
	}
	return true
}

// normalizeSpanTops assembles the top-level node list of a new
// hierarchy from element span trees: tops are ordered by span,
// validated non-overlapping, and every gap — before, between and after
// them, and inside every element — is filled with text nodes, so the
// hierarchy covers the base text exactly (the CMH alignment condition)
// and serialize→reparse round-trips.
func normalizeSpanTops(text string, tops []*dom.Node, remap func(int) (int, error)) ([]*dom.Node, error) {
	if len(tops) == 0 {
		return nil, fmt.Errorf("no content nodes")
	}
	sorted := append([]*dom.Node(nil), tops...)
	for _, t := range sorted {
		if t == nil || t.Kind != dom.Element {
			return nil, fmt.Errorf("top-level nodes must be elements")
		}
		if err := normalizeSpanElem(text, t, remap); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var out []*dom.Node
	pos := 0
	for _, t := range sorted {
		if t.Start < pos {
			return nil, fmt.Errorf("overlapping top-level spans at offset %d", t.Start)
		}
		if pos < t.Start {
			out = append(out, spanText(text, pos, t.Start))
		}
		out = append(out, t)
		pos = t.End
	}
	if pos < len(text) {
		out = append(out, spanText(text, pos, len(text)))
	}
	return out, nil
}

// normalizeSpanElem validates and completes one element of a new
// hierarchy tree: spans are remapped into the new text coordinates,
// children must nest properly, and uncovered stretches of the
// element's span become text nodes.
func normalizeSpanElem(text string, n *dom.Node, remap func(int) (int, error)) error {
	var err error
	if n.Start, err = remap(n.Start); err != nil {
		return err
	}
	if n.End, err = remap(n.End); err != nil {
		return err
	}
	if n.Start < 0 || n.End > len(text) || n.Start > n.End {
		return fmt.Errorf("element <%s> span [%d,%d) outside the base text", n.Name, n.Start, n.End)
	}
	if !validElemName(n.Name) {
		return fmt.Errorf("invalid element name %q", n.Name)
	}
	kids := n.Children
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var out []*dom.Node
	pos := n.Start
	for _, c := range kids {
		switch c.Kind {
		case dom.Element:
			if err := normalizeSpanElem(text, c, remap); err != nil {
				return err
			}
		case dom.Text:
			if c.Start, err = remap(c.Start); err != nil {
				return err
			}
			if c.End, err = remap(c.End); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cannot place a %s node in a hierarchy", c.Kind)
		}
		if c.Start < pos || c.End > n.End {
			return fmt.Errorf("child of <%s> at [%d,%d) escapes or overlaps within [%d,%d)", n.Name, c.Start, c.End, n.Start, n.End)
		}
		if pos < c.Start {
			out = append(out, spanText(text, pos, c.Start))
		}
		if c.Kind == dom.Text {
			c.Data = text[c.Start:c.End]
		}
		c.Parent = n
		out = append(out, c)
		pos = c.End
	}
	if pos < n.End {
		out = append(out, spanText(text, pos, n.End))
	}
	for _, c := range out {
		c.Parent = n
	}
	n.Children = out
	return nil
}

func spanText(text string, a, b int) *dom.Node {
	return &dom.Node{Kind: dom.Text, Data: text[a:b], Start: a, End: b}
}
