package core

// This file wires the path synopsis (internal/synopsis) into the
// hierarchy lifecycle, mirroring the structural name index exactly:
// built lazily under a sync.Once on first use, installed eagerly when a
// slab image persisted it, patched incrementally across copy-on-write
// update versions, and rebuilt from scratch as the differential oracle
// the property tests compare against. An installed tree is shared
// between document versions and must never be mutated; the update
// engine patches a private Clone.

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mhxquery/internal/dom"
	"mhxquery/internal/synopsis"
)

// synIndex is the lazily built synopsis slot of a Hierarchy — the same
// once/built discipline as nameIndex, for the same reason: overlay
// documents share Hierarchy values with their base, so unsynchronized
// lazy initialization would race.
type synIndex struct {
	once sync.Once
	tree *synopsis.Tree
	// built flips to true (inside the Once) when tree is installed, so
	// the update engine and the planner can peek at a possibly unbuilt
	// synopsis without forcing a build.
	built atomic.Bool
}

func (sx *synIndex) build(h *Hierarchy) {
	start := time.Now()
	sx.tree = synopsis.Build(h.Top)
	synopsisBuilds.Add(1)
	synopsisBuildNanos.Add(int64(time.Since(start)))
	sx.built.Store(true)
}

// snapshot returns the tree if the synopsis has been built, else nil.
func (sx *synIndex) snapshot() *synopsis.Tree {
	if sx.built.Load() {
		return sx.tree
	}
	return nil
}

// install seeds the slot with an already-computed tree (a persisted
// slab section, or the incrementally patched synopsis of a new
// version). A no-op if the synopsis was somehow built first.
func (sx *synIndex) install(t *synopsis.Tree) {
	sx.once.Do(func() {
		sx.tree = t
		sx.built.Store(true)
	})
}

// Synopsis returns the hierarchy's path synopsis, building it from the
// node storage on first use. An installed synopsis (persisted image or
// patched update) is returned without materializing a frozen
// hierarchy's nodes. The returned tree is shared and must not be
// mutated.
func (h *Hierarchy) Synopsis() *synopsis.Tree {
	if t := h.syn.snapshot(); t != nil {
		return t
	}
	h.ensure()
	h.syn.once.Do(func() { h.syn.build(h) })
	return h.syn.tree
}

// SynopsisSnapshot returns the synopsis only if it is already built or
// installed, else nil — never materializing node storage. This is the
// planner's view: estimation is best-effort and must not force a frozen
// document to materialize at plan time.
func (h *Hierarchy) SynopsisSnapshot() *synopsis.Tree { return h.syn.snapshot() }

// RebuildSynopsis recomputes the synopsis from scratch, ignoring any
// built (or incrementally maintained) state — the oracle the
// differential property tests compare Synopsis against.
func (h *Hierarchy) RebuildSynopsis() *synopsis.Tree {
	h.ensure()
	return synopsis.Build(h.Top)
}

// synPatch carries h's synopsis across one applyToHierarchy. Given the
// old-version parent ordinals whose child lists the batch changes, the
// new version's synopsis is the old one with each region's old
// contribution subtracted and its new contribution added. The two
// halves run on either side of the edits (subtractSynopsis before,
// finish after), because an in-place batch overwrites the old state the
// subtraction reads.
type synPatch struct {
	old *synopsis.Tree
	// tree is the private clone being patched; nil with lazy unset means
	// the structure is untouched and old is shared.
	tree *synopsis.Tree
	// lazy drops the synopsis for a from-scratch rebuild: it was never
	// built, or the subtraction found it inconsistent.
	lazy bool
	// ords are the topmost dirty regions (old ordinals); root means the
	// tree-level region instead. path is scratch for their label paths.
	ords []int
	root bool
	path []int32
}

// subtractSynopsis starts the synopsis patch of h by subtracting every
// dirty region's old contribution. It reads only h's current state, so
// it must run before any edit writes. An unbuilt synopsis has nothing
// to maintain (stays lazy). Root-level child changes (edits targeting
// top-level nodes) patch the tree-level region — the whole top list —
// which subsumes every nested region.
func subtractSynopsis(h *Hierarchy, dirty map[int]bool, rootDirty bool) synPatch {
	p := synPatch{old: h.syn.snapshot(), root: rootDirty}
	switch {
	case p.old == nil:
		p.lazy = true
		return p
	case rootDirty:
		p.tree = p.old.Clone()
		p.lazy = !p.tree.SubRegion(nil, h.Top)
		return p
	case len(dirty) == 0:
		// Structure untouched (spans/text content only): the synopsis is
		// identical and shared with the previous version.
		return p
	}
	// Reduce the dirty parents to topmost disjoint regions of the OLD
	// tree. Preorder subtree intervals are nested or disjoint, so one
	// ascending pass suffices. A topmost dirty node is provably neither
	// renamed, deleted nor moved by the batch, and neither are its
	// ancestors (any of those would have marked a region enclosing it),
	// so its rooted label path is the same in both versions and its
	// positional counterpart nodes[ord] is its new self. No region's
	// subtraction can prune another region's path: the region parents
	// themselves and their ancestors stay counted.
	ords := make([]int, 0, len(dirty))
	for o := range dirty {
		ords = append(ords, o)
	}
	sort.Ints(ords)
	p.tree = p.old.Clone()
	p.ords = ords[:0]
	last := -1
	for _, o := range ords {
		if o <= last {
			continue // nested inside the previous region
		}
		n := h.Nodes[o]
		last = n.Last
		p.path = labelPath(p.path, n)
		if !p.tree.SubRegion(p.path, n.Children) {
			p.lazy = true
			return p
		}
		p.ords = append(p.ords, o)
	}
	return p
}

// finish adds the regions' new contributions, read from the edited
// hierarchy h2 and its positional node mapping, and installs the result.
func (p *synPatch) finish(h2 *Hierarchy, nodes []*dom.Node, st *UpdateStats) {
	switch {
	case p.lazy:
	case p.tree == nil:
		h2.syn.install(p.old)
	case p.root:
		p.lazy = !p.tree.AddRegion(nil, h2.Top)
	default:
		for _, o := range p.ords {
			p.path = labelPath(p.path, nodes[o])
			if !p.tree.AddRegion(p.path, nodes[o].Children) {
				p.lazy = true
				break
			}
		}
	}
	if p.lazy {
		st.SynopsesLazy++
		synopsisLazyReset.Add(1)
		return
	}
	if p.tree != nil {
		h2.syn.install(p.tree)
	}
	st.SynopsesPatched++
	synopsisPatched.Add(1)
}

// labelPath returns n's rooted label path — name symbols top-down, from
// a hierarchy top to n inclusive — reusing buf's storage.
func labelPath(buf []int32, n *dom.Node) []int32 {
	buf = buf[:0]
	for a := n; a != nil && a.HierIndex != dom.RootHier; a = a.Parent {
		buf = append(buf, a.NameSym)
	}
	slices.Reverse(buf)
	return buf
}
