package core

import "mhxquery/internal/dom"

// FullPartitionForTest returns a fresh document over d's text and
// hierarchies whose boundary array and leaf layer partition derives from
// scratch — no Base chain, nothing lazy. d itself is not touched, so an
// overlay's incremental, lazily built partition can be compared against
// it (TestQuickOverlayPartitionIncremental, TestQuickLazyOverlayLeaves,
// TestQuickOverlayDeltaMatchesEager).
func (d *Document) FullPartitionForTest() *Document {
	f := &Document{Text: d.Text, Root: d.Root, Hiers: d.Hiers, byName: make(map[string]*Hierarchy, len(d.Hiers))}
	for _, h := range d.Hiers {
		f.byName[h.Name] = h
	}
	f.partition()
	return f
}

// LayoutForTest is the partition state of a document whose leaf layer
// is built: the fields partition computes, read directly.
type LayoutForTest struct {
	Bounds   []int
	Leaves   []*dom.Node
	LeafPar  [][]*dom.Node
	Empties  []*dom.Node
	OrdBase  []int
	LeafBase int
	RootKids []*dom.Node
}

// LayoutForTest builds d's leaf layer and returns its partition state.
func (d *Document) LayoutForTest() LayoutForTest {
	d.ensureLeaves()
	return LayoutForTest{
		Bounds:   d.Bounds,
		Leaves:   d.Leaves,
		LeafPar:  d.leafPar,
		Empties:  d.empties,
		OrdBase:  d.ordBase,
		LeafBase: d.leafBase,
		RootKids: d.rootChildList(),
	}
}

// LeafLowForTest and LeafCountEndingByForTest expose the boundary
// searches of the indexed axes.
func (d *Document) LeafLowForTest(p int) int           { return d.leafLow(p) }
func (d *Document) LeafCountEndingByForTest(p int) int { return d.leafCountEndingBy(p) }
