package core

// FullPartitionForTest returns a fresh document over d's text and
// hierarchies whose boundary array and leaf layer partition derives from
// scratch — no Base chain, nothing lazy. d itself is not touched, so an
// overlay's incremental, lazily built partition can be compared against
// it (TestQuickOverlayPartitionIncremental, TestQuickLazyOverlayLeaves).
func (d *Document) FullPartitionForTest() *Document {
	f := &Document{Text: d.Text, Root: d.Root, Hiers: d.Hiers, byName: d.byName}
	f.partition()
	return f
}
