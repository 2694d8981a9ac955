package mhxquery

// FreshVersion returns a new published version of d that shares all of
// d's storage but none of its per-version state, such as the filter
// memo: the benchmarks' way to measure a query's first run on a
// version.
func FreshVersion(d *Document) *Document {
	return &Document{g: d.g.Private().Publish()}
}
