package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// probeContexts returns every node of d plus the attributes of its
// elements: the context kinds an existence probe meets.
func probeContexts(d *core.Document) []*dom.Node {
	out := allNodesOf(d)
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			out = append(out, n.Attrs...)
		}
	}
	return out
}

// TestQuickFindAxisMatchesAppend checks the existence walk against the
// materialized axis: for every axis, every context of random documents
// and of an analyze-string-style overlay over them, and both candidate
// sets, FindAxis visits exactly AppendAxis's result in its order, a
// match that accepts the k-th node stops there, and a name hint skips
// none of the elements bearing the name.
func TestQuickFindAxisMatchesAppend(t *testing.T) {
	f := func(seed int64) bool {
		base, err := buildRandom(seed)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		docs := []*core.Document{base}
		if len(base.Text) >= 2 {
			od, err := base.AddHierarchy("overlay", randomOverlayTop(r, base.Text), true)
			if err != nil {
				t.Logf("seed %d: overlay: %v", seed, err)
				return false
			}
			docs = append(docs, od)
		}
		var buf []*dom.Node
		for _, d := range docs {
			// Name hints skip hierarchies by their built name indexes:
			// build them, for every element name of the document.
			var names []int32
			for _, n := range allNodesOf(d) {
				if n.Kind == dom.Element {
					names = append(names, n.NameSym)
				}
			}
			for _, h := range d.Hiers {
				for _, sym := range names {
					h.NameRun(sym)
				}
			}
			for _, n := range probeContexts(d) {
				for _, ax := range allAxes {
					for _, c := range []core.Candidates{core.AllCandidates, core.NoLeaves} {
						want := d.AppendAxis(nil, ax, n, c)
						var got []*dom.Node
						var found bool
						found, buf = d.FindAxis(buf, ax, n, c, 0, func(m *dom.Node) bool {
							got = append(got, m)
							return false
						})
						if found || !slices.Equal(got, want) {
							t.Logf("seed %d: %s(%s %q): FindAxis visited %d nodes (found=%v), AppendAxis has %d",
								seed, ax, n.Kind, n.TextContent(), len(got), found, len(want))
							return false
						}
						// A name hint visits the named elements all the same.
						sym := names[r.Intn(len(names))]
						named := func(m *dom.Node) bool { return m.Kind == dom.Element && m.NameSym == sym }
						var wantNamed, gotNamed []*dom.Node
						for _, m := range want {
							if named(m) {
								wantNamed = append(wantNamed, m)
							}
						}
						_, buf = d.FindAxis(buf, ax, n, c, sym, func(m *dom.Node) bool {
							if named(m) {
								gotNamed = append(gotNamed, m)
							}
							return false
						})
						if !slices.Equal(gotNamed, wantNamed) {
							t.Logf("seed %d: %s(%s %q) named %d: FindAxis saw %d, AppendAxis has %d",
								seed, ax, n.Kind, n.TextContent(), sym, len(gotNamed), len(wantNamed))
							return false
						}
						if len(want) == 0 {
							continue
						}
						k := r.Intn(len(want))
						visits := 0
						found, buf = d.FindAxis(buf, ax, n, c, 0, func(m *dom.Node) bool {
							visits++
							return m == want[k]
						})
						if !found || visits != k+1 {
							t.Logf("seed %d: %s(%s): stop at %d: found=%v after %d visits", seed, ax, n.Kind, k, found, visits)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeafAncestorsMatchChainUnion checks the leaf ancestor axis
// against its definition: the union of the parent chains of the leaf's
// covering text nodes, in reverse document order.
func TestQuickLeafAncestorsMatchChainUnion(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		for _, l := range d.Leaves {
			var union []*dom.Node
			for _, p := range d.LeafParents(l) {
				for q := p; q != nil; q = q.Parent {
					union = append(union, q)
				}
			}
			want := core.SortDoc(union)
			slices.Reverse(want)
			if got := d.Eval(core.AxisAncestor, l); !slices.Equal(got, want) {
				t.Logf("seed %d: ancestor(leaf %q): %d nodes, want %d", seed, l.Data, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExistenceWalksAllocateNothing guards the per-node structural tests
// of the paper's queries: materializing a leaf's ancestors into a
// preallocated buffer, and probing a leaf's ancestors or an element's
// overlap axes, allocate nothing.
func TestExistenceWalksAllocateNothing(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 5, Words: 60})
	d, err := c.Document()
	if err != nil {
		t.Fatal(err)
	}
	d.Materialize()
	leaf := d.Leaves[len(d.Leaves)/2]
	var word *dom.Node
	for _, h := range d.Hiers {
		if run := h.NameRun(d.NameSymOf("w")); len(run) > 0 {
			word = h.Nodes[run[len(run)/2]]
		}
	}
	if word == nil {
		t.Fatal("corpus has no w element")
	}
	dmg := d.NameSymOf("dmg")
	never := func(*dom.Node) bool { return false }
	isDmg := func(m *dom.Node) bool { return m.NameSym == dmg }
	buf := make([]*dom.Node, 0, 64)
	cases := []struct {
		name string
		run  func()
	}{
		{"leaf ancestors into a buffer", func() { buf = d.AppendAxis(buf[:0], core.AxisAncestor, leaf, core.AllCandidates) }},
		{"leaf ancestor probe", func() { _, buf = d.FindAxis(buf, core.AxisAncestor, leaf, core.NoLeaves, 0, never) }},
		{"leaf ancestor-or-self probe", func() { _, buf = d.FindAxis(buf, core.AxisAncestorOrSelf, leaf, core.NoLeaves, dmg, isDmg) }},
		{"element overlapping probe", func() { _, buf = d.FindAxis(buf, core.AxisOverlapping, word, core.NoLeaves, 0, never) }},
		{"element preceding-overlapping probe", func() { _, buf = d.FindAxis(buf, core.AxisPrecedingOverlapping, word, core.NoLeaves, dmg, isDmg) }},
		{"element xancestor probe", func() { _, buf = d.FindAxis(buf, core.AxisXAncestor, word, core.NoLeaves, 0, never) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.run); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, got)
		}
	}
	if len(d.Eval(core.AxisAncestor, leaf)) == 0 {
		t.Fatalf("leaf %q has no ancestors", leaf.Data)
	}
}
