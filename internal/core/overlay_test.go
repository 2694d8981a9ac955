package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// An analyze-string overlay stores only what it adds to its base: the
// new hierarchy and the boundary offsets its stack adds to the nearest
// non-overlay document (partitionFrom). These tests hold that delta
// layout to the eager partition of the same hierarchies, and hold its
// cost to the analyzed span.

// stackedOverlayTop builds the top element of an analyze-string style
// hierarchy over a sub-span of d's text whose offsets are drawn half the
// time from the boundaries the stack already has, so matches coincide
// with existing boundaries as often as they split leaves. The <m> is
// empty now and then, exercising the empty-span list.
func stackedOverlayTop(r *rand.Rand, d *core.Document) *dom.Node {
	text := d.Text
	// The stack's boundary offsets, read off its hierarchies so that no
	// overlay's leaf layer is forced here.
	bounds := []int{0, len(text)}
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			bounds = append(bounds, n.Start, n.End)
		}
	}
	pick := func(lo, hi int) int {
		if r.Intn(2) == 0 {
			var in []int
			for _, b := range bounds {
				if lo <= b && b <= hi {
					in = append(in, b)
				}
			}
			if len(in) > 0 {
				return in[r.Intn(len(in))]
			}
		}
		return lo + r.Intn(hi-lo+1)
	}
	s := pick(0, len(text)-1)
	e := pick(s+1, len(text))
	a := pick(s, e)
	if r.Intn(4) == 0 {
		a = s
	}
	bnd := pick(a, e)
	if r.Intn(5) == 0 {
		bnd = a // empty match
	}
	top := dom.NewElement("res")
	top.Start, top.End = s, e
	addText := func(parent *dom.Node, from, to int) {
		if from < to {
			t := dom.NewText(text[from:to])
			t.Start, t.End = from, to
			parent.AppendChild(t)
		}
	}
	addText(top, s, a)
	m := dom.NewElement("m")
	m.Start, m.End = a, bnd
	addText(m, a, bnd)
	top.AppendChild(m)
	addText(top, bnd, e)
	return top
}

// sameNodes reports whether two node lists hold the same nodes (by
// identity) in the same order.
func sameNodes(a, b []*dom.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickOverlayDeltaMatchesEager stacks 3–6 overlays, some of them
// with empty-span and boundary-coincident matches, and checks the top
// one twice against the eager partition of the same hierarchies
// (FullPartitionForTest). Before any leaf exists, every boundary read —
// leaf counts, LeafRange of every node, the indexed axes' searches at
// every offset, the ordinal space and the root's children — must agree.
// Once its leaves are forced, the boundary array, the leaf layer, the
// text→leaf table, the empty-span list, the ordinal layout and the
// root's child list must be field-for-field equal.
func TestQuickOverlayDeltaMatchesEager(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil || len(d.Text) < 2 {
			return err == nil
		}
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		top := d
		for k := 0; k < 3+r.Intn(4); k++ {
			od, err := top.AddHierarchy(fmt.Sprintf("rest%d", k+1), stackedOverlayTop(r, top), true)
			if err != nil {
				t.Logf("seed %d: overlay %d: %v", seed, k+1, err)
				return false
			}
			top = od
		}
		eager := top.FullPartitionForTest()
		// Boundary reads on the unbuilt overlay.
		if top.OrdinalSpace() != eager.OrdinalSpace() {
			t.Logf("seed %d: ordinal space %d, eager %d", seed, top.OrdinalSpace(), eager.OrdinalSpace())
			return false
		}
		if !sameNodes(top.RootChildren(), eager.RootChildren()) {
			t.Logf("seed %d: root children differ", seed)
			return false
		}
		for p := -1; p <= len(d.Text)+1; p++ {
			if top.LeafLowForTest(p) != eager.LeafLowForTest(p) ||
				top.LeafCountEndingByForTest(p) != eager.LeafCountEndingByForTest(p) {
				t.Logf("seed %d: boundary search at %d differs", seed, p)
				return false
			}
		}
		for _, h := range top.Hiers {
			for _, n := range h.Nodes {
				lo, hi := top.LeafRange(n)
				elo, ehi := eager.LeafRange(n)
				if lo != elo || hi != ehi {
					t.Logf("seed %d: LeafRange(%s:%d) = [%d,%d), eager [%d,%d)", seed, n.Hier, n.Ord, lo, hi, elo, ehi)
					return false
				}
			}
		}
		if top.Bounds != nil {
			t.Logf("seed %d: the overlay flattened its boundary array before a leaf was read", seed)
			return false
		}
		// The forced leaf layer, field for field.
		got, want := top.LayoutForTest(), eager.LayoutForTest()
		if fmt.Sprint(got.Bounds) != fmt.Sprint(want.Bounds) || got.LeafBase != want.LeafBase ||
			fmt.Sprint(got.OrdBase) != fmt.Sprint(want.OrdBase) {
			t.Logf("seed %d: bounds/ordinal layout differ:\n %v %v %d\n %v %v %d", seed,
				got.Bounds, got.OrdBase, got.LeafBase, want.Bounds, want.OrdBase, want.LeafBase)
			return false
		}
		if !sameNodes(got.Empties, want.Empties) || !sameNodes(got.RootKids, want.RootKids) {
			t.Logf("seed %d: empty-span list or root children differ", seed)
			return false
		}
		if len(got.Leaves) != len(want.Leaves) || len(got.LeafPar) != len(want.LeafPar) {
			t.Logf("seed %d: %d leaves, eager %d", seed, len(got.Leaves), len(want.Leaves))
			return false
		}
		for i, l := range got.Leaves {
			w := want.Leaves[i]
			if l.Start != w.Start || l.End != w.End || l.Data != w.Data || l.Ord != w.Ord ||
				l.Last != w.Last || l.Kind != w.Kind || l.HierIndex != w.HierIndex {
				t.Logf("seed %d: leaf %d differs: %+v vs %+v", seed, i, *l, *w)
				return false
			}
			if !sameNodes(got.LeafPar[i], want.LeafPar[i]) {
				t.Logf("seed %d: parents of leaf %d differ", seed, i)
				return false
			}
			if o, ok := top.OrdinalOf(l); !ok || o != got.LeafBase+i {
				t.Logf("seed %d: leaf %d has ordinal %d/%v", seed, i, o, ok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// bytesPerCall returns the heap bytes one call of f allocates, averaged
// over n calls.
func bytesPerCall(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// overlayCost is the bytes one AddHierarchy on base allocates for an
// analyze-string style overlay over the span of a word near the start
// of base.
func overlayCost(t *testing.T, base *core.Document) float64 {
	t.Helper()
	h := base.HierarchyByName("structure")
	var word *dom.Node
	for _, n := range h.Nodes {
		if n.Kind == dom.Element && n.Name == "w" {
			if word = n; n.Ord > 10 {
				break
			}
		}
	}
	const n = 200
	tops := make([]*dom.Node, n)
	for i := range tops {
		top := dom.NewElement("res")
		top.Start, top.End = word.Start, word.End
		mid := word.Start + (word.End-word.Start)/2
		m := dom.NewElement("m")
		m.Start, m.End = word.Start, mid
		mt := dom.NewText(base.Text[word.Start:mid])
		mt.Start, mt.End = word.Start, mid
		m.AppendChild(mt)
		rt := dom.NewText(base.Text[mid:word.End])
		rt.Start, rt.End = mid, word.End
		top.AppendChild(m)
		top.AppendChild(rt)
		tops[i] = top
	}
	return bytesPerCall(n, func(i int) {
		if _, err := base.AddHierarchy("probe", tops[i], true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOverlayAllocationFlat pins the cost promise of the delta overlay:
// an analyze-string overlay costs its span, not the document. One
// AddHierarchy on a 100× manuscript may allocate at most twice what it
// allocates on a 1× one, and the eighth overlay of a stack at most twice
// what the first does.
func TestOverlayAllocationFlat(t *testing.T) {
	docs := make([]*core.Document, 2)
	for i, words := range []int{6, 600} {
		d, err := corpus.Generate(corpus.Params{Seed: 6, Words: words, DamageRate: 0.12, RestoreRate: 0.2}).Document()
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	small, large := overlayCost(t, docs[0]), overlayCost(t, docs[1])
	t.Logf("AddHierarchy: %.0f B on 1×, %.0f B on 100×", small, large)
	if large > 2*small {
		t.Errorf("AddHierarchy allocates %.0f B on a 100× document, %.0f B on a 1× one: more than 2×", large, small)
	}

	stack := docs[1]
	first := overlayCost(t, stack)
	for k := 1; k < 8; k++ {
		h := stack.HierarchyByName("structure")
		w := h.Nodes[len(h.Nodes)/2+k]
		top := dom.NewElement("res")
		top.Start, top.End = w.Start, w.End
		od, err := stack.AddHierarchy(fmt.Sprintf("rest%d", k), top, true)
		if err != nil {
			t.Fatal(err)
		}
		stack = od
	}
	kth := overlayCost(t, stack)
	t.Logf("AddHierarchy: %.0f B for the first overlay, %.0f B for the 8th", first, kth)
	if kth > 2*first {
		t.Errorf("the 8th stacked overlay allocates %.0f B, the first %.0f B: more than 2×", kth, first)
	}
}
