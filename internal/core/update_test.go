package core_test

// Tests for the copy-on-write update engine: unit coverage of every
// edit kind, and the core half of the differential mutation sweep —
// seeded random edit sequences whose incrementally maintained name
// indexes must agree byte-for-byte with a from-scratch rebuild, and
// whose document state must agree field-for-field with the
// serialize→reparse→Build reference.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// buildUpdateDoc is a fixed three-hierarchy document for unit tests:
// A tiles the text with <seg>, B wraps two spans in <mark>, C one span
// in <note>.
func buildUpdateDoc(t *testing.T) *core.Document {
	t.Helper()
	text := "abcdefghijkl"
	_ = text
	ra, err := parseXML(`<r><seg>abcd</seg><seg>efgh</seg><seg>ijkl</seg></r>`)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := parseXML(`<r>ab<mark>cdef</mark>gh<mark>ij</mark>kl</r>`)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := parseXML(`<r>abcde<note>fghi</note>jkl</r>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Build([]core.NamedTree{
		{Name: "A", Root: ra}, {Name: "B", Root: rb}, {Name: "C", Root: rc},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pickElem(d *core.Document, hier, name string, i int) *dom.Node {
	h := d.HierarchyByName(hier)
	for _, n := range h.Nodes {
		if n.Kind == dom.Element && n.Name == name {
			if i == 0 {
				return n
			}
			i--
		}
	}
	return nil
}

// reparsed rebuilds the document from its own hierarchy serializations
// — the from-scratch reference every updated version must match.
func reparsed(t *testing.T, d *core.Document) *core.Document {
	t.Helper()
	var trees []core.NamedTree
	for _, name := range d.HierarchyNames() {
		xml, err := d.Serialize(name)
		if err != nil {
			t.Fatalf("serialize %s: %v", name, err)
		}
		root, err := parseXML(xml)
		if err != nil {
			t.Fatalf("reparse %s: %v\n%s", name, err, xml)
		}
		trees = append(trees, core.NamedTree{Name: name, Root: root})
	}
	ref, err := core.Build(trees)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return ref
}

// checkAgainstReference compares an updated document against its
// serialize→reparse→Build reference: bounds, leaf layout, per-node
// structure in preorder, and the (incrementally maintained) name
// indexes against a from-scratch rebuild.
func checkAgainstReference(t *testing.T, d *core.Document) {
	t.Helper()
	ref := reparsed(t, d)
	if d.Text != ref.Text {
		t.Fatalf("text diverged:\n got %q\nwant %q", d.Text, ref.Text)
	}
	if !reflect.DeepEqual(d.Bounds, ref.Bounds) {
		t.Fatalf("bounds diverged:\n got %v\nwant %v", d.Bounds, ref.Bounds)
	}
	if len(d.Leaves) != len(ref.Leaves) {
		t.Fatalf("leaf count %d, want %d", len(d.Leaves), len(ref.Leaves))
	}
	for i := range d.Leaves {
		g, w := d.Leaves[i], ref.Leaves[i]
		gp, wp := d.LeafParents(g), ref.LeafParents(w)
		if g.Data != w.Data || g.Start != w.Start || g.End != w.End || len(gp) != len(wp) {
			t.Fatalf("leaf %d: got %q [%d,%d) %d parents, want %q [%d,%d) %d parents",
				i, g.Data, g.Start, g.End, len(gp), w.Data, w.Start, w.End, len(wp))
		}
	}
	if len(d.Hiers) != len(ref.Hiers) {
		t.Fatalf("hierarchy count %d, want %d", len(d.Hiers), len(ref.Hiers))
	}
	for hi, h := range d.Hiers {
		rh := ref.Hiers[hi]
		if h.Name != rh.Name || len(h.Nodes) != len(rh.Nodes) {
			t.Fatalf("hierarchy %d: %q/%d nodes, want %q/%d", hi, h.Name, len(h.Nodes), rh.Name, len(rh.Nodes))
		}
		for i, n := range h.Nodes {
			m := rh.Nodes[i]
			if n.Kind != m.Kind || n.Name != m.Name || n.Start != m.Start || n.End != m.End ||
				n.Ord != m.Ord || n.Last != m.Last {
				t.Fatalf("hierarchy %q node %d: got %s %q [%d,%d) ord %d..%d, want %s %q [%d,%d) ord %d..%d",
					h.Name, i, n.Kind, n.Name, n.Start, n.End, n.Ord, n.Last,
					m.Kind, m.Name, m.Start, m.End, m.Ord, m.Last)
			}
			if n.Kind == dom.Text && n.Data != m.Data {
				t.Fatalf("hierarchy %q text %d: %q, want %q", h.Name, i, n.Data, m.Data)
			}
		}
		// Incremental index vs from-scratch rebuild, byte for byte.
		if got, want := h.IndexRuns(), h.RebuildIndexRuns(); !reflect.DeepEqual(got, want) {
			t.Fatalf("hierarchy %q: incremental index diverged from rebuild:\n got %v\nwant %v", h.Name, got, want)
		}
	}
}

func TestApplyRename(t *testing.T) {
	d := buildUpdateDoc(t)
	// Warm the index so the incremental patch path runs.
	for _, h := range d.Hiers {
		h.IndexRuns()
	}
	target := pickElem(d, "B", "mark", 1)
	nd, st, err := d.Apply([]core.Edit{{Kind: core.EditRename, Target: target, Name: "hilite"}})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Rev != 1 {
		t.Fatalf("Rev = %d, want 1", nd.Rev)
	}
	if st.HierarchiesCopied != 1 || st.HierarchiesShared != 2 || st.IndexesPatched != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The signature names the hierarchy layout only: a rename keeps it,
	// so every version shares its plans.
	if nd.Signature() != d.Signature() {
		t.Fatalf("signature changed across a rename: %q -> %q", d.Signature(), nd.Signature())
	}
	// Adding or removing a hierarchy changes it.
	added, _, err := nd.Apply([]core.Edit{{Kind: core.EditAddHierarchy, Name: "hits",
		Tops: []*dom.Node{{Kind: dom.Element, Name: "hit", Start: 1, End: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if added.Signature() == nd.Signature() {
		t.Fatal("signature did not change when a hierarchy was added")
	}
	removed, _, err := nd.Apply([]core.Edit{{Kind: core.EditRemoveHierarchy, Name: "C"}})
	if err != nil {
		t.Fatal(err)
	}
	if removed.Signature() == nd.Signature() {
		t.Fatal("signature did not change when a hierarchy was removed")
	}
	// Old version untouched.
	if target.Name != "mark" {
		t.Fatalf("old version mutated: %q", target.Name)
	}
	if pickElem(nd, "B", "hilite", 0) == nil {
		t.Fatal("renamed element not found in new version")
	}
	checkAgainstReference(t, nd)
}

func TestApplyDeleteAndWrap(t *testing.T) {
	d := buildUpdateDoc(t)
	for _, h := range d.Hiers {
		h.IndexRuns()
	}
	del := pickElem(d, "B", "mark", 0)
	wrapIn := pickElem(d, "A", "seg", 1)
	nd, st, err := d.Apply([]core.Edit{
		{Kind: core.EditDelete, Target: del},
		{Kind: core.EditWrap, Target: wrapIn, Name: "inner", From: 0, To: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.HierarchiesCopied != 2 || st.HierarchiesShared != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if pickElem(nd, "B", "mark", 1) != nil {
		t.Fatal("second mark should be the only one left")
	}
	if w := pickElem(nd, "A", "inner", 0); w == nil || w.Start != 4 || w.End != 8 {
		t.Fatalf("wrap node = %+v", w)
	}
	checkAgainstReference(t, nd)
}

func TestApplyInsertSiblings(t *testing.T) {
	d := buildUpdateDoc(t)
	seg := pickElem(d, "A", "seg", 1)
	nd, _, err := d.Apply([]core.Edit{
		{Kind: core.EditInsertBefore, Target: seg, Name: "cb"},
		{Kind: core.EditInsertAfter, Target: seg, Name: "ca"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cb, ca := pickElem(nd, "A", "cb", 0), pickElem(nd, "A", "ca", 0)
	if cb == nil || cb.Start != 4 || cb.End != 4 || ca == nil || ca.Start != 8 || ca.End != 8 {
		t.Fatalf("point inserts: cb=%+v ca=%+v", cb, ca)
	}
	checkAgainstReference(t, nd)
}

func TestApplyReplaceText(t *testing.T) {
	d := buildUpdateDoc(t)
	for _, h := range d.Hiers {
		h.IndexRuns()
	}
	// Same-length replacement over a span crossing boundaries: allowed.
	note := pickElem(d, "C", "note", 0) // [5,9)
	nd, _, err := d.Apply([]core.Edit{{Kind: core.EditReplaceText, Target: note, Text: "WXYZ"}})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Text != "abcdeWXYZjkl" {
		t.Fatalf("text = %q", nd.Text)
	}
	if d.Text != "abcdefghijkl" {
		t.Fatalf("old version text mutated: %q", d.Text)
	}
	checkAgainstReference(t, nd)

	// Length-changing replacement over a boundary-free range: B's
	// trailing text node "kl" spans [10,12) with no interior boundary.
	var kl *dom.Node
	for _, n := range d.HierarchyByName("B").Nodes {
		if n.Kind == dom.Text && n.Data == "kl" {
			kl = n
		}
	}
	nd2, _, err := d.Apply([]core.Edit{{Kind: core.EditReplaceText, Target: kl, Text: "12345"}})
	if err != nil {
		t.Fatal(err)
	}
	if nd2.Text != "abcdefghij12345" {
		t.Fatalf("text = %q", nd2.Text)
	}
	checkAgainstReference(t, nd2)

	// Replacement to the empty string: the text node vanishes, exactly
	// as it would on reparse.
	nd3, _, err := d.Apply([]core.Edit{{Kind: core.EditReplaceText, Target: kl, Text: ""}})
	if err != nil {
		t.Fatal(err)
	}
	if nd3.Text != "abcdefghij" {
		t.Fatalf("text = %q", nd3.Text)
	}
	checkAgainstReference(t, nd3)

	// Length-changing replacement across a boundary: rejected. The
	// note [5,9) has interior boundaries at 6 and 8.
	if _, _, err := d.Apply([]core.Edit{{Kind: core.EditReplaceText, Target: note, Text: "toolong"}}); err == nil {
		t.Fatal("length-changing replacement across a boundary must fail")
	}
}

func TestApplyAddRemoveHierarchy(t *testing.T) {
	d := buildUpdateDoc(t)
	for _, h := range d.Hiers {
		h.IndexRuns()
	}
	// Add a hierarchy from two span elements; gaps become text.
	m1 := &dom.Node{Kind: dom.Element, Name: "hit", Start: 1, End: 3}
	m2 := &dom.Node{Kind: dom.Element, Name: "hit", Start: 7, End: 11}
	nd, st, err := d.Apply([]core.Edit{{Kind: core.EditAddHierarchy, Name: "hits", Tops: []*dom.Node{m1, m2}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.HierarchiesAdded != 1 || st.HierarchiesShared != 3 {
		t.Fatalf("stats = %+v", st)
	}
	h := nd.HierarchyByName("hits")
	if h == nil {
		t.Fatal("hits hierarchy missing")
	}
	xml, err := nd.Serialize("hits")
	if err != nil {
		t.Fatal(err)
	}
	if want := `<r>a<hit>bc</hit>defg<hit>hijk</hit>l</r>`; xml != want {
		t.Fatalf("serialized hits = %s, want %s", xml, want)
	}
	checkAgainstReference(t, nd)

	// Remove it again: back to three hierarchies, later indexes intact.
	nd2, st2, err := nd.Apply([]core.Edit{{Kind: core.EditRemoveHierarchy, Name: "hits"}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.HierarchiesRemoved != 1 || !st2.BoundsRecomputed {
		t.Fatalf("stats = %+v", st2)
	}
	if nd2.HierarchyByName("hits") != nil {
		t.Fatal("hits not removed")
	}
	checkAgainstReference(t, nd2)

	// Removing a middle hierarchy shifts the later ones correctly.
	nd3, _, err := d.Apply([]core.Edit{{Kind: core.EditRemoveHierarchy, Name: "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := nd3.HierarchyNames(); !reflect.DeepEqual(got, []string{"A", "C"}) {
		t.Fatalf("names = %v", got)
	}
	checkAgainstReference(t, nd3)
}

func TestApplyValidation(t *testing.T) {
	d := buildUpdateDoc(t)
	seg := pickElem(d, "A", "seg", 0)
	cases := []struct {
		name string
		edit core.Edit
	}{
		{"rename to other vocab", core.Edit{Kind: core.EditRename, Target: seg, Name: "mark"}},
		{"rename to root name", core.Edit{Kind: core.EditRename, Target: seg, Name: "r"}},
		{"rename to invalid name", core.Edit{Kind: core.EditRename, Target: seg, Name: "1bad"}},
		{"edit the root", core.Edit{Kind: core.EditRename, Target: d.Root, Name: "x"}},
		{"foreign node", core.Edit{Kind: core.EditDelete, Target: dom.NewElement("w")}},
		{"bad wrap range", core.Edit{Kind: core.EditWrap, Target: seg, Name: "x", From: 0, To: 99}},
		{"remove unknown hierarchy", core.Edit{Kind: core.EditRemoveHierarchy, Name: "nope"}},
		{"add duplicate hierarchy", core.Edit{Kind: core.EditAddHierarchy, Name: "A", Tops: []*dom.Node{dom.NewElement("q")}}},
	}
	for _, c := range cases {
		if _, _, err := d.Apply([]core.Edit{c.edit}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Empty batch: same document back, no version bump.
	nd, _, err := d.Apply(nil)
	if err != nil || nd != d {
		t.Fatalf("empty batch: %v, same=%v", err, nd == d)
	}
}

// TestApplyDifferentialSweep is the core half of the differential
// mutation sweep: seeded random edit sequences over random documents;
// after each successful batch the updated version must agree with its
// serialize→reparse reference and its incrementally patched indexes
// with a from-scratch rebuild.
func TestApplyDifferentialSweep(t *testing.T) {
	const sequences = 120
	applied, failed := 0, 0
	for seq := 0; seq < sequences; seq++ {
		r := rand.New(rand.NewSource(int64(9000 + seq)))
		d, err := buildRandom(int64(500 + seq%17))
		if err != nil {
			t.Fatal(err)
		}
		// Warm indexes so the incremental patch path is exercised.
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		nEdits := 1 + r.Intn(4)
		var edits []core.Edit
		for k := 0; k < nEdits; k++ {
			h := d.Hiers[r.Intn(len(d.Hiers))]
			var elems []*dom.Node
			for _, n := range h.Nodes {
				if n.Kind == dom.Element {
					elems = append(elems, n)
				}
			}
			if len(elems) == 0 {
				continue
			}
			target := elems[r.Intn(len(elems))]
			switch r.Intn(6) {
			case 0:
				edits = append(edits, core.Edit{Kind: core.EditRename, Target: target, Name: fmt.Sprintf("n%d_%d", seq, k)})
			case 1:
				edits = append(edits, core.Edit{Kind: core.EditDelete, Target: target})
			case 2:
				from := r.Intn(len(target.Children) + 1)
				to := from + r.Intn(len(target.Children)-from+1)
				edits = append(edits, core.Edit{Kind: core.EditWrap, Target: target, Name: fmt.Sprintf("w%d_%d", seq, k), From: from, To: to})
			case 3:
				kind := core.EditInsertBefore
				if r.Intn(2) == 0 {
					kind = core.EditInsertAfter
				}
				edits = append(edits, core.Edit{Kind: kind, Target: target, Name: fmt.Sprintf("p%d_%d", seq, k)})
			case 4:
				if target.Start < target.End {
					repl := make([]byte, target.End-target.Start)
					for i := range repl {
						repl[i] = byte('p' + r.Intn(4))
					}
					edits = append(edits, core.Edit{Kind: core.EditReplaceText, Target: target, Text: string(repl)})
				}
			case 5:
				// Occasionally a whole-layer change.
				if r.Intn(2) == 0 && len(d.Text) > 2 {
					a := r.Intn(len(d.Text) - 1)
					b := a + 1 + r.Intn(len(d.Text)-a-1)
					edits = append(edits, core.Edit{Kind: core.EditAddHierarchy, Name: fmt.Sprintf("layer%d_%d", seq, k),
						Tops: []*dom.Node{{Kind: dom.Element, Name: fmt.Sprintf("hx%d_%d", seq, k), Start: a, End: b}}})
				} else {
					edits = append(edits, core.Edit{Kind: core.EditRemoveHierarchy, Name: h.Name})
				}
			}
		}
		if len(edits) == 0 {
			continue
		}
		nd, _, err := d.Apply(edits)
		if err != nil {
			// Conflicting random batches (double delete, edits in a
			// removed hierarchy, …) legitimately fail — atomically.
			failed++
			continue
		}
		applied++
		checkAgainstReference(t, nd)
		// Snapshot isolation: the original still matches its own
		// reference after the new version was derived.
		checkAgainstReference(t, d)
	}
	if applied < sequences/2 {
		t.Fatalf("only %d/%d random batches applied (%d failed); generator too conflict-happy", applied, sequences, failed)
	}
}

// TestApplyCancelingDeltas covers the remap-needed-despite-zero-total
// case: two length-changing replacements whose deltas cancel still
// shift every offset between them.
func TestApplyCancelingDeltas(t *testing.T) {
	ra, err := parseXML(`<r><seg>ab</seg><seg> mid </seg><seg>cde</seg></r>`)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := parseXML(`<r><mark>ab</mark> mid <mark>cde</mark></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Build([]core.NamedTree{{Name: "A", Root: ra}, {Name: "B", Root: rb}})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range d.Hiers {
		h.IndexRuns()
	}
	m0, m1 := pickElem(d, "B", "mark", 0), pickElem(d, "B", "mark", 1)
	nd, _, err := d.Apply([]core.Edit{
		{Kind: core.EditReplaceText, Target: m0, Text: "ABCD"}, // +2
		{Kind: core.EditReplaceText, Target: m1, Text: "X"},    // -2
	})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Text != "ABCD mid X" {
		t.Fatalf("text = %q", nd.Text)
	}
	if w := pickElem(nd, "B", "mark", 1); w == nil || nd.Text[w.Start:w.End] != "X" {
		t.Fatalf("second mark span = %+v", w)
	}
	checkAgainstReference(t, nd)
}

// TestApplyBatchVocabularyClaim covers the batch-internal CMH check: a
// fresh name may enter only one hierarchy per batch.
func TestApplyBatchVocabularyClaim(t *testing.T) {
	d := buildUpdateDoc(t)
	seg := pickElem(d, "A", "seg", 0)
	mark := pickElem(d, "B", "mark", 0)
	if _, _, err := d.Apply([]core.Edit{
		{Kind: core.EditInsertBefore, Target: seg, Name: "foo"},
		{Kind: core.EditInsertBefore, Target: mark, Name: "foo"},
	}); err == nil {
		t.Fatal("same fresh name entering two hierarchies must fail")
	}
	if _, _, err := d.Apply([]core.Edit{
		{Kind: core.EditRename, Target: seg, Name: "foo"},
		{Kind: core.EditRename, Target: mark, Name: "foo"},
	}); err == nil {
		t.Fatal("two renames to the same fresh name across hierarchies must fail")
	}
	// Same name twice into ONE hierarchy is fine.
	if _, _, err := d.Apply([]core.Edit{
		{Kind: core.EditInsertBefore, Target: seg, Name: "foo"},
		{Kind: core.EditInsertAfter, Target: seg, Name: "foo"},
	}); err != nil {
		t.Fatal(err)
	}
}
