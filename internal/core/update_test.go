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
	"strings"
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
		// Each edge leads to a text node of THIS version covering the leaf.
		for _, p := range gp {
			if !d.Owns(p) || p.Kind != dom.Text || p.Start > g.Start || p.End < g.End {
				t.Fatalf("leaf %d [%d,%d): parent %s [%d,%d) is not a covering text node of this version",
					i, g.Start, g.End, p.Kind, p.Start, p.End)
			}
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
	// Adding or removing a hierarchy changes the layout.
	added, _, err := nd.Apply([]core.Edit{{Kind: core.EditAddHierarchy, Name: "hits",
		Tops: []*dom.Node{{Kind: dom.Element, Name: "hit", Start: 1, End: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(added.Hiers) != len(nd.Hiers)+1 || added.HierarchyByName("hits") == nil {
		t.Fatal("hierarchy not added")
	}
	removed, _, err := nd.Apply([]core.Edit{{Kind: core.EditRemoveHierarchy, Name: "C"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(removed.Hiers) != len(nd.Hiers)-1 || removed.HierarchyByName("C") != nil {
		t.Fatal("hierarchy not removed")
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

// editSpec is one random edit addressed by hierarchy name and preorder
// ordinal, so the same batch resolves against two field-identical
// document versions.
type editSpec struct {
	kind       core.EditKind
	hier       string
	ord        int
	name, text string
	from, to   int
	// elem, a and b describe the one element of an added hierarchy.
	elem string
	a, b int
}

func resolveBatch(d *core.Document, specs []editSpec) []core.Edit {
	edits := make([]core.Edit, len(specs))
	for i, s := range specs {
		e := core.Edit{Kind: s.kind, Name: s.name, Text: s.text, From: s.from, To: s.to}
		switch s.kind {
		case core.EditAddHierarchy:
			e.Tops = []*dom.Node{{Kind: dom.Element, Name: s.elem, Start: s.a, End: s.b}}
		case core.EditRemoveHierarchy:
		default:
			e.Target = d.HierarchyByName(s.hier).Nodes[s.ord]
		}
		edits[i] = e
	}
	return edits
}

// randomBatch draws one batch of 1–4 edits against d. A layout-keeping
// batch holds only renames (a third of them to the node's own name) and
// same-length text replacements over elements or text nodes; any other
// batch mixes every edit kind.
func randomBatch(r *rand.Rand, d *core.Document, tag string, layoutKept bool) []editSpec {
	var specs []editSpec
	for k, nEdits := 0, 1+r.Intn(4); k < nEdits; k++ {
		h := d.Hiers[r.Intn(len(d.Hiers))]
		var elems, texts []*dom.Node
		for _, n := range h.Nodes {
			switch n.Kind {
			case dom.Element:
				elems = append(elems, n)
			case dom.Text:
				texts = append(texts, n)
			}
		}
		if len(elems) == 0 {
			continue
		}
		target := elems[r.Intn(len(elems))]
		kind := r.Intn(6)
		if layoutKept {
			kind = []int{0, 4}[r.Intn(2)]
			if kind == 4 && len(texts) > 0 && r.Intn(2) == 0 {
				target = texts[r.Intn(len(texts))]
			}
		}
		s := editSpec{hier: h.Name, ord: target.Ord}
		switch kind {
		case 0:
			s.kind, s.name = core.EditRename, fmt.Sprintf("n%s_%d", tag, k)
			if layoutKept && r.Intn(3) == 0 {
				s.name = target.Name
			}
		case 1:
			s.kind = core.EditDelete
		case 2:
			s.kind, s.name = core.EditWrap, fmt.Sprintf("w%s_%d", tag, k)
			s.from = r.Intn(len(target.Children) + 1)
			s.to = s.from + r.Intn(len(target.Children)-s.from+1)
		case 3:
			s.kind, s.name = core.EditInsertBefore, fmt.Sprintf("p%s_%d", tag, k)
			if r.Intn(2) == 0 {
				s.kind = core.EditInsertAfter
			}
		case 4:
			if target.Start == target.End {
				continue
			}
			repl := make([]byte, target.End-target.Start)
			for i := range repl {
				repl[i] = byte('p' + r.Intn(4))
			}
			s.kind, s.text = core.EditReplaceText, string(repl)
		case 5:
			// Occasionally a whole-layer change.
			if r.Intn(2) == 0 && len(d.Text) > 2 {
				s.a = r.Intn(len(d.Text) - 1)
				s.b = s.a + 1 + r.Intn(len(d.Text)-s.a-1)
				s.kind, s.name, s.elem = core.EditAddHierarchy, fmt.Sprintf("layer%s_%d", tag, k), fmt.Sprintf("hx%s_%d", tag, k)
			} else {
				s.kind, s.name = core.EditRemoveHierarchy, h.Name
			}
		}
		specs = append(specs, s)
	}
	return specs
}

// docDump renders every field of a document version that an update can
// touch — text, bounds, leaves with their parent edges, each node in
// preorder with its links, and each hierarchy's name index — so two
// versions are field- and index-identical iff their dumps are equal.
func docDump(d *core.Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rev %d text %q bounds %v\n", d.Rev, d.Text, d.Bounds)
	for i, l := range d.Leaves {
		fmt.Fprintf(&b, "leaf %d %q [%d,%d) parents", i, l.Data, l.Start, l.End)
		for _, p := range d.LeafParents(l) {
			fmt.Fprintf(&b, " %d:%d", p.HierIndex, p.Ord)
		}
		b.WriteByte('\n')
	}
	for _, h := range d.Hiers {
		fmt.Fprintf(&b, "hierarchy %d %s\n", h.Index, h.Name)
		for _, n := range h.Nodes {
			parent := -1
			if n.Parent != d.Root {
				parent = n.Parent.Ord
			}
			fmt.Fprintf(&b, "  %s %q sym %d data %q [%d,%d) ord %d..%d in %d:%s parent %d kids",
				n.Kind, n.Name, n.NameSym, n.Data, n.Start, n.End, n.Ord, n.Last, n.HierIndex, n.Hier, parent)
			for _, c := range n.Children {
				fmt.Fprintf(&b, " %d", c.Ord)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  runs %v\n", h.IndexRuns())
	}
	return b.String()
}

// TestApplyDifferentialSweep is the core half of the differential
// mutation sweep: seeded random lineages of edit batches over random
// documents, interleaving layout-keeping batches (renames, same-length
// text replacements) with structural ones. Each lineage runs twice —
// on published versions (copy-on-write) and on a private working
// version (Private), which edits its own copies in place. After each
// batch both versions must be field- and index-identical
// and agree with their serialize→reparse reference, and the private
// one may never copy more. At the end the document the lineage started
// from must be untouched.
func TestApplyDifferentialSweep(t *testing.T) {
	const (
		sequences = 120
		steps     = 5
	)
	applied, failed, inPlace := 0, 0, 0
	for seq := 0; seq < sequences; seq++ {
		r := rand.New(rand.NewSource(int64(9000 + seq)))
		d, err := buildRandom(int64(500 + seq%17))
		if err != nil {
			t.Fatal(err)
		}
		// Warm indexes so the incremental patch paths run.
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		origin := docDump(d)
		pub, priv := d, d.Private()
		for step := 0; step < steps; step++ {
			layoutKept := r.Intn(5) < 3
			specs := randomBatch(r, pub, fmt.Sprintf("%d_%d", seq, step), layoutKept)
			if len(specs) == 0 {
				continue
			}
			np, pst, perr := pub.Apply(resolveBatch(pub, specs))
			nv, vst, verr := priv.Apply(resolveBatch(priv, specs))
			if (perr == nil) != (verr == nil) {
				t.Fatalf("seq %d step %d: published error %v, private error %v", seq, step, perr, verr)
			}
			if perr != nil {
				// Conflicting random batches (double delete, edits in a
				// removed hierarchy, …) legitimately fail — atomically,
				// so both lineages continue from their current version.
				failed++
				continue
			}
			applied++
			checkAgainstReference(t, np)
			checkAgainstReference(t, nv)
			if got, want := docDump(nv), docDump(np); got != want {
				t.Fatalf("seq %d step %d: private version diverged from copy-on-write:\n got %s\nwant %s", seq, step, got, want)
			}
			if vst.HierarchiesCopied > pst.HierarchiesCopied {
				t.Fatalf("seq %d step %d: private version copied %d hierarchies, copy-on-write %d", seq, step, vst.HierarchiesCopied, pst.HierarchiesCopied)
			}
			if layoutKept && vst.HierarchiesCopied == 0 && pst.HierarchiesCopied > 0 {
				inPlace++
			}
			vs, ps := *vst, *pst
			vs.HierarchiesCopied, vs.NodesCopied, ps.HierarchiesCopied, ps.NodesCopied = 0, 0, 0, 0
			if vs != ps {
				t.Fatalf("seq %d step %d: stats diverged:\n private %+v\n    cow %+v", seq, step, vs, ps)
			}
			pub, priv = np, nv
		}
		// Snapshot isolation: the origin still matches its own reference
		// and every field it had before either lineage started.
		checkAgainstReference(t, d)
		if docDump(d) != origin {
			t.Fatalf("seq %d: the document Private was called on changed", seq)
		}
	}
	if applied < sequences*steps/2 {
		t.Fatalf("only %d random batches applied (%d failed); generator too conflict-happy", applied, failed)
	}
	if inPlace < sequences/2 {
		t.Fatalf("only %d batches ran wholly in place; the sweep does not exercise the private path", inPlace)
	}
}

// TestPrivateAppliesInPlace pins when a private working version edits
// in place: the first edit of a hierarchy (or of the leaf slab) copies
// it, later layout-keeping batches reuse the copy, structural batches
// copy again, and Publish restores copy-on-write. The document Private
// was called on, and a published version, stay untouched.
func TestPrivateAppliesInPlace(t *testing.T) {
	d := buildUpdateDoc(t)
	for _, h := range d.Hiers {
		h.IndexRuns()
	}
	origin := docDump(d)
	step := func(v *core.Document, copies int, edits ...core.Edit) *core.Document {
		t.Helper()
		nv, st, err := v.Apply(edits)
		if err != nil {
			t.Fatal(err)
		}
		if st.HierarchiesCopied != copies {
			t.Fatalf("copied %d hierarchies, want %d (stats %+v)", st.HierarchiesCopied, copies, st)
		}
		checkAgainstReference(t, nv)
		return nv
	}
	rename := func(v *core.Document, hier, name string, i int, to string) core.Edit {
		return core.Edit{Kind: core.EditRename, Target: pickElem(v, hier, name, i), Name: to}
	}
	replace := func(v *core.Document, text string) core.Edit {
		return core.Edit{Kind: core.EditReplaceText, Target: pickElem(v, "C", "note", 0), Text: text}
	}

	p1 := step(d.Private(), 1, rename(d, "B", "mark", 0, "hi"))
	p2 := step(p1, 0, rename(p1, "B", "mark", 0, "hj"), rename(p1, "B", "hi", 0, "hk"))
	if p2.HierarchyByName("B").Nodes[1] != p1.HierarchyByName("B").Nodes[1] {
		t.Fatal("an in-place rename copied the node")
	}
	// A same-length replacement touches every hierarchy and the leaves:
	// A and C are copied now, B is the lineage's own.
	p3 := step(p2, 2, replace(p2, "WXYZ"))
	p4 := step(p3, 0, replace(p3, "QRST"))
	if p4.Leaves[0] != p3.Leaves[0] {
		t.Fatal("an owned leaf slab was copied instead of re-sliced")
	}
	// Structural batches always copy.
	p5 := step(p4, 1, core.Edit{Kind: core.EditDelete, Target: pickElem(p4, "A", "seg", 1)})
	if docDump(d) != origin {
		t.Fatal("the document Private was called on changed")
	}

	// Published, the lineage's copies are read-only again.
	pub := p5.Publish()
	published := docDump(pub)
	step(pub, 3, rename(pub, "B", "hj", 0, "hl"), replace(pub, "abcd"))
	if docDump(pub) != published {
		t.Fatal("an update of a published version changed it")
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
