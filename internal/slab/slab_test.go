package slab

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/xquery"
)

// requireDocsEqual asserts got (a slab-opened document) is
// field-identical to want: name table, root, every node and attribute
// of every hierarchy, leaf layout, and the name-index runs.
func requireDocsEqual(t *testing.T, got, want *core.Document) {
	t.Helper()
	got.Materialize()
	want.Materialize()
	if got.Text != want.Text || got.Rev != want.Rev {
		t.Fatalf("text/rev diverged")
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Fatalf("bounds diverged")
	}
	if !reflect.DeepEqual(got.NameTable(), want.NameTable()) {
		t.Fatalf("name table diverged:\n got %q\nwant %q", got.NameTable(), want.NameTable())
	}
	if got.Root.Name != want.Root.Name || len(got.Root.Attrs) != len(want.Root.Attrs) {
		t.Fatalf("root diverged")
	}
	for i, a := range want.Root.Attrs {
		g := got.Root.Attrs[i]
		if g.Name != a.Name || g.Data != a.Data {
			t.Fatalf("root attr %d: %s=%q, want %s=%q", i, g.Name, g.Data, a.Name, a.Data)
		}
	}
	if len(got.Leaves) != len(want.Leaves) {
		t.Fatalf("%d leaves, want %d", len(got.Leaves), len(want.Leaves))
	}
	for i := range got.Leaves {
		g, w := got.Leaves[i], want.Leaves[i]
		if g.Data != w.Data || g.Start != w.Start || g.End != w.End ||
			len(got.LeafParents(g)) != len(want.LeafParents(w)) {
			t.Fatalf("leaf %d diverged", i)
		}
	}
	if len(got.Hiers) != len(want.Hiers) {
		t.Fatalf("%d hierarchies, want %d", len(got.Hiers), len(want.Hiers))
	}
	for hi, h := range got.Hiers {
		wh := want.Hiers[hi]
		if h.Name != wh.Name || len(h.Nodes) != len(wh.Nodes) || len(h.Top) != len(wh.Top) {
			t.Fatalf("hierarchy %d shape diverged", hi)
		}
		for i, n := range h.Nodes {
			m := wh.Nodes[i]
			if n.Kind != m.Kind || n.Name != m.Name || n.NameSym != m.NameSym ||
				n.Data != m.Data || n.Start != m.Start || n.End != m.End ||
				n.Ord != m.Ord || n.Last != m.Last || n.Hier != m.Hier || n.HierIndex != m.HierIndex {
				t.Fatalf("hierarchy %q node %d diverged:\n got %+v\nwant %+v", h.Name, i, n, m)
			}
			if (n.Parent == nil) != (m.Parent == nil) ||
				(n.Parent != nil && m.Parent != nil && n.Parent.Ord != m.Parent.Ord) {
				t.Fatalf("hierarchy %q node %d parent diverged", h.Name, i)
			}
			if gp, wp := got.IsRoot(n.Parent), want.IsRoot(m.Parent); gp != wp {
				t.Fatalf("hierarchy %q node %d root-parent diverged", h.Name, i)
			}
			if len(n.Children) != len(m.Children) || len(n.Attrs) != len(m.Attrs) {
				t.Fatalf("hierarchy %q node %d fanout diverged", h.Name, i)
			}
			for j, c := range n.Children {
				if c.Ord != m.Children[j].Ord {
					t.Fatalf("hierarchy %q node %d child %d diverged", h.Name, i, j)
				}
			}
			for j, a := range n.Attrs {
				w := m.Attrs[j]
				if a.Name != w.Name || a.Data != w.Data || a.NameSym != w.NameSym ||
					a.Ord != w.Ord || a.Sub != w.Sub || a.Parent != n {
					t.Fatalf("hierarchy %q node %d attr %d diverged", h.Name, i, j)
				}
			}
		}
		if gr, wr := h.IndexRuns(), wh.RebuildIndexRuns(); !reflect.DeepEqual(dropEmpty(gr), dropEmpty(wr)) {
			t.Fatalf("hierarchy %q index runs diverged", h.Name)
		}
	}
}

// dropEmpty normalizes a run map: incremental maintenance may leave
// empty runs that the slab format (and a fresh rebuild) omit.
func dropEmpty(runs map[int32][]int32) map[int32][]int32 {
	out := make(map[int32][]int32, len(runs))
	for sym, run := range runs {
		if len(run) > 0 {
			out[sym] = run
		}
	}
	return out
}

func testDocs(t *testing.T) map[string]*core.Document {
	t.Helper()
	docs := map[string]*core.Document{"boethius": corpus.MustBoethius()}
	for _, seed := range []uint64{1, 7, 42} {
		c := corpus.Generate(corpus.Params{Seed: seed, Words: 40, DamageRate: 0.2, RestoreRate: 0.2})
		d, err := c.Document()
		if err != nil {
			t.Fatal(err)
		}
		docs["gen"+string(rune('0'+seed%10))] = d
	}
	return docs
}

func TestRoundTripFieldIdentity(t *testing.T) {
	for name, d := range testDocs(t) {
		d.Rev = 5
		// Decorate with a post-construction attribute whose name the
		// document never interned (exercises the auxiliary-symbol path).
		for _, n := range d.Hiers[0].Nodes {
			if n.Kind == dom.Element {
				n.SetAttr("uninterned-attr", "v")
				break
			}
		}
		blob, err := Encode(d, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := Open(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Rev() != 5 || s.SnapSeq() != 9 {
			t.Fatalf("%s: rev/seq %d/%d", name, s.Rev(), s.SnapSeq())
		}
		requireDocsEqual(t, s.Document(), d)
	}
}

// TestReEncodeStable: a slab-opened document re-encodes to the same
// image (the snapshotter may re-encode a document that itself came from
// a slab).
func TestReEncodeStable(t *testing.T) {
	d := corpus.MustBoethius()
	blob, err := Encode(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := Encode(s.Document(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encoding a slab-opened document changed the image")
	}
}

// TestZeroIndexBuildsOnOpen: the persisted name-index runs are
// installed at open, so serving index queries from a freshly opened
// slab performs zero index builds.
func TestZeroIndexBuildsOnOpen(t *testing.T) {
	d := corpus.MustBoethius()
	blob, err := Encode(d, 0) // forces the builds on the source document
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	before := core.GlobalIndexStats().Builds
	d2 := s.Document()
	for _, h := range d2.Hiers {
		for sym, want := range h.RebuildIndexRuns() {
			if got := h.NameRun(sym); !reflect.DeepEqual(got, want) {
				t.Fatalf("hierarchy %q sym %d: run diverged", h.Name, sym)
			}
		}
	}
	if builds := core.GlobalIndexStats().Builds - before; builds != 0 {
		t.Fatalf("open + index reads performed %d index builds, want 0", builds)
	}
}

// TestLazyMaterialization: opening a slab touches no node storage; the
// first structural access materializes exactly the hierarchies needed.
func TestLazyMaterialization(t *testing.T) {
	d := corpus.MustBoethius()
	blob, err := Encode(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	d2 := s.Document()
	for _, h := range d2.Hiers {
		if h.Nodes != nil {
			t.Fatalf("hierarchy %q materialized at open", h.Name)
		}
	}
	// Eager layers answer without materializing.
	if d2.Text != d.Text || d2.OrdinalSpace() != d.OrdinalSpace() {
		t.Fatal("eager layers diverged")
	}
	if d2.NameSymOf("w") != d.NameSymOf("w") {
		t.Fatal("name interning diverged")
	}
	for _, h := range d2.Hiers {
		if h.Nodes != nil {
			t.Fatalf("hierarchy %q materialized by an eager-layer read", h.Name)
		}
	}
	// A structural access materializes.
	if len(d2.RootChildren()) == 0 {
		t.Fatal("no root children")
	}
	for _, h := range d2.Hiers {
		if len(h.Nodes) == 0 {
			t.Fatalf("hierarchy %q empty after materialization", h.Name)
		}
	}
}

// retiredImages are images written before the path synopsis section
// (kind 9) was retired: stride-4 v3 images of the Boethius fixture and
// one generated document, each with snapshot sequence 1, as the writer
// of that time produced them; build rebuilds the document each holds.
var retiredImages = []struct {
	file  string
	build func() (*core.Document, error)
}{
	{"boethius.v3s4.slab", func() (*core.Document, error) { return corpus.MustBoethius(), nil }},
	{"gen7.v3s4.slab", func() (*core.Document, error) {
		return corpus.Generate(corpus.Params{Seed: 7, Words: 40, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	}},
}

// paperQueries are the paper's Queries I.1, I.2, II.1 and III.1.
var paperQueries = []string{
	`for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`,
	`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
	`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`,
	`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`,
}

// TestRetiredSectionImagesOpen: images that still carry the retired
// synopsis section open, skip it, and serve the same document as a
// fresh encode of it — field for field and in every paper query's
// answer.
func TestRetiredSectionImagesOpen(t *testing.T) {
	for _, img := range retiredImages {
		file := img.file
		blob, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		nHiers := binary.LittleEndian.Uint32(blob[24:])
		if n := binary.LittleEndian.Uint32(blob[28:]); n != 5+4*nHiers {
			t.Fatalf("%s: %d sections for %d hierarchies, want the stride-4 layout", file, n, nHiers)
		}
		old, err := Open(blob)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		d, err := img.build()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Encode(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := Open(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if old.Rev() != cur.Rev() || old.SnapSeq() != cur.SnapSeq() {
			t.Fatalf("%s: rev/seq %d/%d, fresh encode %d/%d", file, old.Rev(), old.SnapSeq(), cur.Rev(), cur.SnapSeq())
		}
		oldDoc, curDoc := old.Document(), cur.Document()
		requireDocsEqual(t, oldDoc, curDoc)
		for _, src := range paperQueries {
			q := xquery.MustCompile(src)
			got, err := q.Eval(oldDoc)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			want, err := q.Eval(curDoc)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if xquery.Serialize(got) != xquery.Serialize(want) {
				t.Errorf("%s: %q:\n  old image: %s\n  fresh:     %s", file, src, xquery.Serialize(got), xquery.Serialize(want))
			}
		}
		// The writer no longer emits the section: re-encoding the old
		// image's document yields the fresh image.
		if re, err := Encode(oldDoc, 1); err != nil || string(re) != string(fresh) {
			t.Fatalf("%s: re-encoding the old image's document differs from a fresh encode (err %v)", file, err)
		}
	}
}

// TestOpenRejectsCorruption: every truncation and every single-bit flip
// of a valid image fails Open with the coded corruption error — never a
// panic, never a silently different document.
func TestOpenRejectsCorruption(t *testing.T) {
	d := corpus.MustBoethius()
	blob, err := Encode(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 8, headerLen - 1, headerLen, len(blob) / 2, len(blob) - 1} {
		if _, err := Open(blob[:k]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: err = %v, want ErrCorrupt", k, err)
		}
	}
	for off := 0; off < len(blob); off++ {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x01
		if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}
