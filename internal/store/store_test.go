package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

func TestRoundTripBoethius(t *testing.T) {
	d := corpus.MustBoethius()
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Text != d.Text {
		t.Error("text differs")
	}
	if got, want := d2.Stats(), d.Stats(); got != want {
		t.Errorf("stats %+v vs %+v", got, want)
	}
	for _, name := range d.HierarchyNames() {
		a, err := d.Serialize(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d2.Serialize(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("hierarchy %s differs:\n %s\n %s", name, a, b)
		}
	}
	if d.LeafTable() != d2.LeafTable() {
		t.Error("leaf tables differ")
	}
}

func TestRoundTripPreservesAttributes(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 9, Words: 20})
	d, err := c.Document()
	if err != nil {
		t.Fatal(err)
	}
	// Decorate some elements with attributes before storing.
	h := d.HierarchyByName("damage")
	for i, n := range h.Nodes {
		if n.Kind == dom.Element && n.Name == "dmg" {
			n.SetAttr("type", "stain")
			n.SetAttr("n", "x"+strings.Repeat("i", i%3))
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h2 := d2.HierarchyByName("damage")
	for i, n := range h.Nodes {
		m := h2.Nodes[i]
		if n.Kind != m.Kind || n.Name != m.Name || n.Start != m.Start || n.End != m.End {
			t.Fatalf("node %d differs", i)
		}
		if n.Kind == dom.Element {
			for _, a := range n.Attrs {
				if v, ok := m.Attr(a.Name); !ok || v != a.Data {
					t.Errorf("attr %s lost", a.Name)
				}
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		c := corpus.Generate(corpus.Params{Seed: seed, Words: 25, DamageRate: 0.2, RestoreRate: 0.2})
		d, err := c.Document()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Encode(&buf, d); err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		d2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if d2.Text != d.Text || d2.Stats() != d.Stats() {
			return false
		}
		for _, name := range d.HierarchyNames() {
			a, _ := d.Serialize(name)
			b, _ := d2.Serialize(name)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := corpus.MustBoethius()
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(bytes.NewReader(img[:len(img)/2])); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte(nil), img...)
	bad[4] = 0xFF // version byte
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestSnapshotCarriesRevAndSeq(t *testing.T) {
	d := corpus.MustBoethius()
	d.Rev = 7
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, d, 42); err != nil {
		t.Fatal(err)
	}
	d2, seq, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Rev != 7 || seq != 42 {
		t.Fatalf("rev = %d, seq = %d; want 7, 42", d2.Rev, seq)
	}
}

func TestDecodeFlagsCorruption(t *testing.T) {
	d := corpus.MustBoethius()
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Every single-byte flip anywhere in the image must surface as the
	// coded corruption error (the slab checksums every section), or —
	// for the version byte — as the newer-version error.
	for _, off := range []int{0, 4, 5, 10, len(img) / 2, len(img) - 10, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x01
		_, err := Decode(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at %d accepted", off)
		}
		if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "newer") {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt or a newer-version error", off, err)
		}
	}
}

// TestDecodeRejectsLegacyVersions: images of the retired varint tree
// formats (versions 1 and 2, whose version uvarint sits where v3 keeps
// its version byte) are refused as corrupt, with a message saying how
// to get the document back.
func TestDecodeRejectsLegacyVersions(t *testing.T) {
	for _, v := range []uint64{1, 2} {
		img := binary.AppendUvarint([]byte(magic), v)
		// The rest of a legacy header: revision, snapshot sequence, a
		// string table and a trailer's worth of bytes.
		img = append(img, 0, 3, 1, 1, 'w', 0, 0, 0, 0)
		_, err := Decode(bytes.NewReader(img))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v%d image: err = %v, want ErrCorrupt", v, err)
		}
		if !strings.Contains(err.Error(), "re-create the document from its XML") {
			t.Fatalf("v%d image: error %q lacks the re-create hint", v, err)
		}
	}
}

func TestDecodeRejectsNewerVersion(t *testing.T) {
	d := corpus.MustBoethius()
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), buf.Bytes()...)
	img[4] = version + 1 // the version byte follows the 4-byte magic
	_, err := Decode(bytes.NewReader(img))
	if err == nil {
		t.Fatal("image with a newer version accepted")
	}
	// The forward-compat guard must say the image is from the future,
	// not just "unsupported" — a collection directory written by a newer
	// build should fail loudly and actionably.
	if !strings.Contains(err.Error(), "newer") {
		t.Fatalf("error %q does not identify a newer-version image", err)
	}
}

// TestV3MatchesHeapDecode: opening an image yields a slab-backed
// document that is observably identical to the core.Build document it
// was encoded from — same serialization per hierarchy, same stats,
// same leaf table, same name-index runs.
func TestV3MatchesHeapDecode(t *testing.T) {
	for _, seed := range []uint64{2, 9, 31} {
		c := corpus.Generate(corpus.Params{Seed: seed, Words: 30, DamageRate: 0.2, RestoreRate: 0.2})
		heapDoc, err := c.Document()
		if err != nil {
			t.Fatal(err)
		}
		heapDoc.Rev = 4
		var img bytes.Buffer
		if err := EncodeSnapshot(&img, heapDoc, 8); err != nil {
			t.Fatal(err)
		}
		slabDoc, slabSeq, err := DecodeSnapshot(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if slabSeq != 8 || slabDoc.Rev != heapDoc.Rev {
			t.Fatalf("seed %d: rev/seq = %d/%d, want %d/8", seed, slabDoc.Rev, slabSeq, heapDoc.Rev)
		}
		if slabDoc.Stats() != heapDoc.Stats() {
			t.Fatalf("seed %d: stats diverged:\n slab %+v\n heap %+v",
				seed, slabDoc.Stats(), heapDoc.Stats())
		}
		if slabDoc.LeafTable() != heapDoc.LeafTable() {
			t.Fatalf("seed %d: leaf tables diverged", seed)
		}
		for _, name := range heapDoc.HierarchyNames() {
			a, err := slabDoc.Serialize(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := heapDoc.Serialize(name)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("seed %d: hierarchy %s diverged:\n slab %s\n heap %s", seed, name, a, b)
			}
			sh, hh := slabDoc.HierarchyByName(name), heapDoc.HierarchyByName(name)
			for sym, want := range hh.RebuildIndexRuns() {
				if len(want) == 0 {
					continue
				}
				got := sh.NameRun(int32(sym))
				if len(got) != len(want) {
					t.Fatalf("seed %d: hierarchy %s sym %d run diverged", seed, name, sym)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: hierarchy %s sym %d run diverged at %d", seed, name, sym, i)
					}
				}
			}
		}
	}
}

func TestDecodedDocumentQueries(t *testing.T) {
	d := corpus.MustBoethius()
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded document is fully functional: indexed axes work.
	var line1 *dom.Node
	for _, n := range d2.HierarchyByName("physical").Nodes {
		if n.Kind == dom.Element {
			line1 = n
			break
		}
	}
	found := false
	for _, m := range d2.Eval(axisOverlapping(), line1) {
		if m.Kind == dom.Element && m.Name == "w" && m.TextContent() == "singallice" {
			found = true
		}
	}
	if !found {
		t.Error("decoded document: overlapping axis broken")
	}
}

// axisOverlapping avoids importing core's constant directly in the test
// body above.
func axisOverlapping() core.Axis { return core.AxisOverlapping }
