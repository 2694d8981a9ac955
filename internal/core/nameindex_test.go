package core

import (
	"fmt"
	"sync"
	"testing"

	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

func nameIndexDoc(t *testing.T) *Document {
	t.Helper()
	trees := []NamedTree{}
	for name, xml := range map[string]string{
		"phys": `<r><pg>ab cd</pg><pg> ef</pg></r>`,
		"str":  `<r><w>ab</w> <w>cd</w> <w>ef</w></r>`,
	} {
		root, err := xmlparse.Parse(xml, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, NamedTree{Name: name, Root: root})
	}
	// Map iteration order is random; normalize to phys-first.
	if trees[0].Name != "phys" {
		trees[0], trees[1] = trees[1], trees[0]
	}
	d, err := Build(trees)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNameRunMatchesScan checks, for every name of every hierarchy, that
// the index run is exactly the ascending ordinals of the elements a full
// scan finds.
func TestNameRunMatchesScan(t *testing.T) {
	d := nameIndexDoc(t)
	for _, h := range d.Hiers {
		want := map[int32][]int32{}
		for _, n := range h.Nodes {
			if n.Kind == dom.Element && n.NameSym != 0 {
				want[n.NameSym] = append(want[n.NameSym], int32(n.Ord))
			}
		}
		for sym, run := range want {
			got := h.NameRun(sym)
			if fmt.Sprint(got) != fmt.Sprint(run) {
				t.Errorf("%s: sym %d: run %v, want %v", h.Name, sym, got, run)
			}
		}
	}
	if h := d.Hiers[0]; h.NameRun(0) != nil {
		t.Error("NameRun(0) must be nil")
	}
	if h := d.Hiers[0]; len(h.NameRun(9999)) != 0 {
		t.Error("NameRun of an absent symbol must be empty")
	}
}

func TestSubRun(t *testing.T) {
	run := []int32{1, 4, 6, 9}
	cases := []struct {
		after, upTo int
		want        string
	}{
		{0, 10, "[1 4 6 9]"},
		{1, 9, "[4 6 9]"},
		{1, 8, "[4 6]"},
		{4, 5, "[]"},
		{9, 20, "[]"},
		{-1, 0, "[]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(SubRun(run, c.after, c.upTo)); got != c.want {
			t.Errorf("SubRun(%d,%d) = %s, want %s", c.after, c.upTo, got, c.want)
		}
	}
}

// TestNameIndexSharedWithOverlay checks that an overlay document reuses
// the base hierarchies' indexes (same run slices) and that the new
// hierarchy gets its own.
func TestNameIndexSharedWithOverlay(t *testing.T) {
	d := nameIndexDoc(t)
	sym := d.NameSymOf("w")
	baseRun := d.HierarchyByName("str").NameRun(sym)
	top := dom.NewElement("res")
	top.Start, top.End = 0, len(d.Text)
	od, err := d.AddHierarchy("rest", top, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := od.HierarchyByName("str").NameRun(sym); len(got) != len(baseRun) || &got[0] != &baseRun[0] {
		t.Error("overlay does not share the base hierarchy's index run")
	}
	if osym := od.NameSymOf("res"); len(od.HierarchyByName("rest").NameRun(osym)) != 1 {
		t.Error("overlay hierarchy's own index missing the new element")
	}
}

// TestNameRunConcurrent builds the lazy index from many goroutines at
// once; run with -race this verifies the sync.Once guard.
func TestNameRunConcurrent(t *testing.T) {
	d := nameIndexDoc(t)
	sym := d.NameSymOf("w")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if got := d.HierarchyByName("str").NameRun(sym); len(got) != 3 {
					t.Errorf("run length %d, want 3", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}
