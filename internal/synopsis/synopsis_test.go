package synopsis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mhxquery/internal/dom"
)

// elem builds an interned element; syms are the name itself hashed to a
// small stable table so tests can read dumps.
func elem(sym int32, kids ...*dom.Node) *dom.Node {
	n := &dom.Node{Kind: dom.Element, Name: fmt.Sprintf("n%d", sym), NameSym: sym}
	for _, k := range kids {
		n.AppendChild(k)
	}
	return n
}

func text() *dom.Node { return &dom.Node{Kind: dom.Text, Data: "t"} }

func TestBuildCountsPaths(t *testing.T) {
	// <a> <b>t</b> <b><c/></b> </a>  <a>t</a>
	tops := []*dom.Node{
		elem(1, elem(2, text()), elem(2, elem(3))),
		elem(1, text()),
		text(),
	}
	s := Build(tops)
	if s.Texts != 1 {
		t.Fatalf("top texts = %d, want 1", s.Texts)
	}
	a := s.Top(1)
	if a == nil || a.Count != 2 || a.Texts != 1 {
		t.Fatalf("path /a = %+v", a)
	}
	b := a.Kid(2)
	if b == nil || b.Count != 2 || b.Texts != 1 {
		t.Fatalf("path /a/b = %+v", b)
	}
	c := b.Kid(3)
	if c == nil || c.Count != 1 || c.Texts != 0 || len(c.Kids) != 0 {
		t.Fatalf("path /a/b/c = %+v", c)
	}
	if got := s.Top(9); got != nil {
		t.Fatalf("missing top = %+v", got)
	}
	el, tx := s.Totals()
	if el != 5 || tx != 3 {
		t.Fatalf("Totals = %d,%d want 5,3", el, tx)
	}
	st := s.Summary()
	if st.Paths != 3 || st.Elements != 5 || st.Texts != 3 || st.Names != 3 || st.MaxFanout != 1 {
		t.Fatalf("Summary = %+v", st)
	}
	dump := s.Dump(func(sym int32) string { return fmt.Sprintf("n%d", sym) })
	if !strings.Contains(dump, "/n1/n2 count=2 texts=1") {
		t.Fatalf("Dump missing path line:\n%s", dump)
	}
}

func TestKidsSortedBySymbol(t *testing.T) {
	tops := []*dom.Node{elem(5), elem(2), elem(9), elem(2), elem(1)}
	s := Build(tops)
	var syms []int32
	for _, k := range s.Kids {
		syms = append(syms, k.Sym)
	}
	if fmt.Sprint(syms) != "[1 2 5 9]" {
		t.Fatalf("top syms = %v", syms)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Build([]*dom.Node{elem(1, elem(2))})
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Kids[0].Kids[0].Count++
	if s.Equal(c) {
		t.Fatal("clone shares nodes with original")
	}
}

// randomTree builds a random element tree over a small symbol alphabet.
func randomTree(rng *rand.Rand, depth int) *dom.Node {
	n := elem(int32(1 + rng.Intn(6)))
	if depth >= 4 {
		return n
	}
	for i := rng.Intn(4); i > 0; i-- {
		if rng.Intn(4) == 0 {
			n.AppendChild(text())
		} else {
			n.AppendChild(randomTree(rng, depth+1))
		}
	}
	return n
}

// TestPatchRegionMatchesRebuild replaces a random node's child list and
// checks the patched synopsis equals a from-scratch rebuild.
func TestPatchRegionMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tops := []*dom.Node{randomTree(rng, 0), randomTree(rng, 0), text()}
		s := Build(tops)

		// Pick a random element (anywhere, including tops) as the
		// region parent and replace its children with a fresh random
		// child list.
		var all []*dom.Node
		var collect func(n *dom.Node)
		collect = func(n *dom.Node) {
			if n.Kind != dom.Element {
				return
			}
			all = append(all, n)
			for _, c := range n.Children {
				collect(c)
			}
		}
		for _, top := range tops {
			collect(top)
		}
		target := all[rng.Intn(len(all))]

		oldKids := append([]*dom.Node(nil), target.Children...)
		var newKids []*dom.Node
		for i := rng.Intn(4); i > 0; i-- {
			if rng.Intn(3) == 0 {
				newKids = append(newKids, text())
			} else {
				newKids = append(newKids, randomTree(rng, 3))
			}
		}

		// Path from top to target, top-down.
		var path []int32
		for n := target; n != nil; n = n.Parent {
			path = append([]int32{n.NameSym}, path...)
		}

		patched := s.Clone()
		if !patchRegion(patched, path, oldKids, newKids) {
			t.Fatalf("seed %d: region patch reported inconsistency", seed)
		}
		target.Children = nil
		for _, k := range newKids {
			target.AppendChild(k)
		}
		want := Build(tops)
		if !patched.Equal(want) {
			nameOf := func(sym int32) string { return fmt.Sprintf("n%d", sym) }
			t.Fatalf("seed %d: patched synopsis diverges\npatched:\n%swant:\n%s",
				seed, patched.Dump(nameOf), want.Dump(nameOf))
		}
	}
}

// patchRegion is one whole region replacement: subtract, then add.
func patchRegion(t *Tree, path []int32, oldKids, newKids []*dom.Node) bool {
	return t.SubRegion(path, oldKids) && t.AddRegion(path, newKids)
}

func TestPatchRegionDetectsInconsistency(t *testing.T) {
	s := Build([]*dom.Node{elem(1, elem(2))})
	// Subtracting a child that was never there must fail, not panic.
	if s.Clone().SubRegion([]int32{1}, []*dom.Node{elem(3)}) {
		t.Fatal("SubRegion accepted subtraction of an absent path")
	}
	// A path that does not exist must fail in either phase.
	if s.Clone().SubRegion([]int32{7}, nil) || s.Clone().AddRegion([]int32{7}, nil) {
		t.Fatal("a missing path was accepted")
	}
	// An empty path addresses the tree level: replacing the whole top
	// list with itself is a no-op, and a full replacement rebuilds.
	tops := []*dom.Node{elem(1, elem(2))}
	c := s.Clone()
	if !patchRegion(c, nil, tops, tops) || !c.Equal(s) {
		t.Fatal("tree-level identity patch changed the synopsis")
	}
	c = s.Clone()
	if !patchRegion(c, nil, tops, []*dom.Node{elem(4), text()}) ||
		!c.Equal(Build([]*dom.Node{elem(4), text()})) {
		t.Fatal("tree-level replacement patch wrong")
	}
	// Subtracting more texts than recorded must fail.
	if s.Clone().SubRegion([]int32{1}, []*dom.Node{text()}) {
		t.Fatal("SubRegion accepted text undercount")
	}
	// Two disjoint regions subtracted before either is added give the
	// same tree as patching them one after the other.
	two := []*dom.Node{elem(1, elem(2), text()), elem(3, elem(2))}
	base := Build(two)
	c = base.Clone()
	if !c.SubRegion([]int32{1}, two[0].Children) || !c.SubRegion([]int32{3}, two[1].Children) ||
		!c.AddRegion([]int32{1}, []*dom.Node{elem(5)}) || !c.AddRegion([]int32{3}, nil) {
		t.Fatal("two-phase patch over disjoint regions failed")
	}
	if !c.Equal(Build([]*dom.Node{elem(1, elem(5)), elem(3)})) {
		t.Fatal("two-phase patch over disjoint regions diverged from a rebuild")
	}
}
