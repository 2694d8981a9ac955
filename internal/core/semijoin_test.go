package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

var semiJoinAxes = []core.Axis{
	core.AxisXAncestor, core.AxisXDescendant, core.AxisOverlapping,
	core.AxisPrecedingOverlapping, core.AxisFollowingOverlapping,
	core.AxisAncestor,
}

// semiJoinOracle answers "has n a target on axis a" from the literal
// Definition 1 transcription, caching EvalRef per (axis, node).
type semiJoinOracle struct {
	d   *core.Document
	ref map[core.Axis]map[*dom.Node][]*dom.Node
}

func newSemiJoinOracle(d *core.Document) *semiJoinOracle {
	return &semiJoinOracle{d: d, ref: map[core.Axis]map[*dom.Node][]*dom.Node{}}
}

func (o *semiJoinOracle) exists(a core.Axis, n *dom.Node, target map[*dom.Node]bool) bool {
	m := o.ref[a]
	if m == nil {
		m = map[*dom.Node][]*dom.Node{}
		o.ref[a] = m
	}
	res, ok := m[n]
	if !ok {
		res = o.d.EvalRef(a, n)
		m[n] = res
	}
	for _, x := range res {
		if target[x] {
			return true
		}
	}
	return false
}

// semiJoinTargets is one target set: per-hierarchy ordinal runs plus
// the shared root, and the same set as a node set for the oracle.
type semiJoinTargets struct {
	runs  [][]int32
	root  bool
	nodes map[*dom.Node]bool
}

// nameTargets selects the elements bearing one of names; keep, when
// non-nil, filters them (the filtered-target shape).
func nameTargets(d *core.Document, names []string, keep func(*dom.Node) bool) semiJoinTargets {
	ts := semiJoinTargets{runs: make([][]int32, len(d.Hiers)), nodes: map[*dom.Node]bool{}}
	for _, h := range d.Hiers {
		for ord, m := range h.Nodes {
			if m.Kind == dom.Element && slices.Contains(names, m.Name) && (keep == nil || keep(m)) {
				ts.runs[h.Index] = append(ts.runs[h.Index], int32(ord))
				ts.nodes[m] = true
			}
		}
	}
	if slices.Contains(names, d.Root.Name) && (keep == nil || keep(d.Root)) {
		ts.root = true
		ts.nodes[d.Root] = true
	}
	return ts
}

func (ts semiJoinTargets) load(sj *core.SemiJoin, d *core.Document, a core.Axis) {
	sj.Reset(d, a)
	for i, run := range ts.runs {
		sj.AddRun(d.Hiers[i], run)
	}
	if ts.root {
		sj.AddRoot()
	}
}

// checkSemiJoin sweeps one candidate run and compares every answer
// with the oracle. Only candidates outside the sweep's model — the
// shared root, and empty-span nodes except on the ancestor axis — may
// be left undecided.
func checkSemiJoin(o *semiJoinOracle, sj *core.SemiJoin, ts semiJoinTargets, a core.Axis, cands []*dom.Node) error {
	ts.load(sj, o.d, a)
	for i, n := range cands {
		found, ok := sj.Exists(n)
		if !ok {
			if n != o.d.Root && (n.Start < n.End || a == core.AxisAncestor) {
				return fmt.Errorf("%s: candidate %d (%s %q [%d,%d)) left undecided", a, i, n.Kind, n.Name, n.Start, n.End)
			}
			continue
		}
		if want := o.exists(a, n, ts.nodes); found != want {
			return fmt.Errorf("%s: candidate %d (%s %q [%d,%d) in %s): sweep %v, reference %v",
				a, i, n.Kind, n.Name, n.Start, n.End, n.Hier, found, want)
		}
	}
	return nil
}

// candidateRuns returns the candidate runs of the property test: each
// hierarchy's nodes in preorder (Start order, nested), a disjoint
// subsequence of them (Start and End order), the leaf layer, and every
// hierarchy's run and the leaves concatenated in document order (the
// sweep seeks back per hierarchy).
func candidateRuns(d *core.Document) (nested, disjoint [][]*dom.Node, all []*dom.Node) {
	for _, h := range d.Hiers {
		nested = append(nested, h.Nodes)
		var run []*dom.Node
		end := -1
		for _, n := range h.Nodes {
			if n.Start >= end && n.Start < n.End {
				run = append(run, n)
				end = n.End
			}
		}
		disjoint = append(disjoint, run)
		all = append(all, h.Nodes...)
	}
	disjoint = append(disjoint, d.LeafLayer())
	all = append(all, d.LeafLayer()...)
	return nested, disjoint, all
}

// TestQuickSemiJoinMatchesReference: for random documents, every axis,
// and name-run or filtered targets — in one hierarchy or several, the
// shared root's name included — the sweep's answer for each candidate
// equals whether the Definition 1 reference result meets the targets.
// Candidates come in Start and End order, in nested preorder, across
// hierarchies and shuffled (root and leaves included); every
// non-empty node but the root must be decided, and on the ancestor axis
// every empty one too.
func TestQuickSemiJoinMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		r := rand.New(rand.NewSource(seed))
		o := newSemiJoinOracle(d)
		nested, disjoint, all := candidateRuns(d)
		shuffled := allNodesOf(d)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		runs := append(append(append([][]*dom.Node(nil), disjoint...), nested...), all, shuffled)
		var sj core.SemiJoin
		for _, names := range [][]string{{"seg"}, {"mark"}, {"note"}, {d.Root.Name}, {"mark", "note", "seg"}} {
			for _, filtered := range []bool{false, true} {
				var keep func(*dom.Node) bool
				if filtered {
					keep = func(*dom.Node) bool { return r.Intn(2) == 0 }
				}
				ts := nameTargets(d, names, keep)
				for _, a := range semiJoinAxes {
					for k, run := range runs {
						if err := checkSemiJoin(o, &sj, ts, a, run); err != nil {
							t.Logf("seed %d, targets %v (filtered %v), run %d: %v", seed, names, filtered, k, err)
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

// fuzzDoc decodes bytes into a three-hierarchy document (each hierarchy
// nests two element names over the shared text, empty elements
// included), an axis and a non-empty set of target names (the shared
// root's included).
func fuzzDoc(data []byte) (*core.Document, core.Axis, []string, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	text := strings.Repeat("abcdefg", 4)[:4+next()%20]
	tags := [3][2]string{{"a", "b"}, {"c", "e"}, {"f", "g"}}
	var gen func(b *strings.Builder, k, lo, hi, depth int)
	gen = func(b *strings.Builder, k, lo, hi, depth int) {
		for pos := lo; pos < hi; {
			c := next()
			if depth >= 4 || c%3 == 0 {
				end := min(hi, pos+1+c/3%4)
				b.WriteString(text[pos:end])
				pos = end
				continue
			}
			tag := tags[k][c%3-1]
			end := pos + c/8%(hi-pos+1)
			fmt.Fprintf(b, "<%s>", tag)
			gen(b, k, pos, end, depth+1)
			fmt.Fprintf(b, "</%s>", tag)
			pos = end
		}
	}
	var trees []core.NamedTree
	for k := 0; k < 3; k++ {
		var b strings.Builder
		b.WriteString("<r>")
		gen(&b, k, 0, len(text), 0)
		b.WriteString("</r>")
		root, err := parseXML(b.String())
		if err != nil {
			return nil, 0, nil, err
		}
		trees = append(trees, core.NamedTree{Name: fmt.Sprint("H", k), Root: root})
	}
	d, err := core.Build(trees)
	if err != nil {
		return nil, 0, nil, err
	}
	a := semiJoinAxes[next()%len(semiJoinAxes)]
	var names []string
	mask := next()
	for i, name := range []string{"a", "b", "c", "e", "f", "g", "r"} {
		if mask>>i&1 == 1 || (mask == 0 && i == 0) {
			names = append(names, name)
		}
	}
	return d, a, names, nil
}

// FuzzSemiJoin checks the sweep against the Definition 1 reference (for
// ancestor, the Parent and leaf-parent chains) on byte-decoded span
// configurations: every hierarchy's nodes in preorder and then the
// leaves, then all of them in reverse (a seek per candidate).
func FuzzSemiJoin(f *testing.F) {
	f.Add([]byte{7, 1, 40, 2, 9, 0, 17, 33, 5, 2, 0, 3, 1})
	f.Add([]byte{19, 4, 4, 0, 65, 3, 0, 2, 200, 10, 1, 1, 0, 2, 6})
	f.Add([]byte{11, 1, 0, 1, 100, 2, 8, 0, 4, 120, 1, 0, 0, 3, 3, 3})
	// The ancestor axis, over leaves and empty-span elements.
	f.Add([]byte{0xb9, 0x15, 0x3f, 0x89, 0xb0, 0x2b, 0x72, 0xa2, 0xb5, 0xba, 0x1f, 0xa0, 0x87, 0xef, 0xee, 0xe5, 0x1,
		0x7f, 0x46, 0x66, 0x5, 0x7e, 0xbd, 0xb, 0x6, 0x43, 0x3d, 0xa2, 0xcc, 0x6b, 0xa1, 0xb5, 0xbf, 0x91})
	f.Add([]byte{0xa3, 0x6a, 0x6b, 0xe1, 0x35, 0x83, 0x67, 0x3a, 0x7f, 0x42, 0xac, 0x24, 0x5, 0x9f, 0x75, 0x24, 0x45,
		0xd0, 0x7b, 0xbf, 0x6f, 0xbf, 0xae, 0xdd, 0x23, 0x93, 0x9e, 0x10, 0x3c, 0xb3, 0xf, 0x44, 0x76, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, a, names, err := fuzzDoc(data)
		if err != nil {
			t.Skip(err)
		}
		o := newSemiJoinOracle(d)
		ts := nameTargets(d, names, nil)
		var sj core.SemiJoin
		_, _, all := candidateRuns(d)
		if err := checkSemiJoin(o, &sj, ts, a, all); err != nil {
			t.Fatal(err)
		}
		rev := make([]*dom.Node, len(all))
		for i, n := range all {
			rev[len(all)-1-i] = n
		}
		if err := checkSemiJoin(o, &sj, ts, a, rev); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSemiJoinAncestorMatchesWalk checks the ancestor semi-join against
// the per-node walk (FindAxis, which follows walkAncestors) and the
// reference (EvalRef) for every node kind — the root, elements and
// text nodes of every hierarchy, attributes and leaves — on Boethius
// and a generated manuscript, for every element name and the root's,
// as name-run and filtered targets, with the candidates in document
// order and in reverse.
func TestSemiJoinAncestorMatchesWalk(t *testing.T) {
	gen, err := corpus.Generate(corpus.Params{Seed: 8, Words: 60, DamageRate: 0.3, RestoreRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*core.Document{"boethius": corpus.MustBoethius(), "generated": gen} {
		cands := probeContexts(d)
		rev := slices.Clone(cands)
		slices.Reverse(rev)
		names := map[string]bool{d.Root.Name: true}
		for _, h := range d.Hiers {
			for _, n := range h.Nodes {
				if n.Kind == dom.Element {
					names[n.Name] = true
				}
			}
		}
		var sj core.SemiJoin
		for target := range names {
			for _, filtered := range []bool{false, true} {
				var keep func(*dom.Node) bool
				if filtered {
					keep = func(m *dom.Node) bool { return m.Ord%2 == 0 }
				}
				ts := nameTargets(d, []string{target}, keep)
				for _, run := range [][]*dom.Node{cands, rev} {
					ts.load(&sj, d, core.AxisAncestor)
					for _, n := range run {
						found, ok := sj.Exists(n)
						walk, _ := d.FindAxis(nil, core.AxisAncestor, n, core.AllCandidates, 0, func(m *dom.Node) bool { return ts.nodes[m] })
						ref := slices.ContainsFunc(d.EvalRef(core.AxisAncestor, n), func(m *dom.Node) bool { return ts.nodes[m] })
						if walk != ref {
							t.Fatalf("%s: ancestor::%s of %s %q: walk %v, reference %v", name, target, n.Kind, n.Name, walk, ref)
						}
						undecidable := n == d.Root || n.Kind == dom.Attribute
						if ok == undecidable || ok && found != walk {
							t.Fatalf("%s: ancestor::%s (filtered %v) of %s %q [%d,%d): semi-join %v (decided %v), walk %v",
								name, target, filtered, n.Kind, n.Name, n.Start, n.End, found, ok, walk)
						}
					}
				}
			}
		}
	}
}
