package xquery

// The update half of the differential mutation sweep (the core half
// lives in core/update_test.go): seeded random update-expression
// sequences over generated corpora. After every successful batch,
//
//	(a) each hierarchy's incrementally maintained name index must be
//	    byte-identical to a from-scratch rebuild, and
//	(b) querying the mutated document must be node-identical to
//	    querying its serialize→reparse round-trip, for the paper
//	    queries I1–III* and seeded random path shapes.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

// paperSweepQueries are the paper's query shapes (I1, I2, II1, III1) as
// used by the benchmark suite; on generated corpora they may select
// nothing, which is still a comparison point.
var paperSweepQueries = []string{
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

// reparseRef rebuilds a document from its own hierarchy serializations.
func reparseRef(t *testing.T, d *core.Document) *core.Document {
	t.Helper()
	var trees []core.NamedTree
	for _, name := range d.HierarchyNames() {
		xml, err := d.Serialize(name)
		if err != nil {
			t.Fatalf("serialize %s: %v", name, err)
		}
		root, err := xmlparse.Parse(xml, xmlparse.Options{})
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

// nodeIdentical compares result sequences across two documents: atoms
// by value, nodes by their full structural identity (kind, name,
// hierarchy, span, preorder position).
func nodeIdentical(a, b Seq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		na, aok := a[i].(*dom.Node)
		nb, bok := b[i].(*dom.Node)
		if aok != bok {
			return false
		}
		if !aok {
			if a[i] != b[i] {
				return false
			}
			continue
		}
		if na.Kind != nb.Kind || na.Name != nb.Name || na.Hier != nb.Hier ||
			na.Start != nb.Start || na.End != nb.End ||
			na.Ord != nb.Ord || na.HierIndex != nb.HierIndex {
			return false
		}
		// Constructed nodes (result trees) have no structural identity;
		// compare their serialization.
		if na.Hier == "" && na.Kind == dom.Element && dom.XML(na) != dom.XML(nb) {
			return false
		}
	}
	return true
}

// randomWord picks the k-th w element of d's structure hierarchy, or
// nil.
func randomWord(d *core.Document, r *rand.Rand) (n *dom.Node, pos int) {
	h := d.HierarchyByName("structure")
	if h == nil {
		return nil, 0
	}
	var ws []*dom.Node
	for _, m := range h.Nodes {
		if m.Kind == dom.Element && m.Name == "w" {
			ws = append(ws, m)
		}
	}
	if len(ws) == 0 {
		return nil, 0
	}
	i := r.Intn(len(ws))
	return ws[i], i + 1
}

// genUpdate emits one random update-expression source for d. It may
// legitimately fail to apply (conflicting random edits).
func genUpdate(d *core.Document, r *rand.Rand, seq, k int) string {
	names := d.HierarchyNames()
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf(`rename node (//w)[%d] as "n%d_%d"`, 1+r.Intn(6), seq, k)
	case 1:
		return fmt.Sprintf(`delete node (//%s)[%d]`, []string{"w", "dmg", "res", "vline", "line"}[r.Intn(5)], 1+r.Intn(4))
	case 2:
		return fmt.Sprintf(`insert node i%d_%d into (//vline)[%d]`, seq, k, 1+r.Intn(3))
	case 3:
		side := "before"
		if r.Intn(2) == 0 {
			side = "after"
		}
		return fmt.Sprintf(`insert node p%d_%d %s (//w)[%d]`, seq, k, side, 1+r.Intn(6))
	case 4:
		// Same-length replacement of a word (always boundary-safe when
		// the word has no interior markup; may legitimately fail
		// otherwise — no: same length is always allowed).
		w, pos := randomWord(d, r)
		if w == nil {
			return `delete node (//dmg)[1]`
		}
		repl := make([]byte, w.End-w.Start)
		for i := range repl {
			repl[i] = byte('a' + r.Intn(6))
		}
		return fmt.Sprintf(`replace value of node (//w)[%d] with "%s"`, pos, repl)
	case 5:
		// Length-changing replacement: often crosses a boundary and
		// fails; that error path is part of the sweep.
		w, pos := randomWord(d, r)
		if w == nil {
			return `delete node (//res)[1]`
		}
		return fmt.Sprintf(`replace value of node (//w)[%d] with "%s"`, pos, strings.Repeat("z", 1+r.Intn(5)))
	case 6:
		return fmt.Sprintf(`insert hierarchy "sweep%d_%d" from analyze-string(/, "%s")/child::m`,
			seq, k, []string{"se", "ond", "e", "wi"}[r.Intn(4)])
	default:
		return fmt.Sprintf(`delete hierarchy "%s"`, names[r.Intn(len(names))])
	}
}

// TestUpdateDifferentialSweep is the ≥300-sequence language-level
// sweep.
func TestUpdateDifferentialSweep(t *testing.T) {
	pq := make([]*Query, len(paperSweepQueries))
	for i, src := range paperSweepQueries {
		pq[i] = MustCompile(src)
	}
	g := &qgen{r: rand.New(rand.NewSource(20260730))}

	const sequences = 300
	applied, failed := 0, 0
	for seq := 0; seq < sequences; seq++ {
		r := rand.New(rand.NewSource(int64(77000 + seq)))
		c := corpus.Generate(corpus.Params{Seed: uint64(40 + seq%11), Words: 16, DamageRate: 0.25, RestoreRate: 0.25})
		d, err := c.Document()
		if err != nil {
			t.Fatal(err)
		}
		// Warm every index so the incremental patch path is what the
		// sweep exercises.
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		// One batch of 1–3 primitives.
		var prims []string
		addHierUsed := false
		for k := 0; k < 1+r.Intn(3); k++ {
			p := genUpdate(d, r, seq, k)
			if strings.HasPrefix(p, "insert hierarchy") {
				if addHierUsed {
					continue // the <m> vocabulary can only join once
				}
				addHierUsed = true
			}
			prims = append(prims, p)
		}
		src := strings.Join(prims, ", ")
		u, err := CompileUpdate(src)
		if err != nil {
			t.Fatalf("seq %d: generated update does not parse: %q: %v", seq, src, err)
		}
		nd, _, err := u.Apply(d)
		if err != nil {
			// Conflicting random batches fail atomically, with a coded
			// error.
			if xe, ok := err.(*Error); !ok || xe.Code == "" {
				t.Fatalf("seq %d: %q: uncoded error %v", seq, src, err)
			}
			failed++
			continue
		}
		applied++

		// (a) incremental index maintenance == from-scratch rebuild.
		for _, h := range nd.Hiers {
			if got, want := h.IndexRuns(), h.RebuildIndexRuns(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %d: %q: hierarchy %q incremental index diverged:\n got %v\nwant %v", seq, src, h.Name, got, want)
			}
		}

		// (b) mutated document ≡ serialize→reparse reference under the
		// paper queries and random paths.
		ref := reparseRef(t, nd)
		queries := append([]*Query{}, pq...)
		for i := 0; i < 4; i++ {
			qsrc := g.path(2, "")
			q, err := Compile(qsrc)
			if err != nil {
				t.Fatalf("seq %d: random path %q: %v", seq, qsrc, err)
			}
			queries = append(queries, q)
		}
		for _, q := range queries {
			got, gerr := q.Eval(nd)
			want, werr := q.Eval(ref)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seq %d: %q: query %q error divergence: %v vs %v", seq, src, q.Source(), gerr, werr)
			}
			if gerr != nil {
				ge, gok := gerr.(*Error)
				we, wok := werr.(*Error)
				if !gok || !wok || ge.Code != we.Code {
					t.Fatalf("seq %d: query %q: error codes differ: %v vs %v", seq, q.Source(), gerr, werr)
				}
				continue
			}
			if !nodeIdentical(got, want) {
				t.Fatalf("seq %d: %q: query %q diverged:\n mutated: %s\n reparse: %s",
					seq, src, q.Source(), Serialize(got), Serialize(want))
			}
		}
	}
	if applied < sequences/2 {
		t.Fatalf("only %d/%d sequences applied (%d failed); generator too conflict-happy", applied, sequences, failed)
	}
	t.Logf("applied %d/%d sequences (%d legitimately failed)", applied, sequences, failed)
}

// TestPinnedVersionEvalUnderUpdates races evaluations of one pinned
// version against a writer publishing copy-on-write successors (and
// querying each fresh version, so its name indexes build lazily while
// the readers run): every pinned-version result must stay identical to
// the one taken before the writer started. Run with -race.
func TestPinnedVersionEvalUnderUpdates(t *testing.T) {
	base, err := corpus.Generate(corpus.Params{Seed: 5, Words: 60, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w[xancestor::dmg or string-length(string(.)) > 2]`)
	want, err := q.Eval(base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := q.Eval(base)
				if err != nil {
					t.Errorf("pinned-version eval: %v", err)
					return
				}
				if !nodeIdentical(got, want) {
					t.Error("pinned-version eval diverged under concurrent updates")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := base
		r := rand.New(rand.NewSource(99))
		for k := 0; k < 24; k++ {
			src := fmt.Sprintf(`rename node (//w)[%d] as "u%d"`, 1+r.Intn(8), k)
			u, err := CompileUpdate(src)
			if err != nil {
				t.Errorf("update %q: %v", src, err)
				return
			}
			nd, _, err := u.Apply(d)
			if err != nil {
				continue // conflicting random edit; atomic failure is fine
			}
			d = nd
			if _, err := q.Eval(d); err != nil {
				t.Errorf("fresh-version eval: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
