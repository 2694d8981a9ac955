package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

func parseXML(s string) (*dom.Node, error) {
	return xmlparse.Parse(s, xmlparse.Options{})
}

// buildRandom builds a small random multihierarchical document:
// hierarchy A tiles the text with <seg> elements, B wraps random spans in
// <mark>, C wraps random spans in <note>. Spans are arbitrary, so every
// overlap configuration occurs, and so do the degenerate shapes the
// axes special-case: nested same-name elements, empty elements, an
// equal-span parent/child pair within one hierarchy, and <note> spans
// equal to a <seg> span of another hierarchy.
func buildRandom(seed int64) (*core.Document, error) {
	r := rand.New(rand.NewSource(seed))
	textLen := 8 + r.Intn(24)
	var sb strings.Builder
	for i := 0; i < textLen; i++ {
		sb.WriteByte(byte('a' + r.Intn(4)))
	}
	text := sb.String()

	segEnd := map[int]int{} // <seg> start → end
	tile := func(tag string) string {
		var b strings.Builder
		b.WriteString("<r>")
		pos := 0
		for pos < len(text) {
			end := pos + 1 + r.Intn(6)
			if end > len(text) {
				end = len(text)
			}
			segEnd[pos] = end
			fmt.Fprintf(&b, "<%s>%s</%s>", tag, text[pos:end], tag)
			pos = end
		}
		b.WriteString("</r>")
		return b.String()
	}
	var wrap func(b *strings.Builder, tag string, lo, hi, depth int)
	wrap = func(b *strings.Builder, tag string, lo, hi, depth int) {
		pos := lo
		for pos < hi {
			switch k := r.Intn(12); {
			case k == 0:
				fmt.Fprintf(b, "<%s/>", tag) // empty element
			case k <= 4:
				end := pos + 1 + r.Intn(7)
				if e, ok := segEnd[pos]; ok && tag == "note" && r.Intn(2) == 0 {
					end = e // the span of a <seg>
				}
				if end > hi {
					end = hi
				}
				fmt.Fprintf(b, "<%s>", tag)
				switch {
				case k == 1 && depth < 2:
					wrap(b, tag, pos, end, depth+1) // nested same-name
				case k == 2:
					fmt.Fprintf(b, "<%s>%s</%s>", tag, text[pos:end], tag) // equal-span child
				default:
					b.WriteString(text[pos:end])
				}
				fmt.Fprintf(b, "</%s>", tag)
				pos = end
			default:
				end := pos + 1 + r.Intn(4)
				if end > hi {
					end = hi
				}
				b.WriteString(text[pos:end])
				pos = end
			}
		}
	}
	spans := func(tag string) string {
		var b strings.Builder
		b.WriteString("<r>")
		wrap(&b, tag, 0, len(text), 0)
		b.WriteString("</r>")
		return b.String()
	}
	ra, err := parseXML(tile("seg"))
	if err != nil {
		return nil, err
	}
	rb, err := parseXML(spans("mark"))
	if err != nil {
		return nil, err
	}
	rc, err := parseXML(spans("note"))
	if err != nil {
		return nil, err
	}
	return core.Build([]core.NamedTree{
		{Name: "A", Root: ra},
		{Name: "B", Root: rb},
		{Name: "C", Root: rc},
	})
}

func allNodesOf(d *core.Document) []*dom.Node {
	out := []*dom.Node{d.Root}
	for _, h := range d.Hiers {
		out = append(out, h.Nodes...)
	}
	out = append(out, d.Leaves...)
	return out
}

var extendedAxes = []core.Axis{
	core.AxisXAncestor, core.AxisXDescendant, core.AxisXFollowing,
	core.AxisXPreceding, core.AxisPrecedingOverlapping,
	core.AxisFollowingOverlapping, core.AxisOverlapping,
}

// TestQuickAxesMatchReference is the central property test: for random
// documents, all three implementations of every extended axis — the
// indexed default (Eval), the O(N) interval scan (EvalScan) and the
// literal set-based transcription of Definition 1 (EvalRef) — agree
// exactly, members and order.
func TestQuickAxesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		for _, n := range allNodesOf(d) {
			for _, ax := range extendedAxes {
				fast := d.Eval(ax, n)
				scan := d.EvalScan(ax, n)
				ref := d.EvalRef(ax, n)
				if len(fast) != len(ref) || len(scan) != len(ref) {
					t.Logf("seed %d: %s(%s %q): indexed %d / scan %d / ref %d nodes",
						seed, ax, n.Kind, n.TextContent(), len(fast), len(scan), len(ref))
					return false
				}
				for i := range fast {
					if fast[i] != ref[i] || scan[i] != ref[i] {
						t.Logf("seed %d: %s(%s %q): order mismatch at %d",
							seed, ax, n.Kind, n.TextContent(), i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionInvariants checks the leaf-partition invariants on
// random documents: bounds strictly sorted, leaves concatenate to S,
// every text node's leaves concatenate to its content, every leaf has one
// parent per covering hierarchy.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		for i := 1; i < len(d.Bounds); i++ {
			if d.Bounds[i-1] >= d.Bounds[i] {
				t.Logf("seed %d: bounds not strictly sorted", seed)
				return false
			}
		}
		var sb strings.Builder
		for _, l := range d.Leaves {
			sb.WriteString(l.Data)
		}
		if sb.String() != d.Text {
			t.Logf("seed %d: leaves do not concatenate to S", seed)
			return false
		}
		for _, h := range d.Hiers {
			for _, n := range h.Nodes {
				if n.Kind != dom.Text {
					continue
				}
				var tb strings.Builder
				for _, l := range d.LeavesOf(n) {
					tb.WriteString(l.Data)
				}
				if tb.String() != n.Data {
					t.Logf("seed %d: text node leaves mismatch", seed)
					return false
				}
			}
		}
		for _, l := range d.Leaves {
			seen := map[string]bool{}
			for _, p := range d.LeafParents(l) {
				if p.Kind != dom.Text || seen[p.Hier] {
					t.Logf("seed %d: bad leaf parents", seed)
					return false
				}
				seen[p.Hier] = true
				if !(p.Start <= l.Start && l.End <= p.End) {
					t.Logf("seed %d: leaf parent does not cover leaf", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeafRangeMatchesLeafSet checks interval leaves(x) == traversal
// leaves(x) for every node.
func TestQuickLeafRangeMatchesLeafSet(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		for _, n := range allNodesOf(d) {
			lo, hi := d.LeafRange(n)
			ref := d.LeafSetRef(n)
			if hi-lo != len(ref) {
				t.Logf("seed %d: leaf range size %d vs set %d for %s", seed, hi-lo, len(ref), n.Kind)
				return false
			}
			for i := lo; i < hi; i++ {
				if !ref[d.Leaves[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderIsTotal checks Definition 3's order is a strict total
// order over the node set.
func TestQuickOrderIsTotal(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		nodes := allNodesOf(d)
		for i, a := range nodes {
			for j, b := range nodes {
				c := dom.Compare(a, b)
				switch {
				case i == j && c != 0:
					return false
				case i != j && c == 0:
					t.Logf("seed %d: distinct nodes compare equal", seed)
					return false
				case c != -dom.Compare(b, a):
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickOverlayPreservesBase checks that adding a temporary hierarchy
// never changes any axis result computed against the base document.
func TestQuickOverlayPreservesBase(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		// Snapshot some axis results.
		type key struct {
			n  *dom.Node
			ax core.Axis
		}
		snap := map[key][]*dom.Node{}
		nodes := allNodesOf(d)
		for _, n := range nodes {
			for _, ax := range extendedAxes {
				snap[key{n, ax}] = d.Eval(ax, n)
			}
		}
		// Create an overlay over a random sub-span.
		r := rand.New(rand.NewSource(seed ^ 0x5a5a))
		if len(d.Text) < 2 {
			return true
		}
		s := r.Intn(len(d.Text) - 1)
		e := s + 1 + r.Intn(len(d.Text)-s-1)
		top := dom.NewElement("res")
		top.Start, top.End = s, e
		txt := dom.NewText(d.Text[s:e])
		txt.Start, txt.End = s, e
		top.AppendChild(txt)
		od, err := d.AddHierarchy("rest", top, true)
		if err != nil {
			t.Logf("seed %d: overlay: %v", seed, err)
			return false
		}
		od.Materialize() // allNodesOf reads od.Leaves directly
		// Base results unchanged.
		for _, n := range nodes {
			for _, ax := range extendedAxes {
				after := d.Eval(ax, n)
				before := snap[key{n, ax}]
				if len(after) != len(before) {
					return false
				}
				for i := range after {
					if after[i] != before[i] {
						return false
					}
				}
			}
		}
		// Overlay agrees with its own reference implementation too.
		for _, n := range allNodesOf(od) {
			for _, ax := range extendedAxes {
				fast := od.Eval(ax, n)
				ref := od.EvalRef(ax, n)
				if len(fast) != len(ref) {
					t.Logf("seed %d: overlay %s mismatch", seed, ax)
					return false
				}
				for i := range fast {
					if fast[i] != ref[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

var allAxes = []core.Axis{
	core.AxisChild, core.AxisDescendant, core.AxisDescendantOrSelf,
	core.AxisParent, core.AxisAncestor, core.AxisAncestorOrSelf,
	core.AxisFollowing, core.AxisPreceding, core.AxisFollowingSibling,
	core.AxisPrecedingSibling, core.AxisSelf, core.AxisAttribute,
	core.AxisXDescendant, core.AxisXAncestor, core.AxisXFollowing,
	core.AxisXPreceding, core.AxisPrecedingOverlapping,
	core.AxisFollowingOverlapping, core.AxisOverlapping,
}

// TestQuickAxisOrderContracts checks the order contract the query
// pipeline builds on: for every axis and every node of random documents,
// Eval emits a duplicate-free result that is strictly ascending
// (EmitsDocOrder) or strictly descending (EmitsReverseDocOrder) in the
// Definition 3 document order.
func TestQuickAxisOrderContracts(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		for _, n := range allNodesOf(d) {
			for _, ax := range allAxes {
				res := d.Eval(ax, n)
				want := -1 // strictly ascending
				if ax.Order() == core.EmitsReverseDocOrder {
					want = 1 // strictly descending
				}
				for i := 1; i < len(res); i++ {
					if c := dom.Compare(res[i-1], res[i]); c == 0 || (c > 0) != (want > 0) {
						t.Logf("seed %d: %s(%s) violates order contract at %d (cmp=%d)",
							seed, ax, n.Kind, i, c)
						return false
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

// TestQuickOrdinalIdentity checks OrdinalOf: a dense bijection over
// root + hierarchy nodes + leaves that is monotone in the Definition 3
// order, with attributes and foreign nodes excluded.
func TestQuickOrdinalIdentity(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		nodes := allNodesOf(d) // already root, hiers in order, leaves
		if len(nodes) != d.OrdinalSpace() {
			t.Logf("seed %d: %d nodes but ordinal space %d", seed, len(nodes), d.OrdinalSpace())
			return false
		}
		prev := -1
		for _, n := range nodes {
			ord, ok := d.OrdinalOf(n)
			if !ok {
				t.Logf("seed %d: node without ordinal", seed)
				return false
			}
			if ord <= prev || ord >= d.OrdinalSpace() {
				t.Logf("seed %d: ordinal %d not monotone/dense after %d", seed, ord, prev)
				return false
			}
			prev = ord
			for _, a := range n.Attrs {
				if _, ok := d.OrdinalOf(a); ok {
					t.Logf("seed %d: attribute has an ordinal", seed)
					return false
				}
			}
		}
		// Foreign nodes (same shape, different document) have none.
		d2, err := buildRandom(seed)
		if err != nil {
			return false
		}
		for _, n := range allNodesOf(d2) {
			if n == d2.Root {
				continue
			}
			if _, ok := d.OrdinalOf(n); ok {
				t.Logf("seed %d: foreign node got an ordinal", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrdinalSetMatchesSortDoc checks that the ordinal scatter set
// sorts and deduplicates exactly like SortDoc for ordinal-able nodes.
func TestQuickOrdinalSetMatchesSortDoc(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed ^ 0x0ddba11))
		nodes := allNodesOf(d)
		sample := make([]*dom.Node, 0, 40)
		for i := 0; i < 40; i++ {
			sample = append(sample, nodes[r.Intn(len(nodes))]) // duplicates likely
		}
		var os core.OrdinalSet
		os.Reset(d)
		for _, n := range sample {
			if !os.Add(n) {
				return false
			}
		}
		var got []*dom.Node
		os.Drain(func(n *dom.Node) { got = append(got, n) })
		want := core.SortDoc(append([]*dom.Node(nil), sample...))
		if len(got) != len(want) {
			t.Logf("seed %d: ordinal set %d nodes, SortDoc %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Reusable: a second batch on the drained set must work.
		os.Reset(d)
		if !os.Add(d.Root) || os.Len() != 1 {
			return false
		}
		os.Clear()
		return os.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickOverlayPartitionIncremental checks that the incremental
// overlay partition (partitionFrom) is field-for-field what the full
// recompute produces: bounds, leaf layer, parent links, empties and
// ordinal layout.
func TestQuickOverlayPartitionIncremental(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil {
			return false
		}
		if len(d.Text) < 2 {
			return true
		}
		r := rand.New(rand.NewSource(seed ^ 0x1ea5))
		s := r.Intn(len(d.Text) - 1)
		e := s + 1 + r.Intn(len(d.Text)-s-1)
		top := dom.NewElement("res")
		top.Start, top.End = s, e
		mid := s + (e-s)/2
		t1 := dom.NewText(d.Text[s:mid])
		t1.Start, t1.End = s, mid
		t2 := dom.NewText(d.Text[mid:e])
		t2.Start, t2.End = mid, e
		top.AppendChild(t1)
		top.AppendChild(t2)
		od, err := d.AddHierarchy("rest", top, true)
		if err != nil {
			t.Logf("seed %d: overlay: %v", seed, err)
			return false
		}
		od.Materialize() // partitionShape reads od.Leaves directly
		if got, want := partitionShape(od), partitionShape(od.FullPartitionForTest()); got != want {
			t.Logf("seed %d: incremental partition differs from full recompute", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// partitionShape renders a materialized document's partition: the
// boundary array, the ordinal space, and per leaf its span, text,
// ordinal and parent links (as hierarchy:preorder). Two documents over
// the same hierarchies render equal exactly when their partitions agree.
func partitionShape(doc *core.Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bounds %v space %d\n", doc.Bounds, doc.OrdinalSpace())
	for _, l := range doc.Leaves {
		ord, ok := doc.OrdinalOf(l)
		fmt.Fprintf(&b, "[%d,%d) %q ord=%d/%v parents=", l.Start, l.End, l.Data, ord, ok)
		for _, q := range doc.LeafParents(l) {
			fmt.Fprintf(&b, "%s:%d;", q.Hier, q.Ord)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// randomOverlayTop builds the top element of a random analyze-string
// style hierarchy over a sub-span of text: <res> holding text, an <m>
// (sometimes empty, exercising the empty-span list) and more text.
func randomOverlayTop(r *rand.Rand, text string) *dom.Node {
	s := r.Intn(len(text) - 1)
	e := s + 1 + r.Intn(len(text)-s-1)
	a := s + r.Intn(e-s+1)
	bnd := a + r.Intn(e-a+1)
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

// TestQuickLazyOverlayLeaves checks the lazy overlay leaf layer. On a
// random chain of 1–4 overlays: leaf-ownership probes made before any
// overlay layer exists build nothing and resolve base leaves through
// the Base chain; forcing the layers in a random order of depths builds
// exactly the unbuilt overlays at and below the forced one; and every
// layer equals a full partition recompute over the same hierarchies.
func TestQuickLazyOverlayLeaves(t *testing.T) {
	f := func(seed int64) bool {
		d, err := buildRandom(seed)
		if err != nil || len(d.Text) < 2 {
			return err == nil
		}
		r := rand.New(rand.NewSource(seed ^ 0x1a2f))
		chain := []*core.Document{d}
		for depth := 1 + r.Intn(4); len(chain) <= depth; {
			od, err := chain[len(chain)-1].AddHierarchy(fmt.Sprintf("rest%d", len(chain)), randomOverlayTop(r, d.Text), true)
			if err != nil {
				t.Logf("seed %d: overlay: %v", seed, err)
				return false
			}
			chain = append(chain, od)
		}
		builds := func() uint64 { return core.GlobalIndexStats().OverlayLeafBuilds }
		before := builds()
		for _, od := range chain[1:] {
			for _, l := range d.Leaves {
				_, hasOrd := od.OrdinalOf(l)
				parents := od.LeafParents(l)
				if od.Owns(l) || hasOrd || len(parents) != len(d.LeafParents(l)) ||
					(len(parents) > 0 && &parents[0] != &d.LeafParents(l)[0]) {
					t.Logf("seed %d: base leaf misresolved through an unbuilt overlay", seed)
					return false
				}
			}
		}
		if builds() != before {
			t.Logf("seed %d: ownership probes built an overlay leaf layer", seed)
			return false
		}
		built := make([]bool, len(chain))
		built[0] = true
		for _, i := range r.Perm(len(chain) - 1) {
			depth := i + 1
			want := 0
			for k := 1; k <= depth; k++ {
				if !built[k] {
					want++
					built[k] = true
				}
			}
			start := builds()
			od := chain[depth]
			od.Materialize()
			if got := int(builds() - start); got != want {
				t.Logf("seed %d: forcing depth %d built %d layers, want %d", seed, depth, got, want)
				return false
			}
			if got, full := partitionShape(od), partitionShape(od.FullPartitionForTest()); got != full {
				t.Logf("seed %d: lazy leaf layer at depth %d differs from a full recompute:\n%s\nvs\n%s", seed, depth, got, full)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGeneratedCorpusAxesAgree runs the fast-vs-reference check on one
// realistic generated manuscript (all four hierarchy shapes).
func TestGeneratedCorpusAxesAgree(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 7, Words: 40})
	d, err := c.Document()
	if err != nil {
		t.Fatal(err)
	}
	nodes := allNodesOf(d)
	for _, n := range nodes[:min(len(nodes), 150)] {
		for _, ax := range extendedAxes {
			fast := d.Eval(ax, n)
			ref := d.EvalRef(ax, n)
			if len(fast) != len(ref) {
				t.Fatalf("%s(%s): fast %d vs ref %d", ax, n.Kind, len(fast), len(ref))
			}
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("%s: order mismatch", ax)
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
