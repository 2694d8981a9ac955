package xquery

import (
	stdctx "context"
	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file holds the runtime of the engine (lower.go, push.go): the
// per-evaluation mutable state, the dynamic context, node-sequence
// helpers and the constructor content rules. The reference interpreter
// of the package tests runs on the same state and context.

// evalState is the per-evaluation mutable state. The active document
// pointer advances to overlay documents as analyze-string materializes
// temporary hierarchies (Definition 4); the base document is never
// touched, so the temporaries vanish when the evaluation ends — exactly
// the lifetime rule of Definition 4(5).
type evalState struct {
	doc     *core.Document
	tempSeq int
	// resolver backs doc() and collection(); nil outside a collection
	// evaluation context.
	resolver Resolver
	// extra holds the documents pulled in by doc()/collection() during
	// this evaluation, so axis steps on their nodes dispatch to the
	// owning document rather than the active one.
	extra []*core.Document

	// plan is the physical plan driving this evaluation (nil under the
	// tests' reference interpreter); explain, when non-nil, collects
	// per-operator cardinalities for EXPLAIN output. timed additionally
	// records per-operator wall time (EXPLAIN ANALYZE); it is only
	// consulted when explain is non-nil, so uninstrumented evaluations
	// pay nothing for it.
	plan    *Plan
	explain []opCard
	timed   bool

	// ctx cancels the evaluation (deadline or client disconnect); it is
	// polled every cancelStride items at the engine's chokepoints. nil
	// means uncancellable.
	ctx  stdctx.Context
	tick uint

	// axisBuf is the reusable axis-candidate buffer of the step pipeline
	// (AppendAxis destination), shared across context nodes and steps —
	// axisSegment consumes the candidates into the step output before
	// any nested evaluation can run.
	axisBuf []*dom.Node
	// ordSet is the reusable ordinal scatter buffer that restores
	// document order over interleaved step results.
	ordSet core.OrdinalSet

	// targets holds the survivor sets this evaluation built — filtered
	// semi-join targets, the sets membership tests read, root scans —
	// by key and document (survivors), so that a set no version memo
	// keeps is still built once per evaluation.
	targets map[sjKey][][]int32

	// args and items are the stacks pCall takes its argument sequences
	// from: a call pushes its arguments above its caller's and pops them
	// when the builtin returns, so calls allocate no argument storage.
	// items backs the one-item arguments passed without evaluation
	// (operandItem). ctxs is the free list of scratch contexts
	// (scratchContext).
	args  []Seq
	items []Item
	ctxs  []*context

	// sinks is the free list of sinks (push.go); slots holds each
	// operator's per-evaluation state by its plan slot.
	sinks []*sink
	slots []any

	// nums holds the numbers 1, 2, … as items (number).
	nums Seq
}

// sharedMemo returns d's version memo when this evaluation may use it:
// d is the active document and has a memo (core.Document.Memo), the
// plan is not forced (Plan.forced), and the evaluation is not
// instrumented, so EXPLAIN counts every operator the query runs.
func (st *evalState) sharedMemo(d *core.Document) *core.Memo {
	if st.explain != nil || st.plan.forced || d != st.doc {
		return nil
	}
	return d.Memo()
}

// scratchContext returns a context equal to *c from the evaluation's
// free list, for a strict sub-evaluation the caller finishes before
// releaseContext hands the context back.
func (st *evalState) scratchContext(c *context) *context {
	if n := len(st.ctxs); n > 0 {
		x := st.ctxs[n-1]
		st.ctxs = st.ctxs[:n-1]
		*x = *c
		return x
	}
	x := new(context)
	*x = *c
	return x
}

func (st *evalState) releaseContext(x *context) {
	*x = context{}
	st.ctxs = append(st.ctxs, x)
}

// number returns the one-item sequence of the number i ≥ 0 — a
// position or a size — as a window of the shared small numbers or, past
// them, of the evaluation's table of boxed numbers. The table's entries
// are never overwritten, so a caller may keep the window, and each
// number is boxed at most once per evaluation.
func (st *evalState) number(i int) Seq {
	if i < len(smallNumbers) {
		return numberSeq(i)
	}
	k := i - len(smallNumbers)
	for len(st.nums) <= k {
		st.nums = append(st.nums, float64(len(smallNumbers)+len(st.nums)))
	}
	return st.nums[k : k+1 : k+1]
}

// cancelStride is how many checkCancel ticks pass between ctx.Err()
// polls; chokepoints tick per item, so cancellation latency is bounded
// by a few hundred items of work.
const cancelStride = 256

// checkCancel polls the evaluation context at a strided rate and
// converts cancellation into an evaluation error. It is small enough to
// inline into the per-item loops that call it.
func (st *evalState) checkCancel() error {
	if st.tick++; st.ctx == nil || st.tick%cancelStride != 0 {
		return nil
	}
	return st.canceled()
}

func (st *evalState) canceled() error {
	if err := st.ctx.Err(); err != nil {
		return errf("MHXQ0002", "evaluation canceled: %v", err)
	}
	return nil
}

// addExtra records a document loaded by doc()/collection().
func (st *evalState) addExtra(d *core.Document) {
	if d == st.doc {
		return
	}
	for _, e := range st.extra {
		if e == d {
			return
		}
	}
	st.extra = append(st.extra, d)
}

// docFor returns the document that owns n: the active document, one of
// the documents loaded via doc()/collection(), or — for constructed
// nodes owned by no document — the active document. Matched extra
// entries move to the front (consecutive axis steps almost always stay
// in one document, so the scan is amortized O(1) even when
// collection() loaded many documents).
func (st *evalState) docFor(n *dom.Node) *core.Document {
	if len(st.extra) == 0 || st.doc.Owns(n) {
		return st.doc
	}
	for i, e := range st.extra {
		if e.Owns(n) {
			if i > 0 {
				copy(st.extra[1:], st.extra[:i])
				st.extra[0] = e
			}
			return e
		}
	}
	return st.doc
}

// rootFor implements the XPath rule that "/" selects the root of the
// tree containing the context item: the owning document's root for a
// node item, the active document's root otherwise.
func (st *evalState) rootFor(item Item) *dom.Node {
	if n, ok := item.(*dom.Node); ok {
		return st.docFor(n).Root
	}
	return st.doc.Root
}

// context is the dynamic context: context item, position/size, variable
// bindings (an immutable linked list, so child contexts are O(1)).
type context struct {
	st        *evalState
	item      Item
	pos, size int
	vars      *frame
}

type frame struct {
	name string
	val  Seq
	next *frame
}

func (c *context) bind(name string, val Seq) *context {
	nc := *c
	nc.vars = &frame{name: name, val: val, next: c.vars}
	return &nc
}

func (c *context) lookup(name string) (Seq, bool) {
	for f := c.vars; f != nil; f = f.next {
		if f.name == name {
			return f.val, true
		}
	}
	return nil, false
}

// stringOf is the string value of a node with the document shortcut: a
// document-owned element's string value is a slice of the base text
// (node.go: TextContent of a KyGODDAG node equals S[n.Start:n.End]), so
// no tree walk and no string building. Nodes without ordinals
// (constructed trees) fall back to TextContent.
func (st *evalState) stringOf(n *dom.Node) string {
	if n.Kind == dom.Element {
		d := st.docFor(n)
		if _, ok := d.OrdinalOf(n); ok {
			return d.Text[n.Start:n.End]
		}
	}
	return n.TextContent()
}

// atomize is the context-aware atomization: nodes become their string
// value via the base-text shortcut, atomics pass through.
func (c *context) atomize(it Item) Item {
	if n, ok := it.(*dom.Node); ok {
		return c.st.stringOf(n)
	}
	return it
}

// atomizeSeq atomizes every item, context-aware.
func (c *context) atomizeSeq(s Seq) Seq {
	out := make(Seq, len(s))
	for i, it := range s {
		out[i] = c.atomize(it)
	}
	return out
}

// stringItem is stringValue with the base-text shortcut for nodes.
func stringItem(c *context, it Item) string {
	if n, ok := it.(*dom.Node); ok {
		return c.st.stringOf(n)
	}
	return stringValue(it)
}

// evalNumber evaluates an operand to a single number; empty reports the
// empty sequence (which propagates as an empty result).
func evalNumber(c *context, n pnode, what string) (f float64, empty bool, err error) {
	s, err := c.st.sinkRun(n, c, false, stopAt(n, 2), false)
	first, k := s.first, s.n
	c.st.putSink(s)
	switch {
	case err != nil:
		return 0, false, err
	case k == 0:
		return 0, true, nil
	case k == 1:
		return toNumber(c.atomize(first)), false, nil
	}
	return 0, false, errf("XPTY0004", "%s operand is a sequence of more than one item", what)
}

// ---- node sequences --------------------------------------------------------

func toNodes(s Seq, op string) ([]*dom.Node, error) {
	out := make([]*dom.Node, 0, len(s))
	for _, it := range s {
		n, ok := it.(*dom.Node)
		if !ok {
			return nil, errf("XPTY0004", "operand of %q contains a non-node item", op)
		}
		out = append(out, n)
	}
	return out, nil
}

func nodesToSeq(ns []*dom.Node) Seq {
	out := make(Seq, len(ns))
	for i, n := range ns {
		out[i] = n
	}
	return out
}

func sortDedupe(items Seq) Seq {
	ns := make([]*dom.Node, len(items))
	for i, it := range items {
		ns[i] = it.(*dom.Node)
	}
	return nodesToSeq(core.SortDoc(ns))
}

func allNodes(items Seq) bool {
	for _, it := range items {
		if _, ok := it.(*dom.Node); !ok {
			return false
		}
	}
	return true
}

// evalPrimStep evaluates a primary-expression step ("$x/string(.)") once
// per input item.
func evalPrimStep(c *context, cur Seq, prim pnode, last bool) (Seq, error) {
	var out Seq
	c2 := c.st.scratchContext(c) // one scratch context, mutated per item
	defer c.st.releaseContext(c2)
	for i, it := range cur {
		c2.item, c2.pos, c2.size = it, i+1, len(cur)
		v, err := pEval(prim, c2)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	if allNodes(out) {
		out = sortDedupe(out)
	} else if !last {
		return nil, errf("XPTY0019", "intermediate path step yields atomic values")
	}
	return out, nil
}

// ---- order-by keys ---------------------------------------------------------

func compareOrderKeys(o orderSpec, a, b Seq) (int, bool) {
	ae, be := len(a) == 0, len(b) == 0
	if ae || be {
		if ae && be {
			return 0, true
		}
		least := -1
		if o.emptyGreatest {
			least = 1
		}
		if ae {
			return least, true
		}
		return -least, true
	}
	return compareForOrder(a[0], b[0])
}

// ---- constructor content rules ---------------------------------------------

// addTextTo appends character data to el, merging with a trailing text
// node.
func addTextTo(el *dom.Node, s string) {
	if s == "" {
		return
	}
	if k := len(el.Children); k > 0 && el.Children[k-1].Kind == dom.Text {
		el.Children[k-1].Data += s
		return
	}
	el.AppendChild(dom.NewText(s))
}

// appendContent adds the items of one enclosed expression to a
// constructed element per the XQuery rules: attribute nodes become
// attributes, text and leaf nodes merge into character data, other nodes
// are deep-copied, and adjacent atomic values are joined with single
// spaces.
func appendContent(el *dom.Node, v Seq) {
	prevAtomic := false
	for _, it := range v {
		if n, ok := it.(*dom.Node); ok {
			switch n.Kind {
			case dom.Attribute:
				el.SetAttr(n.Name, n.Data)
			case dom.Text, dom.Leaf:
				addTextTo(el, n.Data)
			default:
				el.AppendChild(n.Clone())
			}
			prevAtomic = false
			continue
		}
		if prevAtomic {
			addTextTo(el, " ")
		}
		addTextTo(el, stringValue(it))
		prevAtomic = true
	}
}

// validXMLName reports whether s is a well-formed XML name.
func validXMLName(s string) bool {
	name, end, ok := scanXMLName(s, 0)
	return ok && end == len(s) && name == s
}

// joinAtomics renders a sequence as the space-joined string values of
// its atomized items.
func joinAtomics(v Seq) string {
	var b strings.Builder
	for i, it := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(stringValue(atomize(it)))
	}
	return b.String()
}
