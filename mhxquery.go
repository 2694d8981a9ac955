// Package mhxquery is a Go implementation of "Multihierarchical XQuery
// for Document-Centric XML" (Iacob & Dekhtyar, SIGMOD 2006).
//
// It manages documents annotated with several concurrent — possibly
// overlapping — markup hierarchies over the same base text, stores them
// in a KyGODDAG (the paper's generalization of the DOM tree), and
// queries them with an extended XQuery whose path language adds the
// multihierarchical axes xancestor, xdescendant, xfollowing, xpreceding,
// preceding-overlapping, following-overlapping and overlapping, the
// hierarchy-qualified node tests text(H), node(H), *(H) and leaf(), and
// the analyze-string function that materializes regular-expression
// matches as a temporary markup hierarchy.
//
// Quick start:
//
//	doc, err := mhxquery.Parse(
//	    mhxquery.Hierarchy{Name: "pages", XML: `<r><page>Hello wo</page><page>rld</page></r>`},
//	    mhxquery.Hierarchy{Name: "words", XML: `<r><w>Hello</w> <w>world</w></r>`},
//	)
//	// Which words are split across a page boundary?
//	out, err := doc.QueryString(`for $w in /descendant::w[overlapping::page] return string($w)`)
package mhxquery

import (
	"context"
	"errors"
	"fmt"
	"io"

	"mhxquery/internal/cmh"
	"mhxquery/internal/core"
	"mhxquery/internal/dom"
	"mhxquery/internal/store"
	"mhxquery/internal/xmlparse"
	"mhxquery/internal/xquery"
)

// Hierarchy names one markup hierarchy and its XML encoding. All
// hierarchies of a document must share the same root element name,
// encode exactly the same text content, and use pairwise-disjoint
// element vocabularies (the CMH conditions of the paper's Section 3).
type Hierarchy struct {
	Name string
	XML  string
	// DTD, when non-empty, holds <!ELEMENT>/<!ATTLIST> declarations the
	// encoding must be valid against (content models are checked with
	// Brzozowski derivatives; see internal/cmh).
	DTD string
}

// Document is a parsed multihierarchical document, stored as a KyGODDAG.
// A Document is immutable and safe for concurrent use; Update produces
// a NEW version (copy-on-write) and leaves the receiver untouched, so
// readers holding older versions — including in-flight Streams — keep
// evaluating against their snapshot.
type Document struct {
	g *core.Document
}

// Parse parses each hierarchy encoding and builds the KyGODDAG.
func Parse(hierarchies ...Hierarchy) (*Document, error) {
	if len(hierarchies) == 0 {
		return nil, fmt.Errorf("mhxquery: no hierarchies given")
	}
	trees := make([]core.NamedTree, len(hierarchies))
	for i, h := range hierarchies {
		root, err := xmlparse.Parse(h.XML, xmlparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("mhxquery: hierarchy %q: %w", h.Name, err)
		}
		if h.DTD != "" {
			dtd, err := cmh.ParseDTD(h.DTD)
			if err != nil {
				return nil, fmt.Errorf("mhxquery: hierarchy %q: %w", h.Name, err)
			}
			if errs := dtd.Validate(root); len(errs) > 0 {
				return nil, fmt.Errorf("mhxquery: hierarchy %q is invalid: %w (and %d more)",
					h.Name, errs[0], len(errs)-1)
			}
		}
		trees[i] = core.NamedTree{Name: h.Name, Root: root}
	}
	g, err := core.Build(trees)
	if err != nil {
		return nil, err
	}
	return &Document{g: g}, nil
}

// Text returns the base text S shared by all hierarchies.
func (d *Document) Text() string { return d.g.Text }

// Hierarchies returns the hierarchy names in document order.
func (d *Document) Hierarchies() []string { return d.g.HierarchyNames() }

// Stats summarizes the KyGODDAG's composition.
type Stats struct {
	Hierarchies int
	Elements    int
	Texts       int
	Leaves      int
	LeafEdges   int
	TreeEdges   int
}

// Stats computes composition statistics (hierarchies, element/text/leaf
// node counts, edge counts).
func (d *Document) Stats() Stats {
	s := d.g.Stats()
	return Stats{
		Hierarchies: s.Hierarchies,
		Elements:    s.Elements,
		Texts:       s.Texts,
		Leaves:      s.Leaves,
		LeafEdges:   s.LeafEdges,
		TreeEdges:   s.TreeEdges,
	}
}

// DOT renders the KyGODDAG as a Graphviz digraph (the paper's Figure 2).
func (d *Document) DOT() string { return d.g.DOT() }

// LeafTable renders the leaf partition as a text table.
func (d *Document) LeafTable() string { return d.g.LeafTable() }

// SerializeHierarchy re-serializes one hierarchy back to XML.
func (d *Document) SerializeHierarchy(name string) (string, error) {
	return d.g.Serialize(name)
}

// Save writes a compact binary image of the document (base text stored
// once, markup structure with interned names). Read it back with
// ReadDocument.
func (d *Document) Save(w io.Writer) error { return store.Encode(w, d.g) }

// ReadDocument loads a document from a binary image produced by Save.
// The whole image is validated up front; node storage is then built
// lazily, per hierarchy, on first structural access.
func ReadDocument(r io.Reader) (*Document, error) {
	g, err := store.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Document{g: g}, nil
}

// Leaves returns the leaf layer in text order.
func (d *Document) Leaves() []Node {
	d.g.Materialize()
	out := make([]Node, len(d.g.Leaves))
	for i, l := range d.g.Leaves {
		out[i] = Node{n: l, d: d.g}
	}
	return out
}

// Version returns the document's update revision: 0 for a freshly
// parsed (or loaded) document, incremented by every Update.
func (d *Document) Version() uint64 { return d.g.Rev }

// UpdateStats reports what one Update did: how many primitives and
// resolved edits were applied, and the copy-on-write accounting of the
// underlying engine (what was shared versus copied, whether name
// indexes were patched incrementally or left to rebuild).
type UpdateStats struct {
	// Ops is the number of update primitives in the expression; Edits
	// the number of node-level edits they resolved to.
	Ops, Edits int
	// HierarchiesShared / HierarchiesCopied / NodesCopied expose the
	// copy-on-write granularity: untouched hierarchies are shared with
	// the previous version wholesale.
	HierarchiesShared, HierarchiesCopied, NodesCopied int
	// HierarchiesAdded / HierarchiesRemoved count layer-level changes.
	HierarchiesAdded, HierarchiesRemoved int
	// IndexesPatched counts structural name indexes maintained
	// incrementally from the previous version; IndexesLazy those left
	// to the lazy from-scratch build.
	IndexesPatched, IndexesLazy int
	// BoundsRecomputed reports whether the leaf partition's boundary
	// array needed full recomputation (boundary-retiring edits) rather
	// than an incremental merge.
	BoundsRecomputed bool
}

func updateStatsFrom(rep *xquery.UpdateReport) UpdateStats {
	return UpdateStats{
		Ops:                rep.Ops,
		Edits:              rep.Edits,
		HierarchiesShared:  rep.Stats.HierarchiesShared,
		HierarchiesCopied:  rep.Stats.HierarchiesCopied,
		NodesCopied:        rep.Stats.NodesCopied,
		HierarchiesAdded:   rep.Stats.HierarchiesAdded,
		HierarchiesRemoved: rep.Stats.HierarchiesRemoved,
		IndexesPatched:     rep.Stats.IndexesPatched,
		IndexesLazy:        rep.Stats.IndexesLazy,
		BoundsRecomputed:   rep.Stats.BoundsRecomputed,
	}
}

// Update applies an update expression to the document and returns the
// resulting NEW version; the receiver is never mutated. The language is
// a small XQuery-Update-style surface whose targets are full extended
// XQuery expressions:
//
//	insert node NAME into|before|after TARGET
//	delete node TARGET
//	rename node TARGET as EXPR
//	replace value of node TARGET with EXPR
//	insert hierarchy "NAME" from EXPR
//	delete hierarchy "NAME"
//
// "insert node … into" wraps the target's children in the new element
// (base text is immutable structure, so inserts never add text);
// "before"/"after" insert an empty element at the target's edge;
// "insert hierarchy … from" persists span-carrying nodes — typically
// analyze-string matches — as a durable named hierarchy. All targets
// are evaluated against the pre-update version and the batch applies
// atomically. Comma-separated primitives form one batch.
func (d *Document) Update(src string) (*Document, UpdateStats, error) {
	return d.UpdateContext(context.Background(), src)
}

// UpdateContext is Update under a cancellation context (bounding the
// evaluation of target expressions).
func (d *Document) UpdateContext(ctx context.Context, src string) (*Document, UpdateStats, error) {
	u, err := xquery.CompileUpdate(src)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	nd, rep, err := u.ApplyContext(ctx, d.g, nil)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	return &Document{g: nd}, updateStatsFrom(rep), nil
}

// Select evaluates a path expression (the paper's extended path language
// of Definitions 1–2, a strict subset of the query language) and returns
// the selected nodes in the Definition 3 document order. It errors if
// the expression yields non-node items.
func (d *Document) Select(path string) ([]Node, error) {
	res, err := d.Query(path)
	if err != nil {
		return nil, err
	}
	out := make([]Node, res.Len())
	for i := 0; i < res.Len(); i++ {
		v := res.Item(i)
		if !v.IsNode() {
			return nil, fmt.Errorf("mhxquery: Select: item %d is not a node", i+1)
		}
		out[i] = *v.Node()
	}
	return out, nil
}

// Query compiles and evaluates an extended-XQuery expression against the
// document.
func (d *Document) Query(src string) (Sequence, error) {
	q, err := Compile(src)
	if err != nil {
		return Sequence{}, err
	}
	return q.Eval(d)
}

// QueryString is Query followed by XML serialization of the result, the
// way the paper prints query outputs.
func (d *Document) QueryString(src string) (string, error) {
	res, err := d.Query(src)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

// Stream compiles src and prepares a streaming evaluation, which
// pushes its result items to the consumer (Each, Take): a consumer
// that stops after n items does only the work those n items required
// (the engine's early exit). ctx may be nil; when it is canceled the
// evaluation stops with an error within a bounded number of items.
func (d *Document) Stream(ctx context.Context, src string) (*Stream, error) {
	q, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return q.Stream(ctx, d), nil
}

// Stream is one deferred evaluation whose result items are pushed to
// the consumer on the caller's goroutine, each wrapped as a one-item
// Sequence (so callers render it with the usual String/Text). It needs
// no Close. A Stream is single-use: Each, Take and Next consume it, and
// a consumed stream yields nothing more.
type Stream struct {
	s    *xquery.Stream
	d    *core.Document
	rest xquery.Seq // items Next has collected but not handed out
}

// Next returns the next result item as a one-item Sequence. ok is
// false when the stream is exhausted.
//
// Deprecated: Next is not lazy. Its first call collects the rest of the
// stream (an evaluation error is returned then, in place of any item)
// and each call hands out one collected item. Use Each or Take, which
// stop the evaluation early.
func (s *Stream) Next() (item Sequence, ok bool, err error) {
	if len(s.rest) == 0 {
		if s.rest, err = s.s.Take(0); err != nil || len(s.rest) == 0 {
			return Sequence{}, false, err
		}
	}
	it := s.rest[0]
	s.rest = s.rest[1:]
	return Sequence{s: xquery.Seq{it}, d: s.d}, true, nil
}

// Each pushes the items, each as a one-item Sequence, to yield in order
// until yield returns false, and consumes the stream.
func (s *Stream) Each(yield func(Sequence) bool) error {
	return s.s.Each(func(it xquery.Item) bool {
		return yield(Sequence{s: xquery.Seq{it}, d: s.d})
	})
}

// Take collects up to n items (all when n <= 0) into a Sequence and
// consumes the stream. Evaluation stops once n items are produced —
// the upstream operators do no further work.
func (s *Stream) Take(n int) (Sequence, error) {
	out, err := s.s.Take(n)
	if err != nil {
		return Sequence{}, err
	}
	return Sequence{s: out, d: s.d}, nil
}

// IsCanceled reports whether err is an evaluation stopped by its
// context (deadline exceeded or client disconnect).
func IsCanceled(err error) bool {
	var xe *xquery.Error
	return errors.As(err, &xe) && xe.Code == "MHXQ0002"
}

// Explain compiles and evaluates src with per-operator instrumentation,
// returning the result together with the physical operator tree: which
// steps ran as structural-index scans versus axis-step scans, and the
// cardinalities each operator observed.
func (d *Document) Explain(src string) (Sequence, *PlanOp, error) {
	q, err := Compile(src)
	if err != nil {
		return Sequence{}, nil, err
	}
	return q.Explain(d)
}

// ExplainAnalyze is Explain upgraded to a true EXPLAIN ANALYZE: the
// query runs with wall-time instrumentation and each operator of the
// returned tree carries its observed time (PlanOp.Nanos, inclusive of
// children); the root's Nanos is the total query wall time.
func (d *Document) ExplainAnalyze(src string) (Sequence, *PlanOp, error) {
	q, err := Compile(src)
	if err != nil {
		return Sequence{}, nil, err
	}
	return q.ExplainAnalyze(d)
}

// PlanOp is one node of the physical operator tree Explain returns.
// Op is the operator ("query", "path", "index-scan", "axis-step",
// "primary", "semi-join", "exists-probe", and one per other expression
// kind), Detail the rendered step, Index whether the operator
// reads the structural name index. Calls, InRows and OutRows are the
// cardinalities observed during the instrumented evaluation:
// how often the operator ran, and how many context items it consumed
// and result items it emitted in total. Nanos is the observed wall
// time under ExplainAnalyze (zero under plain Explain), inclusive of
// the operator's children.
type PlanOp struct {
	Op       string    `json:"op"`
	Detail   string    `json:"detail,omitempty"`
	Index    bool      `json:"index"`
	Calls    int64     `json:"calls,omitempty"`
	InRows   int64     `json:"in_rows,omitempty"`
	OutRows  int64     `json:"out_rows,omitempty"`
	Nanos    int64     `json:"nanos,omitempty"`
	Children []*PlanOp `json:"children,omitempty"`
}

func planOpFrom(e *xquery.ExplainOp) *PlanOp {
	if e == nil {
		return nil
	}
	out := &PlanOp{
		Op: e.Op, Detail: e.Detail, Index: e.Index,
		Calls: e.Calls, InRows: e.InRows, OutRows: e.OutRows,
		Nanos: e.Nanos,
	}
	for _, k := range e.Children {
		out.Children = append(out.Children, planOpFrom(k))
	}
	return out
}

// Query is a compiled extended-XQuery expression, reusable across
// documents and safe for concurrent evaluation.
type Query struct {
	q *xquery.Query
}

// Compile parses an extended-XQuery expression.
func Compile(src string) (*Query, error) {
	q, err := xquery.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustCompile is Compile panicking on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Source returns the query text.
func (q *Query) Source() string { return q.q.Source() }

// Explain evaluates the query with per-operator instrumentation,
// returning the result and the physical operator tree (see
// Document.Explain).
func (q *Query) Explain(d *Document) (Sequence, *PlanOp, error) {
	s, tree, err := q.q.Explain(d.g, nil, nil)
	if err != nil {
		return Sequence{}, nil, err
	}
	return Sequence{s: s, d: d.g}, planOpFrom(tree), nil
}

// ExplainAnalyze evaluates the query with cardinality and wall-time
// instrumentation, returning the result and the analyzed operator tree
// (see Document.ExplainAnalyze).
func (q *Query) ExplainAnalyze(d *Document) (Sequence, *PlanOp, error) {
	s, tree, err := q.q.ExplainAnalyze(d.g, nil, nil)
	if err != nil {
		return Sequence{}, nil, err
	}
	return Sequence{s: s, d: d.g}, planOpFrom(tree), nil
}

// Eval evaluates the query. Temporary hierarchies created by
// analyze-string are private to the evaluation; the document is never
// mutated.
func (q *Query) Eval(d *Document) (Sequence, error) {
	s, err := q.q.Eval(d.g)
	if err != nil {
		return Sequence{}, err
	}
	return Sequence{s: s, d: d.g}, nil
}

// Stream prepares a streaming evaluation of the compiled query (see
// Document.Stream). ctx may be nil.
func (q *Query) Stream(ctx context.Context, d *Document) *Stream {
	return &Stream{s: q.q.Stream(ctx, d.g, nil, nil), d: d.g}
}

// EvalWith evaluates the query with externally bound variables.
// Supported value types: string, bool, float64, int, []string, and
// slices of any of those.
func (q *Query) EvalWith(d *Document, vars map[string]any) (Sequence, error) {
	conv := make(map[string]xquery.Seq, len(vars))
	for name, v := range vars {
		seq, err := toSeq(v)
		if err != nil {
			return Sequence{}, fmt.Errorf("mhxquery: variable $%s: %w", name, err)
		}
		conv[name] = seq
	}
	s, err := q.q.EvalWithVars(d.g, conv)
	if err != nil {
		return Sequence{}, err
	}
	return Sequence{s: s, d: d.g}, nil
}

func toSeq(v any) (xquery.Seq, error) {
	switch x := v.(type) {
	case string:
		return xquery.Seq{x}, nil
	case bool:
		return xquery.Seq{x}, nil
	case float64:
		return xquery.Seq{x}, nil
	case int:
		return xquery.Seq{float64(x)}, nil
	case []string:
		out := make(xquery.Seq, len(x))
		for i, s := range x {
			out[i] = s
		}
		return out, nil
	case []any:
		var out xquery.Seq
		for _, e := range x {
			s, err := toSeq(e)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported value type %T", v)
}

// Sequence is a query result.
type Sequence struct {
	s xquery.Seq
	d *core.Document
}

// Len returns the number of items.
func (s Sequence) Len() int { return len(s.s) }

// String serializes the sequence as the paper prints results: nodes as
// XML, atomic values as text, one space between adjacent atomic items.
func (s Sequence) String() string { return xquery.Serialize(s.s) }

// Text serializes the sequence as plain text (string values, no markup).
func (s Sequence) Text() string { return xquery.SerializeText(s.s) }

// Item returns the i-th item as a Value.
func (s Sequence) Item(i int) Value {
	it := s.s[i]
	if n, ok := it.(*dom.Node); ok {
		return Value{node: &Node{n: n, d: s.d}}
	}
	return Value{atom: it}
}

// Strings returns the string value of every item.
func (s Sequence) Strings() []string {
	out := make([]string, len(s.s))
	for i := range s.s {
		out[i] = s.Item(i).Text()
	}
	return out
}

// Value is one result item: either a node or an atomic value.
type Value struct {
	node *Node
	atom any
}

// IsNode reports whether the value is a node.
func (v Value) IsNode() bool { return v.node != nil }

// Node returns the node, or nil for atomic values.
func (v Value) Node() *Node { return v.node }

// Text returns the string value.
func (v Value) Text() string {
	if v.node != nil {
		return v.node.Text()
	}
	switch a := v.atom.(type) {
	case string:
		return a
	case bool:
		if a {
			return "true"
		}
		return "false"
	}
	return fmt.Sprint(v.atom)
}

// Node is a read-only view of a KyGODDAG or result-tree node.
type Node struct {
	n *dom.Node
	d *core.Document
}

// Kind returns the node kind name ("element", "text", "leaf", ...).
func (n *Node) Kind() string { return n.n.Kind.String() }

// Name returns the element/attribute name ("" for text and leaves).
func (n *Node) Name() string { return n.n.Name }

// Text returns the node's string value.
func (n *Node) Text() string { return n.n.TextContent() }

// Hierarchy returns the markup hierarchy the node belongs to ("" for the
// shared root, leaves and constructed nodes).
func (n *Node) Hierarchy() string { return n.n.Hier }

// Span returns the node's byte span of the base text.
func (n *Node) Span() (start, end int) { return n.n.Start, n.n.End }

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) { return n.n.Attr(name) }

// XML serializes the node.
func (n *Node) XML() string { return dom.XML(n.n) }
