package xquery

// This file implements the update-expression layer over the core
// copy-on-write engine (core/update.go): a small XQuery-Update-style
// language whose target expressions are full extended-XQuery paths.
//
//	UpdateExpr  := UpdatePrim ("," UpdatePrim)*
//	UpdatePrim  := "insert" "node" Name ("into"|"before"|"after") ExprSingle
//	             | "delete" "node" ExprSingle
//	             | "rename" "node" ExprSingle "as" ExprSingle
//	             | "replace" "value" "of" "node" ExprSingle "with" ExprSingle
//	             | "insert" "hierarchy" StringLiteral "from" ExprSingle
//	             | "delete" "hierarchy" StringLiteral
//
// Semantics follow the XQuery Update Facility's pending-update-list
// model, adapted to multihierarchical documents: every target
// expression is evaluated against the SAME pre-update document version,
// the resulting primitives form one batch, and the batch applies
// atomically — either a whole new version is produced or nothing
// changes. Because base text is the document's backbone, "insert node"
// never adds text: "into" wraps the target's children in the new
// element, "before"/"after" insert an empty element at the target's
// edge. "insert hierarchy … from E" persists span-carrying nodes —
// typically the <m> matches of an analyze-string overlay — as a new
// named hierarchy, the durable form of the paper's temporary
// hierarchies.
//
// Error codes: XPST0003 for parse errors (the shared lexer), MHXQ0101
// for target-shape errors (non-node targets, multiple items where one
// is required), MHXQ0102 for update application errors (CMH vocabulary
// conflicts, boundary violations, conflicting edits).

import (
	stdctx "context"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// updKind identifies one update primitive form.
type updKind uint8

const (
	updInsertNode updKind = iota
	updDeleteNode
	updRenameNode
	updReplaceValue
	updAddHier
	updRemoveHier
)

// updOp is one compiled update primitive. Target and with are compiled
// as self-contained queries so they reuse the plans, execution and
// EXPLAIN machinery of the read side.
type updOp struct {
	kind   updKind
	mode   byte   // insert node: 'i' into, 'b' before, 'a' after
	name   string // element name (insert node) or hierarchy name
	target *Query
	with   *Query
}

// Update is a compiled update expression: an ordered list of
// primitives. An Update is immutable and safe for concurrent Apply
// against any number of documents.
type Update struct {
	src string
	ops []*updOp
}

// Source returns the update expression text.
func (u *Update) Source() string { return u.src }

// CompileUpdate parses an update expression.
func CompileUpdate(src string) (u *Update, err error) {
	defer func() {
		if r := recover(); r != nil {
			lp, ok := r.(lexPanic)
			if !ok {
				panic(r)
			}
			u, err = nil, lp.err
		}
	}()
	p := &parser{src: src, lex: &lexer{src: src}}
	p.advance()
	u = &Update{src: src}
	for {
		u.ops = append(u.ops, p.parseUpdatePrim(src))
		if p.tok.kind != tComma {
			break
		}
		p.advance()
	}
	if p.tok.kind != tEOF {
		p.fail("unexpected %s after update expression", p.tok.kind)
	}
	return u, nil
}

// subQuery parses one expression of the update src.
func (p *parser) subQuery(src string) *Query {
	return newQuery(src, p.parseExprSingle())
}

// parseUpdatePrim parses one update primitive at the current token.
func (p *parser) parseUpdatePrim(src string) *updOp {
	switch {
	case p.eatName("insert"):
		if p.eatName("node") {
			op := &updOp{kind: updInsertNode}
			op.name = p.expect(tName).text
			switch {
			case p.eatName("into"):
				op.mode = 'i'
			case p.eatName("before"):
				op.mode = 'b'
			case p.eatName("after"):
				op.mode = 'a'
			default:
				p.fail(`expected "into", "before" or "after"`)
			}
			op.target = p.subQuery(src)
			return op
		}
		if p.eatName("hierarchy") {
			op := &updOp{kind: updAddHier}
			op.name = p.expect(tString).text
			p.expectName("from")
			op.with = p.subQuery(src)
			return op
		}
		p.fail(`expected "node" or "hierarchy" after "insert"`)
	case p.eatName("delete"):
		if p.eatName("node") {
			return &updOp{kind: updDeleteNode, target: p.subQuery(src)}
		}
		if p.eatName("hierarchy") {
			return &updOp{kind: updRemoveHier, name: p.expect(tString).text}
		}
		p.fail(`expected "node" or "hierarchy" after "delete"`)
	case p.eatName("rename"):
		p.expectName("node")
		op := &updOp{kind: updRenameNode}
		op.target = p.subQuery(src)
		p.expectName("as")
		op.with = p.subQuery(src)
		return op
	case p.eatName("replace"):
		p.expectName("value")
		p.expectName("of")
		p.expectName("node")
		op := &updOp{kind: updReplaceValue}
		op.target = p.subQuery(src)
		p.expectName("with")
		op.with = p.subQuery(src)
		return op
	}
	p.fail("expected an update expression (insert/delete/rename/replace)")
	return nil
}

// UpdateReport summarizes one applied update: the primitive count, the
// resolved edit count, and the core engine's copy-on-write statistics.
type UpdateReport struct {
	Ops   int
	Edits int
	Stats core.UpdateStats
}

// Apply evaluates the update's target expressions against d (one
// snapshot — the pending-update-list model) and applies the resulting
// batch, returning the new document version. d itself is never
// mutated. A no-op update (all targets empty) returns d unchanged.
func (u *Update) Apply(d *core.Document) (*core.Document, *UpdateReport, error) {
	return u.ApplyContext(nil, d, nil)
}

// ApplyContext is Apply under a cancellation context and an optional
// resolver backing doc()/collection() inside target expressions.
func (u *Update) ApplyContext(ctx stdctx.Context, d *core.Document, r Resolver) (*core.Document, *UpdateReport, error) {
	var edits []core.Edit
	for _, op := range u.ops {
		ops, err := op.resolve(ctx, d, r)
		if err != nil {
			return nil, nil, err
		}
		edits = append(edits, ops...)
	}
	nd, stats, err := d.Apply(edits)
	if err != nil {
		return nil, nil, errf("MHXQ0102", "%v", err)
	}
	return nd, &UpdateReport{Ops: len(u.ops), Edits: len(edits), Stats: *stats}, nil
}

// evalNodes evaluates a target query to element (or, when allowText,
// text) nodes.
func (op *updOp) evalNodes(ctx stdctx.Context, d *core.Document, r Resolver, q *Query, allowText bool) ([]*dom.Node, error) {
	seq, err := q.EvalContext(ctx, d, nil, r)
	if err != nil {
		return nil, err
	}
	out := make([]*dom.Node, 0, len(seq))
	for _, it := range seq {
		n, ok := it.(*dom.Node)
		if !ok {
			return nil, errf("MHXQ0101", "update target yields a non-node item (%T)", it)
		}
		if n.Kind != dom.Element && !(allowText && n.Kind == dom.Text) {
			return nil, errf("MHXQ0101", "update target yields a %s node", n.Kind)
		}
		out = append(out, n)
	}
	return out, nil
}

// evalString evaluates a with-query to a single string.
func (op *updOp) evalString(ctx stdctx.Context, d *core.Document, r Resolver, q *Query, what string) (string, error) {
	seq, err := q.EvalContext(ctx, d, nil, r)
	if err != nil {
		return "", err
	}
	if len(seq) != 1 {
		return "", errf("MHXQ0101", "%s requires exactly one item, got %d", what, len(seq))
	}
	return stringValue(atomize(seq[0])), nil
}

// resolve turns one primitive into its core edits.
func (op *updOp) resolve(ctx stdctx.Context, d *core.Document, r Resolver) ([]core.Edit, error) {
	switch op.kind {
	case updDeleteNode:
		targets, err := op.evalNodes(ctx, d, r, op.target, false)
		if err != nil {
			return nil, err
		}
		edits := make([]core.Edit, len(targets))
		for i, t := range targets {
			edits[i] = core.Edit{Kind: core.EditDelete, Target: t}
		}
		return edits, nil
	case updRenameNode:
		targets, err := op.evalNodes(ctx, d, r, op.target, false)
		if err != nil {
			return nil, err
		}
		if len(targets) == 0 {
			return nil, nil
		}
		name, err := op.evalString(ctx, d, r, op.with, "rename")
		if err != nil {
			return nil, err
		}
		edits := make([]core.Edit, len(targets))
		for i, t := range targets {
			edits[i] = core.Edit{Kind: core.EditRename, Target: t, Name: name}
		}
		return edits, nil
	case updInsertNode:
		targets, err := op.evalNodes(ctx, d, r, op.target, false)
		if err != nil {
			return nil, err
		}
		edits := make([]core.Edit, len(targets))
		for i, t := range targets {
			switch op.mode {
			case 'i':
				edits[i] = core.Edit{Kind: core.EditWrap, Target: t, Name: op.name, From: 0, To: -1}
			case 'b':
				edits[i] = core.Edit{Kind: core.EditInsertBefore, Target: t, Name: op.name}
			default:
				edits[i] = core.Edit{Kind: core.EditInsertAfter, Target: t, Name: op.name}
			}
		}
		return edits, nil
	case updReplaceValue:
		targets, err := op.evalNodes(ctx, d, r, op.target, true)
		if err != nil {
			return nil, err
		}
		if len(targets) == 0 {
			return nil, nil
		}
		text, err := op.evalString(ctx, d, r, op.with, "replace value")
		if err != nil {
			return nil, err
		}
		edits := make([]core.Edit, len(targets))
		for i, t := range targets {
			edits[i] = core.Edit{Kind: core.EditReplaceText, Target: t, Text: text}
		}
		return edits, nil
	case updAddHier:
		// The source expression typically contains analyze-string: its
		// overlay lives only for this evaluation, but the span trees we
		// clone out of it survive as the new persistent hierarchy.
		nodes, err := op.evalNodes(ctx, d, r, op.with, false)
		if err != nil {
			return nil, err
		}
		if len(nodes) == 0 {
			return nil, errf("MHXQ0101", "insert hierarchy %q: source expression selected no elements", op.name)
		}
		tops := make([]*dom.Node, len(nodes))
		for i, n := range nodes {
			tops[i] = n.CloneSpan()
		}
		return []core.Edit{{Kind: core.EditAddHierarchy, Name: op.name, Tops: tops}}, nil
	case updRemoveHier:
		return []core.Edit{{Kind: core.EditRemoveHierarchy, Name: op.name}}, nil
	}
	return nil, errf("MHXQ0101", "unknown update primitive")
}

// Describe returns the update's physical operator tree: one node per
// primitive, with the lowered plan of each target/source expression
// beneath it — the EXPLAIN surface of the write path. The plans do not
// depend on d.
func (u *Update) Describe(d *core.Document) *ExplainOp {
	root := &ExplainOp{Op: "update"}
	for _, op := range u.ops {
		var detail string
		switch op.kind {
		case updInsertNode:
			detail = "insert node " + op.name + " " + map[byte]string{'i': "into", 'b': "before", 'a': "after"}[op.mode]
		case updDeleteNode:
			detail = "delete node"
		case updRenameNode:
			detail = "rename node"
		case updReplaceValue:
			detail = "replace value"
		case updAddHier:
			detail = "insert hierarchy " + op.name
		case updRemoveHier:
			detail = "delete hierarchy " + op.name
		}
		en := &ExplainOp{Op: "update-prim", Detail: detail}
		if op.target != nil {
			en.Children = append(en.Children, op.target.plan.Describe())
		}
		if op.with != nil {
			en.Children = append(en.Children, op.with.plan.Describe())
		}
		root.Children = append(root.Children, en)
	}
	return root
}
